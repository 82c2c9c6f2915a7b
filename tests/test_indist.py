import json
import math
import random

import numpy as np
import pytest

from privmetrics import indist as ind
from privmetrics.core import JointDistribution as J, parse_mechanism
from privmetrics.errors import DomainError, EmptyError, ParamError, SchemaError, ShapeError


def rr_mechanism(p_keep):
    matrix = [[p_keep, 1 - p_keep], [1 - p_keep, p_keep]]
    return parse_mechanism(
        json.dumps({"inputs": ["yes", "no"], "outputs": [0, 1], "matrix": matrix})
    )


NR = ind.NeighborRelation((("yes", "no"),))


def random_mechanism(rng, n_in=None, n_out=None, zeros=False):
    n = n_in or int(rng.integers(2, 5))
    k = n_out or int(rng.integers(2, 5))
    mat = rng.random((n, k)) + 1e-3
    if zeros:
        mask = rng.random((n, k)) < 0.2
        mat[mask] = 0.0
        mat[mat.sum(axis=1) == 0, 0] = 1.0
    mat /= mat.sum(axis=1, keepdims=True)
    return parse_mechanism(
        json.dumps({"inputs": list(range(n)), "outputs": list(range(k)), "matrix": mat.tolist()})
    )


def full_relation(m):
    ids = m.inputs
    return ind.NeighborRelation(tuple((a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]))


def merge_outputs(m, rng):
    """Post-process: random surjective merge of output symbols."""
    k = len(m.outputs)
    k2 = int(rng.integers(1, k + 1))
    assignment = [int(rng.integers(0, k2)) for _ in range(k)]
    merged = []
    for row in m.matrix:
        new = [0.0] * k2
        for y, v in enumerate(row):
            new[assignment[y]] += v
        merged.append(new)
    return parse_mechanism(
        json.dumps({"inputs": m.inputs, "outputs": list(range(k2)), "matrix": merged})
    )


class TestDpEpsilon:
    def test_identical_rows(self):
        matrix = [[0.5, 0.5], [0.5, 0.5]]
        m = parse_mechanism(
            json.dumps({"inputs": ["yes", "no"], "outputs": [0, 1], "matrix": matrix})
        )
        assert ind.dp_epsilon(m, NR)["eps_eff"] == 0.0

    def test_randomized_response(self):
        assert ind.dp_epsilon(rr_mechanism(0.75), NR)["eps_eff"] == pytest.approx(
            math.log(3), abs=1e-12
        )

    def test_deterministic_distinct(self):
        matrix = [[1, 0], [0, 1]]
        m = parse_mechanism(
            json.dumps({"inputs": ["yes", "no"], "outputs": [0, 1], "matrix": matrix})
        )
        assert ind.dp_epsilon(m, NR)["eps_eff"] == math.inf

    def test_unknown_input(self):
        with pytest.raises(SchemaError):
            ind.dp_epsilon(rr_mechanism(0.75), ind.NeighborRelation((("yes", "zzz"),)))

    def test_post_processing_never_increases(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            m = random_mechanism(rng, zeros=True)
            nr = full_relation(m)
            before = ind.dp_epsilon(m, nr)["eps_eff"]
            after = ind.dp_epsilon(merge_outputs(m, rng), nr)["eps_eff"]
            assert after <= before + 1e-9 or math.isinf(before)

    def test_sequential_composition(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            m1 = random_mechanism(rng, n_in=2)
            m2 = random_mechanism(rng, n_in=2)
            nr = ind.NeighborRelation((m1.inputs[:2],))
            eps1 = ind.dp_epsilon(m1, nr)["eps_eff"]
            eps2 = ind.dp_epsilon(m2, nr)["eps_eff"]
            prod_rows = []
            for r1, r2 in zip(m1.matrix, m2.matrix):
                prod_rows.append([a * b for a in r1 for b in r2])
            outputs = list(range(len(prod_rows[0])))
            prod = parse_mechanism(
                json.dumps({"inputs": m1.inputs, "outputs": outputs, "matrix": prod_rows})
            )
            assert ind.dp_epsilon(prod, nr)["eps_eff"] <= eps1 + eps2 + 1e-9


class TestAdpDelta:
    def test_identical_rows(self):
        matrix = [[0.5, 0.5], [0.5, 0.5]]
        m = parse_mechanism(
            json.dumps({"inputs": ["yes", "no"], "outputs": [0, 1], "matrix": matrix})
        )
        for eps in (0.0, 0.5, 3.0):
            assert ind.adp_delta(m, NR, eps) == 0.0

    def test_disjoint_supports(self):
        matrix = [[1, 0], [0, 1]]
        m = parse_mechanism(
            json.dumps({"inputs": ["yes", "no"], "outputs": [0, 1], "matrix": matrix})
        )
        assert ind.adp_delta(m, NR, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_pure_dp_already_holds(self):
        assert ind.adp_delta(rr_mechanism(0.75), NR, math.log(3)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_eps_zero_is_total_variation(self):
        m = rr_mechanism(0.75)
        assert ind.adp_delta(m, NR, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_negative_eps(self):
        with pytest.raises(ParamError):
            ind.adp_delta(rr_mechanism(0.75), NR, -1.0)

    def test_non_increasing_in_eps(self):
        rng = np.random.default_rng(57)
        for _ in range(50):
            m = random_mechanism(rng, zeros=True)
            nr = full_relation(m)
            deltas = [ind.adp_delta(m, nr, e) for e in (0.0, 0.2, 0.5, 1.0, 2.0)]
            for a, b in zip(deltas, deltas[1:]):
                assert b <= a + 1e-12

    def test_zero_at_eps_eff(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            m = random_mechanism(rng)
            nr = full_relation(m)
            eps = ind.dp_epsilon(m, nr)["eps_eff"]
            assert ind.adp_delta(m, nr, eps) <= 1e-12
            assert ind.adp_delta(m, nr, eps + 0.1) <= 1e-12

    @pytest.mark.parametrize("eps", [1000.0, 1e308, math.inf])
    def test_eps_past_exp_overflow_is_the_limit(self, eps):
        # exp(eps) overflows (or is inf), and inf * 0 is NaN: the limit is
        # the mass one row puts where the other row has none.
        for matrix, limit in (([[1, 0], [0, 1]], 1.0), ([[0.5, 0.3, 0.2], [0.9, 0.1, 0.0]], 0.2)):
            outputs = list(range(len(matrix[0])))
            m = parse_mechanism(
                json.dumps({"inputs": ["yes", "no"], "outputs": outputs, "matrix": matrix})
            )
            assert ind.adp_delta(m, NR, eps) == ind.adp_delta(m, NR, 700.0) == limit

    def test_rows_looked_up_by_input(self):
        matrix = [[0.25, 0.75], [0.5, 0.5], [0.75, 0.25]]
        m = parse_mechanism(
            json.dumps({"inputs": ["a", "b", "c"], "outputs": [0, 1], "matrix": matrix})
        )
        nr = ind.NeighborRelation((("c", "a"),))
        assert ind.dp_epsilon(m, nr)["eps_eff"] == pytest.approx(math.log(3), abs=1e-12)
        assert ind.adp_delta(m, nr, 0.1) == pytest.approx(0.75 - math.exp(0.1) * 0.25, abs=1e-12)

    def test_zero_cells_on_a_shared_support(self):
        matrix = [[0.5, 0.0, 0.5], [0.25, 0.0, 0.75]]
        m = parse_mechanism(
            json.dumps({"inputs": ["yes", "no"], "outputs": [0, 1, 2], "matrix": matrix})
        )
        assert ind.dp_epsilon(m, NR)["eps_eff"] == pytest.approx(math.log(2), abs=1e-12)


class TestArrayScans:
    """dp_epsilon and adp_delta take numpy arrays from ``_ARRAY_CELLS`` (pair, output) cells on."""

    def _scans(self, monkeypatch):
        calls = []
        blocks = ind._blocks
        monkeypatch.setattr(ind, "_blocks", lambda *args: calls.append(args) or blocks(*args))
        return calls

    @pytest.mark.parametrize("threshold, scans", [(4, 2), (5, 0)])
    def test_threshold(self, monkeypatch, threshold, scans):
        monkeypatch.setattr(ind, "_ARRAY_CELLS", threshold)
        calls = self._scans(monkeypatch)
        m = rr_mechanism(0.7)  # one pair, both ways, over two outputs: 4 cells
        assert ind.dp_epsilon(m, NR)["eps_eff"] == pytest.approx(math.log(0.7 / 0.3), rel=1e-15)
        assert ind.adp_delta(m, NR, 0.0) == pytest.approx(0.4, rel=1e-15)
        assert len(calls) == scans

    def test_one_conversion_per_mechanism(self, monkeypatch):
        # dp_epsilon then adp_delta on one kept mechanism convert its matrix once
        monkeypatch.setattr(ind, "_ARRAY_CELLS", 0)
        m = rr_mechanism(0.7)
        conversions = []
        array = np.array
        monkeypatch.setattr(np, "array", lambda obj, *a, **k: (
            conversions.append(obj) if obj is m.matrix else None) or array(obj, *a, **k))
        ind.dp_epsilon(m, NR)
        ind.adp_delta(m, NR, 0.0)
        ind.adp_delta(m, NR, 0.5)
        assert len(conversions) == 1

    def test_empty_relation(self, monkeypatch):
        monkeypatch.setattr(ind, "_ARRAY_CELLS", 0)
        nr = ind.NeighborRelation(())
        assert ind.dp_epsilon(rr_mechanism(0.7), nr) == {"eps_eff": 0.0}
        assert ind.adp_delta(rr_mechanism(0.7), nr, 0.1) == 0.0

    @pytest.mark.parametrize("pairs, name", [((("yes", "no"), ("no", "maybe")), "maybe"),
                                             ((("perhaps", "maybe"),), "perhaps")])
    def test_unknown_input_is_named_as_by_the_scalar_loop(self, monkeypatch, pairs, name):
        nr = ind.NeighborRelation(pairs)
        for threshold in (1 << 14, 0):
            monkeypatch.setattr(ind, "_ARRAY_CELLS", threshold)
            for check in (ind.dp_epsilon, lambda m, nr: ind.adp_delta(m, nr, 0.5)):
                with pytest.raises(SchemaError, match=f"unknown input id '{name}'"):
                    check(rr_mechanism(0.7), nr)

    def test_excess_past_the_largest_scale(self, monkeypatch):
        # exp(800) overflows: only the outputs the second row never gives count,
        # 0.5 of a over b and nothing of b over a
        m = parse_mechanism(json.dumps({"inputs": ["a", "b"], "outputs": [0, 1],
                                        "matrix": [[0.5, 0.5], [1.0, 0.0]]}))
        nr = ind.NeighborRelation((("a", "b"),))
        for threshold in (1 << 14, 0):
            monkeypatch.setattr(ind, "_ARRAY_CELLS", threshold)
            assert ind.adp_delta(m, nr, 800.0) == 0.5

    @pytest.mark.parametrize("eps", [0.05, 1.2])
    def test_tied_pairs_read_no_scalar_row(self, monkeypatch, eps):
        # 5-ary randomized response at eps_eff = 1: every ordered pair has the
        # same excess, and at eps = 1.2 every excess is 0
        k, keep = 5, math.e / (math.e + 4)
        matrix = [[keep if i == j else (1 - keep) / 4 for j in range(k)] for i in range(k)]
        m = parse_mechanism(json.dumps({"inputs": list(range(k)), "outputs": list(range(k)),
                                        "matrix": matrix}))
        nr = full_relation(m)
        scalar = ind.adp_delta(m, nr, eps)
        monkeypatch.setattr(ind, "_ARRAY_CELLS", 0)
        monkeypatch.setattr(type(m), "row_for", lambda *args: pytest.fail("scalar row read"))
        assert ind.adp_delta(m, nr, eps) == scalar
        assert (scalar > 0) == (eps < 1)

    @pytest.mark.parametrize("zeros", [False, True])
    def test_a_mechanism_in_blocks(self, monkeypatch, zeros):
        m = random_mechanism(np.random.default_rng(5), n_in=40, n_out=30, zeros=zeros)
        nr = full_relation(m)

        def checks():
            return ind.dp_epsilon(m, nr), ind.adp_delta(m, nr, 0.05), ind.adp_delta(m, nr, 800.0)

        scalar = checks()
        monkeypatch.setattr(ind, "_ARRAY_CELLS", 0)
        for block in (1, 100, 1 << 20):
            monkeypatch.setattr(ind, "_BLOCK_CELLS", block)
            assert checks() == scalar


class TestGeoIndistinguishability:
    def geo(self, locations, matrix):
        inputs = [loc[0] for loc in locations]
        outputs = list(range(len(matrix[0])))
        mech = parse_mechanism(json.dumps({"inputs": inputs, "outputs": outputs, "matrix": matrix}))
        return ind.GeoMechanism(tuple(locations), mech)

    def test_identical_rows(self):
        g = self.geo([("a", 0, 0), ("b", 3, 4)], [[0.5, 0.5], [0.5, 0.5]])
        assert ind.geo_indistinguishability(g)["eps_eff"] == 0.0

    def test_log_ratio_over_distance(self):
        g = self.geo([("a", 0, 0), ("b", 2, 0)], [[0.75, 0.25], [0.25, 0.75]])
        assert ind.geo_indistinguishability(g)["eps_eff"] == pytest.approx(
            math.log(3) / 2, abs=1e-12
        )

    def test_disjoint_supports(self):
        g = self.geo([("a", 0, 0), ("b", 1, 0)], [[1, 0], [0, 1]])
        assert ind.geo_indistinguishability(g)["eps_eff"] == math.inf

    def test_coincident_differing(self):
        g = self.geo([("a", 0, 0), ("b", 0, 0)], [[0.75, 0.25], [0.25, 0.75]])
        assert ind.geo_indistinguishability(g)["eps_eff"] == math.inf

    def test_scaling_coordinates_halves_eps(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            coords = rng.random((3, 2)) * 10
            mat = rng.random((3, 3)) + 1e-3
            mat /= mat.sum(axis=1, keepdims=True)
            locs = [(f"l{i}", float(x), float(y)) for i, (x, y) in enumerate(coords)]
            base = ind.geo_indistinguishability(self.geo(locs, mat.tolist()))["eps_eff"]
            doubled = [(n, 2 * x, 2 * y) for n, x, y in locs]
            scaled = ind.geo_indistinguishability(self.geo(doubled, mat.tolist()))["eps_eff"]
            assert scaled == pytest.approx(base / 2, rel=1e-9)

    def test_needs_two_locations(self):
        with pytest.raises(ParamError):
            ind.geo_indistinguishability(self.geo([("a", 0, 0)], [[1.0]]))

    def test_a_large_geo_mechanism_keeps_no_array(self):
        # 130 x 130 cells pass core._ARRAY_CELLS, so the mass check makes an array
        rng = random.Random(3)
        n = 130
        rows = []
        for _ in range(n):
            weights = [rng.random() + 0.05 for _ in range(n)]
            total = math.fsum(weights)
            rows.append([w / total for w in weights])
        text = json.dumps({"locations": [[f"l{i}", i, 0] for i in range(n)],
                           "outputs": list(range(n)), "matrix": rows})
        g = ind.parse_geo_mechanism(text)
        assert g.mechanism.matrix == tuple(map(tuple, rows))
        assert "_array" not in vars(g.mechanism)

    def test_locations_must_match_the_mechanism_inputs(self):
        mech = self.geo([("a", 0, 0), ("b", 1, 0)], [[1.0], [1.0]]).mechanism
        for locations in ((("a", 0, 0), ("a", 1, 0)), (("b", 1, 0), ("a", 0, 0)), (("a", 0, 0),)):
            with pytest.raises(ShapeError):
                ind.GeoMechanism(locations, mech)

    def test_coordinates_must_be_finite(self):
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(SchemaError):
                self.geo([("a", 0, 0), ("b", bad, 0)], [[1.0], [1.0]])


class TestInformationPrivacy:
    def test_independent(self):
        j = J(("s0", "s1"), ("u0", "u1"), ((0.25, 0.25), (0.25, 0.25)))
        r = ind.information_privacy(j, 0.0)
        assert r["eps_min"] == 0.0 and r["holds"]

    def test_identity_is_infinite(self):
        j = J(("s0", "s1"), ("u0", "u1"), ((0.5, 0.0), (0.0, 0.5)))
        assert ind.information_privacy(j, 10.0)["eps_min"] == math.inf

    def test_two_sided_bound(self):
        j = J(("s0", "s1"), ("u0", "u1"), ((0.3, 0.2), (0.2, 0.3)))
        r = ind.information_privacy(j, 0.25)
        # the below-prior ratio 0.4/0.5 binds: ln(1.25) > ln(1.2)
        assert r["eps_min"] == pytest.approx(math.log(1.25), abs=1e-12)
        assert r["holds"]
        assert not ind.information_privacy(j, 0.2)["holds"]

    def test_zero_iff_independent(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            w = rng.random((2, 3)) + 1e-6
            w /= w.sum()
            j = J(("s0", "s1"), ("u0", "u1", "u2"), tuple(tuple(r) for r in w))
            eps_min = ind.information_privacy(j, 0.0)["eps_min"]
            px = j.marginal_x().probs
            py = j.marginal_y().probs
            independent = all(
                abs(j.matrix[x][y] - px[x] * py[y]) < 1e-12
                for x in range(2)
                for y in range(3)
            )
            assert (eps_min < 1e-9) == independent


class TestDistributionalPrivacy:
    def test_equal_likelihoods(self):
        assert ind.distributional_privacy(0.5, 0.5, 1.0, 0.0) is True

    def test_ratio_e2_eps1(self):
        assert ind.distributional_privacy(math.exp(2), 1.0, 1.0, 1.0) is False

    def test_ratio_e2_eps2_boundary(self):
        assert ind.distributional_privacy(math.exp(2), 1.0, 1.0, 2.0) is True

    def test_vanishing_second_likelihood(self):
        assert ind.distributional_privacy(0.5, 0.0, 1.0, 100.0) is False

    def test_odds_divide_by_the_second_likelihood(self):
        # odds 1.0 * 0.4 / 0.2 = 2 exceed exp(eps) = 1.5; 1.0 * 0.4 * 0.2 would not
        assert ind.distributional_privacy(0.4, 0.2, 1.0, math.log(1.5)) is False

    def test_both_zero(self):
        with pytest.raises(DomainError):
            ind.distributional_privacy(0.0, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("eps", [710.0, 1e308, math.inf])
    def test_eps_past_exp_overflow(self, eps):
        assert ind.distributional_privacy(0.5, 0.5, 1.0, eps) is True
        assert ind.distributional_privacy(0.5, 1e-300, 0.0, eps) is True
        assert ind.distributional_privacy(0.0, 0.5, 2.0, eps) is True

    @pytest.mark.parametrize("eps, holds", [(710.0, False), (2072.0, False), (2073.0, True), (1e308, True)])
    def test_overflowing_odds_compared_in_log_space(self, eps, holds):
        # odds = 1e300 * 1e300 / 1e-300 overflows; log odds = 900 ln 10 = 2072.33
        assert ind.distributional_privacy(1e300, 1e-300, 1e300, eps) is holds

    def test_log_space_bound_is_inclusive(self):
        # eps = -ln 1e-310 = 713.8 puts exp(eps) past the largest float; the
        # log odds 0 + 0 - ln 1e-310 equal eps exactly, and the bound allows equality
        assert ind.distributional_privacy(1.0, 1e-310, 1.0, -math.log(1e-310)) is True


class TestGameAdvantage:
    def test_all_correct(self):
        g = ind.GameTranscript(tuple((1, 1) for _ in range(100)))
        r = ind.game_advantage(g, 0.01)
        assert r["advantage"] == pytest.approx(0.5)
        assert r["holds"] is False

    def test_exactly_half(self):
        g = ind.GameTranscript(((1, 1), (0, 1)))
        assert ind.game_advantage(g, 1.0)["advantage"] == 0.0

    def test_coin_flips_hold(self):
        rng = random.Random(42)
        trials = tuple((rng.randint(0, 1), rng.randint(0, 1)) for _ in range(10000))
        r = ind.game_advantage(ind.GameTranscript(trials), 0.05)
        assert r["holds"] is True

    def test_upper_end_on_the_bound_holds(self):
        g = ind.GameTranscript(((1, 1), (1, 1), (0, 1)))
        hi = ind.wilson_interval(2, 3)[1]
        assert ind.game_advantage(g, hi - 0.5)["holds"] is True  # 0.5 + (hi - 0.5) == hi exactly

    def test_wilson_single_trial(self):
        lo, hi = ind.wilson_interval(1, 1)
        assert 0.0 < lo < hi == 1.0

    @pytest.mark.parametrize("trial", [(0, 2), (2, 0)])
    def test_guess_and_truth_each_checked(self, trial):
        with pytest.raises(SchemaError):
            ind.GameTranscript((trial,))

    def test_wilson_contains_proportion(self):
        lo, hi = ind.wilson_interval(80, 100)
        assert lo < 0.8 < hi
        assert 0.0 <= lo and hi <= 1.0

    def test_empty_transcript(self):
        with pytest.raises(EmptyError):
            ind.GameTranscript(())

    def test_unconditional(self):
        g = ind.GameTranscript(((1, 1), (0, 1)))
        assert ind.unconditional_privacy(g) == {"holds": True, "advantage": 0.0}
        g2 = ind.GameTranscript(((1, 1), (1, 1)))
        assert ind.unconditional_privacy(g2)["holds"] is False


class TestSingletonSufficiency:
    def test_singleton_bound_implies_all_sets(self):
        # enumeration proof on a small mechanism: the per-output ratio bound
        # extends to every output set S
        rng = np.random.default_rng(71)
        for _ in range(20):
            m = random_mechanism(rng, n_in=2, n_out=3)
            nr = ind.NeighborRelation((m.inputs[:2],))
            eps = ind.dp_epsilon(m, nr)["eps_eff"]
            if math.isinf(eps):
                continue
            pa, pb = m.matrix[0], m.matrix[1]
            for mask in range(1, 8):
                sa = sum(p for i, p in enumerate(pa) if mask & (1 << i))
                sb = sum(p for i, p in enumerate(pb) if mask & (1 << i))
                assert sa <= math.exp(eps) * sb + 1e-12
                assert sb <= math.exp(eps) * sa + 1e-12
