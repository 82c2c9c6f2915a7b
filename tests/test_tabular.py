import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from privmetrics import core, tabular as tb
from privmetrics.core import DiscreteDistribution, parse_table
from privmetrics.errors import (
    DegenerateError,
    EmptyError,
    ParamError,
    SchemaError,
    ShapeError,
)
from privmetrics.uncertainty import inherent_privacy, shannon_entropy

QI_S = {"roles": {"q": "quasi-identifier", "s": "sensitive"}}
QI_S_NUM = {
    "roles": {"q": "quasi-identifier", "s": "sensitive"},
    "kinds": {"s": "numeric"},
}


def table(rows, schema=QI_S):
    csv_text = "q,s\n" + "".join(f"{q},{s}\n" for q, s in rows)
    return parse_table(csv_text, schema)


def random_table(rng, n_rows, qi_card=4, s_card=3):
    rows = [
        (str(rng.integers(0, qi_card)), str(rng.integers(0, s_card)))
        for _ in range(n_rows)
    ]
    return rows


class TestKAnonymity:
    def test_all_distinct(self):
        assert tb.k_anonymity(table([(i, "x") for i in range(5)])) == 1

    def test_all_equal(self):
        assert tb.k_anonymity(table([("a", i) for i in range(5)])) == 5

    def test_min_class(self):
        rows = [("a", 1), ("a", 2), ("b", 1), ("b", 2), ("b", 3), ("b", 4)]
        assert tb.k_anonymity(table(rows)) == 2

    def test_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            rows = random_table(rng, int(rng.integers(1, 200)))
            t = table(rows)
            counts = Counter(q for q, _ in rows)
            assert tb.k_anonymity(t) == min(counts.values())

    def test_merging_classes_never_decreases_k(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            rows = random_table(rng, int(rng.integers(2, 100)))
            qs = sorted({q for q, _ in rows})
            if len(qs) < 2:
                continue
            k_before = tb.k_anonymity(table(rows))
            merged = [(qs[0] if q == qs[1] else q, s) for q, s in rows]
            assert tb.k_anonymity(table(merged)) >= k_before


class TestAlphaK:
    def test_absent_value(self):
        r = tb.alpha_k_anonymity(table([("a", "x"), ("a", "y")]), "zzz")
        assert r["alpha"] == 0.0

    def test_half(self):
        r = tb.alpha_k_anonymity(table([("a", "s"), ("a", "s"), ("a", "o"), ("a", "o")]), "s")
        assert r == {"k": 4, "alpha": 0.5}

    def test_dominated_class(self):
        rows = [("a", "s"), ("b", "o"), ("b", "o")]
        r = tb.alpha_k_anonymity(table(rows), "s")
        assert r["alpha"] == 1.0 and r["k"] == 1

    def test_numeric_sensitive_value_coerced(self):
        t = table([("a", 10), ("a", 20)], QI_S_NUM)
        assert tb.alpha_k_anonymity(t, "10")["alpha"] == 0.5


class TestLDiversity:
    def test_entropy_two_even_values(self):
        assert tb.l_diversity(table([("a", "x"), ("a", "x"), ("a", "y"), ("a", "y")])) == pytest.approx(2.0, abs=1e-9)

    def test_single_valued_class(self):
        assert tb.l_diversity(table([("a", "x"), ("a", "x")])) == pytest.approx(1.0, abs=1e-12)

    def test_entropy_bounded_by_distinct_count(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            rows = random_table(rng, int(rng.integers(1, 60)))
            t = table(rows)
            ell = tb.l_diversity(t)
            distinct = {}
            for q, s in rows:
                distinct.setdefault(q, set()).add(s)
            assert ell <= min(len(v) for v in distinct.values()) + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 50), min_size=1, max_size=12))
    @example([1, 1, 1, 4])  # a left-to-right sum of p log2 p puts 2**H two ulps lower here
    def test_entropy_mode_is_2_to_the_shannon_entropy(self, counts):
        """One class: l is 2**H of its sensitive frequencies, bit for bit as shannon_entropy sums H."""
        t = table([("a", f"v{i}") for i, c in enumerate(counts) for _ in range(c)])
        d = DiscreteDistribution(tuple(f"v{i}" for i in range(len(counts))),
                                 tuple(c / sum(counts) for c in counts))
        assert tb.l_diversity(t) == 2.0 ** shannon_entropy(d) == inherent_privacy(d)

    def test_recursive_counts_311(self):
        # counts (3,1,1) with c=1: 3 < 1*(1+1) fails at l=2
        rows = [("a", "x")] * 3 + [("a", "y"), ("a", "z")]
        assert tb.l_diversity(table(rows), "recursive", 1.0) == 1.0

    def test_recursive_holds_with_larger_c(self):
        rows = [("a", "x")] * 3 + [("a", "y"), ("a", "z")]
        assert tb.l_diversity(table(rows), "recursive", 2.0) == 2.0

    def test_recursive_inequality_is_strict(self):
        # counts (2, 1) at c = 2: 2 < 2 * 1 fails, so l = 2 does not hold
        rows = [("a", "x")] * 2 + [("a", "y")]
        assert tb.l_diversity(table(rows), "recursive", 2.0) == 1.0

    def test_recursive_c_validation(self):
        with pytest.raises(ParamError):
            tb.l_diversity(table([("a", "x")]), "recursive", 0.0)

    def test_unknown_mode(self):
        with pytest.raises(ParamError):
            tb.l_diversity(table([("a", "x")]), "nope")

    def test_unknown_mode_fails_before_grouping(self, monkeypatch):
        calls = []
        group = core._group_by_quasi_identifiers
        monkeypatch.setattr(
            core, "_group_by_quasi_identifiers", lambda t: calls.append(t) or group(t)
        )
        with pytest.raises(ParamError):
            tb.l_diversity(table([("a", "x")]), "nope")
        assert calls == []


class TestMInvariance:
    def release(self, rows, owners, idx=0):
        return tb.Release(table(rows), idx, tuple(owners))

    def test_duplicate_sensitive_fails(self):
        rel = self.release([("a", "x"), ("a", "x")], ["o1", "o2"])
        assert tb.m_invariance([rel]) == {"holds": False, "m": 0}

    def test_distinct_classes_hold(self):
        rel = self.release([("a", "x"), ("a", "y"), ("b", "x"), ("b", "z")],
                           ["o1", "o2", "o3", "o4"])
        assert tb.m_invariance([rel]) == {"holds": True, "m": 2}

    def test_signature_change_across_releases(self):
        r1 = self.release([("a", "x"), ("a", "y")], ["o1", "o2"], 0)
        r2 = self.release([("a", "x"), ("a", "z")], ["o1", "o2"], 1)
        assert tb.m_invariance([r1, r2])["holds"] is False

    def test_stable_signatures_hold(self):
        r1 = self.release([("a", "x"), ("a", "y")], ["o1", "o2"], 0)
        r2 = self.release([("b", "x"), ("b", "y")], ["o1", "o2"], 1)
        assert tb.m_invariance([r1, r2]) == {"holds": True, "m": 2}

    def test_needs_release(self):
        with pytest.raises(EmptyError):
            tb.m_invariance([])


class TestEMD:
    def test_categorical_disjoint(self):
        assert tb.emd_categorical([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_ordered_point_vs_uniform(self):
        third = 1.0 / 3.0
        assert tb.emd_ordered([1.0, 0.0, 0.0], [third, third, third]) == pytest.approx(
            0.5, abs=1e-9
        )

    def test_single_class_t_closeness(self):
        assert tb.t_closeness(table([("a", "x"), ("a", "y")])) == pytest.approx(0.0)

    def test_numeric_ordered_case(self):
        rows = (
            [("A", v) for v in (10, 10, 10, 10)]
            + [("B", v) for v in (20, 20, 30, 30)]
            + [("C", v) for v in (20, 20, 30, 30)]
        )
        assert tb.t_closeness(table(rows, QI_S_NUM)) == pytest.approx(0.5, abs=1e-9)

    def test_numeric_two_value_domain(self):
        # over the two-value domain (10, 20) each single-valued class is 0.5 from (0.5, 0.5)
        rows = [("A", 10), ("A", 10), ("B", 20), ("B", 20)]
        assert tb.t_closeness(table(rows, QI_S_NUM)) == 0.5

    def test_bounded_by_one(self):
        rng = np.random.default_rng(21)
        for schema in (QI_S, QI_S_NUM):
            for _ in range(20):
                rows = random_table(rng, int(rng.integers(2, 50)))
                value = tb.t_closeness(table(rows, schema))
                assert -1e-12 <= value <= 1.0 + 1e-12


class TestCTIsolation:
    def test_guess_on_target(self):
        pts = [[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]]
        r = tb.ct_isolation(pts, [0.0, 0.0], 0, 2.0)
        assert r["delta"] == 0.0 and r["ball_count"] == 2

    def test_lone_target(self):
        pts = [[0, 0], [10, 10], [10, 11], [11, 10]]
        r = tb.ct_isolation(pts, [1, 1], 0, 1.0)
        assert r["ball_count"] == 1

    def test_cover_all(self):
        pts = [[0, 0], [1, 1], [2, 2]]
        r = tb.ct_isolation(pts, [0, 0], 2, 100.0)
        assert r["ball_count"] == 3

    def test_isolated_against_threshold(self):
        pts = [[0, 0], [10, 10], [10, 11], [11, 10]]
        assert "isolated" not in tb.ct_isolation(pts, [1, 1], 0, 1.0)
        assert tb.ct_isolation(pts, [1, 1], 0, 1.0, 2)["isolated"] is True
        assert tb.ct_isolation(pts, [1, 1], 0, 1.0, 1)["isolated"] is False

    def test_zero_radius_counts_only_coincident_points(self):
        assert tb.ct_isolation([[0, 0], [1e-13, 0]], [0, 0], 0, 1.0)["ball_count"] == 1

    @pytest.mark.parametrize("c", [1.0, 1.5, 2.0, 3.0, 7.0])
    @pytest.mark.parametrize("scale", [1e-13, 1e-5, 1.0, 1e6, 1e100, 1e200])
    @pytest.mark.parametrize("slope", [1.0, 2.0])
    def test_collinear_point_on_the_sphere_counts(self, slope, scale, c):
        """The guess is the origin, so c times the target lies on the sphere of radius c * delta.

        At scale 1e6, slope 1 and c = 3, one ulp of the distance exceeds 1e-12.
        """
        target = [scale, slope * scale]
        on_sphere = [c * scale, c * slope * scale]
        assert tb.ct_isolation([target, on_sphere], [0.0, 0.0], 0, c)["ball_count"] == 2

    def test_validation(self):
        with pytest.raises(ParamError):
            tb.ct_isolation([[0, 0]], [0, 0], 0, 0.0)
        with pytest.raises(ParamError):
            tb.ct_isolation([[0, 0]], [0, 0], 5, 1.0)

    @pytest.mark.parametrize("target_index", [2, -1])
    def test_target_index_just_outside_the_points(self, target_index):
        with pytest.raises(ParamError):
            tb.ct_isolation([[0, 0], [1, 1]], [0, 0], target_index, 1.0)
        with pytest.raises(ShapeError):
            tb.ct_isolation([[0, 0]], [0, 0, 0], 0, 1.0)


class TestNumericAnonymity:
    def test_ke(self):
        rows = [("a", 10), ("a", 20), ("b", 5), ("b", 10), ("b", 17)]
        assert tb.ke_anonymity(table(rows, QI_S_NUM)) == {"k": 2, "e": 10.0}

    def test_ke_constant_class(self):
        rows = [("a", 7), ("a", 7)]
        assert tb.ke_anonymity(table(rows, QI_S_NUM))["e"] == 0.0

    def test_ke_needs_numeric(self):
        with pytest.raises(SchemaError):
            tb.ke_anonymity(table([("a", "x")]))

    def test_em_distinct(self):
        rows = [("a", v) for v in (1, 5, 9, 13)]
        assert tb.em_anonymity(table(rows, QI_S_NUM), 0.0) == pytest.approx(4.0)

    def test_em_all_equal(self):
        rows = [("a", 3), ("a", 3)]
        assert tb.em_anonymity(table(rows, QI_S_NUM), 0.0) == pytest.approx(1.0)

    def test_em_pairs(self):
        rows = [("a", v) for v in (1, 2, 10, 11)]
        assert tb.em_anonymity(table(rows, QI_S_NUM), 1.0) == pytest.approx(2.0)

    @pytest.mark.parametrize("epsilon", [-1.0, math.nan])
    def test_em_rejects_bad_epsilon(self, epsilon):
        with pytest.raises(ParamError):
            tb.em_anonymity(table([("a", 1)], QI_S_NUM), epsilon)

    def test_em_bounded_by_class_size(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            rows = [
                (str(rng.integers(0, 3)), float(rng.integers(0, 20)))
                for _ in range(int(rng.integers(1, 40)))
            ]
            t = table(rows, QI_S_NUM)
            m = tb.em_anonymity(t, float(rng.random() * 3))
            counts = Counter(q for q, _ in rows)
            assert m <= min(counts.values()) + 1e-9


# One release read under three role sets: the same quasi-identifiers with
# another sensitive column, and other quasi-identifiers.
_RELEASE = "zip,age,disease,salary\n" + "".join(
    f"z{i % 3},a{i % 2},{'flu cold asthma'.split()[i // 5 % 3]},{20 + i * 13 % 17}\n" for i in range(24)
)
_CATEGORICAL = {"zip": "quasi-identifier", "age": "quasi-identifier", "disease": "sensitive"}
_NUMERIC = {"zip": "quasi-identifier", "age": "quasi-identifier", "salary": "sensitive"}
_ZIP_ONLY = {"zip": "quasi-identifier", "disease": "sensitive"}


def _six_metrics(t):
    """The six table metrics of ``t``; ``ke`` and ``em`` only on the numeric sensitive column."""
    numeric = t.sensitive_column() == 3
    values = [tb.k_anonymity(t), tb.l_diversity(t), tb.l_diversity(t, "recursive", 2.0),
              tb.t_closeness(t), tb.alpha_k_anonymity(t, "33" if numeric else "flu")]
    if numeric:
        values += [tb.ke_anonymity(t), tb.em_anonymity(t, 5.0)]
    return values


class TestClassHistograms:
    def _fresh(self, roles):
        return core.parse_table(_RELEASE, {"roles": roles, "kinds": {"salary": "numeric"}})

    def test_kept_table_and_its_re_tags_equal_fresh_parses(self):
        kept = self._fresh(_CATEGORICAL)
        first = _six_metrics(kept)
        for roles in (_NUMERIC, _ZIP_ONLY, _CATEGORICAL, _NUMERIC):
            retagged = kept.with_roles(roles)
            assert _six_metrics(retagged) == _six_metrics(self._fresh(roles))
            kept = retagged
        assert _six_metrics(kept.with_roles(_CATEGORICAL)) == first

    def test_histograms_follow_the_grouping(self):
        kept = self._fresh(_CATEGORICAL)
        histograms = kept.class_histograms(2)
        assert kept.class_histograms(2) is histograms
        assert [sum(h.values()) for h in histograms] == list(map(len, core.equivalence_classes(kept)))
        same_qi = kept.with_roles(_NUMERIC)
        assert same_qi.class_histograms(2) is histograms
        assert kept.class_histograms(3) is same_qi.class_histograms(3)  # counted through the re-tag
        other_qi = kept.with_roles(_ZIP_ONLY)
        assert len(other_qi.class_histograms(2)) == 3 != len(histograms)
        assert other_qi.with_roles(_CATEGORICAL).class_histograms(2) == histograms

    def test_a_table_under_its_own_roles_builds_no_column(self, monkeypatch):
        kept = self._fresh(_CATEGORICAL)

        def no_column(*args):
            raise AssertionError("a Column was built")

        monkeypatch.setattr(core, "Column", no_column)
        assert kept.with_roles(_CATEGORICAL) is kept
        assert kept.with_roles({**_CATEGORICAL, "salary": "plain"}) is kept
        with pytest.raises(SchemaError, match="unknown column 'nosuch'"):
            kept.with_roles({"nosuch": "plain"})


# A release at the array threshold, read under the same three role sets.
_LARGE_RELEASE = "zip,age,disease,salary\n" + "".join(
    f"z{i % 37},a{i * 7 % 5},{'flu cold asthma ulcer'.split()[i * 11 // 3 % 4]},{20 + i * 13 % 170}\n"
    for i in range(tb._ARRAY_ROWS)
)


class TestClassArrays:
    def _fresh(self, roles):
        return core.parse_table(_LARGE_RELEASE, {"roles": roles, "kinds": {"salary": "numeric"}})

    def test_kept_table_and_its_re_tags_equal_fresh_parses_and_the_scalar_loops(self, monkeypatch):
        kept = self._fresh(_CATEGORICAL)
        first = _six_metrics(kept)
        for roles in (_NUMERIC, _ZIP_ONLY, _CATEGORICAL, _NUMERIC):
            retagged = kept.with_roles(roles)
            assert _six_metrics(retagged) == _six_metrics(self._fresh(roles))
            kept = retagged
        assert _six_metrics(kept.with_roles(_CATEGORICAL)) == first
        arrays = [_six_metrics(self._fresh(roles)) for roles in (_NUMERIC, _ZIP_ONLY)]
        monkeypatch.setattr(tb, "_ARRAY_ROWS", len(kept) + 1)
        assert [_six_metrics(self._fresh(roles)) for roles in (_NUMERIC, _ZIP_ONLY)] == arrays

    def test_arrays_follow_the_grouping(self):
        kept = self._fresh(_CATEGORICAL)
        assert tb.k_anonymity(kept) == 22
        arrays = kept._arrays
        assert "_grouping" not in vars(kept)  # the array path builds no EquivalenceClass
        assert arrays.sizes.tolist() == list(map(len, core.equivalence_classes(kept)))
        histograms = arrays.histograms(2)
        assert arrays.histograms(2) is histograms
        same_qi = kept.with_roles(_NUMERIC)
        assert same_qi._arrays is arrays
        assert kept._arrays.sorted_values(3) is same_qi._arrays.sorted_values(3)
        other_qi = kept.with_roles(_ZIP_ONLY)
        assert len(other_qi._arrays.sizes) == 37 != len(arrays.sizes)
        back = other_qi.with_roles(_CATEGORICAL)
        assert back._arrays is not arrays
        assert back._arrays.class_of.tolist() == arrays.class_of.tolist()

    @pytest.mark.parametrize("metric, roles", [
        (tb.k_anonymity, _CATEGORICAL), (lambda t: tb.alpha_k_anonymity(t, "flu"), _CATEGORICAL),
        (tb.l_diversity, _CATEGORICAL), (tb.t_closeness, _CATEGORICAL),
        (tb.ke_anonymity, _NUMERIC), (lambda t: tb.em_anonymity(t, 5.0), _NUMERIC),
    ], ids=["k", "alpha_k", "l_entropy", "t_categorical", "ke", "em"])
    def test_threshold(self, metric, roles):
        at = self._fresh(roles)
        below = core.parse_table(_LARGE_RELEASE.rsplit("\n", 2)[0] + "\n",
                                 {"roles": roles, "kinds": {"salary": "numeric"}})
        assert len(below) == len(at) - 1 == tb._ARRAY_ROWS - 1
        metric(below)
        metric(at)
        assert "_arrays" not in vars(below) and "_grouping" in vars(below)
        assert "_arrays" in vars(at) and "_grouping" not in vars(at)


def persons_table(rows):
    csv_text = "pid,zip\n" + "".join(f"{p},{z}\n" for p, z in rows)
    return parse_table(
        csv_text, {"roles": {"pid": "identifier", "zip": "quasi-identifier"}}
    )


def relation_table(rows, cols=("pid", "val")):
    csv_text = ",".join(cols) + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)
    return parse_table(csv_text, {"roles": {}})


class TestMultirelationalK:
    def test_one_to_one_distinct(self):
        persons = persons_table([("p1", "a"), ("p2", "b")])
        rel = relation_table([("p1", "x"), ("p2", "y")])
        assert tb.multirelational_k(persons, [rel], ["pid"])["k"] == 1

    def test_shared_class(self):
        persons = persons_table([("p1", "a"), ("p2", "a"), ("p3", "b"), ("p4", "b")])
        rel = relation_table([(f"p{i}", "x") for i in range(1, 5)])
        r = tb.multirelational_k(persons, [rel], ["pid"])
        assert r["k"] == 2

    def test_missing_owner_dropped(self):
        persons = persons_table([("p1", "a"), ("p2", "a")])
        rel = relation_table([("p1", "x")])  # p2 absent from the relation
        r = tb.multirelational_k(persons, [rel], ["pid"])
        assert r["k"] == 1

    def test_empty_join(self):
        persons = persons_table([("p1", "a")])
        rel = relation_table([("p9", "x")])
        with pytest.raises(EmptyError):
            tb.multirelational_k(persons, [rel], ["pid"])

    def test_row_level_reading(self):
        persons = persons_table([("p1", "a"), ("p2", "a")])
        rel = relation_table([("p1", "x"), ("p1", "y"), ("p2", "x"), ("p2", "y")])
        r = tb.multirelational_k(persons, [rel], ["pid"])
        assert r["k"] == 2 and r["row_level_holds"] is True


class TestXYPrivacy:
    def xy_table(self, rows):
        csv_text = "x,y\n" + "".join(f"{a},{b}\n" for a, b in rows)
        return parse_table(csv_text, {"roles": {}})

    def test_functional_dependence(self):
        t = self.xy_table([("a", "p"), ("a", "p"), ("b", "q")])
        assert tb.xy_privacy(t, ["x"], ["y"]) == pytest.approx(1.0)

    def test_independent_uniform(self):
        t = self.xy_table([("a", "p"), ("a", "q"), ("b", "p"), ("b", "q")])
        assert tb.xy_privacy(t, ["x"], ["y"]) == pytest.approx(0.5)

    def test_three_to_one(self):
        t = self.xy_table([("a", "p")] * 3 + [("a", "q")])
        assert tb.xy_privacy(t, ["x"], ["y"]) == pytest.approx(0.75)

    def test_disjoint_groups(self):
        t = self.xy_table([("a", "p")])
        with pytest.raises(SchemaError):
            tb.xy_privacy(t, ["x"], ["x"])

    @pytest.mark.parametrize("x_cols, y_cols", [([], ["y"]), (["x"], [])])
    def test_each_group_non_empty(self, x_cols, y_cols):
        with pytest.raises(SchemaError, match="non-empty"):
            tb.xy_privacy(self.xy_table([("a", "p")]), x_cols, y_cols)


class TestHistoricalK:
    H = [
        tb.LocationHistory("u1", ((0.0, frozenset({"c1"})), (1.0, frozenset({"c2"})))),
        tb.LocationHistory("u2", ((0.0, frozenset({"c1"})), (1.0, frozenset({"c2"})))),
        tb.LocationHistory("u3", ((0.0, frozenset({"c9"})), (1.0, frozenset({"c9"})))),
    ]

    def test_own_history_only(self):
        hs = [
            tb.LocationHistory("u1", ((0.0, frozenset({"c1"})), (1.0, frozenset({"c2"})))),
            tb.LocationHistory("u2", ((0.0, frozenset({"c3"})), (1.0, frozenset({"c4"})))),
        ]
        assert tb.historical_k(hs, [(0, "c1"), (1, "c2")]) == 1

    def test_identical_histories(self):
        assert tb.historical_k(self.H, [(0, "c1"), (1, "c2")]) == 2

    def test_no_match(self):
        assert tb.historical_k(self.H, [(5, "c1")]) == 0

    def test_cell_sets(self):
        hs = [tb.LocationHistory("u1", ((0.0, frozenset({"c1", "c2"})),))]
        assert tb.historical_k(hs, [(0, "c2")]) == 1

    def test_needs_requests(self):
        with pytest.raises(EmptyError):
            tb.historical_k(self.H, [])

    def test_entries_at_one_time(self):
        # times are non-decreasing: two entries may share one
        h = tb.LocationHistory("u1", ((0.0, frozenset({"c1"})), (0.0, frozenset({"c2"}))))
        assert tb.historical_k([h], [(0.0, "c2")]) == 1
        with pytest.raises(SchemaError):
            tb.LocationHistory("u1", ((1.0, frozenset({"c1"})), (0.0, frozenset({"c2"}))))


class TestHaplotypeSafety:
    def test_aggregate_true(self):
        assert tb.haplotype_safety(100, 10, mode="aggregate") is True

    def test_small_study_false(self):
        assert tb.haplotype_safety(2, 100, mode="aggregate") is False

    def test_boundary_is_strict(self):
        # threshold == l exactly -> not safe
        n = 3  # 2*(3-1)/log2(4) = 2.0
        assert tb.haplotype_safety(n, 2, mode="aggregate") is False
        assert tb.haplotype_safety(n, 1, mode="aggregate") is True

    def test_statistics_mode(self):
        # denominator log2(101) - 1 + 0.5
        expect = 2 * 99 / (math.log2(101) - 0.5) > 10
        assert tb.haplotype_safety(100, 10, 0.5, "statistics") is expect

    def test_statistics_threshold_by_hand(self):
        # 2 * 99 / (log2(101) + 0.5 - 1) = 32.15: alpha below 1 lowers the
        # denominator and raises the threshold past 30 (a shift the other
        # way, by 1 - alpha, would give 27.66)
        assert tb.haplotype_safety(100, 30, 0.5, "statistics") is True
        assert tb.haplotype_safety(100, 33, 0.5, "statistics") is False

    def test_zero_denominator(self):
        # log3(2 + 1) = 1 exactly, so alpha = 0 makes the denominator exactly 0
        with pytest.raises(ParamError, match="non-positive threshold denominator"):
            tb.haplotype_safety(2, 1, 0.0, "statistics", 3.0)

    def test_validation(self):
        with pytest.raises(ParamError):
            tb.haplotype_safety(1, 5)
        with pytest.raises(ParamError):
            tb.haplotype_safety(10, 5, mode="nope")


def exhaustive_cluster_similarity(original, protected):
    """Oracle: best agreement over every injective label bijection."""
    o_ids = sorted(set(original))
    p_ids = sorted(set(protected))
    best = 0
    small, big, o_side = (
        (o_ids, p_ids, True) if len(o_ids) <= len(p_ids) else (p_ids, o_ids, False)
    )
    for perm in itertools.permutations(big, len(small)):
        mapping = dict(zip(small, perm))
        if o_side:
            score = sum(1 for o, p in zip(original, protected) if mapping.get(o) == p)
        else:
            score = sum(1 for o, p in zip(original, protected) if mapping.get(p) == o)
        best = max(best, score)
    return best / len(original)


class TestClusterSimilarity:
    def test_identical(self):
        assert tb.cluster_similarity([0, 1, 2], [0, 1, 2]) == 1.0

    def test_constant_vs_balanced(self):
        assert tb.cluster_similarity([0, 1, 0, 1], [7, 7, 7, 7]) == 0.5

    def test_relabeled_partition(self):
        assert tb.cluster_similarity([0, 0, 1, 1, 2], [5, 5, 9, 9, 1]) == 1.0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            original = rng.integers(0, 5, n).tolist()
            protected = rng.integers(0, 5, n).tolist()
            assert tb.cluster_similarity(original, protected) == pytest.approx(
                exhaustive_cluster_similarity(original, protected), abs=1e-12
            )

    def test_relabel_invariance(self):
        rng = np.random.default_rng(39)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            original = rng.integers(0, 4, n).tolist()
            protected = rng.integers(0, 4, n).tolist()
            base = tb.cluster_similarity(original, protected)
            relabel = {0: 13, 1: 7, 2: 5, 3: 2}
            assert tb.cluster_similarity(
                original, [relabel[p] for p in protected]
            ) == pytest.approx(base, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            tb.cluster_similarity([0], [0, 1])

    def test_matches_scipy_assignment(self):
        """The best total equals scipy's Hungarian solver with ``==``, on contingencies both
        taller and wider than square, so the transposed and the direct orientation both run."""
        optimize = pytest.importorskip("scipy.optimize")
        rng = random.Random(41)
        shapes = Counter()
        for _ in range(500):
            n_rows, n_cols = rng.randint(1, 40), rng.randint(1, 40)
            top = rng.choice([1, 3, 20])
            contingency = [[rng.randrange(top + 1) for _ in range(n_cols)] for _ in range(n_rows)]
            for k in range(max(n_rows, n_cols)):  # every cluster id occurs
                contingency[k % n_rows][k % n_cols] += 1
            original, protected = [], []
            for i, row in enumerate(contingency):
                for j, count in enumerate(row):
                    original += [f"o{i}"] * count
                    protected += [f"p{j}"] * count
            rows, cols = optimize.linear_sum_assignment(np.array(contingency), maximize=True)
            best = sum(contingency[i][j] for i, j in zip(rows, cols))
            assert tb.cluster_similarity(original, protected) == best / len(original)
            shapes[(n_rows > n_cols) - (n_rows < n_cols)] += 1
        assert shapes[1] > 100 and shapes[-1] > 100

    def test_symmetric(self):
        rng = random.Random(43)
        for _ in range(50):
            n = rng.randint(1, 60)
            original = [int(rng.random() * 6) for _ in range(n)]
            protected = [int(rng.random() * 9) for _ in range(n)]
            assert tb.cluster_similarity(original, protected) == tb.cluster_similarity(
                protected, original
            )

    def test_many_items(self):
        """100 000 items in 10 clusters a side, 60% of them relabeled by a fixed bijection."""
        rng = random.Random(100_000)
        original = [int(rng.random() * 10) for _ in range(100_000)]
        protected = [(3 * o + 1) % 10 if rng.random() < 0.6 else int(rng.random() * 10)
                     for o in original]
        assert tb.cluster_similarity(original, protected) == 0.64233


class TestRSquared:
    def test_perfect_line(self):
        assert tb.r_squared_transitions([0, 1, 2, 3, 4, 5]) == pytest.approx(1.0, abs=1e-9)

    def test_alternating_series(self):
        # two independent oracles (SS decomposition and corr^2) both give 3/35
        assert tb.r_squared_transitions([0, 1, 0, 1, 0, 1]) == pytest.approx(
            3.0 / 35.0, abs=1e-12
        )

    def test_constant_degenerate(self):
        with pytest.raises(DegenerateError):
            tb.r_squared_transitions([2, 2, 2, 2])

    def test_too_short(self):
        with pytest.raises(ParamError):
            tb.r_squared_transitions([1, 2])

    def test_in_unit_interval(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            series = rng.normal(size=int(rng.integers(3, 30)))
            if np.all(series == series[0]):
                continue
            assert -1e-12 <= tb.r_squared_transitions(series.tolist()) <= 1 + 1e-12


class TestNormalizedVariance:
    def test_identical(self):
        assert tb.normalized_variance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_constant_perturbation(self):
        assert tb.normalized_variance([1, 2, 3, 4], [0, 0, 0, 0]) == pytest.approx(1.0)

    def test_tiny_series_against_zeros(self):
        """An all-zero series sets no scale: the tiny one is scaled by its own magnitude."""
        assert tb.normalized_variance([0.0, 1e-300], [0.0, 0.0]) == 1.0

    def test_sign_flip_exceeds_one(self):
        assert tb.normalized_variance([1, 2, 3], [-1, -2, -3]) == pytest.approx(4.0)

    def test_tiny_series_against_a_large_one(self):
        """x's deviations underflow when squared at y's scale; the ratio is
        taken at x's own scale, and overflows only when it passes the largest float."""
        assert tb.normalized_variance([0.0, 1e-150], [0.0, 1.0]) == pytest.approx(1e300, rel=1e-12)
        assert tb.normalized_variance([0.0, 1e-320], [1e10, 1e10]) == 1.0  # var(x - c) = var(x)
        for x, y in (([0.0, 1e-160], [0.0, 1.0]), ([0.0, 1e-320], [1e10, 0.0])):
            with pytest.raises(OverflowError, match="exceeds the largest float"):
                tb.normalized_variance(x, y)

    def test_zero_variance(self):
        with pytest.raises(DegenerateError):
            tb.normalized_variance([5, 5], [1, 2])

    def test_extreme_magnitudes(self):
        # unscaled, the squared deviations, and here x - y, overflow to inf
        assert tb.normalized_variance([1e200, -1e200], [0, 1]) == pytest.approx(1.0)
        assert tb.normalized_variance([1e308, -1e308], [-1e308, 1e308]) == pytest.approx(4.0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            tb.normalized_variance([1, 2], [1])
