import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from privmetrics import adversary as adv
from privmetrics.core import DiscreteDistribution as D, Region, Trace, parse_table
from privmetrics.errors import (
    DomainError,
    EmptyError,
    ParamError,
    SchemaError,
    ShapeError,
)


class TestSuccessRate:
    def test_examples(self):
        assert adv.success_rate([False] * 4) == 0.0
        assert adv.success_rate([True] * 4) == 1.0
        assert adv.success_rate([True] * 3 + [False] * 5) == 0.375

    def test_empty(self):
        with pytest.raises(EmptyError):
            adv.success_rate([])

    @given(st.lists(st.booleans(), min_size=1, max_size=50))
    def test_unit_interval(self, trials):
        assert 0.0 <= adv.success_rate(trials) <= 1.0

    @given(st.integers(1, 50), st.integers(0, 50))
    def test_pct_incorrect_unit_interval(self, total, wrong):
        assert 0.0 <= adv.pct_incorrect(min(wrong, total), total) <= 1.0

    @given(
        st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 5), st.floats(0.1, 5)),
        st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(0.1, 5), st.floats(0.1, 5)),
    )
    def test_coverage_unit_interval(self, a, b):
        r_u = adv.Region(rect=(a[0], a[1], a[0] + a[2], a[1] + a[3]))
        r_s = adv.Region(rect=(b[0], b[1], b[0] + b[2], b[1] + b[3]))
        assert 0.0 <= adv.region_coverage(r_u, r_s) <= 1.0 + 1e-12


class TestPathCompromise:
    def test_examples(self):
        assert adv.path_compromise_probability(0, 10, 3) == 0.0
        assert adv.path_compromise_probability(10, 10, 3) == 1.0
        assert adv.path_compromise_probability(5, 10, 2) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ParamError):
            adv.path_compromise_probability(11, 10, 2)

    @given(st.integers(1, 20), st.integers(0, 20), st.integers(1, 6), st.integers(1, 6))
    def test_monotone_in_length(self, total, comp, l1, l2):
        if comp > total:
            comp = total
        lo, hi = sorted((l1, l2))
        assert adv.path_compromise_probability(comp, total, hi) <= (
            adv.path_compromise_probability(comp, total, lo) + 1e-12
        )


class TestDegreesOfAnonymity:
    def test_provably_exposed(self):
        d = D(("t", "o"), (1.0, 0.0))
        assert adv.degrees_of_anonymity(d, "t", 0.9) == "provably-exposed"

    def test_uniform_is_beyond_suspicion(self):
        for n in (2, 5, 17):
            d = D(tuple(map(str, range(n))), (1 / n,) * n)
            for target in d.labels:
                assert adv.degrees_of_anonymity(d, target, 0.9) == "beyond-suspicion"

    def test_probable_innocence_walk(self):
        d = D(("t", "a", "b"), (0.4, 0.35, 0.25))
        assert adv.degrees_of_anonymity(d, "t", 0.9, 0.5) == "probable-innocence"

    def test_absolute_privacy(self):
        d = D(("t", "o"), (0.0, 1.0))
        assert adv.degrees_of_anonymity(d, "t", 0.9) == "absolute-privacy"

    def test_exposed_by_threshold(self):
        d = D(("t", "o"), (0.95, 0.05))
        assert adv.degrees_of_anonymity(d, "t", 0.9) == "exposed"

    def test_possible_innocence(self):
        d = D(("a", "t", "b"), (0.6, 0.3, 0.1))
        assert adv.degrees_of_anonymity(d, "t", 0.9, 0.2) == "possible-innocence"


class TestBreachChecks:
    def test_privacy_breach(self):
        assert adv.privacy_breach_check([0.0, 0.0], 0.5) == {
            "breached": False,
            "max_post": 0.0,
        }
        assert adv.privacy_breach_check([0.2, 0.8], 0.8)["breached"] is True
        assert adv.privacy_breach_check([0.79], 0.8)["breached"] is False

    def test_dg_privacy(self):
        assert adv.dg_privacy_check(0.2, 0.2, 0.2, 0.2) is True
        assert adv.dg_privacy_check(0.1, 0.9, 0.2, 0.5) is False  # posterior cap
        assert adv.dg_privacy_check(0.4, 0.3, 0.2, 0.5) is False  # prior cap
        with pytest.raises(ParamError):
            adv.dg_privacy_check(0.0, 0.5, 0.2, 0.5)


def presence_tables(ext_rows, pub_rows):
    ext_csv = "name,zip\n" + "".join(f"{n},{z}\n" for n, z in ext_rows)
    pub_csv = "zip\n" + "".join(f"{z}\n" for z in pub_rows)
    external = parse_table(
        ext_csv, {"roles": {"name": "identifier", "zip": "quasi-identifier"}}
    )
    published = parse_table(pub_csv, {"roles": {"zip": "quasi-identifier"}})
    return external, published


class TestDeltaPresence:
    def test_one_to_one(self):
        ext, pub = presence_tables([("a", "10"), ("b", "20")], ["10", "20"])
        assert adv.delta_presence(ext, pub) == {"delta_min": 1.0, "delta_max": 1.0}

    def test_half_presence(self):
        ext, pub = presence_tables(
            [("a", "101"), ("b", "102"), ("c", "103"), ("d", "104")], ["10*", "10*"]
        )
        assert adv.delta_presence(ext, pub) == {"delta_min": 0.5, "delta_max": 0.5}

    def test_unmatched_individual(self):
        ext, pub = presence_tables([("a", "10"), ("b", "99")], ["10"])
        r = adv.delta_presence(ext, pub)
        assert r["delta_min"] == 0.0 and r["delta_max"] == 1.0

    def test_numeric_range_generalization(self):
        ext, pub = presence_tables([("a", "15"), ("b", "25")], ["10-20"])
        r = adv.delta_presence(ext, pub)
        assert r == {"delta_min": 0.0, "delta_max": 1.0}


class TestHidingProperty:
    def test_uniform_hidden(self):
        r = adv.hiding_property([[0.25, 0.25], [0.25, 0.25]], 0.5)
        assert r == {"hidden": True, "max_p": 0.25}

    def test_spike_not_hidden(self):
        assert adv.hiding_property([[0.9, 0.1]], 0.5)["hidden"] is False

    def test_theta_one_always_hidden(self):
        assert adv.hiding_property([[1.0]], 1.0)["hidden"] is True

    def test_ragged_matrix(self):
        with pytest.raises(ShapeError):
            adv.hiding_property([[0.5, 0.5], [0.5]], 0.5)


class TestEstimationError:
    def test_point_mass_on_truth(self):
        e = adv.EstimateWithTruth(D(("t", "o"), (1.0, 0.0)), "t")
        assert adv.expected_estimation_error(e) == 0.0

    def test_zero_one_identity(self):
        e = adv.EstimateWithTruth(D(("t", "o"), (0.3, 0.7)), "t")
        assert adv.expected_estimation_error(e) == pytest.approx(0.7, abs=1e-12)

    def test_euclidean_two_points(self):
        e = adv.EstimateWithTruth(
            D(("t", "o"), (0.5, 0.5)),
            "t",
            "euclidean",
            {"t": (0.0, 0.0), "o": (1.0, 0.0)},
        )
        assert adv.expected_estimation_error(e) == pytest.approx(0.5, abs=1e-12)

    def test_coords_are_a_read_only_copy(self):
        coords = {"t": (0.0, 0.0), "o": (1.0, 0.0)}
        e = adv.EstimateWithTruth(D(("t", "o"), (0.5, 0.5)), "t", "euclidean", coords)
        coords["o"] = (9.0, 0.0)  # the caller's dict is not the stored one
        with pytest.raises(TypeError):
            e.coords["o"] = (9.0, 0.0)
        assert e.coords == {"t": (0.0, 0.0), "o": (1.0, 0.0)}
        assert adv.expected_estimation_error(e) == pytest.approx(0.5, abs=1e-12)

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
    def test_zero_one_equals_one_minus_posterior(self, weights):
        probs = [w / sum(weights) for w in weights]
        d = D(tuple(map(str, range(len(probs)))), tuple(probs))
        e = adv.EstimateWithTruth(d, d.labels[0])
        assert adv.expected_estimation_error(e) == pytest.approx(
            1 - probs[0], abs=1e-12
        )

    def test_truth_must_be_candidate(self):
        with pytest.raises(SchemaError):
            adv.EstimateWithTruth(D(("a",), (1.0,)), "b")


class TestDistanceErrorExpectation:
    def test_correct_hypothesis(self):
        assert adv.distance_error_expectation([[(1.0, 0.0)]], 1) == 0.0

    def test_single_step(self):
        assert adv.distance_error_expectation(
            [[(0.5, 2.0), (0.5, 4.0)]], 1
        ) == pytest.approx(3.0, abs=1e-12)

    def test_user_scaling(self):
        steps = [[(0.5, 2.0), (0.5, 4.0)]]
        assert adv.distance_error_expectation(steps, 2) == pytest.approx(
            adv.distance_error_expectation(steps, 1) / 2, abs=1e-12
        )


class TestMeanSquaredError:
    def test_perfect(self):
        assert adv.mean_squared_error([[1, 2]], [[1, 2]]) == 0.0

    def test_scalars(self):
        assert adv.mean_squared_error([[0], [0]], [[1], [3]]) == pytest.approx(5.0)

    def test_single_pair_distance_two(self):
        assert adv.mean_squared_error([[0, 0]], [[0, 2]]) == pytest.approx(4.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            adv.mean_squared_error([[1, 2]], [[1]])


class TestSimpleRatios:
    def test_pct_incorrect(self):
        assert adv.pct_incorrect(0, 9) == 0.0
        assert adv.pct_incorrect(9, 9) == 1.0
        assert adv.pct_incorrect(3, 12) == 0.25
        with pytest.raises(ParamError):
            adv.pct_incorrect(5, 4)

    def test_health_privacy(self):
        assert adv.health_privacy([1, 1], [0.2, 0.8]) == pytest.approx(0.5)
        assert adv.health_privacy([1, 3], [0.2, 0.6]) == pytest.approx(0.5)
        assert adv.health_privacy([2], [0.7]) == pytest.approx(0.7)
        with pytest.raises(ParamError):
            adv.health_privacy([0, 0], [1, 2])

    def test_health_privacy_zero_weight(self):
        # a variation of zero contribution is allowed and counts for nothing
        assert adv.health_privacy([0.0, 1.0], [5.0, 3.0]) == 3.0


class TestBatchMixRounds:
    def test_degenerate(self):
        assert adv.batch_mix_rounds(1, 1, 5, 1) == 0.0

    def test_hand_value(self):
        assert adv.batch_mix_rounds(1, 1, 2, 2) == pytest.approx(
            1.4571067811865475, abs=1e-12
        )

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
    def test_monotone_in_m_l_b(self, m, l, n, b):
        base = adv.batch_mix_rounds(m, l, n, b)
        assert adv.batch_mix_rounds(m + 1, l, n, b) >= base - 1e-12
        assert adv.batch_mix_rounds(m, l + 1, n, b) >= base - 1e-12
        assert adv.batch_mix_rounds(m, l, n, b + 1) >= base - 1e-12


class TestTraces:
    def test_never_singleton(self):
        t = Trace(((0, 3), (1, 2), (2, 4)))
        assert adv.max_tracking_time(t, 3.0) == 0.0

    def test_hand_intervals(self):
        t = Trace(((0, 1), (1, 1), (2, 3), (3, 1)))
        assert adv.max_tracking_time(t, 4.0) == pytest.approx(3.0)

    def test_always_singleton(self):
        t = Trace(((0, 1), (5, 1)))
        assert adv.max_tracking_time(t, 12.0) == pytest.approx(12.0)

    def test_span_partition(self):
        rng = np.random.default_rng(73)
        for _ in range(30):
            times = np.sort(rng.choice(np.arange(100), size=6, replace=False)).astype(float)
            sizes = rng.integers(1, 3, size=6).astype(float)
            t = Trace(tuple(zip(times, sizes)))
            end = float(times[-1] + rng.integers(1, 5))
            tracked = adv.max_tracking_time(t, end)
            untracked = math.fsum(
                e - s for s, e, v in adv._intervals(t, end) if v != 1
            )
            assert tracked + untracked == pytest.approx(end - times[0], abs=1e-9)

    def test_time_to_confusion_none(self):
        t = Trace(((0, 5.0), (1, 6.0)))
        assert adv.time_to_confusion(t, 1.0, 2.0) == {"mean_run": 0.0, "cumulative": 0.0}

    def test_time_to_confusion_single_run(self):
        t = Trace(((0, 0.5), (5, 2.0)))
        r = adv.time_to_confusion(t, 1.0, 6.0)
        assert r == {"mean_run": 5.0, "cumulative": 5.0}

    def test_time_to_confusion_two_runs(self):
        t = Trace(((0, 0.5), (2, 3.0), (5, 0.2), (8, 0.1)))
        r = adv.time_to_confusion(t, 1.0, 9.0)
        assert r["mean_run"] == pytest.approx(3.0)
        assert r["cumulative"] == pytest.approx(6.0)

    def test_end_time_validation(self):
        t = Trace(((0, 1.0), (1, 1.0)))
        with pytest.raises(ParamError):
            adv.max_tracking_time(t, 0.5)

    def test_needs_two_samples(self):
        with pytest.raises(ParamError):
            adv.max_tracking_time(Trace(((0, 1.0),)), 2.0)


class TestConfidenceIntervalWidth:
    def test_point_mass(self):
        for c in (1.0, 50.0, 100.0):
            assert adv.confidence_interval_width(atoms=[(7.0, 1.0)], c=c) == 0.0

    def test_uniform_integers_full_mass(self):
        atoms = [(float(v), 0.1) for v in range(1, 11)]
        assert adv.confidence_interval_width(atoms=atoms, c=100.0) == pytest.approx(9.0)

    def test_single_heavy_atom(self):
        atoms = [(5.0, 0.9), (100.0, 0.1)]
        assert adv.confidence_interval_width(atoms=atoms, c=90.0) == 0.0

    def test_samples_input(self):
        assert adv.confidence_interval_width(samples=[1.0, 2.0, 3.0, 4.0], c=50.0) == 1.0

    def test_mass_exactly_at_the_tolerance(self):
        # the first two of four samples hold 0.5, and 0.5 + 1e-12 rounds to
        # exactly c / 100 here: that interval reaches the mass, within tolerance
        c = 50.0000000001
        assert 0.5 + 1e-12 == c / 100.0
        assert adv.confidence_interval_width(samples=[0.0, 1.0, 2.0, 3.0], c=c) == 1.0

    def test_leftmost_tie(self):
        atoms = [(0.0, 0.5), (1.0, 0.25), (2.0, 0.25)]
        # 75% needs two adjacent atoms: [0,1] and [1,2]... only [0,1] reaches 0.75
        assert adv.confidence_interval_width(atoms=atoms, c=75.0) == 1.0

    def test_narrow_interval_at_any_scale(self):
        """Widths have no fixed scale: a gap of 1e-14 is found as surely as one of 0.01."""
        samples = [0.0, 5e-13, 5.1e-13, 1.0]
        assert adv.confidence_interval_width(samples=samples, c=50.0) == 5.1e-13 - 5e-13
        scaled = [v * 1e12 for v in samples]
        assert adv.confidence_interval_width(samples=scaled, c=50.0) == scaled[2] - scaled[1]

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    def test_non_decreasing_in_c(self, samples):
        widths = [
            adv.confidence_interval_width(samples=samples, c=c)
            for c in (10, 30, 50, 70, 90, 100)
        ]
        for a, b in zip(widths, widths[1:]):
            assert b >= a - 1e-12

    def test_validation(self):
        with pytest.raises(ParamError):
            adv.confidence_interval_width(samples=[1.0], c=0.0)
        with pytest.raises(EmptyError):
            adv.confidence_interval_width(samples=[], c=50.0)


class TestTpViolation:
    def test_boundary_equal_errors(self):
        assert adv.tp_violation_check(0.5, 0.5, 0.0) is True

    def test_clear_violation(self):
        assert adv.tp_violation_check(0.5, 0.3, 0.1) is True

    def test_no_violation(self):
        assert adv.tp_violation_check(0.5, 0.45, 0.1) is False


class TestEventUnobservability:
    def test_identical(self):
        r = adv.event_unobservability([1, 2, 3], [1, 2, 3], 1.0, 1.0, 0.1, 0.1)
        assert r == {"holds": True, "d_area": 0.0}

    def test_parameter_bracket_fails(self):
        r = adv.event_unobservability([1, 2], [1, 2], 1.0, 1.5, 10.0, 0.2)
        assert r["holds"] is False and r["d_area"] == 0.0

    def test_hand_trapezoid(self):
        # F1 from {0,1}, F2 from {0,2}; grid (0,1,2):
        # area(F1) = 1.75, area(F2) = 1.25 -> d = 0.5
        r = adv.event_unobservability([0, 1], [0, 2], 1.0, 1.0, 0.4, 0.1)
        assert r["d_area"] == pytest.approx(0.5, abs=1e-12)
        assert r["holds"] is False
        assert adv.event_unobservability([0, 1], [0, 2], 1.0, 1.0, 0.6, 0.1)["holds"]

    def test_empty_samples(self):
        with pytest.raises(EmptyError):
            adv.event_unobservability([], [1], 1.0, 1.0, 0.1, 0.1)


class TestRegionPrivacy:
    def test_contained_coverage(self):
        r_u = Region(rect=(0.25, 0.25, 0.75, 0.75))
        r_s = Region(rect=(0.0, 0.0, 1.0, 1.0))
        assert adv.region_coverage(r_u, r_s) == pytest.approx(1.0)

    def test_disjoint_coverage(self):
        r_u = Region(rect=(0, 0, 1, 1))
        r_s = Region(rect=(2, 2, 3, 3))
        assert adv.region_coverage(r_u, r_s) == 0.0

    def test_half_overlap_and_accuracy(self):
        r_u = Region(rect=(0, 0, 1, 1))
        r_s = Region(rect=(0.5, 0, 1.5, 1))
        assert adv.region_coverage(r_u, r_s) == pytest.approx(0.5)
        assert adv.region_size(r_u) == pytest.approx(1.0)

    def test_grid_cells(self):
        r_u = Region(cells=frozenset({(0, 0), (0, 1)}))
        r_s = Region(cells=frozenset({(0, 1), (5, 5)}))
        assert adv.region_coverage(r_u, r_s) == pytest.approx(0.5)

    def test_mixed_representations(self):
        with pytest.raises(ParamError):
            adv.region_coverage(Region(rect=(0, 0, 1, 1)), Region(cells=frozenset({(0, 0)})))

    def test_accuracy_of_tiny_radii(self):
        assert adv.obfuscation_accuracy(1e-300, 1e-300) == 1.0  # r² underflows to 0
        with pytest.raises(OverflowError):  # compute reports it as E_DOMAIN
            adv.obfuscation_accuracy(1.0, 1e-308)
        with pytest.raises(OverflowError):  # the ratio itself is past the largest float
            adv.obfuscation_accuracy(1.0, 5e-324)
        assert adv.obfuscation_accuracy(math.inf, 1.0) == math.inf
        with pytest.raises(DomainError):  # inf / inf has no value
            adv.obfuscation_accuracy(math.inf, math.inf)
