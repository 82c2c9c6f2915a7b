import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from privmetrics import uncertainty as u
from privmetrics.core import DiscreteDistribution as D, JointDistribution as J
from privmetrics.errors import (
    DomainError,
    EmptyError,
    ParamError,
    ShapeError,
)

dists = st.lists(
    st.floats(min_value=1e-6, max_value=1.0, allow_nan=False), min_size=1, max_size=16
).map(lambda ws: D(tuple(map(str, range(len(ws)))), tuple(w / sum(ws) for w in ws)))


def random_joint(rng, n, m):
    w = rng.random((n, m)) + 1e-9
    w /= w.sum()
    return J(
        tuple(f"x{i}" for i in range(n)),
        tuple(f"y{j}" for j in range(m)),
        tuple(tuple(row) for row in w),
    )


class TestAnonymitySetSize:
    def test_empty(self):
        assert u.anonymity_set_size(set()) == 0

    def test_singleton(self):
        assert u.anonymity_set_size({"u1"}) == 1

    def test_three(self):
        assert u.anonymity_set_size({"u1", "u2", "u3"}) == 3


class TestShannonEntropy:
    def test_uniform_four(self):
        d = D(("0", "1", "2", "3"), (0.25,) * 4)
        assert u.shannon_entropy(d) == pytest.approx(2.0, abs=1e-12)

    def test_point_mass(self):
        assert u.shannon_entropy(D(("0",), (1.0,))) == 0.0

    def test_outlier_equivalence(self):
        # a half-weight candidate plus 100 tiny ones matches a uniform 20-set
        lop = D(tuple(map(str, range(101))), (0.5,) + (0.005,) * 100)
        assert u.shannon_entropy(lop) == pytest.approx(math.log2(20), abs=1e-9)
        assert u.shannon_entropy(lop) == pytest.approx(
            u.shannon_entropy(D(tuple(map(str, range(20))), (1 / 20,) * 20)), abs=1e-9
        )

    @given(dists)
    def test_bounds(self, d):
        h = u.shannon_entropy(d)
        assert -1e-12 <= h <= math.log2(len(d)) + 1e-9

    @given(dists, st.randoms(use_true_random=False))
    def test_label_permutation_invariant(self, d, rng):
        order = list(range(len(d)))
        rng.shuffle(order)
        shuffled = D(
            tuple(d.labels[i] for i in order), tuple(d.probs[i] for i in order)
        )
        assert u.shannon_entropy(shuffled) == pytest.approx(
            u.shannon_entropy(d), abs=1e-9
        )


class TestRenyiEntropy:
    def test_hartley_uniform_eight(self):
        d = D(tuple(map(str, range(8))), (1 / 8,) * 8)
        assert u.renyi_entropy(d, 0) == pytest.approx(3.0, abs=1e-12)

    def test_min_entropy(self):
        d = D(("0", "1", "2"), (0.5, 0.25, 0.25))
        assert u.renyi_entropy(d, math.inf) == pytest.approx(1.0, abs=1e-12)
        assert u.min_entropy(d) == pytest.approx(1.0, abs=1e-12)

    def test_alpha_two(self):
        d = D(("0", "1", "2"), (0.5, 0.25, 0.25))
        assert u.renyi_entropy(d, 2) == pytest.approx(1.415037499278844, abs=1e-9)

    def test_negative_alpha(self):
        with pytest.raises(ParamError):
            u.renyi_entropy(D(("0", "1"), (0.5, 0.5)), -0.5)

    def test_huge_alpha_is_min_entropy(self):
        uniform = D(tuple(map(str, range(8))), (1 / 8,) * 8)
        for d in (uniform, D(("0", "1", "2"), (0.5, 0.25, 0.25))):
            assert u.renyi_entropy(d, 1e308) == pytest.approx(u.min_entropy(d), abs=1e-12)

    @given(dists)
    def test_monotone_in_alpha(self, d):
        alphas = [0.0, 0.5, 1.0, 2.0, math.inf]
        values = [u.renyi_entropy(d, a) for a in alphas]
        for lo, hi in zip(values, values[1:]):
            assert lo >= hi - 1e-12

    @given(dists)
    def test_near_one_matches_shannon(self, d):
        h = u.shannon_entropy(d)
        assert u.renyi_entropy(d, 1 + 1e-7) == pytest.approx(h, abs=1e-4)
        assert u.renyi_entropy(d, 1 - 1e-7) == pytest.approx(h, abs=1e-4)


class TestNormalizedEntropy:
    def test_uniform_is_one(self):
        d = D(tuple(map(str, range(7))), (1 / 7,) * 7)
        assert u.normalized_entropy(d) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass_is_zero(self):
        assert u.normalized_entropy(D(("0", "1", "2", "3"), (1.0, 0.0, 0.0, 0.0))) == 0.0

    def test_hand_value(self):
        d = D(("0", "1", "2"), (0.5, 0.25, 0.25))
        assert u.normalized_entropy(d) == pytest.approx(0.946394630357186, abs=1e-6)

    def test_single_outcome_rejected(self):
        with pytest.raises(ParamError):
            u.normalized_entropy(D(("0",), (1.0,)))


class TestAsymmetricEntropy:
    def test_peaks_sum_to_n(self):
        d = D(("0", "1", "2"), (0.2, 0.3, 0.5))
        assert u.asymmetric_entropy(d, [0.2, 0.3, 0.5]) == pytest.approx(3.0, abs=1e-12)

    def test_point_mass_is_zero(self):
        d = D(("0", "1", "2"), (1.0, 0.0, 0.0))
        assert u.asymmetric_entropy(d, [0.5, 0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_special_case(self):
        d = D(("0", "1"), (0.8, 0.2))
        assert u.asymmetric_entropy(d, [0.5, 0.5]) == pytest.approx(1.28, abs=1e-12)

    def test_peak_outside_unit_interval(self):
        with pytest.raises(ParamError):
            u.asymmetric_entropy(D(("0", "1"), (0.5, 0.5)), [0.5, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ParamError):
            u.asymmetric_entropy(D(("0", "1"), (0.5, 0.5)), [0.5])


class TestQuantileEntropy:
    def test_all_retained(self):
        d = D(("0", "1", "2", "3"), (0.25,) * 4)
        assert u.quantile_entropy(d, 0.2) == pytest.approx(2.0, abs=1e-12)

    def test_none_retained(self):
        with pytest.raises(EmptyError):
            u.quantile_entropy(D(("0", "1", "2", "3"), (0.25,) * 4), 0.3)

    def test_renormalized_subset(self):
        d = D(("0", "1", "2"), (0.5, 0.3, 0.2))
        assert u.quantile_entropy(d, 0.3) == pytest.approx(0.954434002924965, abs=1e-9)

    def test_c_domain(self):
        with pytest.raises(ParamError):
            u.quantile_entropy(D(("0", "1"), (0.5, 0.5)), 0.0)


class TestConditionalEntropy:
    def test_independent(self):
        px, py = [0.3, 0.7], [0.6, 0.4]
        j = J(("a", "b"), ("c", "d"),
              tuple(tuple(x * y for y in py) for x in px))
        assert u.conditional_entropy(j) == pytest.approx(
            u.shannon_entropy(j.marginal_x()), abs=1e-12
        )

    def test_deterministic(self):
        j = J(("a", "b"), ("c", "d"), ((0.5, 0.0), (0.0, 0.5)))
        assert u.conditional_entropy(j) == pytest.approx(0.0, abs=1e-12)

    def test_binary_symmetric(self):
        j = J(("0", "1"), ("0", "1"), ((0.445, 0.055), (0.055, 0.445)))
        assert u.conditional_entropy(j) == pytest.approx(0.499915958164528, abs=1e-9)
        # direct-sum cross-check
        direct = -sum(
            j.matrix[x][y] * math.log2(j.matrix[x][y] / sum(r[y] for r in j.matrix))
            for x in range(2)
            for y in range(2)
        )
        assert u.conditional_entropy(j) == pytest.approx(direct, abs=1e-12)

    def test_normalized_needs_entropy(self):
        j = J(("a",), ("c", "d"), ((0.5, 0.5),))
        with pytest.raises(ParamError):
            u.normalized_conditional_entropy(j)

    def test_information_cannot_hurt(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            j = random_joint(rng, rng.integers(1, 5), rng.integers(1, 5))
            assert u.conditional_entropy(j) <= u.shannon_entropy(j.marginal_x()) + 1e-9


class TestInherentPrivacy:
    WITH_ENTROPY = {  # a distribution whose entropy is h bits
        0: D(("a",), (1.0,)),
        3: D(tuple("abcdefgh"), (0.125,) * 8),
        1.5: D(("a", "b", "c"), (0.5, 0.25, 0.25)),
    }

    @pytest.mark.parametrize("h,expected", [(0, 1), (3, 8), (1.5, 2.8284271247461903)])
    def test_values(self, h, expected):
        d = self.WITH_ENTROPY[h]
        assert u.shannon_entropy(d) == h
        assert u.inherent_privacy(d) == pytest.approx(expected, abs=1e-9)

    def test_conditional_privacy_is_two_to_the_conditional_entropy(self):
        j = J(("0", "1"), ("0", "1"), ((0.445, 0.055), (0.055, 0.445)))
        assert u.conditional_privacy(j) == 2.0 ** u.conditional_entropy(j)
        identity = J(("0", "1"), ("0", "1"), ((0.5, 0.0), (0.0, 0.5)))
        assert u.conditional_privacy(identity) == 1.0


class TestCrossEntropy:
    def test_equal_distributions(self):
        d = D(("0", "1", "2"), (0.5, 0.25, 0.25))
        assert u.cross_entropy(d, d) == pytest.approx(u.shannon_entropy(d), abs=1e-12)

    def test_uniform_model(self):
        p = D(("a", "b"), (1.0, 0.0))
        q = D(("a", "b"), (0.5, 0.5))
        assert u.cross_entropy(p, q) == pytest.approx(1.0, abs=1e-12)

    def test_unsupported_outcome(self):
        p = D(("a", "b"), (1.0, 0.0))
        q = D(("a", "b"), (0.0, 1.0))
        assert u.cross_entropy(p, q) == math.inf

    def test_label_mismatch(self):
        with pytest.raises(ShapeError):
            u.cross_entropy(D(("a",), (1.0,)), D(("b",), (1.0,)))

    def test_label_alignment(self):
        p = D(("a", "b"), (0.75, 0.25))
        q = D(("b", "a"), (0.25, 0.75))  # same distribution, reordered
        assert u.cross_entropy(p, q) == pytest.approx(u.shannon_entropy(p), abs=1e-12)


class TestUnlinkability:
    def test_certain_partition(self):
        pd = u.PartitionDistribution(
            (u.make_partition([["a", "b"]]),), (1.0,)
        )
        assert u.unlinkability_degree(pd)["h_bits"] == 0.0

    def test_two_equiprobable(self):
        pd = u.PartitionDistribution(
            (u.make_partition([["1", "2"]]), u.make_partition([["1"], ["2"]])),
            (0.5, 0.5),
        )
        assert u.unlinkability_degree(pd)["h_bits"] == pytest.approx(1.0, abs=1e-12)

    def test_ratio_posterior_equals_prior(self):
        pd = u.PartitionDistribution(
            (u.make_partition([["1", "2"]]), u.make_partition([["1"], ["2"]])),
            (0.5, 0.5),
        )
        assert u.unlinkability_degree(pd, pd)["ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_zero_prior_entropy(self):
        post = u.PartitionDistribution(
            (u.make_partition([["1", "2"]]), u.make_partition([["1"], ["2"]])),
            (0.5, 0.5),
        )
        prior = u.PartitionDistribution((u.make_partition([["1", "2"]]),), (1.0,))
        with pytest.raises(ParamError):
            u.unlinkability_degree(post, prior)

    def test_overlapping_blocks_rejected(self):
        with pytest.raises(ParamError):
            u.make_partition([["a", "b"], ["b"]])


class TestBayesSeries:
    def test_uninformative_keeps_prior(self):
        prior = D(("s0", "s1"), (0.25, 0.75))
        series = u.bayes_entropy_series(
            prior.labels, prior.probs, ((1.0, 0.0), (0.0, 1.0)), ((1.0, 1.0),) * 3
        )["series"]
        h0 = u.shannon_entropy(prior)
        assert series == pytest.approx([h0] * 3, abs=1e-12)

    def test_indicator_likelihoods_zero_entropy(self):
        series = u.bayes_entropy_series(
            ("0", "1", "2"),
            (1 / 3,) * 3,
            tuple(tuple(1.0 / 3 for _ in range(3)) for _ in range(3)),
            ((1.0, 0.0, 0.0), (0.0, 0.0, 1.0)),
        )["series"]
        assert series == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_single_update_by_hand(self):
        series = u.bayes_entropy_series(
            ("s0", "s1"), (0.5, 0.5), ((1.0, 0.0), (0.0, 1.0)), ((0.9, 0.1),)
        )["series"]
        assert series[0] == pytest.approx(0.468995593589281, abs=1e-9)

    def test_vanishing_posterior(self):
        with pytest.raises(DomainError):
            u.bayes_entropy_series(("s0", "s1"), (1.0, 0.0), ((1.0, 0.0), (0.0, 1.0)), ((0.0, 1.0),))


class TestAggregates:
    def test_cumulative_entropy(self):
        assert u.cumulative_entropy([]) == 0.0
        assert u.cumulative_entropy([1.0, 1.0]) == 2.0
        assert u.cumulative_entropy([0.5, 1.25, 0.25]) == pytest.approx(2.0, abs=1e-12)
        with pytest.raises(ParamError):
            u.cumulative_entropy([-0.1])

    def test_genomic_privacy(self):
        assert u.genomic_privacy([0.5], [1.0]) == pytest.approx(1.0, abs=1e-12)
        assert u.genomic_privacy([0.25, 0.5], [1, 2]) == pytest.approx(4.0, abs=1e-12)
        assert u.genomic_privacy([1.0, 1.0], [3, 5]) == 0.0
        with pytest.raises(DomainError):
            u.genomic_privacy([0.0], [1.0])
        with pytest.raises(ShapeError):
            u.genomic_privacy([0.5], [1.0, 2.0])
        assert u.genomic_privacy([0.5, 0.5], [1e308, 1e308]) == math.inf  # the sum passes max float
        with pytest.raises(ParamError):
            u.genomic_privacy([0.5], [math.nan])

    def test_protection_level(self):
        ref = D(("0", "1"), (0.5, 0.5))
        regions = [D(("0", "1"), (0.5, 0.5))] * 3
        assert u.protection_level(regions, ref, 3) == pytest.approx(1.0, abs=1e-12)
        four = D(("0", "1", "2", "3"), (0.25,) * 4)
        assert u.protection_level([four], ref, 1) == pytest.approx(2.0, abs=1e-12)
        assert u.protection_level(
            [D(("0",), (1.0,))], D(tuple(map(str, range(8))), (1 / 8,) * 8), 1
        ) == pytest.approx(0.125, abs=1e-12)
        with pytest.raises(ParamError):
            u.protection_level(regions, ref, 0)
        with pytest.raises(EmptyError):
            u.protection_level([], ref, 1)


class TestUserCentricPrivacy:
    def test_at_last_event(self):
        assert u.user_centric_privacy(2.0, 1.0, 10.0, 10.0) == 2.0

    def test_after_full_decay(self):
        assert u.user_centric_privacy(2.0, 1.0, 2.0, 0.0) == 0.0
        assert u.user_centric_privacy(2.0, 1.0, 100.0, 0.0) == 0.0

    def test_linear_decay(self):
        assert u.user_centric_privacy(2.0, 1.0, 0.5, 0.0) == pytest.approx(1.5, abs=1e-12)

    def test_time_before_event(self):
        with pytest.raises(ParamError):
            u.user_centric_privacy(2.0, 1.0, 4.0, 5.0)

    @given(
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=0.01, max_value=5),
        st.lists(st.floats(min_value=0, max_value=30), min_size=2, max_size=10),
    )
    def test_non_increasing_and_continuous(self, h0, lam, times):
        values = [u.user_centric_privacy(h0, lam, t, 0.0) for t in sorted(times)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12
        t_f = h0 / lam
        before = u.user_centric_privacy(h0, lam, max(0.0, t_f - 1e-9), 0.0)
        after = u.user_centric_privacy(h0, lam, t_f + 1e-9, 0.0)
        assert abs(before - after) <= lam * 2e-9 + 1e-12
