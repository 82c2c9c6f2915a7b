import itertools
import json
import math

import numpy as np
import pytest

from privmetrics import infogain as ig
from privmetrics import uncertainty as u
from privmetrics.core import (
    DiscreteDistribution as D, JointDistribution as J, _normalized, parse_mechanism,
)
from privmetrics.errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    ParamError,
    ShapeError,
)


def positive_dist(rng, n):
    w = rng.random(n) + 1e-6
    return D(tuple(map(str, range(n))), tuple((w / w.sum()).tolist()))


def random_joint(rng, n, m):
    w = rng.random((n, m)) + 1e-9
    w /= w.sum()
    return J(
        tuple(f"x{i}" for i in range(n)),
        tuple(f"y{j}" for j in range(m)),
        tuple(tuple(row) for row in w),
    )


def brute_force_permanent(bits):
    n = len(bits)
    return sum(
        math.prod(bits[i][p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
    )


def gray_code_permanent(bits):
    """Ryser's formula as the library scanned it before the row sums were packed into one int:
    a Gray-code walk with one Python loop per row, kept as a reference."""
    n = len(bits)
    rows = [list(r) for r in bits]
    rowsums = [0] * n
    total = 0
    gray = 0
    sign = 1  # sign of (-1)^(n - |S|), updated incrementally
    for k in range(1, 1 << n):
        bit = k & -k
        j = bit.bit_length() - 1
        if gray & bit:
            gray ^= bit
            for i in range(n):
                rowsums[i] -= rows[i][j]
            sign = -sign
        else:
            gray ^= bit
            for i in range(n):
                rowsums[i] += rows[i][j]
            sign = -sign
        prod = 1
        for s in rowsums:
            if s == 0:
                prod = 0
                break
            prod *= s
        # |S| parity flips each step; fold (-1)^n in at the end
        total += sign * prod
    return total if n % 2 == 0 else -total


def h_bits(ps):
    return -sum(p * math.log2(p) for p in ps if p > 0)


class TestLeakedCount:
    def test_examples(self):
        assert ig.leaked_count(set()) == 0
        assert ig.leaked_count({"a", "b", "c"}) == 3
        assert ig.leaked_count(["a", "a", "b"]) == 2


class TestKLDivergence:
    def test_identical(self):
        d = D(("0", "1", "2"), (0.5, 0.3, 0.2))
        assert ig.kl_divergence(d, d) == pytest.approx(0.0, abs=1e-12)

    def test_point_vs_uniform(self):
        p = D(("a", "b"), (1.0, 0.0))
        q = D(("a", "b"), (0.5, 0.5))
        assert ig.kl_divergence(p, q) == pytest.approx(1.0, abs=1e-12)

    def test_hand_value(self):
        p = D(("a", "b"), (0.75, 0.25))
        q = D(("a", "b"), (0.5, 0.5))
        assert ig.kl_divergence(p, q) == pytest.approx(0.188721875540867, abs=1e-9)

    def test_unsupported_outcome(self):
        p = D(("a", "b"), (0.5, 0.5))
        q = D(("a", "b"), (1.0, 0.0))
        assert ig.kl_divergence(p, q) == math.inf

    def test_label_mismatch(self):
        with pytest.raises(ShapeError):
            ig.kl_divergence(D(("a",), (1.0,)), D(("b",), (1.0,)))

    def test_nonnegative_random_pairs(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            p, q = positive_dist(rng, n), positive_dist(rng, n)
            kl = ig.kl_divergence(p, q)
            assert kl >= -1e-12
            if kl < 1e-12:
                assert np.allclose(p.probs, q.probs)


class TestMutualInformation:
    def test_independent(self):
        px, py = [0.3, 0.7], [0.6, 0.4]
        j = J(("a", "b"), ("c", "d"), tuple(tuple(x * y for y in py) for x in px))
        assert ig.mutual_information(j) == pytest.approx(0.0, abs=1e-12)
        assert ig.normalized_mutual_information(j) == pytest.approx(1.0, abs=1e-9)
        assert ig.conditional_privacy_loss(j) == pytest.approx(0.0, abs=1e-9)

    def test_identity_channel(self):
        j = J(("a", "b"), ("c", "d"), ((0.5, 0.0), (0.0, 0.5)))
        assert ig.mutual_information(j) == pytest.approx(1.0, abs=1e-12)
        assert ig.normalized_mutual_information(j) == pytest.approx(0.0, abs=1e-12)
        assert ig.conditional_privacy_loss(j) == pytest.approx(0.5, abs=1e-12)

    def test_parity_of_a_uniform_quaternary(self):
        """Y = X mod 2 for X uniform over 4: I(X;Y) = 1 bit of H(X) = 2."""
        j = J(("0", "1", "2", "3"), ("0", "1"), ((0.25, 0.0), (0.0, 0.25), (0.25, 0.0), (0.0, 0.25)))
        assert ig.mutual_information(j) == pytest.approx(1.0, abs=1e-12)
        assert ig.normalized_mutual_information(j) == pytest.approx(0.5, abs=1e-12)

    def test_binary_symmetric(self):
        j = J(("0", "1"), ("0", "1"), ((0.445, 0.055), (0.055, 0.445)))
        assert ig.mutual_information(j) == pytest.approx(0.500084041835472, abs=1e-9)

    def test_degenerate_x(self):
        """A deterministic X shares no information: I(X;Y) = 0; only the H(X)-normalized form is undefined."""
        j = J(("a",), ("c", "d"), ((0.5, 0.5),))
        assert ig.mutual_information(j) == 0.0
        assert ig.conditional_privacy_loss(j) == 0.0
        with pytest.raises(ParamError):
            ig.normalized_mutual_information(j)

    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            mi = ig.mutual_information(j)
            transposed = J(j.y_labels, j.x_labels, tuple(zip(*j.matrix)))
            assert mi == pytest.approx(ig.mutual_information(transposed), abs=1e-9)
            hx = u.shannon_entropy(j.marginal_x())
            hy = u.shannon_entropy(j.marginal_y())
            hxy = h_bits([v for row in j.matrix for v in row])
            assert mi == pytest.approx(hx + hy - hxy, abs=1e-9)


class TestConditionalMutualInformation:
    def test_z_independent_reduces_to_mi(self):
        xy = [[0.4, 0.1], [0.1, 0.4]]
        tensor = [[[v / 2, v / 2] for v in row] for row in xy]
        j = J(("0", "1"), ("0", "1"), tuple(tuple(r) for r in xy))
        assert ig.conditional_mutual_information(tensor) == pytest.approx(
            ig.mutual_information(j), abs=1e-9
        )

    def test_x_equals_z(self):
        # p(x,y,z) = p(x,y) * [z == x]
        tensor = [[[0.4, 0.0], [0.1, 0.0]], [[0.0, 0.1], [0.0, 0.4]]]
        assert ig.conditional_mutual_information(tensor) == pytest.approx(0.0, abs=1e-9)

    def test_brute_force_2x2x2(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t = rng.random((2, 2, 2)) + 1e-6
            t /= t.sum()
            # oracle: H(X|Z) - H(X|Y,Z) from first principles
            h_xz = h_bits(t.sum(axis=1).ravel())
            h_z = h_bits(t.sum(axis=(0, 1)).ravel())
            h_xyz = h_bits(t.ravel())
            h_yz = h_bits(t.sum(axis=0).ravel())
            oracle = (h_xz - h_z) - (h_xyz - h_yz)
            assert ig.conditional_mutual_information(t.tolist()) == pytest.approx(
                oracle, abs=1e-9
            )
            assert ig.conditional_mutual_information(t.tolist()) >= -1e-9


class TestChannelCapacity:
    def test_identity_channels(self):
        for n in (2, 4, 8):
            labels = list(range(n))
            m = parse_mechanism(
                json.dumps({"inputs": labels, "outputs": labels, "matrix": np.eye(n).tolist()})
            )
            assert ig.channel_capacity(m) == pytest.approx(math.log2(n), abs=1e-9)

    def test_constant_output(self):
        matrix = [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]
        m = parse_mechanism(json.dumps({"inputs": [0, 1, 2], "outputs": [0, 1], "matrix": matrix}))
        assert ig.channel_capacity(m) == pytest.approx(0.0, abs=1e-12)

    def test_binary_symmetric_closed_form(self):
        for q in (0.05, 0.11, 0.25, 0.5):
            matrix = [[1 - q, q], [q, 1 - q]]
            m = parse_mechanism(json.dumps({"inputs": [0, 1], "outputs": [0, 1], "matrix": matrix}))
            expect = 1 - h_bits([q, 1 - q])
            assert ig.channel_capacity(m) == pytest.approx(expect, abs=1e-6)

    def test_capacity_dominates_any_input(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n, k = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            mat = rng.random((n, k)) + 1e-6
            mat /= mat.sum(axis=1, keepdims=True)
            labels = {"inputs": list(range(n)), "outputs": list(range(k))}
            m = parse_mechanism(json.dumps({**labels, "matrix": mat.tolist()}))
            cap = ig.channel_capacity(m)
            for _ in range(5):
                px = rng.random(n) + 1e-9
                px /= px.sum()
                joint = mat * px[:, None]
                j = J(
                    tuple(map(str, range(n))),
                    tuple(map(str, range(k))),
                    tuple(tuple(r) for r in joint),
                )
                assert cap >= ig.mutual_information(j) - 1e-7

    def test_conditional_matches_grid_oracle(self):
        # exhaustive input-distribution grid (step 1/64) for |X| <= 4
        rng = np.random.default_rng(23)
        step = 64
        for n, k, nz in ((2, 3, 2), (3, 2, 2)):
            mats = []
            for _ in range(nz):
                w = rng.random((n, k)) + 1e-6
                mats.append(w / w.sum(axis=1, keepdims=True))
            p_z = rng.random(nz) + 0.1
            p_z /= p_z.sum()

            def avg_mi(px):
                total = 0.0
                for wz, mat in zip(p_z, mats):
                    joint = mat * px[:, None]
                    py = joint.sum(axis=0)
                    mi = sum(
                        joint[x, y] * math.log2(joint[x, y] / (px[x] * py[y]))
                        for x in range(n)
                        for y in range(k)
                        if joint[x, y] > 0 and px[x] > 0
                    )
                    total += wz * mi
                return total

            best = 0.0
            for combo in itertools.product(range(step + 1), repeat=n - 1):
                if sum(combo) > step:
                    continue
                px = np.array(list(combo) + [step - sum(combo)], dtype=float) / step
                best = max(best, avg_mi(px))
            labels = {"inputs": list(range(n)), "outputs": list(range(k))}
            channels = [parse_mechanism(json.dumps({**labels, "matrix": m.tolist()})) for m in mats]
            value = ig.conditional_channel_capacity(channels, p_z.tolist())
            assert value >= best - 1e-7
            assert value <= best + 1e-3  # grid resolution bounds the gap

    def test_zero_output_column_leaves_capacity(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            n, k = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            mat = rng.random((n, k)) + 1e-6
            mat /= mat.sum(axis=1, keepdims=True)
            padded = np.insert(mat, int(rng.integers(0, k + 1)), 0.0, axis=1)
            m = {"inputs": list(range(n)), "outputs": list(range(k)), "matrix": mat.tolist()}
            padded = {**m, "outputs": list(range(k + 1)), "matrix": padded.tolist()}
            assert ig.channel_capacity(parse_mechanism(json.dumps(padded))) == pytest.approx(
                ig.channel_capacity(parse_mechanism(json.dumps(m))), abs=1e-12
            )

    def test_zero_weight_channel_leaves_capacity(self):
        rng = np.random.default_rng(61)
        channels = []
        for _ in range(3):
            mat = rng.random((3, 4)) + 1e-6
            matrix = (mat / mat.sum(axis=1, keepdims=True)).tolist()
            labels = {"inputs": [0, 1, 2], "outputs": [0, 1, 2, 3]}
            channels.append(parse_mechanism(json.dumps({**labels, "matrix": matrix})))
        value = ig.conditional_channel_capacity(channels[:2], [0.4, 0.6])
        assert ig.conditional_channel_capacity(channels, [0.4, 0.6, 0.0]) == pytest.approx(
            value, abs=1e-12
        )

    @staticmethod
    def reference_capacity(channels, p_z):
        """The Blahut-Arimoto loop as first written, one fresh array per step."""
        weights = _normalized(p_z, "p_z")
        n_in = len(channels[0].inputs)
        terms = []
        for w, ch in zip(weights, channels):
            if w > 0:
                mat = np.asarray(ch.matrix, dtype=float)
                neg_h = (mat * np.log2(mat, out=np.zeros_like(mat), where=mat > 0)).sum(axis=1)
                terms.append((w, mat, neg_h))
        r = np.full(n_in, 1.0 / n_in)
        prev_bounds = None
        for _ in range(ig.BA_MAX_ITER):
            d_avg = np.zeros(n_in)
            for w, mat, neg_h in terms:
                q = r @ mat
                d_avg += w * (neg_h - mat @ np.log2(q, out=np.zeros_like(q), where=q > 0))
            upper = float(d_avg.max())
            lower = float(math.log2(np.dot(r, np.exp2(d_avg))))
            if upper - lower < ig.BA_TOL:
                return lower
            if prev_bounds is not None:
                if abs(upper - prev_bounds[0]) < ig.BA_TOL and abs(lower - prev_bounds[1]) < ig.BA_TOL:
                    return lower
            prev_bounds = (upper, lower)
            r = r * np.exp2(d_avg - d_avg.max())
            r /= r.sum()
        raise ConvergenceError("cap")

    @staticmethod
    def seeded_channel(rng, n, k, zero_columns=0, near_symmetric=False):
        """A dense channel; or one within about 1e-3 of the n-ary symmetric
        channel that keeps 0.9, on which Blahut-Arimoto stops on the gap
        between its bounds a step before they stall."""
        if near_symmetric:
            mat = np.full((n, k), 0.1 / (k - 1))
            np.fill_diagonal(mat, 0.9)
            mat = np.abs(mat + rng.normal(0, 1e-3, (n, k)))
        else:
            mat = rng.random((n, k)) + 1e-6
        mat /= mat.sum(axis=1, keepdims=True)
        for _ in range(zero_columns):
            mat = np.insert(mat, int(rng.integers(0, mat.shape[1] + 1)), 0.0, axis=1)
        labels = {"inputs": list(range(n)), "outputs": list(range(mat.shape[1]))}
        return parse_mechanism(json.dumps({**labels, "matrix": mat.tolist()}))

    @pytest.mark.parametrize("seed", range(12))
    def test_loop_equals_reference(self, seed):
        """The loop that writes into preallocated buffers gives the value of
        the loop that allocates, bit for bit."""
        rng = np.random.default_rng(7100 + seed)
        n, k = int(rng.integers(2, 40)), int(rng.integers(2, 40))
        small = int(rng.integers(2, 6))
        for channel in (self.seeded_channel(rng, n, k),
                        self.seeded_channel(rng, n, k, zero_columns=2),
                        self.seeded_channel(rng, small, small, near_symmetric=True)):
            assert ig.conditional_channel_capacity([channel], [1.0]) == self.reference_capacity(
                [channel], [1.0]
            )
        channels = [self.seeded_channel(rng, n, int(rng.integers(2, 12)), zero_columns=z)
                    for z in (0, 1, 0)]
        weights = rng.random(3)
        for p_z in ([0.2, 0.3, 0.5], [0.5, 0.0, 0.5], (weights / weights.sum()).tolist()):
            assert ig.conditional_channel_capacity(channels, p_z) == self.reference_capacity(
                channels, p_z
            )

    def test_conditional_weight_validation(self):
        matrix = [[1.0, 0.0], [0.0, 1.0]]
        m = parse_mechanism(json.dumps({"inputs": [0, 1], "outputs": [0, 1], "matrix": matrix}))
        with pytest.raises(ShapeError):
            ig.conditional_channel_capacity([m], [0.5, 0.5])


class TestMaxInformationLeakage:
    def test_revealing_channel(self):
        j = J(("a", "b"), ("c", "d"), ((0.5, 0.0), (0.0, 0.5)))
        assert ig.max_information_leakage(j) == pytest.approx(1.0, abs=1e-12)

    def test_independent(self):
        j = J(("a", "b"), ("c", "d"), ((0.25, 0.25), (0.25, 0.25)))
        assert ig.max_information_leakage(j) == pytest.approx(0.0, abs=1e-12)

    def test_hand_value(self):
        j = J(("0", "1"), ("0", "1"), ((0.4, 0.1), (0.1, 0.4)))
        assert ig.max_information_leakage(j) == pytest.approx(
            0.278071905112638, abs=1e-9
        )

    def test_observation_of_zero_mass_is_skipped(self):
        """An output no input reaches is not an observation: the value is that
        of the joint without it."""
        j = J(("0", "1"), ("0", "1", "2"), ((0.4, 0.0, 0.1), (0.1, 0.0, 0.4)))
        assert ig.max_information_leakage(j) == pytest.approx(0.278071905112638, abs=1e-9)

    def test_dominates_average(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            j = random_joint(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
            assert (
                ig.max_information_leakage(j)
                >= ig.mutual_information(j) - 1e-9
            )


class TestMatrixPermanent:
    def test_identity(self):
        a = ig.AdjacencyMatrix(tuple(tuple(int(i == j) for j in range(5)) for i in range(5)))
        assert ig.matrix_permanent(a) == 1

    def test_all_ones(self):
        a = ig.AdjacencyMatrix(((1, 1, 1),) * 3)
        assert ig.matrix_permanent(a) == 6

    def test_against_brute_force(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            bits = tuple(tuple(int(v) for v in rng.integers(0, 2, n)) for _ in range(n))
            a = ig.AdjacencyMatrix(bits)
            assert ig.matrix_permanent(a) == brute_force_permanent(bits)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_equals_the_gray_code_scan(self, n):
        rng = np.random.default_rng(100 + n)
        for density in (0.2, 0.5, 0.8):
            for _ in range(2):
                bits = tuple(tuple(int(v) for v in rng.random(n) < density) for _ in range(n))
                assert ig.matrix_permanent(ig.AdjacencyMatrix(bits)) == gray_code_permanent(bits)

    def test_all_ones_is_n_factorial(self):
        for n in range(1, 17):
            a = ig.AdjacencyMatrix(((1,) * n,) * n)
            assert ig.matrix_permanent(a) == math.factorial(n)

    def test_size_cap(self):
        a = ig.AdjacencyMatrix(tuple(tuple(1 for _ in range(21)) for _ in range(21)))
        with pytest.raises(ParamError):
            ig.matrix_permanent(a)
        identity = tuple(tuple(int(i == j) for j in range(20)) for i in range(20))
        assert ig.matrix_permanent(ig.AdjacencyMatrix(identity)) == 1  # n = 20 is inside the cap


class TestSystemAnonymityLevel:
    def test_single_user(self):
        assert ig.system_anonymity_level(ig.AdjacencyMatrix(((1,),))) == 0.0

    def test_full_two_by_two(self):
        a = ig.AdjacencyMatrix(((1, 1), (1, 1)))
        assert ig.system_anonymity_level(a) == pytest.approx(1.0, abs=1e-12)

    def test_identity_three(self):
        a = ig.AdjacencyMatrix(tuple(tuple(int(i == j) for j in range(3)) for i in range(3)))
        assert ig.system_anonymity_level(a) == pytest.approx(0.0, abs=1e-12)

    def test_no_matching(self):
        a = ig.AdjacencyMatrix(((0, 0), (1, 1)))
        with pytest.raises(DomainError):
            ig.system_anonymity_level(a)

    def test_unit_interval_for_singleton_classes(self):
        rng = np.random.default_rng(47)
        seen = 0
        while seen < 40:
            n = int(rng.integers(2, 6))
            bits = tuple(tuple(int(v) for v in rng.integers(0, 2, n)) for _ in range(n))
            a = ig.AdjacencyMatrix(bits)
            if ig.matrix_permanent(a) == 0:
                continue
            seen += 1
            assert 0.0 <= ig.system_anonymity_level(a) <= 1.0 + 1e-12

    def test_class_labels_grouping(self):
        # 3 matchings in two classes -> entropy of (2/3, 1/3)
        a = ig.AdjacencyMatrix(((1, 1, 0), (1, 1, 1), (0, 1, 1)), ("g1", "g1", "g2"))
        expected = h_bits([2 / 3, 1 / 3]) / math.log2(6)
        assert ig.system_anonymity_level(a) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 13])
    def test_all_ones_is_exactly_one(self, n):
        a = ig.AdjacencyMatrix(((1,) * n,) * n)
        assert ig.system_anonymity_level(a) == 1.0

    def test_labelled_matchings_oracle(self):
        # list the matchings in lexicographic order, label them at random
        rng = np.random.default_rng(53)
        seen = 0
        while seen < 40:
            n = int(rng.integers(2, 6))
            bits = tuple(tuple(int(v) for v in rng.integers(0, 2, n)) for _ in range(n))
            perms = itertools.permutations(range(n))
            matchings = [p for p in perms if all(bits[i][p[i]] for i in range(n))]
            if not matchings:
                continue
            seen += 1
            labels = tuple(str(v) for v in rng.integers(0, 3, len(matchings)))
            counts = [labels.count(lab) / len(labels) for lab in set(labels)]
            expected = h_bits(counts) / math.log2(math.factorial(n))
            a = ig.AdjacencyMatrix(bits, labels)
            assert ig.system_anonymity_level(a) == pytest.approx(expected, abs=1e-12)

    def test_class_label_count_mismatch(self):
        a = ig.AdjacencyMatrix(((1, 1), (1, 1)), ("only-one",))
        with pytest.raises(ShapeError):
            ig.system_anonymity_level(a)


class TestPointwiseMeasures:
    def test_surprisal(self):
        assert ig.surprisal(1.0) == 0.0
        assert ig.surprisal(0.125) == pytest.approx(3.0, abs=1e-12)
        assert ig.surprisal(0.1) == pytest.approx(3.321928094887362, abs=1e-9)
        with pytest.raises(DomainError):
            ig.surprisal(0.0)
        with pytest.raises(ParamError):
            ig.surprisal(1.1)

    def test_belief_increase(self):
        assert ig.belief_increase_check(0.3, 0.3, 0.0) == {"breached": False, "gap": 0.0}
        r = ig.belief_increase_check(0.2, 0.5, 0.2)
        assert r["breached"] and r["gap"] == pytest.approx(0.3, abs=1e-12)
        r = ig.belief_increase_check(0.2, 0.5, 0.3)
        assert not r["breached"]  # strict inequality at the boundary
        with pytest.raises(ParamError):
            ig.belief_increase_check(-0.1, 0.5, 0.1)

    def test_feature_mass_reduction(self):
        allz = [0.0] * 8
        orig = [1.0] * 8
        assert ig.feature_mass_reduction(allz, None, orig, None) == 0.0
        assert ig.feature_mass_reduction(orig, None, orig, None) == 1.0
        two = [0, 1, 0, 0, 2, 0, 0, 0]
        assert ig.feature_mass_reduction(two, None, orig, None) == 0.25
        with pytest.raises(DomainError):
            ig.feature_mass_reduction(orig, None, allz, None)

    def test_feature_window(self):
        # both transitions in a window of 2, against all 4 transitions of the original
        assert ig.feature_mass_reduction([1, 1, 0, 0], 2, [1, 1, 1, 1], None) == 0.5
        # a window as long as the series counts it all; a window of 0 counts nothing
        assert ig.feature_mass_reduction([1, 0, 1, 1], 4, [1, 1, 1, 1], 4) == 0.75
        assert ig.feature_mass_reduction([1, 1], 0, [1, 1], None) == 0.0
        with pytest.raises(ParamError):
            ig.feature_mass_reduction([1], 5, [1], None)
        with pytest.raises(ParamError):
            ig.feature_mass_reduction([1], None, [1], -1)

    def test_privacy_score(self):
        assert ig.privacy_score([1, 2], [0, 0]) == 0.0
        assert ig.privacy_score([1, 2], [3, 4]) == pytest.approx(11.0, abs=1e-12)
        assert ig.privacy_score([5], [1]) == pytest.approx(5.0, abs=1e-12)
        with pytest.raises(ShapeError):
            ig.privacy_score([1], [1, 2])

    def test_pearson(self):
        assert ig.pearson_abs([1, 2, 3], [1, 2, 3])["abs"] == pytest.approx(1.0, abs=1e-12)
        r = ig.pearson_abs([1, 2, 3], [-1, -2, -3])
        assert r["abs"] == pytest.approx(1.0, abs=1e-12)
        assert r["raw"] == pytest.approx(-1.0, abs=1e-12)
        assert ig.pearson_abs([1, 2, 3], [1, 2, 4])["abs"] == pytest.approx(
            0.981980506061966, abs=1e-9
        )
        with pytest.raises(DegenerateError):
            ig.pearson_abs([1, 1, 1], [1, 2, 3])

    @pytest.mark.parametrize("x", [[1e200, -1e200], [1e-200, -1e-200]])
    def test_pearson_at_extreme_magnitudes(self, x):
        # unscaled, the squared deviations overflow to inf or underflow to 0
        r = ig.pearson_abs(x, [1, 2])
        assert r["abs"] == pytest.approx(1.0, abs=1e-12)
        assert r["raw"] == pytest.approx(-1.0, abs=1e-12)

    def test_pearson_is_unchanged_by_a_power_of_two(self):
        x, y = [1.0, 2.0, 4.0, 3.5], [0.5, 3.0, 2.0, 2.25]
        for k in (-600, -3, 5, 600):
            assert ig.pearson_abs([v * 2.0**k for v in x], y) == ig.pearson_abs(x, y)
