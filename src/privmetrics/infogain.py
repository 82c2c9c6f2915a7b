"""Information gain/loss metrics: divergences, leakage, and channel capacity."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .core import (
    DiscreteDistribution, FiniteMechanism, JointDistribution, _aligned, _deviations, _entropy_bits,
    _exponent, _fields, _info_bits, _integer, _labels, _list, _load_json, _log2_quotient,
    _normalized,
)
from .errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    ParamError,
    SchemaError,
    ShapeError,
)
from .ranges import domains, interval
from .uncertainty import shannon_entropy

BA_TOL = 1e-9
BA_MAX_ITER = 10000
PERMANENT_MAX_N = 20


def leaked_count(items: set) -> int:
    """Number of distinct leaked information items."""
    return len(set(items))


def kl_divergence(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """D(p || q) = sum p(x) log2(p(x)/q(x)); infinite off q's support."""
    pairs = _aligned(p, q, "divergence")
    if any(qv == 0 for _, qv in pairs):
        return math.inf
    return math.fsum(pv * _log2_quotient(pv, qv) for pv, qv in pairs)


def mutual_information(j: JointDistribution) -> float:
    """I(X;Y) in bits, the information X and Y share; 0 when X is deterministic."""
    px = j.marginal_x().probs
    py = j.marginal_y().probs
    # dividing twice: the product px * py can underflow to 0
    mi = math.fsum(
        v * _log2_quotient(v, py[y], px[x])
        for x, row in enumerate(j.matrix) for y, v in enumerate(row) if v > 0
    )
    return max(mi, 0.0)


def conditional_privacy_loss(j: JointDistribution) -> float:
    """The fraction 1 - 2^-I(X;Y) of X's privacy that observing Y loses."""
    return 1.0 - 2.0 ** -mutual_information(j)


def normalized_mutual_information(j: JointDistribution) -> float:
    """The entropy-normalized independence degree 1 - I(X;Y)/H(X); undefined when H(X) = 0."""
    hx = _entropy_bits(j.marginal_x().probs)
    if hx <= 0:
        raise ParamError("H(X) = 0; normalized mutual information undefined")
    return 1.0 - mutual_information(j) / hx


def conditional_mutual_information(tensor: Sequence) -> float:
    """I(X;Y|Z) from an explicit p(x, y, z) tensor of nested sequences.

    I(X;Y|Z) = H(X,Z) + H(Y,Z) - H(X,Y,Z) - H(Z), taken as one exactly
    rounded sum of the signed p log2 p terms of the four entropies.
    """
    try:
        ny, nz = len(tensor[0]), len(tensor[0][0])
    except (IndexError, TypeError):
        raise ShapeError("need a non-empty 3-way tensor")
    if any(len(plane) != ny or any(len(row) != nz for row in plane) for plane in tensor):
        raise ShapeError("tensor rows must have equal lengths")
    cells = _normalized([v for plane in tensor for row in plane for v in row], "tensor mass")
    rows = [cells[i : i + nz] for i in range(0, len(cells), nz)]  # row x * ny + y holds p(x, y, .)
    p_xz = [math.fsum(col) for x in range(0, len(rows), ny) for col in zip(*rows[x : x + ny])]
    p_yz = [math.fsum(col) for y in range(ny) for col in zip(*rows[y::ny])]
    p_z = [math.fsum(col) for col in zip(*rows)]
    signed = ((1.0, cells), (-1.0, p_xz), (-1.0, p_yz), (1.0, p_z))
    return max(0.0, _info_bits((s * p, p) for s, ps in signed for p in ps if p > 0))


# ---------------------------------------------------------------------------
# Channel capacity (worst-case input distribution)


def channel_capacity(channel: FiniteMechanism) -> float:
    """max over input distributions of I(X;Y), via Blahut-Arimoto.

    Starts from the uniform input distribution and stops when the running
    lower and upper capacity bounds agree within ``BA_TOL`` (1e-9);
    hitting the iteration cap raises instead of returning a bad value.
    """
    return conditional_channel_capacity([channel], [1.0])


def loss_of_anonymity(
    channels: Sequence[FiniteMechanism], p_z: Sequence[float] | None = None
) -> float:
    """Capacity of one channel, or with ``p_z`` the conditional capacity of several."""
    if p_z is not None:
        return conditional_channel_capacity(channels, p_z)
    if len(channels) > 1:
        raise ParamError("several mechanism files need --param p_z=[...]")
    return channel_capacity(channels[0])


def conditional_channel_capacity(
    channels: Sequence[FiniteMechanism], p_z: Sequence[float]
) -> float:
    """max over a single shared input distribution of sum_z p(z) I(X;Y|Z=z).

    The averaged objective stays concave in the input distribution, so the
    same alternating update applies, with per-input divergences averaged over
    the conditioning variable. Iteration stops once the running lower and
    upper capacity bounds agree within ``BA_TOL``, or once both bound sequences
    move by less than ``BA_TOL`` per step (boundary-supported optima close the
    absolute gap only sublinearly); the lower bound is returned.
    """
    if len(channels) != len(p_z):
        raise ShapeError("one weight per conditioning channel required")
    if not channels:
        raise ParamError("need at least one channel")
    weights = _normalized(p_z, "p_z")
    n_in = len(channels[0].inputs)
    if any(len(ch.inputs) != n_in for ch in channels):
        raise ShapeError("all conditioned channels must share the input alphabet")
    import numpy as np

    # D(P(.|x) || q) = sum_y P log P - sum_y P log q; the first sum is fixed per row.
    # Each step writes into buffers made here: q, log2 q and q > 0 per channel,
    # and per input the averaged divergence, one channel's term and exp2 of either.
    terms = []
    for w, ch in zip(weights, channels):
        if w > 0:
            mat = np.asarray(ch.matrix, dtype=float)
            neg_h = (mat * np.log2(mat, out=np.zeros_like(mat), where=mat > 0)).sum(axis=1)
            n_out = mat.shape[1]
            terms.append((w, mat, neg_h, np.empty(n_out), np.empty(n_out), np.empty(n_out, bool)))

    r = np.full(n_in, 1.0 / n_in)
    d_avg, term, scaled = np.empty(n_in), np.empty(n_in), np.empty(n_in)
    prev_bounds = None
    for _ in range(BA_MAX_ITER):
        d_avg.fill(0.0)
        for w, mat, neg_h, q, log_q, positive in terms:
            np.matmul(r, mat, out=q)
            log_q.fill(0.0)
            np.log2(q, out=log_q, where=np.greater(q, 0, out=positive))
            np.subtract(neg_h, np.matmul(mat, log_q, out=term), out=term)
            term *= w
            d_avg += term
        upper = float(d_avg.max())
        lower = float(math.log2(np.dot(r, np.exp2(d_avg, out=scaled))))
        if upper - lower < BA_TOL:
            return lower
        if prev_bounds is not None:
            if abs(upper - prev_bounds[0]) < BA_TOL and abs(lower - prev_bounds[1]) < BA_TOL:
                return lower
        prev_bounds = (upper, lower)
        r *= np.exp2(np.subtract(d_avg, upper, out=scaled), out=scaled)  # shift for stability
        r /= r.sum()
    raise ConvergenceError(f"capacity iteration cap {BA_MAX_ITER} reached")


def max_information_leakage(j: JointDistribution) -> float:
    """max over single observations y of H(X) - H(X | Y=y)."""
    h_x = shannon_entropy(j.marginal_x())
    p_y = j.marginal_y().probs
    return max(  # a validated joint has mass, so some observation has positive probability
        h_x - _entropy_bits([row[y] / py for row in j.matrix])
        for y, py in enumerate(p_y)
        if py > 0
    )


# ---------------------------------------------------------------------------
# Bipartite matchings


@dataclass(frozen=True)
class AdjacencyMatrix:
    """0/1 sender-receiver feasibility matrix, optionally with matching classes.

    ``class_labels``, when present, assigns an equivalence-class label to each
    perfect matching in lexicographic order (matchings ordered by the column
    chosen for row 0, then row 1, ...). There must be exactly as many labels
    as matchings (the permanent), and n <= 20. The system anonymity level
    depends only on how many matchings each label holds.
    """

    bits: tuple[tuple[int, ...], ...]
    class_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        n = len(self.bits)
        if n == 0:
            raise SchemaError("adjacency matrix must be non-empty")
        for row in self.bits:
            if len(row) != n:
                raise ShapeError("adjacency matrix must be square")
            if any(v not in (0, 1) for v in row):
                raise SchemaError("adjacency entries must be 0 or 1")

    @property
    def size(self) -> int:
        return len(self.bits)


_ADJACENCY = _fields(n=_integer, bits=_list(_list(_integer)), classes=(_labels, None))


def parse_adjacency(text: str) -> AdjacencyMatrix:
    n, bits, classes = _ADJACENCY(_load_json(text, "adjacency matrix"), "adjacency file")
    if len(bits) != n:
        raise ShapeError("declared n does not match the bit matrix")
    return AdjacencyMatrix(tuple(map(tuple, bits)), classes)


def matrix_permanent(a: AdjacencyMatrix) -> int:
    """Permanent via Ryser's inclusion-exclusion formula, exact over integers.

    per(A) = sum over column subsets S of (-1)^(n - |S|) times the product of
    the row sums over S, taken by a Gray-code walk, O(2^n * n) with n capped
    at 20: step k adds or removes column j, the lowest set bit of k (removes
    it when bit j + 1 of k is set), and |S| is odd exactly when k is. The n
    row sums are the bytes of one int, at most n <= 20 < 256 each, so a step
    is one int add and its product runs in C.
    """
    n = a.size
    if n > PERMANENT_MAX_N:
        raise ParamError(f"permanent capped at n={PERMANENT_MAX_N}, got {n}")
    # a row sum is at most n <= PERMANENT_MAX_N = 20 < 256: no byte carries into the next
    columns = [int.from_bytes(bytes(column), "little") for column in zip(*a.bits)]
    sums = total = 0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        sums += -columns[j] if k >> j & 2 else columns[j]
        term = math.prod(sums.to_bytes(n, "little"))
        total += -term if (n ^ k) & 1 else term
    return total


def system_anonymity_level(a: AdjacencyMatrix) -> float:
    """Entropy over matching equivalence classes, scaled to [0, 1].

    The perfect matchings are counted by the permanent, log2 per(A) / log2 n!.
    With no class labels every perfect matching forms its own class, the
    finest (most conservative) partition; with labels the entropy is that of
    the label counts. A single-user system scores 0 by definition; a matrix
    with no perfect matching is a domain error.
    """
    count = matrix_permanent(a)
    if count == 0:
        raise DomainError("no perfect matching exists (permanent is 0)")
    if a.size == 1:
        return 0.0
    if a.class_labels is None:
        entropy = math.log2(count)
    else:
        if len(a.class_labels) != count:
            raise ShapeError(f"{len(a.class_labels)} class labels for {count} matchings")
        entropy = _entropy_bits([c / count for c in Counter(a.class_labels).values()])
    return entropy / math.log2(math.factorial(a.size))


# ---------------------------------------------------------------------------
# Pointwise and data-driven measures


@domains(p=interval(None, 1))
def surprisal(p: float) -> float:
    """Self-information -log2(p) of one outcome."""
    if p <= 0:
        raise DomainError(f"probability must be > 0, got {p!r}")
    return -math.log2(p)


@domains(prior=interval(0, 1), posterior=interval(0, 1))
def belief_increase_check(prior: float, posterior: float, delta: float) -> dict:
    """Gap between posterior and prior belief, breached when strictly > delta."""
    gap = posterior - prior
    return {"breached": gap > delta, "gap": gap}


def _feature_mass(transitions: Sequence[float], window: int | None) -> int:
    """Non-zero transitions among the first ``window`` of the series (all, for None)."""
    if window is None:
        window = len(transitions)
    if not 0 <= window <= len(transitions):
        raise ParamError(f"window {window} outside series length {len(transitions)}")
    return sum(1 for v in transitions[:window] if v != 0)


def feature_mass_reduction(
    protected: Sequence[float],
    protected_window: int | None,
    original: Sequence[float],
    original_window: int | None,
) -> float:
    """Fraction of non-zero transitions surviving the protection mechanism.

    Each series counts the non-zero transitions in its first ``window``
    entries; a window of None counts the whole series.
    """
    kept = _feature_mass(protected, protected_window)
    base = _feature_mass(original, original_window)
    if base == 0:
        raise DomainError("original series has no observable transitions")
    return kept / base


def privacy_score(sensitivities: Sequence[float], visibilities: Sequence[float]) -> float:
    """Sum of item sensitivity times visibility; grows with exposure risk."""
    if len(sensitivities) != len(visibilities):
        raise ShapeError("one visibility per sensitivity required")
    for v in list(sensitivities) + list(visibilities):
        if v < 0:
            raise ParamError(f"scores must be >= 0, got {v!r}")
    try:
        return math.fsum(map(mul, sensitivities, visibilities))
    except OverflowError:  # every term is >= 0, so the exact sum is past the largest float
        return math.inf


def pearson_abs(x: Sequence[float], y: Sequence[float]) -> dict:
    """Magnitude of the sample linear correlation, with the signed value too.

    Reported as ``{"abs": |r|, "raw": r}``: any linear dependence between the
    protected and original series leaks, whatever its sign.
    """
    if len(x) != len(y):
        raise ShapeError("series lengths differ")
    if len(x) < 2:
        raise ParamError("need at least two points")
    if min(x) == max(x) or min(y) == max(y):
        raise DegenerateError("zero variance; correlation undefined")
    dx, dy = _deviations(x, _exponent(x)), _deviations(y, _exponent(y))
    sxx, syy = math.fsum(map(mul, dx, dx)), math.fsum(map(mul, dy, dy))
    r = math.fsum(map(mul, dx, dy)) / math.sqrt(sxx * syy)
    return {"abs": abs(r), "raw": r}
