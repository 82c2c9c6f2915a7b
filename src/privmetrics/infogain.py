"""Information gain/loss metrics: divergences, leakage, and channel capacity."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .core import (
    DiscreteDistribution, FiniteMechanism, JointDistribution, _fields, _integer, _labels, _list,
    _load_json,
)
from .errors import (
    ConvergenceError,
    DegenerateError,
    DistributionError,
    DomainError,
    ParamError,
    SchemaError,
    ShapeError,
)
from .uncertainty import _entropy_bits, shannon_entropy

BA_TOL = 1e-9
BA_MAX_ITER = 10000
PERMANENT_MAX_N = 20


def leaked_count(items: set) -> int:
    """Number of distinct leaked information items."""
    return len(set(items))


def kl_divergence(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """D(p || q) = sum p(x) log2(p(x)/q(x)); infinite off q's support."""
    if set(p.labels) != set(q.labels):
        raise ShapeError("divergence needs identical outcome label sets")
    q_of = dict(zip(q.labels, q.probs))
    total = 0.0
    for label, pv in zip(p.labels, p.probs):
        if pv == 0:
            continue
        qv = q_of[label]
        if qv == 0:
            return math.inf
        total += pv * math.log2(pv / qv)
    return total


def mutual_information(j: JointDistribution) -> dict:
    """Shared information between the joint's two variables.

    Returns ``{"mi": bits, "nmi": 1 - mi/H(X), "cpl": 1 - 2**-mi}``: the raw
    mutual information, the entropy-normalized independence degree, and the
    conditional privacy loss fraction.
    """
    px = j.marginal_x().probs
    py = j.marginal_y().probs
    mi = 0.0
    for x, row in enumerate(j.matrix):
        for y, v in enumerate(row):
            if v > 0:
                mi += v * math.log2(v / (px[x] * py[y]))
    mi = max(mi, 0.0)
    hx = _entropy_bits(px)
    if hx <= 0:
        raise ParamError("H(X) = 0; normalized mutual information undefined")
    return {"mi": mi, "nmi": 1.0 - mi / hx, "cpl": 1.0 - 2.0**-mi}


def conditional_mutual_information(tensor: Sequence) -> float:
    """I(X;Y|Z) from an explicit p(x, y, z) tensor (nested lists or array)."""
    import numpy as np

    try:
        t = np.asarray(tensor, dtype=float)
    except ValueError:  # ragged nesting
        raise ShapeError("tensor rows must have equal lengths")
    if t.ndim != 3:
        raise ShapeError(f"need a 3-way tensor, got {t.ndim} dimensions")
    if np.any(~np.isfinite(t)) or np.any(t < 0):
        raise DistributionError("tensor entries must be finite and >= 0")
    total = t.sum()
    if abs(total - 1.0) > 1e-9:
        raise DistributionError(f"tensor mass sums to {total!r}, not 1")
    t = t / total

    def h(axes_kept: tuple[int, ...]) -> float:
        drop = tuple(a for a in range(3) if a not in axes_kept)
        return _entropy_bits(t.sum(axis=drop).ravel())

    # I(X;Y|Z) = H(X,Z) + H(Y,Z) - H(X,Y,Z) - H(Z)
    value = h((0, 2)) + h((1, 2)) - h((0, 1, 2)) - h((2,))
    return max(value, 0.0) if value > -1e-9 else value


# ---------------------------------------------------------------------------
# Channel capacity (worst-case input distribution)


def channel_capacity(
    channel: FiniteMechanism,
    tol: float = BA_TOL,
    max_iter: int = BA_MAX_ITER,
) -> float:
    """max over input distributions of I(X;Y), via Blahut-Arimoto.

    Starts from the uniform input distribution and stops when the running
    lower and upper capacity bounds agree within ``tol`` (default 1e-9);
    hitting the iteration cap raises instead of returning a bad value.
    """
    return conditional_channel_capacity([channel], [1.0], tol, max_iter)


def conditional_channel_capacity(
    channels: Sequence[FiniteMechanism],
    p_z: Sequence[float],
    tol: float = BA_TOL,
    max_iter: int = BA_MAX_ITER,
) -> float:
    """max over a single shared input distribution of sum_z p(z) I(X;Y|Z=z).

    The averaged objective stays concave in the input distribution, so the
    same alternating update applies, with per-input divergences averaged over
    the conditioning variable. Iteration stops once the running lower and
    upper capacity bounds agree within ``tol``, or once both bound sequences
    move by less than ``tol`` per step (boundary-supported optima close the
    absolute gap only sublinearly); the lower bound is returned.
    """
    if len(channels) != len(p_z):
        raise ShapeError("one weight per conditioning channel required")
    if not channels:
        raise ParamError("need at least one channel")
    weights = DiscreteDistribution.from_probs(p_z).probs
    n_in = len(channels[0].inputs)
    if any(len(ch.inputs) != n_in for ch in channels):
        raise ShapeError("all conditioned channels must share the input alphabet")
    import numpy as np

    # D(P(.|x) || q) = sum_y P log P - sum_y P log q; the first sum is fixed per row
    terms = []
    for w, ch in zip(weights, channels):
        if w > 0:
            mat = np.asarray(ch.matrix(), dtype=float)
            neg_h = (mat * np.log2(mat, out=np.zeros_like(mat), where=mat > 0)).sum(axis=1)
            terms.append((w, mat, neg_h))

    r = np.full(n_in, 1.0 / n_in)
    prev_bounds = None
    for _ in range(max_iter):
        d_avg = np.zeros(n_in)
        for w, mat, neg_h in terms:
            q = r @ mat
            d_avg += w * (neg_h - mat @ np.log2(q, out=np.zeros_like(q), where=q > 0))
        upper = float(d_avg.max())
        lower = float(math.log2(np.dot(r, np.exp2(d_avg))))
        if upper - lower < tol:
            return lower
        if prev_bounds is not None:
            if abs(upper - prev_bounds[0]) < tol and abs(lower - prev_bounds[1]) < tol:
                return lower
        prev_bounds = (upper, lower)
        r = r * np.exp2(d_avg - d_avg.max())  # shift for stability
        r /= r.sum()
    raise ConvergenceError(f"capacity iteration cap {max_iter} reached")


def max_information_leakage(j: JointDistribution) -> float:
    """max over single observations y of H(X) - H(X | Y=y)."""
    h_x = shannon_entropy(j.marginal_x())
    p_y = j.marginal_y().probs
    best = None
    for y, py in enumerate(p_y):
        if py <= 0:
            continue
        posterior = [row[y] / py for row in j.matrix]
        gain = h_x - _entropy_bits(posterior)
        if best is None or gain > best:
            best = gain
    if best is None:
        raise DistributionError("no observation has positive probability")
    return best


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

    Gray-code column updates keep the subset scan at O(2^n * n); n is capped
    at 20.
    """
    n = a.size
    if n > PERMANENT_MAX_N:
        raise ParamError(f"permanent capped at n={PERMANENT_MAX_N}, got {n}")
    rows = [list(r) for r in a.bits]
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


def surprisal(p: float) -> float:
    """Self-information -log2(p) of one outcome."""
    if p <= 0:
        raise DomainError(f"probability must be > 0, got {p!r}")
    if p > 1:
        raise ParamError(f"probability must be <= 1, got {p!r}")
    return -math.log2(p)


def belief_increase_check(prior: float, posterior: float, delta: float) -> dict:
    """Gap between posterior and prior belief, breached when strictly > delta."""
    for name, v in (("prior", prior), ("posterior", posterior)):
        if not 0.0 <= v <= 1.0:
            raise ParamError(f"{name} must lie in [0, 1], got {v!r}")
    gap = posterior - prior
    return {"breached": gap > delta, "gap": gap}


@dataclass(frozen=True)
class FeatureSeries:
    """A transition series plus the window length its feature mass counts."""

    transitions: tuple[float, ...]
    window: int

    def __post_init__(self):
        if self.window < 0 or self.window > len(self.transitions):
            raise ParamError(
                f"window {self.window} outside series length {len(self.transitions)}"
            )

    @classmethod
    def of(cls, transitions: Sequence[float], window: int | None = None):
        t = tuple(float(v) for v in transitions)
        return cls(t, len(t) if window is None else window)

    def feature_mass(self) -> int:
        return sum(1 for v in self.transitions[: self.window] if v != 0)


def feature_mass_reduction(protected: FeatureSeries, original: FeatureSeries) -> float:
    """Fraction of non-zero transitions surviving the protection mechanism."""
    base = original.feature_mass()
    if base == 0:
        raise DomainError("original series has no observable transitions")
    return protected.feature_mass() / base


def privacy_score(sensitivities: Sequence[float], visibilities: Sequence[float]) -> float:
    """Sum of item sensitivity times visibility; grows with exposure risk."""
    if len(sensitivities) != len(visibilities):
        raise ShapeError("one visibility per sensitivity required")
    for v in list(sensitivities) + list(visibilities):
        if v < 0:
            raise ParamError(f"scores must be >= 0, got {v!r}")
    if not sensitivities:
        return 0.0
    import numpy as np

    return float(np.dot(sensitivities, visibilities))


def pearson_abs(x: Sequence[float], y: Sequence[float]) -> dict:
    """Magnitude of the sample linear correlation, with the signed value too.

    Reported as ``{"abs": |r|, "raw": r}``: any linear dependence between the
    protected and original series leaks, whatever its sign.
    """
    if len(x) != len(y):
        raise ShapeError("series lengths differ")
    if len(x) < 2:
        raise ParamError("need at least two points")
    import numpy as np

    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    sx = float((dx * dx).sum())
    sy = float((dy * dy).sum())
    if sx == 0 or sy == 0:
        raise DegenerateError("zero variance; correlation undefined")
    r = float((dx * dy).sum() / math.sqrt(sx * sy))
    return {"abs": abs(r), "raw": r}
