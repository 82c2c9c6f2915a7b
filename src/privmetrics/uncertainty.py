"""Uncertainty metrics: the entropy family and its derivatives.

Everything logarithmic is base 2 (bits), and 0*log(0) is taken as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import DiscreteDistribution, JointDistribution
from .errors import (
    DistributionError,
    DomainError,
    EmptyError,
    ParamError,
    ShapeError,
)

RENYI_SHANNON_WINDOW = 1e-6  # switch to the Shannon limit this close to alpha=1


def _entropy_bits(probs: Sequence[float]) -> float:
    import numpy as np

    p = np.asarray(probs, dtype=float)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def anonymity_set_size(members: set) -> int:
    """Number of candidates the target can hide among (empty set allowed)."""
    return len(set(members))


def shannon_entropy(d: DiscreteDistribution) -> float:
    """H(X) = -sum p(x) log2 p(x), in bits."""
    return _entropy_bits(d.probs)


def renyi_entropy(d: DiscreteDistribution, alpha: float) -> float:
    """Order-``alpha`` entropy in bits.

    alpha=0 gives the max-entropy log2(n); alpha=inf gives the min-entropy
    -log2(max p); values within 1e-6 of 1 fall back to Shannon entropy, which
    is the (removable) limit there.
    """
    if alpha < 0 or math.isnan(alpha):
        raise ParamError(f"alpha must be >= 0, got {alpha!r}")
    if alpha == 0:
        return math.log2(len(d))
    if math.isinf(alpha):
        return -math.log2(max(d.probs))
    if abs(alpha - 1.0) <= RENYI_SHANNON_WINDOW:
        return shannon_entropy(d)
    # Powers of p / max(p), whose sum is at least 1, and alpha / (1 - alpha) taken
    # first: a huge alpha approaches the min-entropy instead of underflowing the sum.
    import numpy as np

    p = np.asarray(d.probs, dtype=float)
    top = p.max()
    spread = math.log2(((p[p > 0] / top) ** alpha).sum())
    return float(alpha / (1.0 - alpha) * math.log2(top) + spread / (1.0 - alpha))


def max_entropy(d: DiscreteDistribution) -> float:
    """Best case: log2 of the alphabet size."""
    return renyi_entropy(d, 0.0)


def min_entropy(d: DiscreteDistribution) -> float:
    """Worst case: depends only on the most likely outcome."""
    return renyi_entropy(d, math.inf)


def normalized_entropy(d: DiscreteDistribution) -> float:
    """H(X) / log2(n), a leakage-free fraction in [0, 1]."""
    if len(d) < 2:
        raise ParamError("normalized entropy needs at least two outcomes")
    return shannon_entropy(d) / math.log2(len(d))


def asymmetric_entropy(d: DiscreteDistribution, w: Sequence[float]) -> float:
    """Per-outcome uncertainty peaking at p_i = w_i instead of at uniformity.

    Each term p(1-p) / ((1-2w)p + w^2) equals 1 exactly when p = w; the sum
    over outcomes is reported without further normalization.
    """
    if len(w) != len(d):
        raise ParamError(f"need one peak per outcome ({len(d)}), got {len(w)}")
    total = 0.0
    for p, wi in zip(d.probs, w):
        if not 0.0 < wi < 1.0:
            raise ParamError(f"peak positions must lie in (0, 1), got {wi!r}")
        den = (-2.0 * wi + 1.0) * p + wi * wi
        if abs(den) < 1e-300:
            raise DomainError(f"zero denominator at p={p!r}, w={wi!r}")
        total += p * (1.0 - p) / den
    return total


def quantile_entropy(d: DiscreteDistribution, c: float) -> float:
    """Shannon entropy of the outcomes with p(x) >= c, renormalized.

    The retained subset is renormalized so the result is a true entropy; an
    empty subset is an error.
    """
    if not 0.0 < c <= 1.0:
        raise ParamError(f"threshold c must lie in (0, 1], got {c!r}")
    kept = [p for p in d.probs if p >= c]
    if not kept:
        raise EmptyError(f"no outcome has probability >= {c!r}")
    total = math.fsum(kept)
    return _entropy_bits([p / total for p in kept])


def conditional_entropy(j: JointDistribution, normalized: bool = False) -> float:
    """H(X|Y) = -sum p(x,y) log2 p(x|y); optionally divided by H(X)."""
    p_y = j.marginal_y().probs
    h = 0.0
    for row in j.matrix:
        for y, v in enumerate(row):
            if v > 0:
                h -= v * math.log2(v / p_y[y])
    if not normalized:
        return h
    h_x = shannon_entropy(j.marginal_x())
    if h_x <= 0:
        raise ParamError("cannot normalize: H(X) = 0")
    return h / h_x


def inherent_privacy(h: float) -> float:
    """2^h: entropy re-expressed as an effective anonymity-set size.

    Pass a conditional entropy to obtain the conditional variant.
    """
    if h < 0 or math.isnan(h):
        raise ParamError(f"entropy must be >= 0, got {h!r}")
    return 2.0**h

def cross_entropy(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """-sum p(x) log2 q(x): code length for p under model q, in bits.

    Infinite when q misses mass on an outcome p supports.
    """
    if set(p.labels) != set(q.labels):
        raise ShapeError("cross-entropy needs identical outcome label sets")
    q_of = dict(zip(q.labels, q.probs))
    total = 0.0
    for label, pv in zip(p.labels, p.probs):
        if pv == 0:
            continue
        qv = q_of[label]
        if qv == 0:
            return math.inf
        total -= pv * math.log2(qv)
    return total


# ---------------------------------------------------------------------------
# Unlinkability over set partitions

Partition = frozenset[frozenset[str]]


def make_partition(blocks: Sequence[Sequence[str]]) -> Partition:
    """Canonicalize a set partition given as an iterable of blocks."""
    part = frozenset(frozenset(str(u) for u in b) for b in blocks)
    items = [u for b in part for u in b]
    if len(items) != len(set(items)):
        raise ParamError("partition blocks must be disjoint")
    if any(not b for b in part):
        raise ParamError("partition blocks must be non-empty")
    return part


@dataclass(frozen=True)
class PartitionDistribution:
    """Probability over candidate set-partitions of a user population."""

    partitions: tuple[Partition, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.partitions) != len(self.probs):
            raise ShapeError("one probability per partition required")
        if len(set(self.partitions)) != len(self.partitions):
            raise ParamError("partitions must be distinct")
        # reuse the distribution validator (labels are synthetic)
        DiscreteDistribution.from_probs(self.probs)
        total = math.fsum(self.probs)
        object.__setattr__(self, "probs", tuple(p / total for p in self.probs))

    def entropy_bits(self) -> float:
        return _entropy_bits(self.probs)


def unlinkability_degree(
    posterior: PartitionDistribution,
    prior: PartitionDistribution | None = None,
) -> dict:
    """Entropy over which-partition-is-true, plus the prior ratio when given.

    Returns ``{"h_bits": ..., "ratio": ...}`` where ratio = H(posterior) /
    H(prior); ratio is omitted without a prior.
    """
    h = posterior.entropy_bits()
    result = {"h_bits": h}
    if prior is not None:
        h0 = prior.entropy_bits()
        if h0 <= 0:
            raise ParamError("prior partition entropy is 0; ratio undefined")
        result["ratio"] = h / h0
    return result


def enumerate_partitions(users: Sequence[str]) -> list[Partition]:
    """All set partitions of up to 10 users (test helper; Bell(10) = 115975)."""
    users = [str(u) for u in users]
    if len(users) > 10:
        raise ParamError("partition enumeration capped at 10 users")
    if not users:
        return [frozenset()]
    first, rest = users[0], users[1:]
    result = []
    for sub in enumerate_partitions(rest):
        blocks = list(sub)
        # first joins an existing block, or opens its own
        for i in range(len(blocks)):
            result.append(
                frozenset(
                    [blocks[i] | {first}] + blocks[:i] + blocks[i + 1 :]
                )
            )
        result.append(frozenset(list(sub) + [frozenset([first])]))
    return result


# ---------------------------------------------------------------------------
# Tracking over time


@dataclass(frozen=True)
class BayesTrackingModel:
    """Hidden-state tracking model: prior, transitions, and per-step likelihoods.

    ``transition[i][j]`` is P(next = state j | current = state i); each row of
    likelihoods holds one non-negative value per state for that timestep.
    """

    states: tuple[str, ...]
    prior: DiscreteDistribution
    transition: tuple[tuple[float, ...], ...]
    observation_likelihoods: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        n = len(self.states)
        if self.prior.labels != self.states:
            raise ShapeError("prior must be over the model states")
        if len(self.transition) != n or any(len(r) != n for r in self.transition):
            raise ShapeError("transition matrix must be n x n")
        for row in self.transition:
            if any(v < 0 for v in row):
                raise DistributionError("transition probabilities must be >= 0")
            if abs(math.fsum(row) - 1.0) > 1e-9:
                raise DistributionError("transition rows must sum to 1")
        for step, like in enumerate(self.observation_likelihoods):
            if len(like) != n:
                raise ShapeError(f"likelihood row {step} must have one value per state")
            if any(v < 0 for v in like):
                raise ParamError("likelihoods must be >= 0")
            if not any(v > 0 for v in like):
                raise DomainError(f"all-zero likelihood at step {step}")


def bayes_entropy_series(m: BayesTrackingModel) -> list[float]:
    """Posterior entropy after each predict-then-correct belief update."""
    import numpy as np

    belief = np.asarray(m.prior.probs, dtype=float)
    transition = np.asarray(m.transition, dtype=float)
    out = []
    for step, like in enumerate(m.observation_likelihoods):
        predicted = transition.T @ belief
        posterior = predicted * np.asarray(like, dtype=float)
        total = posterior.sum()
        if total <= 0:
            raise DomainError(f"posterior vanished at step {step}")
        belief = posterior / total
        out.append(_entropy_bits(belief))
    return out


def cumulative_entropy(per_zone: Sequence[float]) -> float:
    """Total entropy gathered across independent mixing zones."""
    for h in per_zone:
        if h < 0 or math.isnan(h):
            raise ParamError(f"zone entropies must be >= 0, got {h!r}")
    return math.fsum(per_zone)


def genomic_privacy(
    snp_probs: Sequence[float], weights: Sequence[float]
) -> float:
    """Severity-weighted surprisal summed over genomic variations."""
    if len(snp_probs) != len(weights):
        raise ShapeError("one weight per variation required")
    total = 0.0
    for p, w in zip(snp_probs, weights):
        if p <= 0:
            raise DomainError(f"variation probability must be > 0, got {p!r}")
        if p > 1:
            raise ParamError(f"variation probability must be <= 1, got {p!r}")
        if w < 0:
            raise ParamError(f"weights must be >= 0, got {w!r}")
        total += -math.log2(p) * w
    return total


def protection_level(
    trajectory_regions: Sequence[DiscreteDistribution],
    reference: DiscreteDistribution,
    t_common: int,
) -> float:
    """Average region popularity along a trajectory over a reference region.

    Popularity of a region is 2^H of its visit distribution; the sum over
    trajectory regions is scaled by t_common times the reference popularity.
    """
    if t_common < 1:
        raise ParamError(f"t_common must be >= 1, got {t_common!r}")
    if not trajectory_regions:
        raise EmptyError("no trajectory regions given")
    total = math.fsum(2.0 ** shannon_entropy(r) for r in trajectory_regions)
    return total / (t_common * 2.0 ** shannon_entropy(reference))


@dataclass(frozen=True)
class DecaySpec:
    """Linear privacy decay: level at the last protection event plus a slope."""

    h0: float  # bits at the last protection event
    lam: float  # bits lost per second
    t_last: float = 0.0  # time of the last protection event

    def __post_init__(self):
        if self.h0 < 0 or math.isnan(self.h0):
            raise ParamError(f"h0 must be >= 0, got {self.h0!r}")
        if self.lam <= 0 or math.isnan(self.lam):
            raise ParamError(f"decay rate must be > 0, got {self.lam!r}")


def user_centric_privacy(spec: DecaySpec, t: float) -> float:
    """Remaining privacy h0 - lambda * (t - t_last), floored at zero."""
    if t < spec.t_last:
        raise ParamError(f"t={t!r} precedes the last protection event {spec.t_last!r}")
    return max(0.0, spec.h0 - spec.lam * (t - spec.t_last))
