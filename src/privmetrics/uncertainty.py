"""Uncertainty metrics: the entropy family and its derivatives.

Everything logarithmic is base 2 (bits), and 0*log(0) is taken as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .core import (
    DiscreteDistribution, JointDistribution, _aligned, _entropy_bits, _info_bits, _normalized,
)
from .errors import (
    DomainError,
    EmptyError,
    ParamError,
    ShapeError,
)
from .ranges import domains, interval

RENYI_SHANNON_WINDOW = 1e-6  # switch to the Shannon limit this close to alpha=1


def anonymity_set_size(members: set) -> int:
    """Number of candidates the target can hide among (empty set allowed)."""
    return len(set(members))


def shannon_entropy(d: DiscreteDistribution) -> float:
    """H(X) = -sum p(x) log2 p(x), in bits."""
    return _entropy_bits(d.probs)


@domains(alpha=interval(0, None))
def renyi_entropy(d: DiscreteDistribution, alpha: float) -> float:
    """Order-``alpha`` entropy in bits.

    alpha=0 gives the max-entropy log2(n); alpha=inf gives the min-entropy
    -log2(max p); values within 1e-6 of 1 fall back to Shannon entropy, which
    is the (removable) limit there.
    """
    if alpha == 0:
        return math.log2(len(d))
    if math.isinf(alpha):
        return 0.0 - math.log2(max(d.probs))  # from 0.0, so that log2 1 gives +0.0
    if abs(alpha - 1.0) <= RENYI_SHANNON_WINDOW:
        return shannon_entropy(d)
    # Powers of p / max(p), whose sum is at least 1, and alpha / (1 - alpha) taken
    # first: a huge alpha approaches the min-entropy instead of underflowing the sum.
    top = max(d.probs)
    spread = math.log2(math.fsum((p / top) ** alpha for p in d.probs if p > 0))
    # Taken from 0.0, so that a one-point distribution gives +0.0 for alpha > 1 too
    return 0.0 + (alpha / (1.0 - alpha) * math.log2(top) + spread / (1.0 - alpha))


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


@domains(c=interval(0, 1, lo_open=True))
def quantile_entropy(d: DiscreteDistribution, c: float) -> float:
    """Shannon entropy of the outcomes with p(x) >= c, renormalized.

    The retained subset is renormalized so the result is a true entropy; an
    empty subset is an error.
    """
    kept = [p for p in d.probs if p >= c]
    if not kept:
        raise EmptyError(f"no outcome has probability >= {c!r}")
    total = math.fsum(kept)
    return _entropy_bits([p / total for p in kept])


def conditional_entropy(j: JointDistribution) -> float:
    """H(X|Y) = -sum p(x,y) log2 p(x|y)."""
    p_y = j.marginal_y().probs
    return 0.0 - _info_bits((v, v / p_y[y]) for row in j.matrix for y, v in enumerate(row) if v > 0)


def normalized_conditional_entropy(j: JointDistribution) -> float:
    """H(X|Y) / H(X): the share of X's uncertainty that observing Y leaves."""
    h_x = shannon_entropy(j.marginal_x())
    if h_x <= 0:
        raise ParamError("cannot normalize: H(X) = 0")
    return conditional_entropy(j) / h_x


def inherent_privacy(d: DiscreteDistribution) -> float:
    """2^H(X): entropy re-expressed as an effective anonymity-set size."""
    return 2.0 ** shannon_entropy(d)


def conditional_privacy(j: JointDistribution) -> float:
    """2^H(X|Y): the effective anonymity-set size left after observing Y."""
    return 2.0 ** conditional_entropy(j)


def cross_entropy(p: DiscreteDistribution, q: DiscreteDistribution) -> float:
    """-sum p(x) log2 q(x): code length for p under model q, in bits.

    Infinite when q misses mass on an outcome p supports.
    """
    return 0.0 - _info_bits(_aligned(p, q, "cross-entropy"))


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
        object.__setattr__(self, "probs", _normalized(self.probs, "partition probability mass"))

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


# ---------------------------------------------------------------------------
# Tracking over time


def bayes_entropy_series(
    states: Sequence[str],
    prior: Sequence[float],
    transition: Sequence[Sequence[float]],
    likelihoods: Sequence[Sequence[float]],
) -> dict:
    """Posterior entropy after each predict-then-correct belief update of a hidden state.

    ``prior`` holds one probability per state, ``transition[i][j]`` is
    P(next = state j | current = state i), and each row of ``likelihoods``
    holds one non-negative value per state for that timestep. Returns
    ``{"series": [bits, ...]}``, one entry per timestep.
    """
    belief = DiscreteDistribution(tuple(states), tuple(prior)).probs
    n = len(belief)
    if len(transition) != n or any(len(r) != n for r in transition):
        raise ShapeError("transition matrix must be n x n")
    rows = (_normalized(row, f"transition row {i}") for i, row in enumerate(transition))
    columns = list(zip(*rows))
    for step, like in enumerate(likelihoods):
        if len(like) != n:
            raise ShapeError(f"likelihood row {step} must have one value per state")
        if any(v < 0 for v in like):
            raise ParamError("likelihoods must be >= 0")
        if not any(v > 0 for v in like):
            raise DomainError(f"all-zero likelihood at step {step}")
    series = []
    for step, like in enumerate(likelihoods):
        posterior = [math.fsum(map(mul, col, belief)) * v for col, v in zip(columns, like)]
        total = math.fsum(posterior)
        if total <= 0:
            raise DomainError(f"posterior vanished at step {step}")
        belief = [p / total for p in posterior]
        series.append(_entropy_bits(belief))
    return {"series": series}


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
    for p, w in zip(snp_probs, weights):
        if p <= 0:
            raise DomainError(f"variation probability must be > 0, got {p!r}")
        if p > 1:
            raise ParamError(f"variation probability must be <= 1, got {p!r}")
        if not w >= 0:
            raise ParamError(f"weights must be >= 0, got {w!r}")
    try:
        return 0.0 - _info_bits((w, p) for p, w in zip(snp_probs, weights) if w > 0)
    except OverflowError:  # every term is <= 0, so the exact sum is below -max float
        return math.inf


@domains(t_common=interval(1, None))
def protection_level(
    trajectory_regions: Sequence[DiscreteDistribution],
    reference: DiscreteDistribution,
    t_common: int,
) -> float:
    """Average region popularity along a trajectory over a reference region.

    Popularity of a region is 2^H of its visit distribution; the sum over
    trajectory regions is scaled by t_common times the reference popularity.
    """
    if not trajectory_regions:
        raise EmptyError("no trajectory regions given")
    total = math.fsum(map(inherent_privacy, trajectory_regions))
    return total / (t_common * inherent_privacy(reference))


@domains(h0=interval(0, None), lam=interval(0, None, lo_open=True))
def user_centric_privacy(h0: float, lam: float, t: float, t_last: float = 0.0) -> float:
    """Remaining privacy h0 - lam * (t - t_last), floored at zero.

    ``h0`` is the level in bits at the last protection event, at time
    ``t_last``, and ``lam`` the bits lost per second since.
    """
    if t < t_last:
        raise ParamError(f"t={t!r} precedes the last protection event {t_last!r}")
    return max(0.0, h0 - lam * (t - t_last))
