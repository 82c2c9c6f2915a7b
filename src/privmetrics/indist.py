"""Indistinguishability checks over finite mechanisms and game transcripts.

Epsilons here live on the natural-log scale (the definitions bound ratios by
exp(eps)), unlike the entropic modules which report bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, islice
from operator import sub, truediv
from typing import Sequence

from .core import (
    FiniteMechanism, JointDistribution, _fields, _finite, _integer, _label, _labels, _list,
    _load_json, _log_extreme, _matrix, _tuple,
)
from .errors import (
    DomainError,
    EmptyError,
    ParamError,
    SchemaError,
    ShapeError,
)
from .ranges import domains, interval

WILSON_Z95 = 1.959963984540054  # two-sided 95% normal quantile

# The JSON shape of each input kind read here
_NEIGHBORS = _fields(pairs=_list(_tuple(_label, _label)))
_GEO = _fields(locations=_list(_tuple(_label, _finite, _finite)), outputs=_labels, matrix=_matrix)
_TRANSCRIPT = _list(_fields(guess=_integer, truth=_integer))


@dataclass(frozen=True)
class NeighborRelation:
    """Pairs of mechanism inputs that count as neighboring data sets."""

    pairs: tuple[tuple[str, str], ...]

    def ordered_pairs(self) -> list[tuple[str, str]]:
        """Both directions of every pair (the symmetric closure)."""
        out = []
        for a, b in self.pairs:
            out.append((a, b))
            out.append((b, a))
        return out


def parse_neighbor_relation(text: str) -> NeighborRelation:
    (pairs,) = _NEIGHBORS(_load_json(text, "neighbor relation"), "neighbor file")
    return NeighborRelation(tuple(pairs))


def _max_log_ratio(pa: Sequence[float], pb: Sequence[float]) -> float:
    """max |log(pa / pb)| over the outputs both rows give; inf if only one gives some."""
    support = list(map(bool, pa))
    if support != list(map(bool, pb)):
        return math.inf
    # log is monotone, so the extreme ratios carry the largest |log|
    ratios = list(map(truediv, compress(pa, support), compress(pb, support)))
    return max(abs(_log_extreme(max, ratios, pa, pb)), abs(_log_extreme(min, ratios, pa, pb)))


# From this many (ordered pair, output) cells on, dp_epsilon and adp_delta
# scan numpy arrays; below it they run the scalar loops, which import nothing.
_ARRAY_CELLS = 1 << 14
# Cells of each block of pairs an array scan takes at a time, so that its
# temporaries together stay under about 1 MB.
_BLOCK_CELLS = 1 << 14


def dp_epsilon(m: FiniteMechanism, nr: NeighborRelation) -> dict:
    """Smallest eps such that the mechanism is eps-differentially private.

    For finite output alphabets the per-output ratio bound over singletons is
    equivalent to the bound over all output sets, so the scan covers single
    outputs only. Disjoint support across a neighbor pair gives +inf.
    """
    pairs = nr.ordered_pairs()
    if len(pairs) * len(m.outputs) >= _ARRAY_CELLS:
        return {"eps_eff": _dp_epsilon_arrays(m, pairs)}
    eps = 0.0
    for a, b in pairs:
        eps = max(eps, _max_log_ratio(m.row_for(a), m.row_for(b)))
    return {"eps_eff": eps}


def _blocks(m: FiniteMechanism, pairs: list[tuple[str, str]]):
    """(first pair, first rows, second rows) for each block of about
    ``_BLOCK_CELLS`` cells of the pairs, the rows as float arrays taken from
    the mechanism's one array."""
    number = {x: i for i, x in enumerate(m.inputs)}
    try:
        first, second = [number[a] for a, _ in pairs], [number[b] for _, b in pairs]
    except KeyError:  # name the first unknown input in pair order, as the scalar loop does
        for a, b in pairs:
            m.row_for(a), m.row_for(b)
    matrix = m._array
    step = max(1, _BLOCK_CELLS // len(m.outputs))
    for lo in range(0, len(pairs), step):
        yield lo, matrix[first[lo : lo + step]], matrix[second[lo : lo + step]]


def _dp_epsilon_arrays(m: FiniteMechanism, pairs: list[tuple[str, str]]) -> float:
    """``dp_epsilon`` over numpy blocks: each row's extreme quotients, which
    IEEE division rounds as float division does, go through ``_log_extreme``."""
    import numpy as np

    eps = 0.0
    with np.errstate(over="ignore", under="ignore"):
        for lo, pa, pb in _blocks(m, pairs):
            support = pa != 0
            if (support != (pb != 0)).any():
                return math.inf
            ratios = pa / np.where(support, pb, 1.0)
            highs = np.where(support, ratios, -np.inf).max(axis=1).tolist()
            lows = np.where(support, ratios, np.inf).min(axis=1).tolist()
            for (a, b), high, low in zip(pairs[lo:], highs, lows):
                ra, rb = m.row_for(a), m.row_for(b)
                eps = max(eps, abs(_log_extreme(max, [high], ra, rb)),
                          abs(_log_extreme(min, [low], ra, rb)))
    return eps


@domains(eps=interval(0, None))
def adp_delta(m: FiniteMechanism, nr: NeighborRelation, eps: float) -> float:
    """Minimal additive slack delta making the mechanism (eps, delta)-private.

    delta = max over ordered neighbor pairs of the total mass by which one
    row exceeds exp(eps) times the other. At eps = 0 this is the worst-case
    total variation distance.
    """
    try:
        scale = math.exp(eps)
    except OverflowError:
        scale = math.inf
    pairs = nr.ordered_pairs()
    if len(pairs) * len(m.outputs) >= _ARRAY_CELLS:
        return _adp_delta_arrays(m, pairs, scale)
    delta = 0.0
    for a, b in pairs:
        pa, pb = m.row_for(a), m.row_for(b)
        if scale == math.inf:  # in the limit only outputs that b never gives count
            excess = math.fsum(compress(pa, map((0.0).__eq__, pb)))
        else:
            # fsum is exactly rounded, so leaving out the terms <= 0 changes no bit
            excess = math.fsum(filter((0.0).__lt__, map(sub, pa, map(scale.__mul__, pb))))
        delta = max(delta, excess)
    return delta


def _adp_delta_arrays(m: FiniteMechanism, pairs: list[tuple[str, str]], scale: float) -> float:
    """``adp_delta`` over numpy blocks: IEEE arithmetic gives each term the
    scalar loop's bits, and the terms it leaves out become 0.0. ``math.fsum``
    sums a pair's row exactly, but only where the row can hold the maximum.

    numpy's sum s of a row's n terms >= 0 lies within n * 2**-52 * s of the
    exact sum S (see ``core._keeps_rows``); ``err``, twice that, also
    covers the rounding of s - err and s + err, and a sum below the normal
    floats is exact. A row whose s + err is below another's s - err has the
    smaller S, and as ``fsum`` rounds exactly and rounding is monotone, no
    larger ``fsum``; nor can a row whose s + err is at most the largest
    ``fsum`` so far pass it. Such rows are skipped, and the result keeps its
    bits. A kept row's ``fsum`` takes its positive terms only, as the scalar
    loop's does, so rows that tie, each with a few terms past 0, stay cheap.
    """
    import numpy as np

    delta = 0.0
    slack = len(m.outputs) * 2.0**-51
    with np.errstate(over="ignore", under="ignore"):
        for _, pa, pb in _blocks(m, pairs):
            if scale == math.inf:
                terms = np.where(pb == 0, pa, 0.0)
            else:
                terms = np.maximum(pa - scale * pb, 0.0)
            sums = terms.sum(axis=1)
            err = sums * slack
            upper = sums + err
            rows = terms[(upper >= (sums - err).max()) & (upper > delta)]
            positive = rows > 0
            values = iter(rows[positive].tolist())  # row by row
            for k in positive.sum(axis=1).tolist():
                delta = max(delta, math.fsum(islice(values, k)))
    return delta


@dataclass(frozen=True)
class GeoMechanism:
    """A location-reporting mechanism plus the coordinates of its inputs."""

    locations: tuple[tuple[str, float, float], ...]
    mechanism: FiniteMechanism

    def __post_init__(self):
        if tuple(loc[0] for loc in self.locations) != self.mechanism.inputs:
            raise ShapeError("mechanism inputs must match the location ids in order")
        for _, x, y in self.locations:
            if not (math.isfinite(x) and math.isfinite(y)):
                raise SchemaError("coordinates must be finite")


def parse_geo_mechanism(text: str) -> GeoMechanism:
    locations, outputs, matrix = _GEO(_load_json(text, "geo mechanism"), "geo file")
    mech = FiniteMechanism(tuple(loc[0] for loc in locations), outputs, tuple(matrix))
    vars(mech).pop("_array", None)  # geo_indistinguishability reads the rows, never the array
    return GeoMechanism(tuple(locations), mech)


def geo_indistinguishability(g: GeoMechanism) -> dict:
    """Worst output log-ratio per unit of distance between location pairs.

    Coincident locations with differing output rows force +inf.
    """
    if len(g.locations) < 2:
        raise ParamError("need at least two locations")
    eps = 0.0
    rows = g.mechanism.matrix  # in location order
    for i in range(len(g.locations)):
        for j in range(i + 1, len(g.locations)):
            r = _max_log_ratio(rows[i], rows[j])
            if r == 0:
                continue
            _, xa, ya = g.locations[i]
            _, xb, yb = g.locations[j]
            d = math.hypot(xa - xb, ya - yb)
            if r == math.inf or d == 0:
                return {"eps_eff": math.inf}
            eps = max(eps, r / d)
    return {"eps_eff": eps}


@domains(eps=interval(0, None))
def information_privacy(j: JointDistribution, eps: float) -> dict:
    """Bound on how far any posterior p(s|u) drifts from the prior p(s).

    The joint is over (sensitive value, observed output); rows with zero
    prior are skipped, and a vanishing posterior against a positive prior
    makes the bound infinite.
    """
    p_s = j.marginal_x().probs
    p_u = j.marginal_y().probs
    eps_min = 0.0
    for ps, row in zip(p_s, j.matrix):
        if ps == 0:
            continue
        # p(s|u) / p(s) = p(s, u) / p(u) / p(s); log is monotone, so the
        # extreme ratios carry the largest |log|
        ratios = [m / pu / ps for m, pu in zip(row, p_u) if pu]
        if not all(ratios):
            eps_min = math.inf
            break
        for pick in (max, min):
            eps_min = max(eps_min, abs(_log_extreme(pick, ratios, row, p_u, ps)))
    return {"holds": eps_min <= eps, "eps_min": eps_min}


@domains(l1=interval(0, None), l2=interval(0, None), prior_ratio=interval(0, None),
         eps=interval(0, None))
def distributional_privacy(l1: float, l2: float, prior_ratio: float, eps: float) -> bool:
    """Whether the posterior odds between two generating parameter sets, of
    likelihoods l1 and l2, stay within exp(eps).

    A vanishing second likelihood against a positive first makes the odds
    infinite, failing every finite eps.
    """
    if l1 == 0 and l2 == 0:
        raise DomainError("both likelihoods are 0; posterior undefined")
    if l2 == 0:
        return False
    try:
        bound = math.exp(eps)
    except OverflowError:  # past the largest float: compare the logs instead
        if prior_ratio == 0 or l1 == 0:
            return True
        return math.log(prior_ratio) + math.log(l1) - math.log(l2) <= eps
    return prior_ratio * l1 / l2 <= bound


@dataclass(frozen=True)
class GameTranscript:
    """Guess/truth outcomes of repeated challenge-response trials."""

    trials: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.trials:
            raise EmptyError("transcript needs at least one trial")
        for g, t in self.trials:
            if g not in (0, 1) or t not in (0, 1):
                raise SchemaError("guesses and truths must be 0 or 1")

    def fraction_correct(self) -> float:
        return sum(1 for g, t in self.trials if g == t) / len(self.trials)


def parse_game_transcript(text: str) -> GameTranscript:
    return GameTranscript(tuple(_TRANSCRIPT(_load_json(text, "game transcript"), "transcript")))


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score 95% interval for a binomial proportion (robust at small n)."""
    if n < 1:
        raise EmptyError("need at least one trial")
    z = WILSON_Z95
    f = successes / n
    denom = 1.0 + z * z / n
    center = (f + z * z / (2 * n)) / denom
    half = z * math.sqrt(f * (1 - f) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@domains()
def game_advantage(g: GameTranscript, eps: float) -> dict:
    """Adversary's edge over random guessing, with a 95% confidence interval.

    ``holds`` is the conservative verdict: even the interval's upper end
    stays within 1/2 + eps.
    """
    n = len(g.trials)
    correct = sum(1 for guess, truth in g.trials if guess == truth)
    f = correct / n
    lo, hi = wilson_interval(correct, n)
    return {
        "advantage": max(0.0, f - 0.5),
        "ci95": (lo, hi),
        "holds": hi <= 0.5 + eps,
    }


def unconditional_privacy(g: GameTranscript) -> dict:
    """Zero-advantage variant: the transcript shows no edge at all."""
    advantage = max(0.0, g.fraction_correct() - 0.5)
    return {"holds": advantage == 0.0, "advantage": advantage}
