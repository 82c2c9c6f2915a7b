"""Adversary-facing metrics: success probability, estimation error, time, and
estimate accuracy.

Traces are piecewise-constant and left-closed: a sample's value holds from
its timestamp until the next one, and the last interval runs to an explicit
``end_time``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    DataTable, DiscreteDistribution, Region, Trace, _distribution, _fields, _floats, _label,
    _load_json, _mapping, _string,
)
from .errors import (
    DistributionError,
    DomainError,
    EmptyError,
    ParamError,
    SchemaError,
    ShapeError,
)

DEGREES = (
    "provably-exposed",
    "exposed",
    "absolute-privacy",
    "beyond-suspicion",
    "probable-innocence",
    "possible-innocence",
)


def success_rate(trials: Sequence[bool]) -> float:
    """Fraction of attempts in which the adversary succeeded."""
    if not trials:
        raise EmptyError("need at least one trial")
    return sum(1 for t in trials if t) / len(trials)


def record_linkage_check(
    similarities: Sequence[float], theta: float, omega: float
) -> bool:
    """Whether matches at similarity >= theta occur at rate >= omega."""
    if not similarities:
        raise EmptyError("need at least one similarity score")
    for name, v in (("theta", theta), ("omega", omega)):
        if not 0.0 <= v <= 1.0:
            raise ParamError(f"{name} must lie in [0, 1], got {v!r}")
    rate = sum(1 for s in similarities if s >= theta) / len(similarities)
    return rate >= omega


def path_compromise_probability(
    compromised: int, total_relays: int, path_length: int
) -> float:
    """Chance that every relay on a uniformly chosen path is compromised."""
    if total_relays < 1 or path_length < 1:
        raise ParamError("need total_relays >= 1 and path_length >= 1")
    if not 0 <= compromised <= total_relays:
        raise ParamError("compromised count must lie in [0, total_relays]")
    return (compromised / total_relays) ** path_length


def degrees_of_anonymity(
    posterior: DiscreteDistribution,
    target: str,
    theta: float,
    alpha: float = 0.5,
) -> str:
    """Qualitative exposure level of one target under the posterior.

    Cases are evaluated strongest-exposure-first because the definitions
    overlap: certainty, above the exposure threshold theta, zero probability,
    minimal probability, below the innocence bound alpha, below the maximum,
    and otherwise exposed.
    """
    if not 0.0 <= theta <= 1.0 or not 0.0 <= alpha <= 1.0:
        raise ParamError("theta and alpha must lie in [0, 1]")
    p = posterior.prob_of(target)
    tol = 1e-12
    if p >= 1.0 - tol:
        return "provably-exposed"
    if p >= theta:
        return "exposed"
    if p <= tol:
        return "absolute-privacy"
    if p <= min(posterior.probs) + tol:
        return "beyond-suspicion"
    if p <= alpha:
        return "probable-innocence"
    if p < max(posterior.probs):
        return "possible-innocence"
    return "exposed"


def privacy_breach_check(posteriors: Sequence[float], rho: float) -> dict:
    """Breached when any posterior property probability reaches rho."""
    if not posteriors:
        raise EmptyError("need at least one posterior")
    for v in posteriors:
        if not 0.0 <= v <= 1.0:
            raise ParamError(f"posteriors must lie in [0, 1], got {v!r}")
    top = max(posteriors)
    return {"breached": top >= rho, "max_post": top}


def dg_privacy_check(prior: float, posterior: float, d: float, gamma: float) -> bool:
    """Bounded-prior variant: prior <= d, posterior <= gamma, and the
    posterior/prior ratio at least d/gamma."""
    for name, v in (("prior", prior), ("posterior", posterior), ("d", d), ("gamma", gamma)):
        if not 0.0 <= v <= 1.0:
            raise ParamError(f"{name} must lie in [0, 1], got {v!r}")
    if prior <= 0 or gamma <= 0:
        raise ParamError("prior and gamma must be > 0")
    return prior <= d and posterior <= gamma and d / gamma <= posterior / prior


def delta_presence(external: DataTable, published: DataTable) -> dict:
    """Bounds on the inference that a known individual is in the source data.

    Published quasi-identifier tuples are generalized values; an external
    individual matches a published group when every generalized cell covers
    the individual's cell (equality, "*" suppression, "prefix*", or a
    numeric "lo-hi" range). Each individual's presence probability is the
    published group size over the number of externals matching that group;
    with overlapping groups the largest estimate wins, and unmatched
    individuals score 0.
    """
    ext_qi = external.quasi_identifier_columns()
    pub_qi = published.quasi_identifier_columns()
    if not ext_qi or not pub_qi:
        raise SchemaError("both tables need quasi-identifier columns")
    ext_names = [external.columns[i].name for i in ext_qi]
    pub_names = [published.columns[i].name for i in pub_qi]
    if set(ext_names) != set(pub_names):
        raise SchemaError("tables must share quasi-identifier columns")
    pub_qi = [published.column_index(n) for n in ext_names]

    def covers(general: object, value: object) -> bool:
        g = str(general)
        if g == str(value) or g == "*":
            return True
        if g.endswith("*") and str(value).startswith(g[:-1]):
            return True
        sep = g.find("-", 1)  # range separator; position 0 would be a sign
        if sep != -1:
            try:
                return float(g[:sep]) <= float(value) <= float(g[sep + 1 :])
            except ValueError:
                return False
        return False

    groups: dict[tuple, int] = {}
    for row in published.rows:
        key = tuple(row[i] for i in pub_qi)
        groups[key] = groups.get(key, 0) + 1

    ext_rows = [tuple(row[i] for i in ext_qi) for row in external.rows]
    match_counts = {
        key: sum(1 for ind in ext_rows if all(covers(g, v) for g, v in zip(key, ind)))
        for key in groups
    }
    probs = []
    for ind in ext_rows:
        best = 0.0
        for key, size in groups.items():
            if all(covers(g, v) for g, v in zip(key, ind)) and match_counts[key] > 0:
                best = max(best, min(1.0, size / match_counts[key]))
        probs.append(best)
    return {"delta_min": min(probs), "delta_max": max(probs)}


def hiding_property(probs: Sequence[Sequence[float]], theta: float) -> dict:
    """Hidden when no message-user assignment probability exceeds theta."""
    if not probs or not probs[0]:
        raise ShapeError("probability matrix must be non-empty")
    width = len(probs[0])
    top = 0.0
    for row in probs:
        if len(row) != width:
            raise ShapeError("probability matrix rows must have equal length")
        for v in row:
            if not 0.0 <= v <= 1.0:
                raise ShapeError(f"entries must lie in [0, 1], got {v!r}")
            top = max(top, v)
    return {"hidden": top <= theta, "max_p": top}


# ---------------------------------------------------------------------------
# Error metrics


@dataclass(frozen=True)
class EstimateWithTruth:
    """Adversary's posterior over candidates plus the true outcome.

    ``distance`` selects the ground metric: "zero_one", or "euclidean" with a
    coordinate vector supplied per candidate label.
    """

    posterior: DiscreteDistribution
    truth: str
    distance: str = "zero_one"
    coords: dict[str, tuple[float, ...]] | None = None

    def __post_init__(self):
        if self.truth not in self.posterior.labels:
            raise SchemaError(f"truth {self.truth!r} not among the candidates")
        if self.distance not in ("zero_one", "euclidean"):
            raise SchemaError(f"unknown ground metric {self.distance!r}")
        if self.distance == "euclidean":
            if not self.coords:
                raise SchemaError("euclidean metric needs candidate coordinates")
            for label in self.posterior.labels:
                if label not in self.coords:
                    raise SchemaError(f"missing coordinates for {label!r}")


_ESTIMATE = _fields(
    posterior=_distribution,
    truth=_label,
    metric=(_string, "zero_one"),
    coords=(_mapping(_floats), None),
)


def parse_estimate(text: str) -> EstimateWithTruth:
    return EstimateWithTruth(*_ESTIMATE(_load_json(text, "estimate"), "estimate file"))


def expected_estimation_error(e: EstimateWithTruth) -> float:
    """Posterior-weighted ground distance from the true outcome.

    Under the zero-one metric this is exactly 1 - posterior(truth).
    """
    if e.distance == "zero_one":
        return 1.0 - e.posterior.prob_of(e.truth)
    import numpy as np

    t = np.asarray(e.coords[e.truth], dtype=float)
    total = 0.0
    for label, p in zip(e.posterior.labels, e.posterior.probs):
        total += p * float(np.linalg.norm(np.asarray(e.coords[label]) - t))
    return total


def distance_error_expectation(
    hypotheses: Sequence[Sequence[tuple[float, float]]],
    n_users: int,
    k_steps: int,
) -> float:
    """Average hypothesis-weighted distance error per user and timestep.

    ``hypotheses`` holds, per timestep, (probability, total distance) pairs
    whose probabilities must each form a distribution.
    """
    if n_users < 1 or k_steps < 1:
        raise ParamError("need n_users >= 1 and k_steps >= 1")
    if len(hypotheses) != k_steps:
        raise ParamError(f"expected {k_steps} timesteps, got {len(hypotheses)}")
    total = 0.0
    for step in hypotheses:
        probs = [p for p, _ in step]
        DiscreteDistribution.from_probs(probs)  # validates the per-step mass
        total += math.fsum(p * d for p, d in step)
    return total / (n_users * k_steps)


def mean_squared_error(
    truths: Sequence[Sequence[float]], observations: Sequence[Sequence[float]]
) -> float:
    """Mean squared Euclidean distance between truths and observations."""
    if len(truths) != len(observations) or not truths:
        raise ShapeError("need equally many truths and observations (>= 1)")
    import numpy as np

    total = 0.0
    for t, o in zip(truths, observations):
        ta = np.atleast_1d(np.asarray(t, dtype=float))
        oa = np.atleast_1d(np.asarray(o, dtype=float))
        if ta.shape != oa.shape:
            raise ShapeError("truth/observation dimension mismatch")
        total += float(((ta - oa) ** 2).sum())
    return total / len(truths)


def pct_incorrect(incorrect: int, total: int) -> float:
    """Share of users or events the adversary classified wrongly."""
    if total < 1 or not 0 <= incorrect <= total:
        raise ParamError("need 0 <= incorrect <= total with total >= 1")
    return incorrect / total


def health_privacy(weights: Sequence[float], base_values: Sequence[float]) -> float:
    """Contribution-weighted mean of a per-variation base privacy metric."""
    if len(weights) != len(base_values):
        raise ShapeError("one weight per base value required")
    if any(w < 0 for w in weights):
        raise ParamError("weights must be >= 0")
    total_w = math.fsum(weights)
    if total_w == 0:
        raise ParamError("weights must not all be zero")
    return math.fsum(w * g for w, g in zip(weights, base_values)) / total_w


# ---------------------------------------------------------------------------
# Time metrics


def batch_mix_rounds(m: int, l: int, n_partners: int, b: int) -> float:
    """Expected mixing rounds before a batch-mix adversary links all of a
    sender's m recipients, for batch size b and security parameter l."""
    if min(m, l, n_partners, b) < 1:
        raise ParamError("all parameters must be >= 1")
    n = n_partners
    first = math.sqrt((n - 1) / n * (b - 1))
    second = math.sqrt((n - 1) / (n * n) * (b - 1) + (m - 1) / m)
    return (m * l * (first + second)) ** 2


def _intervals(trace: Trace, end_time: float) -> list[tuple[float, float, float]]:
    """(start, end, value) triples for the piecewise-constant trace."""
    times = trace.times()
    if len(times) < 2:
        raise ParamError("trace needs at least two samples")
    if end_time < times[-1]:
        raise ParamError("end_time precedes the final sample")
    values = trace.values()
    bounds = list(times) + [end_time]
    return [
        (bounds[i], bounds[i + 1], values[i]) for i in range(len(values))
    ]


def max_tracking_time(trace: Trace, end_time: float) -> float:
    """Total time the target's anonymity-set size sat at exactly one."""
    return math.fsum(
        e - s for s, e, v in _intervals(trace, end_time) if v == 1
    )


def time_to_confusion(trace: Trace, delta: float, end_time: float) -> dict:
    """Durations of the maximal runs where tracking entropy stays below delta.

    Returns the mean run length (0 when no run exists) and the cumulative
    time below the threshold.
    """
    runs: list[float] = []
    current = 0.0
    open_run = False
    for s, e, v in _intervals(trace, end_time):
        if v < delta:
            current += e - s
            open_run = True
        elif open_run:
            runs.append(current)
            current = 0.0
            open_run = False
    if open_run:
        runs.append(current)
    cumulative = math.fsum(runs)
    return {
        "mean_run": cumulative / len(runs) if runs else 0.0,
        "cumulative": cumulative,
    }


# ---------------------------------------------------------------------------
# Accuracy metrics


def confidence_interval_width(
    atoms: Sequence[tuple[float, float]] | None = None,
    samples: Sequence[float] | None = None,
    c: float = 95.0,
) -> float:
    """Width of the narrowest contiguous interval holding c% of the mass.

    Accepts either weighted atoms (value, probability) or raw samples
    (uniform weights); ties break toward the leftmost interval.
    """
    if not 0 < c <= 100:
        raise ParamError(f"confidence must lie in (0, 100], got {c!r}")
    if (atoms is None) == (samples is None):
        raise ParamError("provide exactly one of atoms or samples")
    if samples is not None:
        if len(samples) == 0:
            raise EmptyError("need at least one sample")
        atoms = [(float(v), 1.0 / len(samples)) for v in samples]
    if not atoms:
        raise EmptyError("need at least one atom")
    merged: dict[float, float] = {}
    for v, p in atoms:
        if p < 0:
            raise DistributionError(f"negative mass {p!r}")
        merged[float(v)] = merged.get(float(v), 0.0) + p
    total = math.fsum(merged.values())
    if abs(total - 1.0) > 1e-9:
        raise DistributionError(f"atom mass sums to {total!r}, not 1")
    values = sorted(merged)
    masses = [merged[v] / total for v in values]
    need = c / 100.0
    tol = 1e-12
    best = math.inf
    j = 0
    mass = 0.0
    for i in range(len(values)):
        while j < len(values) and mass + tol < need:
            mass += masses[j]
            j += 1
        if mass + tol < need:
            break
        width = values[j - 1] - values[i]
        if width < best - tol:
            best = width
        mass -= masses[i]
    if math.isinf(best):
        raise DomainError("no contiguous interval reaches the requested mass")
    return best


def tp_violation_check(
    bayes_error_without: float, bayes_error_with: float, p: float
) -> bool:
    """Violation when the helped classifier beats the baseline by at least p."""
    for name, v in (
        ("bayes_error_without", bayes_error_without),
        ("bayes_error_with", bayes_error_with),
    ):
        if not 0.0 <= v <= 1.0:
            raise ParamError(f"{name} must lie in [0, 1], got {v!r}")
    if p < 0:
        raise ParamError(f"p must be >= 0, got {p!r}")
    return bayes_error_with <= bayes_error_without - p


def _ecdf_area(samples: Sequence[float], grid: Sequence[float]) -> float:
    """Trapezoid integral of the empirical CDF over the grid."""
    import numpy as np

    s = np.sort(np.asarray(samples, dtype=float))
    f = np.searchsorted(s, grid, side="right") / len(s)
    return float(np.trapezoid(f, grid))


def event_unobservability(
    f1_samples: Sequence[float],
    f2_samples: Sequence[float],
    p1: float,
    p2: float,
    alpha: float,
    eps: float,
) -> dict:
    """Whether two message-timing distributions are statistically alike.

    Compares the areas under the two empirical CDFs over their merged
    support (trapezoid rule) against alpha, and brackets the distribution
    parameters within a relative eps.
    """
    if len(f1_samples) == 0 or len(f2_samples) == 0:
        raise EmptyError("both sample sets must be non-empty")
    if alpha < 0 or eps < 0:
        raise ParamError("alpha and eps must be >= 0")
    import numpy as np

    grid = np.unique(np.concatenate([np.asarray(f1_samples, float), np.asarray(f2_samples, float)]))
    d_area = abs(_ecdf_area(f1_samples, grid) - _ecdf_area(f2_samples, grid))
    params_ok = (1 - eps) * p1 <= p2 <= (1 + eps) * p1
    return {"holds": d_area <= alpha and params_ok, "d_area": d_area}


def region_privacy(
    r_u: Region,
    r_s: Region | None = None,
    r_opt: float | None = None,
    r_min: float | None = None,
) -> dict:
    """Area-based location accuracy measures.

    Always reports the uncertainty region's size; adds sensitive-region
    coverage when ``r_s`` is given (both regions must be the same
    representation) and obfuscation accuracy when both radii are given.
    """
    out: dict = {"size": r_u.area()}
    if r_s is not None:
        if r_s.is_rect != r_u.is_rect:
            raise ParamError("regions must both be rectangles or both cell sets")
        if r_u.is_rect:
            x0 = max(r_u.rect[0], r_s.rect[0])
            y0 = max(r_u.rect[1], r_s.rect[1])
            x1 = min(r_u.rect[2], r_s.rect[2])
            y1 = min(r_u.rect[3], r_s.rect[3])
            inter = max(0.0, x1 - x0) * max(0.0, y1 - y0)
        else:
            inter = float(len(r_u.cells & r_s.cells))
        out["coverage"] = inter / r_u.area()
    if r_opt is not None or r_min is not None:
        if r_opt is None or r_min is None:
            raise ParamError("accuracy needs both r_opt and r_min")
        out["accuracy"] = obfuscation_accuracy(r_opt, r_min)
    return out


def obfuscation_accuracy(r_opt: float, r_min: float) -> float:
    """Squared ratio of achievable sensing accuracy to the required minimum."""
    if r_min <= 0 or r_opt < 0:
        raise ParamError("need r_min > 0 and r_opt >= 0")
    ratio = r_opt / r_min  # divide first: r_min² underflows to 0 for tiny r_min
    if math.isinf(ratio) and not math.isinf(r_opt):  # the division overflows to inf without raising
        raise OverflowError("r_opt / r_min exceeds the largest float")
    return ratio**2
