"""Similarity and diversity metrics over released tables.

These operate on the shared DataTable model and *measure* anonymity
properties; nothing here generalizes, suppresses, or otherwise anonymizes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import mul, sub, truediv
from typing import Sequence

from .core import (
    DataTable, EquivalenceClass, Value, _fields, _finite, _label, _labels, _list, _load_json,
    equivalence_classes,
)
from .errors import (
    DegenerateError,
    EmptyError,
    ParamError,
    SchemaError,
    ShapeError,
)


def _class_sensitive(column: Sequence[Value], cls: EquivalenceClass) -> list[Value]:
    """The class's cells of one column, in row order."""
    return list(map(column.__getitem__, cls.row_indices))


def k_anonymity(table: DataTable) -> int:
    """Minimum equivalence-class size over the quasi-identifier grouping."""
    return min(map(len, equivalence_classes(table)))


def alpha_k_anonymity(table: DataTable, sensitive_value: Value) -> dict:
    """k plus the worst per-class frequency of one sensitive value.

    ``alpha`` is the largest in-class fraction of rows carrying
    ``sensitive_value``; 0 when the value never occurs.
    """
    col = table.sensitive_column()
    if table.columns[col].kind == "numeric":
        sensitive_value = float(sensitive_value)
    column = table.column_values(col)
    classes = equivalence_classes(table)
    alpha = max(
        _class_sensitive(column, c).count(sensitive_value) / len(c)
        for c in classes
    )
    return {"k": min(map(len, classes)), "alpha": alpha}


def l_diversity(table: DataTable, mode: str = "entropy", c: float = 1.0) -> float:
    """Diversity of the sensitive attribute within every equivalence class.

    entropy mode: the least diverse class determines l = 2**H(frequencies).
    recursive mode: the largest l such that in every class the top count is
    below c times the tail sum from position l (l = 1 when nothing holds).
    """
    column = table.column_values(table.sensitive_column())
    per_class_counts = [
        sorted(Counter(_class_sensitive(column, cls)).values(), reverse=True)
        for cls in equivalence_classes(table)
    ]
    if mode == "entropy":
        worst = math.inf
        for counts in per_class_counts:
            freqs = list(map(truediv, counts, repeat(sum(counts))))  # every count >= 1
            h = -math.fsum(map(mul, freqs, map(math.log2, freqs)))
            worst = min(worst, 2.0**h)
        return worst
    if mode == "recursive":
        if c <= 0:
            raise ParamError(f"recursive diversity needs c > 0, got {c!r}")
        max_distinct = max(len(counts) for counts in per_class_counts)
        best = 1
        for ell in range(2, max_distinct + 1):
            if all(
                counts[0] < c * sum(counts[ell - 1 :])
                for counts in per_class_counts
            ):
                best = ell
        return float(best)
    raise ParamError(f"unknown diversity mode {mode!r}")


# ---------------------------------------------------------------------------
# Earth mover distances and t-closeness


def emd_categorical(p: Sequence[float], q: Sequence[float]) -> float:
    """Equal-ground-distance earth mover distance: half the L1 distance."""
    if len(p) != len(q):
        raise ShapeError("distributions must share support")
    return 0.5 * math.fsum(map(abs, map(sub, p, q)))


def emd_ordered(p: Sequence[float], q: Sequence[float]) -> float:
    """Earth mover distance over an ordered domain of m equally spaced values.

    (1/(m-1)) * sum over positions of |cumulative difference|; 0 for a
    single-value domain.
    """
    if len(p) != len(q):
        raise ShapeError("distributions must share support")
    m = len(p)
    if m < 2:
        return 0.0
    cum = 0.0
    total = 0.0
    for a, b in zip(p, q):
        cum += a - b
        total += abs(cum)
    return total / (m - 1)


def t_closeness(table: DataTable) -> float:
    """Worst-class earth mover distance to the table's sensitive distribution.

    Numeric sensitive columns use the ordered cumulative form over the sorted
    distinct values; categorical columns use the equal-distance form.
    """
    col = table.sensitive_column()
    numeric = table.columns[col].kind == "numeric"
    all_values = table.column_values(col)
    domain = sorted(set(all_values)) if numeric else sorted(set(map(str, all_values)))
    emd = emd_ordered if numeric else emd_categorical

    def dist(values: Sequence[Value]) -> list[float]:
        counts = Counter(values if numeric else map(str, values))
        return list(map(truediv, map(counts.get, domain, repeat(0)), repeat(len(values))))

    table_dist = dist(all_values)
    return max(
        emd(dist(_class_sensitive(all_values, cls)), table_dist)
        for cls in equivalence_classes(table)
    )


# ---------------------------------------------------------------------------
# Point isolation and numeric-attribute variants


def ct_isolation(
    points: Sequence[Sequence[float]],
    guess: Sequence[float],
    target_index: int,
    c: float,
) -> dict:
    """How many database points a ball around the adversary's guess captures.

    The ball radius is c times the guess-to-target distance; the caller
    decides isolation by comparing ``ball_count`` against their threshold t.
    """
    if c <= 0:
        raise ParamError(f"isolation factor c must be > 0, got {c!r}")
    if not 0 <= target_index < len(points):
        raise ParamError(f"target index {target_index} out of range")
    import numpy as np

    try:
        pts = np.asarray(points, dtype=float)
    except ValueError:  # ragged nesting
        raise ShapeError("points must all have the same dimension")
    g = np.asarray(guess, dtype=float)
    if pts.ndim != 2 or g.shape != (pts.shape[1],):
        raise ShapeError("guess dimension must match the point dimension")
    delta = float(np.linalg.norm(g - pts[target_index]))
    dists = np.linalg.norm(pts - g, axis=1)
    return {"ball_count": int((dists <= c * delta + 1e-12).sum()), "delta": delta}


def ke_anonymity(table: DataTable) -> dict:
    """Class-size floor plus the narrowest in-class sensitive value range."""
    col = table.sensitive_column()
    if table.columns[col].kind != "numeric":
        raise SchemaError("range anonymity needs a numeric sensitive column")
    column = table.column_values(col)
    classes = equivalence_classes(table)
    ranges = [
        max(vals) - min(vals)
        for vals in (_class_sensitive(column, c) for c in classes)
    ]
    return {"k": min(map(len, classes)), "e": min(ranges)}


def em_anonymity(table: DataTable, epsilon: float) -> float:
    """Inverse of the worst in-class fraction of epsilon-similar values.

    For every class and every sensitive value x in it, the fraction of class
    rows within [x - epsilon, x + epsilon] is bounded by 1/m; the returned m
    is the tightest such bound.
    """
    if not epsilon >= 0:  # also rejects NaN, for which no value would be within epsilon
        raise ParamError(f"epsilon must be >= 0, got {epsilon!r}")
    col = table.sensitive_column()
    if table.columns[col].kind != "numeric":
        raise SchemaError("similarity anonymity needs a numeric sensitive column")
    column = table.column_values(col)
    worst = 0.0
    for cls in equivalence_classes(table):
        values = sorted(_class_sensitive(column, cls))
        worst = max(worst, _most_within(values, epsilon) / len(values))
    return 1.0 / worst


def _most_within(values: Sequence[float], epsilon: float) -> int:
    """Most sorted values s with ``abs(s - x) <= epsilon`` for one of them, x.

    Rounded subtraction is monotone, so the values within epsilon of x form a
    run values[lo:hi] around x whose ends only move up as x does. Left of x,
    ``abs(s - x)`` is exactly ``x - s``; right of it, ``s - x``.
    """
    best = lo = hi = 0
    for x in values:
        while x - values[lo] > epsilon:
            lo += 1
        while hi < len(values) and values[hi] - x <= epsilon:
            hi += 1
        best = max(best, hi - lo)
    return best


def multirelational_k(
    persons: DataTable,
    relations: Sequence[DataTable],
    join_keys: Sequence[str],
) -> dict:
    """Owner-level k over the natural join of a person table with its relations.

    Rows are inner-joined on ``join_keys``; owners absent from any relation
    drop out. k counts distinct owners per quasi-identifier class. The
    row-level reading (every owner contributing at least k join rows) is
    reported alongside as ``row_level_holds``.
    """
    owner_cols = persons.columns_with_role("identifier")
    if len(owner_cols) != 1:
        raise SchemaError("person table needs exactly one identifier column")
    if not join_keys:
        raise SchemaError("at least one join key required")

    def as_dicts(t: DataTable) -> list[dict]:
        names = [c.name for c in t.columns]
        return [dict(zip(names, row)) for row in t.rows]

    joined = as_dicts(persons)
    roles = {c.name: c.role for c in persons.columns}
    for rel in relations:
        for key in join_keys:
            persons.column_index(key)
            rel.column_index(key)
        for c in rel.columns:
            roles.setdefault(c.name, c.role)
        by_key: dict[tuple, list[dict]] = {}
        for row in as_dicts(rel):
            by_key.setdefault(tuple(row[k] for k in join_keys), []).append(row)
        merged = []
        for row in joined:
            for other in by_key.get(tuple(row[k] for k in join_keys), []):
                merged.append({**other, **row})
        joined = merged
    if not joined:
        raise EmptyError("join produced no rows")

    owner_col = persons.columns[owner_cols[0]].name
    qi_names = [name for name, role in roles.items() if role == "quasi-identifier"]
    if not qi_names:
        raise SchemaError("no quasi-identifier columns across the joined tables")
    owners_per_class: dict[tuple, set] = {}
    rows_per_owner: Counter = Counter()
    for row in joined:
        key = tuple(row[n] for n in qi_names)
        owners_per_class.setdefault(key, set()).add(row[owner_col])
        rows_per_owner[row[owner_col]] += 1
    k = min(len(v) for v in owners_per_class.values())
    return {"k": k, "row_level_holds": min(rows_per_owner.values()) >= k}


def xy_privacy(table: DataTable, x_cols: Sequence[str], y_cols: Sequence[str]) -> float:
    """Worst confidence for inferring a y-group value from an x-group value."""
    if not x_cols or not y_cols:
        raise SchemaError("both column groups must be non-empty")
    if set(x_cols) & set(y_cols):
        raise SchemaError("column groups must be disjoint")
    xi = [table.column_index(n) for n in x_cols]
    yi = [table.column_index(n) for n in y_cols]
    x_counts: Counter = Counter()
    xy_counts: Counter = Counter()
    for row in table.rows:
        xv = tuple(row[i] for i in xi)
        yv = tuple(row[i] for i in yi)
        x_counts[xv] += 1
        xy_counts[(xv, yv)] += 1
    return max(n / x_counts[xv] for (xv, _), n in xy_counts.items())


# ---------------------------------------------------------------------------
# Sequential releases


@dataclass(frozen=True)
class Release:
    """One release of an evolving data set, with stable per-row owner ids."""

    table: DataTable
    release_index: int
    row_owner: tuple[str, ...]

    def __post_init__(self):
        if len(self.row_owner) != len(self.table):
            raise ShapeError("one owner id per row required")


def m_invariance(releases: Sequence[Release]) -> dict:
    """Cross-release invariance of per-class sensitive value signatures.

    Holds when every class in every release has pairwise distinct sensitive
    values and every owner sees the same signature (set of distinct sensitive
    values of its class) in each release containing it. m is the smallest
    class size when the checks pass, 0 otherwise.
    """
    if not releases:
        raise EmptyError("need at least one release")
    holds = True
    min_class = math.inf
    signatures: dict[str, frozenset] = {}
    for rel in releases:
        column = rel.table.column_values(rel.table.sensitive_column())
        for cls in equivalence_classes(rel.table):
            values = _class_sensitive(column, cls)
            min_class = min(min_class, len(values))
            if len(set(values)) != len(values):
                holds = False
            signature = frozenset(values)
            for i in cls.row_indices:
                owner = rel.row_owner[i]
                if owner in signatures and signatures[owner] != signature:
                    holds = False
                signatures[owner] = signature
    return {"holds": holds, "m": int(min_class) if holds else 0}


# ---------------------------------------------------------------------------
# Location histories


@dataclass(frozen=True)
class LocationHistory:
    """Per-user time/location entries; times non-decreasing."""

    user: str
    entries: tuple[tuple[float, frozenset[str]], ...]

    def __post_init__(self):
        prev = None
        for t, cells in self.entries:
            if prev is not None and t < prev:
                raise SchemaError("history times must be non-decreasing")
            if not cells:
                raise SchemaError("history entries need at least one cell")
            prev = t

    @classmethod
    def of(cls, user: str, entries: Sequence[tuple[float, object]]):
        norm = []
        for t, cell in entries:
            cells = cell if isinstance(cell, (set, frozenset, list, tuple)) else [cell]
            norm.append((float(t), frozenset(str(c) for c in cells)))
        return cls(str(user), tuple(norm))


def historical_k(
    histories: Sequence[LocationHistory],
    requests: Sequence[tuple[float, str]],
) -> int:
    """Number of user histories consistent with every time-stamped request."""
    if not requests:
        raise EmptyError("need at least one request")

    def consistent(h: LocationHistory) -> bool:
        return all(
            any(t == et and str(cell) in cells for et, cells in h.entries)
            for t, cell in requests
        )

    return sum(1 for h in histories if consistent(h))


_HISTORY = _fields(user=_label, entries=_list(_fields(t=_finite, cells=_labels)))
_HISTORIES = _fields(histories=_list(_HISTORY))


def parse_location_histories(text: str) -> list[LocationHistory]:
    (histories,) = _HISTORIES(_load_json(text, "location histories"), "histories file")
    return [
        LocationHistory(user, tuple((t, frozenset(cells)) for t, cells in entries))
        for user, entries in histories
    ]


def haplotype_safety(
    n_participants: int,
    l_variations: int,
    alpha: float = 0.0,
    mode: str = "aggregate",
    log_base: float = 2.0,
) -> bool:
    """Whether genomic study results can be published safely.

    Compares the variation count against a participant-count threshold:
    2(N-1)/log(N+1) for aggregate data, with the denominator shifted by
    (alpha - 1) for test statistics. The inequality is strict; the log base
    defaults to 2.
    """
    if n_participants < 2:
        raise ParamError("need at least two participants")
    if l_variations < 0 or alpha < 0:
        raise ParamError("variation count and alpha must be >= 0")
    if log_base <= 1:
        raise ParamError("log base must be > 1")
    if mode not in ("aggregate", "statistics"):
        raise ParamError(f"unknown mode {mode!r}")
    denom = math.log(n_participants + 1, log_base)
    if mode == "statistics":
        denom += alpha - 1.0
    if denom <= 0:
        raise ParamError("non-positive threshold denominator")
    return 2.0 * (n_participants - 1) / denom > l_variations


# ---------------------------------------------------------------------------
# Series similarity


def cluster_similarity(
    original_assign: Sequence, protected_assign: Sequence
) -> float:
    """Best-case agreement between two clusterings of the same items.

    Protected cluster ids are relabeled by the agreement-maximizing bijection
    before counting matches, so the value is invariant under any relabeling
    of either side.
    """
    import numpy as np
    from scipy.optimize import linear_sum_assignment  # scipy's only user: import on demand

    if len(original_assign) != len(protected_assign):
        raise ShapeError("assignments must cover the same items")
    if not original_assign:
        raise ShapeError("assignments must be non-empty")
    o_ids = sorted(set(map(str, original_assign)))
    p_ids = sorted(set(map(str, protected_assign)))
    contingency = np.zeros((len(o_ids), len(p_ids)), dtype=int)
    o_index = {v: i for i, v in enumerate(o_ids)}
    p_index = {v: i for i, v in enumerate(p_ids)}
    for o, p in zip(original_assign, protected_assign):
        contingency[o_index[str(o)], p_index[str(p)]] += 1
    rows, cols = linear_sum_assignment(contingency, maximize=True)
    return float(contingency[rows, cols].sum() / len(original_assign))


def r_squared_transitions(protected: Sequence[float]) -> float:
    """Variance in a transition series explained by a straight-line fit.

    Ordinary least squares against the time index; 1 means the protected
    series is perfectly linear (fully predictable).
    """
    if len(protected) < 3:
        raise ParamError("need at least three points")
    import numpy as np

    y = np.asarray(protected, dtype=float)
    if np.all(y == y[0]):
        raise DegenerateError("constant series; fit is degenerate")
    x = np.arange(len(y), dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    fitted = intercept + slope * x
    ss_e = float(((y - fitted) ** 2).sum())
    ss_r = float(((fitted - y.mean()) ** 2).sum())
    return 1.0 - ss_e / (ss_r + ss_e)


def normalized_variance(x: Sequence[float], y: Sequence[float]) -> float:
    """Dispersion of the original-minus-perturbed gap, relative to the original.

    Can exceed 1 (e.g. anti-correlated perturbation); the raw ratio is
    returned and range handling is left to the caller.
    """
    if len(x) != len(y):
        raise ShapeError("series lengths differ")
    if len(x) < 2:
        raise ParamError("need at least two points")
    import numpy as np

    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    vx = float(np.var(xa))
    if vx == 0:
        raise DegenerateError("original series has zero variance")
    return float(np.var(xa - ya) / vx)
