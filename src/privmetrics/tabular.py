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
    DataTable, EquivalenceClass, Value, _deviations, _entropy_bits, _exponent, _fields, _finite,
    _label, _labels, _list, _load_json, equivalence_classes,
)
from .errors import (
    DegenerateError,
    EmptyError,
    ParamError,
    SchemaError,
    ShapeError,
)
from .ranges import domains, enum_range, interval


# From this many rows on, k-anonymity, α-k, entropy l-diversity, categorical
# t-closeness, (k,e) and (ε,m) read the table's class arrays
# (``DataTable._arrays``); below it they run the scalar loops over the
# grouping, which import nothing.
_ARRAY_ROWS = 1 << 12
# Cells of each block of classes that categorical t-closeness spreads over
# the whole domain at a time, so that its temporaries stay under about 1 MB.
_BLOCK_CELLS = 1 << 14


def _class_sensitive(column: Sequence[Value], cls: EquivalenceClass) -> list[Value]:
    """The class's cells of one column, in row order."""
    return list(map(column.__getitem__, cls.row_indices))


def k_anonymity(table: DataTable) -> int:
    """Minimum equivalence-class size over the quasi-identifier grouping."""
    if len(table) >= _ARRAY_ROWS:
        return int(table._arrays.sizes.min())
    return min(map(len, equivalence_classes(table)))


def alpha_k_anonymity(table: DataTable, value: Value) -> dict:
    """k plus the worst per-class frequency of one sensitive value.

    ``alpha`` is the largest in-class fraction of rows carrying the sensitive
    ``value``; 0 when the value never occurs.
    """
    col = table.sensitive_column()
    if table.columns[col].kind == "numeric":
        try:
            number = float(value)
        except ValueError:
            number = math.nan
        if math.isnan(number):  # NaN equals no cell, so it would read as alpha 0
            raise ParamError(f"value {value!r} is not a number")
        value = number
    if len(table) >= _ARRAY_ROWS:
        arrays = table._arrays
        numbers, cls, values, counts = arrays.histograms(col)
        at = values == numbers.get(value, -1)
        alpha = (counts[at] / arrays.sizes[cls[at]]).max() if at.any() else 0.0
        return {"k": int(arrays.sizes.min()), "alpha": float(alpha)}
    classes = equivalence_classes(table)
    alpha = max(map(truediv, (h[value] for h in table.class_histograms(col)), map(len, classes)))
    return {"k": min(map(len, classes)), "alpha": alpha}


@domains(mode=enum_range("entropy", "recursive"))
def l_diversity(table: DataTable, mode: str = "entropy", c: float = 1.0) -> float:
    """Diversity of the sensitive attribute within every equivalence class.

    entropy mode: the least diverse class determines l = 2**H(frequencies).
    recursive mode: the largest l such that in every class the top count is
    below c times the tail sum from position l (l = 1 when nothing holds).
    """
    col = table.sensitive_column()
    if mode == "entropy" and len(table) >= _ARRAY_ROWS:
        return _l_entropy_arrays(table._arrays, col)
    classes = equivalence_classes(table)
    histograms = table.class_histograms(col)
    if mode == "entropy":
        return min(
            2.0 ** _entropy_bits(list(map(truediv, h.values(), repeat(len(cls)))))
            for h, cls in zip(histograms, classes)
        )
    if c <= 0:
        raise ParamError(f"recursive diversity needs c > 0, got {c!r}")
    per_class_counts = [sorted(h.values(), reverse=True) for h in histograms]
    max_distinct = max(map(len, per_class_counts))
    best = 1
    for ell in range(2, max_distinct + 1):
        if all(
            counts[0] < c * sum(counts[ell - 1 :])
            for counts in per_class_counts
        ):
            best = ell
    return float(best)


def _l_entropy_arrays(arrays, col: int) -> float:
    """Entropy l-diversity from the class arrays. Each count c of a class of
    size s gives the term p log2 p, p = c / s, from one ``math.log2`` per
    distinct (c, s); each class's terms are summed by ``math.fsum``, which is
    exactly rounded, so the order of a class's values changes no bit."""
    import numpy as np

    _, cls, _, counts = arrays.histograms(col)
    sizes = arrays.sizes[cls]
    width = int(sizes.max()) + 1
    pairs, which = np.unique(counts * width + sizes, return_inverse=True)
    pair_terms = [p * math.log2(p) for p in map(truediv, (pairs // width).tolist(),
                                                          (pairs % width).tolist())]
    terms = np.array(pair_terms)[which].tolist()
    ends = np.bincount(cls).cumsum().tolist()
    return min(2.0 ** (0.0 - math.fsum(terms[lo:hi])) for lo, hi in zip([0] + ends, ends))


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
    distinct values; categorical columns use the equal-distance form, over
    the cells as strings.
    """
    col = table.sensitive_column()
    numeric = table.columns[col].kind == "numeric"
    if not numeric and len(table) >= _ARRAY_ROWS:
        return _t_closeness_arrays(table._arrays, col)
    classes = equivalence_classes(table)
    histograms = table.class_histograms(col)
    domain = set().union(*histograms)
    if not numeric and not all(type(v) is str for v in domain):
        # cells that differ but print alike, such as 1.0 and "1.0", are one value
        column = table.column_values(col)
        histograms = [Counter(map(str, _class_sensitive(column, cls))) for cls in classes]
        domain = set(map(str, column))
    domain = sorted(domain)
    emd = emd_ordered if numeric else emd_categorical

    def dist(counts: Counter, size: int) -> list[float]:
        return list(map(truediv, map(counts.get, domain, repeat(0)), repeat(size)))

    table_dist = [sum(map(dict.get, histograms, repeat(v), repeat(0))) / len(table) for v in domain]
    return max(emd(dist(h, len(cls)), table_dist) for h, cls in zip(histograms, classes))


def _t_closeness_arrays(arrays, col: int) -> float:
    """Categorical t-closeness from the class arrays. Blocks of classes are
    spread over the whole domain, the absent values as 0, so each term
    |c / s - n_v / n| is the one IEEE quotient, difference and ``abs`` of the
    scalar loop, and each class's row is summed by ``math.fsum``."""
    import numpy as np

    numbers, cls, values, counts = arrays.histograms(col)
    if not all(type(v) is str for v in numbers):
        numbers, cls, values, counts = arrays.histograms(col, as_str=True)
    sizes, width = arrays.sizes, len(numbers)
    table_dist = np.bincount(values, weights=counts, minlength=width) / len(arrays.class_of)
    ends = np.bincount(cls).cumsum().tolist()
    step = max(1, _BLOCK_CELLS // width)
    worst = 0.0
    for lo in range(0, len(sizes), step):
        hi = min(lo + step, len(sizes))
        first, last = ends[lo - 1] if lo else 0, ends[hi - 1]
        block = np.zeros((hi - lo, width))
        block[cls[first:last] - lo, values[first:last]] = counts[first:last]
        terms = np.abs(block / sizes[lo:hi, None] - table_dist)
        worst = max(worst, *map(math.fsum, terms.tolist()))
    return 0.5 * worst  # halving is monotone, so it commutes with max


# ---------------------------------------------------------------------------
# Point isolation and numeric-attribute variants


@domains(target_index=interval(0, None), c=interval(0, None, lo_open=True))
def ct_isolation(
    points: Sequence[Sequence[float]],
    guess: Sequence[float],
    target_index: int,
    c: float,
    t: int | None = None,
) -> dict:
    """How many database points a ball around the adversary's guess captures.

    The ball radius is c times the guess-to-target distance, widened by a
    few ulps so that a point on the sphere counts at every scale. Given a
    threshold ``t``, ``isolated`` says whether fewer than t points fall in.
    """
    if target_index >= len(points):
        raise ParamError(f"target index {target_index} out of range")
    dims = set(map(len, points))
    if len(dims) > 1:
        raise ShapeError("points must all have the same dimension")
    if dims != {len(guess)}:
        raise ShapeError("guess dimension must match the point dimension")
    delta = math.dist(guess, points[target_index])
    radius = c * delta * (1.0 + 2.0**-50)
    result = {"ball_count": sum(math.dist(guess, p) <= radius for p in points), "delta": delta}
    if t is not None:
        result["isolated"] = result["ball_count"] < t
    return result


def ke_anonymity(table: DataTable) -> dict:
    """Class-size floor plus the narrowest in-class sensitive value range."""
    col = table.sensitive_column()
    if table.columns[col].kind != "numeric":
        raise SchemaError("range anonymity needs a numeric sensitive column")
    if len(table) >= _ARRAY_ROWS:
        return _ke_arrays(table._arrays, col)
    column = table.column_values(col)
    classes = equivalence_classes(table)
    ranges = [
        max(vals) - min(vals)
        for vals in (_class_sensitive(column, c) for c in classes)
    ]
    return {"k": min(map(len, classes)), "e": min(ranges)}


def _ke_arrays(arrays, col: int) -> dict:
    """(k,e) from the class arrays: each class's range is its last sorted
    value less its first, plus 0.0, which turns the -0.0 of a class of zeros
    sorted -0.0 last into the 0.0 that max - min gives."""
    import numpy as np

    values, starts, sizes = arrays.sorted_values(col), arrays.starts, arrays.sizes
    with np.errstate(over="ignore"):
        ranges = values[starts + sizes - 1] - values[starts] + 0.0
    return {"k": int(sizes.min()), "e": float(ranges.min())}


@domains(epsilon=interval(0, None))
def em_anonymity(table: DataTable, epsilon: float) -> float:
    """Inverse of the worst in-class fraction of epsilon-similar values.

    For every class and every sensitive value x in it, the fraction of class
    rows within [x - epsilon, x + epsilon] is bounded by 1/m; the returned m
    is the tightest such bound.
    """
    col = table.sensitive_column()
    if table.columns[col].kind != "numeric":
        raise SchemaError("similarity anonymity needs a numeric sensitive column")
    if len(table) >= _ARRAY_ROWS:
        return _em_anonymity_arrays(table._arrays, col, epsilon)
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
        if hi - lo > best:
            best = hi - lo
    return best


def _em_anonymity_arrays(arrays, col: int, epsilon: float) -> float:
    """(ε,m) from the class arrays. For each sorted value x, the ends of the
    run ``_most_within`` finds are bisected for all values at once: the
    first s of its class with ``not x - s > epsilon``, and the first s after
    x with ``s - x > epsilon``; each test is the loop's IEEE difference."""
    import numpy as np

    values, starts, sizes = arrays.sorted_values(col), arrays.starts, arrays.sizes
    at = np.arange(len(values))
    start = np.repeat(starts, sizes)

    def first(holds, lo, hi):
        """Per value, the least j in [lo, hi) at which ``holds(j)``, else hi;
        ``holds`` must be false and then true over each range."""
        while (active := lo < hi).any():
            mid = (lo + hi) >> 1
            found = holds(np.minimum(mid, len(values) - 1)) & active
            lo, hi = np.where(active & ~found, mid + 1, lo), np.where(found, mid, hi)
        return lo

    with np.errstate(over="ignore"):
        low = first(lambda j: ~(values - values[j] > epsilon), start, at)
        high = first(lambda j: values[j] - values > epsilon, at + 1, start + np.repeat(sizes, sizes))
    best = np.maximum.reduceat(high - low, starts)
    return 1.0 / float((best / sizes).max())


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
        return [dict(zip(names, row)) for row in t.rows()]

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
    xs = list(table.project(xi))
    x_counts = Counter(xs)
    xy_counts = Counter(zip(xs, table.project(yi)))
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


def parse_location_histories(text: str) -> tuple[LocationHistory, ...]:
    (histories,) = _HISTORIES(_load_json(text, "location histories"), "histories file")
    return tuple(
        LocationHistory(user, tuple((t, frozenset(cells)) for t, cells in entries))
        for user, entries in histories
    )


@domains(n=interval(2, None), l=interval(0, None),
         alpha=interval(0, None), mode=enum_range("aggregate", "statistics"),
         log_base=interval(1, None, lo_open=True))
def haplotype_safety(
    n: int,
    l: int,
    alpha: float = 0.0,
    mode: str = "aggregate",
    log_base: float = 2.0,
) -> bool:
    """Whether genomic study results can be published safely.

    Compares the variation count l against a threshold on the participant
    count n: 2(n-1)/log(n+1) for aggregate data, with the denominator
    shifted by (alpha - 1) for test statistics. The inequality is strict;
    the log base defaults to 2.
    """
    denom = math.log(n + 1, log_base)
    if mode == "statistics":
        denom += alpha - 1.0
    if denom <= 0:
        raise ParamError("non-positive threshold denominator")
    return 2.0 * (n - 1) / denom > l


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
    if len(original_assign) != len(protected_assign):
        raise ShapeError("assignments must cover the same items")
    if not original_assign:
        raise ShapeError("assignments must be non-empty")
    counts = Counter(zip(map(str, original_assign), map(str, protected_assign)))
    o_ids, p_ids = dict.fromkeys(o for o, _ in counts), dict.fromkeys(p for _, p in counts)
    weights = [[counts[o, p] for p in p_ids] for o in o_ids]
    if len(o_ids) > len(p_ids):
        weights = [list(column) for column in zip(*weights)]
    return _max_assignment(weights) / len(original_assign)


def _max_assignment(weights: list[list[int]]) -> int:
    """Largest total weight of a matching that covers every row; needs rows <= columns.

    Kuhn's Hungarian method in its shortest-augmenting-path form (Jonker and
    Volgenant): each row joins the matching along a shortest path over the
    reduced costs u[i] + v[j] - weights[i][j] >= 0, found by Dijkstra's method,
    and the duals u, v then move so that the matched costs stay 0.
    O(rows² · columns) steps, all on Python ints, so the total is exact.
    """
    n_cols = len(weights[0])
    u, v = [max(row) for row in weights], [0] * n_cols
    row_of, col_of = [None] * n_cols, [None] * len(weights)
    for start in range(len(weights)):
        shortest, path = [math.inf] * n_cols, [None] * n_cols
        unreached, reached = list(range(n_cols)), []
        i, dist = start, 0
        while True:
            row, base = weights[i], dist + u[i]
            for j in unreached:
                reduced = base + v[j] - row[j]
                if reduced < shortest[j]:
                    shortest[j], path[j] = reduced, i
            dist = min(map(shortest.__getitem__, unreached))
            tied = [j for j in unreached if shortest[j] == dist]
            # of the nearest columns take an unmatched one if any: it ends the search
            j = next((j for j in tied if row_of[j] is None), tied[0])
            unreached.remove(j)
            reached.append(j)
            if row_of[j] is None:
                break
            i = row_of[j]
        u[start] -= dist
        for j in reached:
            v[j] += dist - shortest[j]
            if row_of[j] is not None:
                u[row_of[j]] -= dist - shortest[j]
        j = reached[-1]
        while j is not None:  # flip the matching along the path back to row `start`
            i = path[j]
            row_of[j], col_of[i], j = i, j, col_of[i]
    return sum(row[j] for row, j in zip(weights, col_of))


def r_squared_transitions(protected: Sequence[float]) -> float:
    """Variance in a transition series explained by a straight-line fit.

    Ordinary least squares against the time index; 1 means the protected
    series is perfectly linear (fully predictable).
    """
    if len(protected) < 3:
        raise ParamError("need at least three points")
    if min(protected) == max(protected):
        raise DegenerateError("constant series; fit is degenerate")
    dt = _deviations(range(len(protected)), 0)
    dy = _deviations(protected, _exponent(protected))  # R² does not change with scale
    slope = math.fsum(map(mul, dt, dy)) / math.fsum(map(mul, dt, dt))
    fitted = list(map(mul, dt, repeat(slope)))  # the fit less the mean
    residuals = list(map(sub, dy, fitted))
    ss_e, ss_r = math.fsum(map(mul, residuals, residuals)), math.fsum(map(mul, fitted, fitted))
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
    if min(x) == max(x):
        raise DegenerateError("original series has zero variance")
    e = _exponent([*x, *y])  # one scale for both, so that x - y keeps its meaning
    dx, dy = _deviations(x, e), _deviations(y, e)
    gaps = list(map(sub, dx, dy))
    # Then by x's largest deviation, so that its squares do not underflow at y's
    # scale; a power of two, so where nothing underflows the ratio is unchanged.
    s = _exponent(dx)
    dx = list(map(math.ldexp, dx, repeat(-s)))
    vx = math.fsum(map(mul, dx, dx))
    if vx == 0 and not any(gaps):  # x varies below the smallest float at the scale of a constant y
        return 1.0  # var(x - y) = var(x)
    try:
        gaps = list(map(math.ldexp, gaps, repeat(-s)))
        ratio = math.fsum(map(mul, gaps, gaps)) / vx
    except (OverflowError, ZeroDivisionError):
        ratio = math.inf
    if math.isinf(ratio):  # Python float division overflows to inf without raising
        raise OverflowError("gap variance / original variance exceeds the largest float")
    return ratio
