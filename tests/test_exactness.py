"""Exactness oracles for the scans that run over whole tables and mechanisms.

Each reference below is the plain scalar loop the library once ran: one
Python step per row, cell or output. The library now hands that work to
builtins (``map``, ``min``/``max``, ``math.fsum``, a sliding window), and
every result must equal the loop's with ``==``, not merely approximately.

The information sums (entropy, conditional entropy, mutual information,
divergence, cross-entropy) are exactly rounded, so listing the outcomes in
another order must not change a bit, and the textbook identities hold with
``==``.
"""

import math
import random
import sys
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from privmetrics import adversary, indist, infogain, tabular, uncertainty
from privmetrics.core import (
    Column,
    DataTable,
    DiscreteDistribution,
    FiniteMechanism,
    JointDistribution,
    equivalence_classes,
)

# ---------------------------------------------------------------------------
# Reference loops


def ref_classes(table):
    qi = table.quasi_identifier_columns()
    groups = {}
    for i, row in enumerate(table.rows()):
        groups.setdefault(tuple(row[j] for j in qi), []).append(i)
    return [(key, frozenset(idx)) for key, idx in groups.items()]


def ref_class_values(table, idx, col):
    return [table.rows()[i][col] for i in sorted(idx)]


def ref_log_ratio(va, vb):
    """log(va / vb), or log va - log vb when the quotient is not a normal float."""
    q = va / vb
    if sys.float_info.min <= q < math.inf:
        return math.log(q)
    return math.log(va) - math.log(vb)


def ref_dp_epsilon(m, nr):
    eps = 0.0
    for a, b in nr.ordered_pairs():
        pa = m.row_for(a)
        pb = m.row_for(b)
        for va, vb in zip(pa, pb):
            if va == 0 and vb == 0:
                continue
            if va == 0 or vb == 0:
                return {"eps_eff": math.inf}
            eps = max(eps, abs(ref_log_ratio(va, vb)))
    return {"eps_eff": eps}


def ref_geo_indistinguishability(g):
    eps = 0.0
    rows = g.mechanism.matrix
    for i in range(len(g.locations)):
        for j in range(i + 1, len(g.locations)):
            _, xa, ya = g.locations[i]
            _, xb, yb = g.locations[j]
            d = math.hypot(xa - xb, ya - yb)
            for va, vb in zip(rows[i], rows[j]):
                if va == 0 and vb == 0:
                    continue
                if va == 0 or vb == 0:
                    return {"eps_eff": math.inf}
                ratio = abs(ref_log_ratio(va, vb))
                if ratio == 0:
                    continue
                if d == 0:
                    return {"eps_eff": math.inf}
                eps = max(eps, ratio / d)
    return {"eps_eff": eps}


def ref_adp_delta(m, nr, eps):
    try:
        scale = math.exp(eps)
    except OverflowError:
        scale = math.inf
    delta = 0.0
    for a, b in nr.ordered_pairs():
        pa = m.row_for(a)
        pb = m.row_for(b)
        if scale == math.inf:  # in the limit, only the outputs that b never gives count
            excess = math.fsum(va if vb == 0 else 0.0 for va, vb in zip(pa, pb))
        else:
            excess = math.fsum(max(0.0, va - scale * vb) for va, vb in zip(pa, pb))
        delta = max(delta, excess)
    return delta


def ref_em_anonymity(table, epsilon):
    col = table.sensitive_column()
    worst = 0.0
    for _, idx in ref_classes(table):
        values = ref_class_values(table, idx, col)
        for x in values:
            frac = sum(1 for s in values if abs(s - x) <= epsilon) / len(values)
            worst = max(worst, frac)
    return 1.0 / worst


def ref_l_entropy(table):
    col = table.sensitive_column()
    worst = math.inf
    for _, idx in ref_classes(table):
        counts = sorted(Counter(ref_class_values(table, idx, col)).values(), reverse=True)
        total = sum(counts)
        h = -math.fsum((n / total) * math.log2(n / total) for n in counts if n > 0)
        worst = min(worst, 2.0**h)
    return worst


def ref_t_closeness_categorical(table):
    col = table.sensitive_column()
    all_values = table.column_values(col)
    domain = sorted(set(map(str, all_values)))

    def dist(values):
        counts = Counter(map(str, values))
        return [counts.get(v, 0) / len(values) for v in domain]

    table_dist = dist(all_values)
    return max(
        0.5 * math.fsum(abs(a - b) for a, b in zip(dist(ref_class_values(table, idx, col)), table_dist))
        for _, idx in ref_classes(table)
    )


def ref_t_closeness_numeric(table):
    col = table.sensitive_column()
    all_values = table.column_values(col)
    domain = sorted(set(all_values))

    def dist(values):
        return [sum(1 for x in values if x == v) / len(values) for v in domain]

    table_dist = dist(all_values)
    worst = 0.0
    for _, idx in ref_classes(table):
        cum = total = 0.0
        for a, b in zip(dist(ref_class_values(table, idx, col)), table_dist):
            cum += a - b
            total += abs(cum)
        worst = max(worst, total / (len(domain) - 1) if len(domain) > 1 else 0.0)
    return worst


def ref_l_recursive(table, c):
    col = table.sensitive_column()
    per_class = [
        sorted(Counter(ref_class_values(table, idx, col)).values(), reverse=True)
        for _, idx in ref_classes(table)
    ]
    best = 1
    for ell in range(2, max(len(counts) for counts in per_class) + 1):
        holds = True
        for counts in per_class:
            tail = 0
            for n in counts[ell - 1 :]:
                tail += n
            if not counts[0] < c * tail:
                holds = False
        if holds:
            best = ell
    return float(best)


def ref_alpha_k(table, value):
    col = table.sensitive_column()
    k, alpha = math.inf, 0.0
    for _, idx in ref_classes(table):
        values = ref_class_values(table, idx, col)
        k = min(k, len(values))
        alpha = max(alpha, sum(1 for v in values if v == value) / len(values))
    return {"k": k, "alpha": alpha}


def ref_ke(table):
    col = table.sensitive_column()
    k, e = math.inf, math.inf
    for _, idx in ref_classes(table):
        values = ref_class_values(table, idx, col)
        k = min(k, len(values))
        e = min(e, max(values) - min(values))
    return {"k": k, "e": e}


def ref_delta_presence(external, published):
    """Two passes of covers() tests: one counts each group's matches, one takes the maxima."""
    ext_qi = external.quasi_identifier_columns()
    ext_names = [external.columns[i].name for i in ext_qi]
    pub_qi = [published.column_index(n) for n in ext_names]

    def covers(general, value):
        g = str(general)
        if g == str(value) or g == "*":
            return True
        if g.endswith("*") and str(value).startswith(g[:-1]):
            return True
        sep = g.find("-", 1)
        if sep != -1:
            try:
                return float(g[:sep]) <= float(value) <= float(g[sep + 1 :])
            except ValueError:
                return False
        return False

    groups = Counter(published.project(pub_qi))
    ext_rows = list(external.project(ext_qi))
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


# ---------------------------------------------------------------------------
# Mechanisms: rows with zeros, equal rows and subnormal entries

_WEIGHTS = st.one_of(
    st.sampled_from([0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 0.5, 1.0]),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def mechanisms(draw):
    n_in = draw(st.integers(2, 5))
    n_out = draw(st.integers(1, 6))
    rows = []
    for _ in range(n_in):
        if rows and draw(st.booleans()):
            rows.append(draw(st.sampled_from(rows)))  # an equal row
            continue
        weights = draw(st.lists(_WEIGHTS, min_size=n_out, max_size=n_out))
        total = math.fsum(weights)
        if total == 0:
            weights, total = [1.0] * n_out, float(n_out)
        rows.append(tuple(w / total for w in weights))
    outputs = tuple(f"o{j}" for j in range(n_out))
    inputs = tuple(f"i{k}" for k in range(n_in))
    m = FiniteMechanism(inputs, outputs, tuple(rows))
    pairs = draw(
        st.lists(st.tuples(st.sampled_from(inputs), st.sampled_from(inputs)), min_size=1, max_size=8)
    )
    return m, indist.NeighborRelation(tuple(pairs))


@settings(max_examples=300, deadline=None)
@given(mechanisms())
def test_dp_epsilon_equals_scalar_loop(case):
    m, nr = case
    assert indist.dp_epsilon(m, nr) == ref_dp_epsilon(m, nr)


# Past about 709.78, exp(eps) overflows and the scale is inf.
_ADP_EPS = st.one_of(st.sampled_from([0.0, 1e-300, 0.05, 1.0, 709.0, 709.78, 709.79, 800.0,
                                      1e308, math.inf]),
                    st.floats(min_value=0.0, max_value=709.0),
                    st.floats(min_value=0.0, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(mechanisms(), _ADP_EPS)
def test_adp_delta_equals_scalar_loop(case, eps):
    m, nr = case
    assert indist.adp_delta(m, nr, eps) == ref_adp_delta(m, nr, eps)


# The numpy scans of large mechanisms, forced onto small ones: blocks of one
# pair, of a few cells, and of the whole relation.
_ARRAYS = settings(max_examples=200, deadline=None,
                   suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.parametrize("block", [1, 7, 1 << 14])
@_ARRAYS
@given(mechanisms())
def test_dp_epsilon_array_scan_equals_scalar_loop(block, monkeypatch, case):
    monkeypatch.setattr(indist, "_ARRAY_CELLS", 0)
    monkeypatch.setattr(indist, "_BLOCK_CELLS", block)
    m, nr = case
    assert indist.dp_epsilon(m, nr) == ref_dp_epsilon(m, nr)


@pytest.mark.parametrize("block", [1, 7, 1 << 14])
@_ARRAYS
@given(mechanisms(), _ADP_EPS)
def test_adp_delta_array_scan_equals_scalar_loop(block, monkeypatch, case, eps):
    monkeypatch.setattr(indist, "_ARRAY_CELLS", 0)
    monkeypatch.setattr(indist, "_BLOCK_CELLS", block)
    m, nr = case
    assert indist.adp_delta(m, nr, eps) == ref_adp_delta(m, nr, eps)


# Coincident locations (d == 0), a subnormal distance whose quotient
# overflows, a distance that overflows to inf, and ordinary ones.
_COORDS = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, 5e-324, 1e-300, -1e308, 1e308]),
    st.floats(min_value=-1e6, max_value=1e6),
)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_geo_indistinguishability_equals_scalar_loop(data):
    m, _ = data.draw(mechanisms())
    locations = tuple((x, data.draw(_COORDS), data.draw(_COORDS)) for x in m.inputs)
    g = indist.GeoMechanism(locations, m)
    assert indist.geo_indistinguishability(g) == ref_geo_indistinguishability(g)


def _pair(pa, pb):
    outputs = tuple(f"o{j}" for j in range(len(pa)))
    return FiniteMechanism(("a", "b"), outputs, (pa, pb)), indist.NeighborRelation((("a", "b"),))


def test_dp_epsilon_rounding_of_reverse_ratio():
    # |log| of the smallest ratio one way is one ulp above that of the
    # largest ratio the other way, so both ends of every scan count.
    m, nr = _pair((0.4857430256993203, 0.5142569743006797), (0.35536226952193556, 0.6446377304780645))
    assert indist.dp_epsilon(m, nr) == ref_dp_epsilon(m, nr) == {"eps_eff": 0.3125419836870894}


def test_geo_overflowing_ratio_over_overflowing_distance():
    # 0.5 / 1e-323 overflows to inf although both rows give both outputs,
    # and the distance overflows too: the pair adds nothing, as in the loop.
    m, _ = _pair((0.5, 0.5), (1e-323, 1.0))
    g = indist.GeoMechanism((("a", 0.0, -1e308), ("b", 0.0, 1e308)), m)
    assert indist.geo_indistinguishability(g) == ref_geo_indistinguishability(g) == {"eps_eff": 0.0}


def test_adp_delta_sum_is_exactly_rounded():
    # A left-to-right sum of the larger excess is one ulp off.
    m, nr = _pair(
        (0.30931141830054243, 0.05661397331770833, 0.351533647012325, 0.2825409613694243),
        (0.2104215338004223, 0.013098977936202212, 0.68433121659701, 0.09214827166636545),
    )
    assert indist.adp_delta(m, nr, 0.05) == ref_adp_delta(m, nr, 0.05) == 0.3166128849679281


@pytest.mark.parametrize("cells", [1 << 14, 0])
def test_dp_epsilon_at_the_smallest_normal_ratio(monkeypatch, cells):
    # 3 * 2**-1024 / 0.75 is exactly 2**-1022, the smallest normal float, so
    # eps is ln 2**-1022 to the bit; log a - log b is one ulp above it
    monkeypatch.setattr(indist, "_ARRAY_CELLS", cells)
    m, nr = _pair((3 * 2.0**-1024, 1.0), (0.75, 0.25))
    assert indist.dp_epsilon(m, nr) == {"eps_eff": -math.log(2.0**-1022)} == {"eps_eff": 708.3964185322641}


def test_array_scans_keep_the_exact_cases(monkeypatch):
    monkeypatch.setattr(indist, "_ARRAY_CELLS", 0)
    test_dp_epsilon_rounding_of_reverse_ratio()
    test_adp_delta_sum_is_exactly_rounded()
    # 0.5 / 1e-323 overflows, so the log comes from log a - log b
    m, nr = _pair((0.5, 0.5), (1e-323, 1.0))
    assert indist.dp_epsilon(m, nr) == ref_dp_epsilon(m, nr)
    assert 743 < indist.dp_epsilon(m, nr)["eps_eff"] < 744


# ---------------------------------------------------------------------------
# Tables

_QI_CELLS = st.sampled_from(["a", "b", "c"])
_NUMERIC_QI = st.sampled_from([0.0, -0.0, 1.5, 2.0])
# A coarse grid so that many differences land exactly on epsilon, plus
# inexact decimals and magnitudes whose differences overflow to inf.
_SENSITIVE = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 0.1, 0.2, 0.3, 0.7, -1e308, 1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def tables(draw, n_qi, sensitive, kind):
    cells = st.tuples(*([_QI_CELLS, _NUMERIC_QI][: n_qi] + [sensitive]))
    rows = draw(st.lists(cells, min_size=1, max_size=40))
    qi = [Column("q", "categorical", "quasi-identifier"),
          Column("r", "numeric", "quasi-identifier")][:n_qi]
    return DataTable(tuple(qi) + (Column("s", kind, "sensitive"),), cells=tuple(zip(*rows)))


def _epsilons(table):
    values = table.column_values(table.sensitive_column())
    ties = [abs(a - b) for a in values[:6] for b in values[:6]]
    return st.one_of(
        st.sampled_from([0.0, math.inf, 0.1, 0.5, 1.0] + [t for t in ties if math.isfinite(t)]),
        st.floats(min_value=0.0, allow_nan=False),
    )


def both(metric, table, *args):
    """``metric``'s value on the scalar loops, checked equal, as its ``repr``
    (so -0.0 is not 0.0), to its value on the class arrays of large tables,
    forced onto this one."""
    scalar = metric(table, *args)
    saved, tabular._ARRAY_ROWS = tabular._ARRAY_ROWS, 0
    try:
        arrays = metric(table, *args)
    finally:
        tabular._ARRAY_ROWS = saved
    assert repr(arrays) == repr(scalar)
    return scalar


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 2))
def test_em_anonymity_equals_scalar_loop(data, n_qi):
    table = data.draw(tables(n_qi, _SENSITIVE, "numeric"))
    epsilon = data.draw(_epsilons(table))
    assert both(tabular.em_anonymity, table, epsilon) == ref_em_anonymity(table, epsilon)


def test_em_anonymity_ties_exactly_at_epsilon():
    values = (0.0, 0.1, 0.2, 0.30000000000000004, 1.0, 1.1)
    table = DataTable(
        (Column("q", "categorical", "quasi-identifier"), Column("s", "numeric", "sensitive")),
        cells=(("a",) * len(values), values),
    )
    for epsilon in (0.0, 0.1, 0.2, 0.1 + 0.2, 0.9, 1.0, 1.1, math.inf):
        assert both(tabular.em_anonymity, table, epsilon) == ref_em_anonymity(table, epsilon)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(1, 2))
def test_equivalence_classes_equal_scalar_loop(data, n_qi):
    table = data.draw(tables(n_qi, _QI_CELLS, "categorical"))
    classes = equivalence_classes(table)
    assert [(c.qi_key, frozenset(c.row_indices)) for c in classes] == ref_classes(table)
    for c in classes:
        assert isinstance(c.qi_key, tuple) and len(c.qi_key) == n_qi
        assert isinstance(c.row_indices, tuple)
        assert list(c.row_indices) == sorted(set(c.row_indices))  # strictly ascending
    # the class arrays number the same classes in the same order
    arrays = table._arrays
    assert arrays.class_of.tolist() == [
        next(n for n, (_, idx) in enumerate(ref_classes(table)) if i in idx) for i in range(len(table))
    ]
    assert arrays.sizes.tolist() == [len(c) for c in classes]
    assert arrays.starts.tolist() == [sum(map(len, classes[:n])) for n in range(len(classes))]


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 2), st.booleans())
def test_categorical_table_metrics_equal_scalar_loops(data, n_qi, mixed):
    # Mixed: cells that are equal but print apart (1 and 1.0), and that differ
    # but print alike (1.0 and "1.0"); l-diversity counts the cells, t-closeness
    # their strings.
    cells = st.sampled_from(["x", 1.0, "1.0", 1, "1"] if mixed else ["x", "y", "z", "w"])
    table = data.draw(tables(n_qi, cells, "categorical"))
    value = data.draw(st.sampled_from(["x", "1.0", 1.0, "nowhere"]))
    c = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]) | st.floats(0.01, 10.0))
    assert both(tabular.k_anonymity, table) == ref_alpha_k(table, value)["k"]
    assert both(tabular.l_diversity, table) == ref_l_entropy(table)
    assert tabular.l_diversity(table, "recursive", c) == ref_l_recursive(table, c)
    assert both(tabular.t_closeness, table) == ref_t_closeness_categorical(table)
    assert both(tabular.alpha_k_anonymity, table, value) == ref_alpha_k(table, value)


@pytest.mark.parametrize("block", [1, 7])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data(), st.integers(1, 2), st.booleans())
def test_t_closeness_in_blocks_of_classes(block, monkeypatch, data, n_qi, mixed):
    # the array path spreads a few classes at a time over the domain: one
    # class per block, and blocks of one or two classes
    monkeypatch.setattr(tabular, "_BLOCK_CELLS", block)
    cells = st.sampled_from(["x", 1.0, "1.0", 1, "1"] if mixed else ["x", "y", "z", "w"])
    table = data.draw(tables(n_qi, cells, "categorical"))
    assert both(tabular.t_closeness, table) == ref_t_closeness_categorical(table)


def test_t_closeness_keeps_apart_cells_without_strings_that_print_apart():
    # 1 and 1.0 are one Counter key, but "1" and "1.0" are two values
    table = DataTable((Column("q", "categorical", "quasi-identifier"),
                       Column("s", "categorical", "sensitive")),
                      cells=(("a", "a", "b", "b"), (1, 2, 1.0, 2)))
    assert both(tabular.t_closeness, table) == ref_t_closeness_categorical(table) == 0.25


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 2))
def test_numeric_table_metrics_equal_scalar_loops(data, n_qi):
    table = data.draw(tables(n_qi, _SENSITIVE, "numeric"))
    values = table.column_values(table.sensitive_column())
    value = data.draw(st.sampled_from(values) | _SENSITIVE)
    c = data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]) | st.floats(0.01, 10.0))
    assert tabular.t_closeness(table) == ref_t_closeness_numeric(table)
    assert repr(both(tabular.ke_anonymity, table)) == repr(ref_ke(table))  # tells -0.0 from 0.0
    assert both(tabular.alpha_k_anonymity, table, value) == ref_alpha_k(table, value)
    assert both(tabular.l_diversity, table) == ref_l_entropy(table)
    assert tabular.l_diversity(table, "recursive", c) == ref_l_recursive(table, c)


def test_ke_range_of_signed_zeros_is_positive_zero():
    # max - min of a class of zeros is 0.0 whatever their signs; sorted, -0.0
    # may come last, and -0.0 - 0.0 is -0.0
    for zeros in ((0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, -0.0, 0.0, -0.0)):
        table = DataTable((Column("q", "categorical", "quasi-identifier"),
                           Column("s", "numeric", "sensitive")),
                          cells=(("a",) * len(zeros), zeros))
        e = both(tabular.ke_anonymity, table)["e"]
        assert e == 0.0 and math.copysign(1.0, e) == 1.0


# ---------------------------------------------------------------------------
# delta-presence: generalized cells "*", "prefix*" and "lo-hi", a signed low
# end, and cells that cover nothing


@pytest.mark.parametrize("seed", range(100))
def test_delta_presence_equals_two_pass_loop(seed):
    rng = random.Random(seed)
    zips = ["13053", "13068", "13101", "14850", "1305"]
    n_ext, n_pub = rng.randint(1, 30), rng.randint(1, 30)
    ages = [rng.randint(15, 60) for _ in range(n_ext)]
    kind = rng.choice(["numeric", "categorical"])
    if kind == "numeric":
        ages = [float(a) for a in ages]
    else:
        ages = [rng.choice([str(a), f"{a}.0"]) for a in ages]
    external = DataTable(
        (Column("zip", "categorical", "quasi-identifier"),
         Column("age", kind, "quasi-identifier")),
        cells=([rng.choice(zips) for _ in range(n_ext)], ages),
    )
    zip_cells = zips + ["*", "130*", "13*", "148*", "2*"]
    age_cells = ["*", "2*", "25.0", "25", "-5-30", "x-y", "60-"] + [
        f"{lo}-{lo + 9}" for lo in range(10, 60, 10)
    ]
    published = DataTable(  # the columns in the other order, so that they are matched by name
        (Column("age", "categorical", "quasi-identifier"),
         Column("zip", "categorical", "quasi-identifier")),
        cells=([rng.choice(age_cells) for _ in range(n_pub)],
               [rng.choice(zip_cells) for _ in range(n_pub)]),
    )
    assert adversary.delta_presence(external, published) == ref_delta_presence(external, published)


# ---------------------------------------------------------------------------
# Information sums: independent of outcome order


def _masses(draw, n):
    weights = draw(st.lists(_WEIGHTS, min_size=n, max_size=n))
    total = math.fsum(weights)
    if total == 0:
        weights, total = [1.0] * n, float(n)
    return [w / total for w in weights]


def _permuted(draw, items):
    return [items[i] for i in draw(st.permutations(range(len(items))))]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_information_sums_do_not_depend_on_outcome_order(data):
    draw = data.draw
    n_x, n_y = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = _masses(draw, n_x * n_y)
    matrix = [cells[i * n_y : (i + 1) * n_y] for i in range(n_x)]
    xs, ys = [f"x{i}" for i in range(n_x)], [f"y{k}" for k in range(n_y)]
    j = JointDistribution(tuple(xs), tuple(ys), tuple(map(tuple, matrix)))
    rp, cp = draw(st.permutations(range(n_x))), draw(st.permutations(range(n_y)))
    jp = JointDistribution(
        tuple(xs[i] for i in rp),
        tuple(ys[k] for k in cp),
        tuple(tuple(matrix[i][k] for k in cp) for i in rp),
    )
    assert uncertainty.conditional_entropy(jp) == uncertainty.conditional_entropy(j)
    assert infogain.mutual_information(jp) == infogain.mutual_information(j)

    n = draw(st.integers(1, 6))
    labels = [f"o{i}" for i in range(n)]
    p, q = list(zip(labels, _masses(draw, n))), list(zip(labels, _masses(draw, n)))
    pp, qp = _permuted(draw, p), _permuted(draw, q)

    def dist(pairs):
        return DiscreteDistribution(tuple(o for o, _ in pairs), tuple(v for _, v in pairs))

    for f in (uncertainty.cross_entropy, infogain.kl_divergence):
        assert f(dist(pp), dist(qp)) == f(dist(p), dist(q))

    probs = [v for _, v in p if v > 0]
    snps = list(zip(probs, draw(st.lists(_WEIGHTS, min_size=len(probs), max_size=len(probs)))))
    snps_p = _permuted(draw, snps)
    assert uncertainty.genomic_privacy(*zip(*snps_p)) == uncertainty.genomic_privacy(*zip(*snps))


def test_mutual_information_of_a_subnormal_copied_value():
    # Y = X with P(X = a) = 1e-310: I(X;Y) = H(X), all of it from the one cell
    # whose quotient 1e-310 / 1e-310 / 1e-310 overflows, so its log2 comes
    # from log2 a - log2 b - log2 c
    v = 1e-310
    j = JointDistribution(("a", "b"), ("a", "b"), ((v, 0.0), (0.0, 1.0)))
    assert infogain.mutual_information(j) == uncertainty.shannon_entropy(j.marginal_x())
    assert infogain.mutual_information(j) == v * -math.log2(v)


def test_information_identities_hold_exactly():
    p = DiscreteDistribution(("a", "b", "c", "d"), (1 / 7, 1 / 7, 1 / 7, 4 / 7))
    assert uncertainty.cross_entropy(p, p) == uncertainty.shannon_entropy(p) == 1.6644977792004612
    assert infogain.kl_divergence(p, p) == 0.0
    # Y has one value, so it reveals nothing: H(X|Y) = H(X)
    j = JointDistribution(p.labels, ("y",), tuple((v,) for v in p.probs))
    assert uncertainty.conditional_entropy(j) == uncertainty.shannon_entropy(j.marginal_x())
    assert uncertainty.normalized_conditional_entropy(j) == 1.0
