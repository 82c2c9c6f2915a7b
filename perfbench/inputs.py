"""Seeded inputs for the three workloads, and the references they are checked against.

A *job* is one metric computation a user could ask for: a metric id, input
files, an optional schema sidecar and ``key=value`` parameters, the same
arguments ``privmetrics compute`` takes. Every job carries the reference its
output must match; for ``large_inputs`` the references are computed here with
numpy and ``Counter``, without calling privmetrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# large_inputs sizes
TABLE_ROWS = 100_000
ZIP_CODES = 100  # x AGE_BANDS = 5000 equivalence classes of ~20 rows
AGE_BANDS = 50
DISEASES = ("flu", "cold", "asthma", "ulcer", "gastritis", "bronchitis",
            "migraine", "angina", "anemia", "eczema", "otitis", "sinusitis")
EM_EPSILON = 5.0
ALPHA_VALUE = "flu"
MECHANISM_N = 500
ADP_EPS = 0.05
CHANNEL_N = 100
CHANNEL_BASE_SEED = 3  # see channel_matrix()
ADJACENCY_N = 9

# Metrics of the large_inputs workload; each is warmed up on its fixture.
LARGE_METRICS = (
    "loss_of_anonymity", "differential_privacy", "approximate_differential_privacy",
    "system_anonymity_level", "k_anonymity", "l_diversity", "t_closeness",
    "alpha_k_anonymity", "ke_anonymity", "em_anonymity",
)


def job(metric, paths, schema=None, params=None, expected=None, tolerance=1e-9):
    return {
        "metric": metric,
        "in": [str(p) for p in paths],
        "schema": str(schema) if schema else None,
        "params": dict(params or {}),
        "expected": expected,
        "tolerance": tolerance,
    }


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# Fixtures


def load_fixtures(root: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted((root / "fixtures").glob("*.json"))]


def materialize_fixtures(fixtures: list[dict], work: Path) -> list[dict]:
    """Write every fixture's inline files under ``work/<metric>/``; one job each."""
    jobs = []
    for fx in fixtures:
        d = work / fx["metric"]
        d.mkdir(parents=True)
        for name, content in fx["files"].items():
            text = content if isinstance(content, str) else json.dumps(content)
            (d / name).write_text(text)
        jobs.append(job(
            fx["metric"],
            [d / name for name in fx["in"]],
            d / fx["schema"] if fx["schema"] else None,
            fx["params"],
            fx["expected"],
            fx.get("tolerance", 1e-9),
        ))
    return jobs


# ---------------------------------------------------------------------------
# Output checking


def values_close(actual, expected, tol) -> bool:
    """Structural comparison with absolute tolerance on numbers."""
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and set(actual) == set(expected)
                and all(values_close(actual[k], expected[k], tol) for k in expected))
    if isinstance(expected, list):
        return (isinstance(actual, list) and len(actual) == len(expected)
                and all(values_close(a, e, tol) for a, e in zip(actual, expected)))
    if isinstance(expected, bool) or isinstance(actual, bool):
        return actual == expected
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        return abs(actual - expected) <= tol
    return actual == expected


def check_output(j: dict, text: str) -> str | None:
    """None when the JSON ``text`` printed for job ``j`` is right, else why not."""
    try:
        out = json.loads(text)
    except json.JSONDecodeError:
        return f"{j['metric']}: output is not JSON: {text[:200]!r}"
    if not isinstance(out, dict) or out.get("metric") != j["metric"]:
        return f"{j['metric']}: output names the wrong metric: {text[:200]!r}"
    exp = j["expected"]
    if out.get("out_of_range") != exp["out_of_range"]:
        return f"{j['metric']}: out_of_range {out.get('out_of_range')!r}, expected {exp['out_of_range']!r}"
    if not values_close(out.get("value"), exp["value"], j["tolerance"]):
        return f"{j['metric']}: value {out.get('value')!r}, expected {exp['value']!r} (tol {j['tolerance']})"
    return None


# ---------------------------------------------------------------------------
# large_inputs: generation


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj))
    return path


def channel_matrix(rng: np.random.Generator) -> np.ndarray:
    """A dense CHANNEL_N x CHANNEL_N channel whose rows and columns the seed permutes.

    The base channel is drawn once from CHANNEL_BASE_SEED. An independently
    drawn dense channel would make the Blahut-Arimoto iteration count, and so
    the work per pass, vary about twofold from seed to seed, and some draws
    (base seed 2, for one) reach the iteration cap. Permuting one base keeps
    the capacity and the iteration count fixed while the input file differs
    per seed.
    """
    base = np.random.default_rng(CHANNEL_BASE_SEED).random((CHANNEL_N, CHANNEL_N))
    base /= base.sum(axis=1, keepdims=True)
    return base[rng.permutation(CHANNEL_N)][:, rng.permutation(CHANNEL_N)]


def _mechanism(path: Path, matrix: np.ndarray, in_labels, out_labels) -> Path:
    return _write_json(path, {"inputs": list(in_labels), "outputs": list(out_labels),
                              "matrix": matrix.tolist()})


def large_jobs(seed: int, work: Path) -> list[dict]:
    """Generate the large inputs under ``work`` and return their jobs with references."""
    rng = np.random.default_rng(seed)
    jobs = []

    # Channel capacity.
    ch = channel_matrix(rng)
    labels = [f"x{i}" for i in range(CHANNEL_N)]
    p = _mechanism(work / "channel.json", ch, labels, [f"y{i}" for i in range(CHANNEL_N)])
    jobs.append(job("loss_of_anonymity", [p], expected=_ok(ref_capacity(ch)), tolerance=1e-6))

    # DP checks on a mechanism with a chain neighbour relation over shuffled inputs.
    mech = rng.random((MECHANISM_N, MECHANISM_N)) + 0.05
    mech /= mech.sum(axis=1, keepdims=True)
    ins = [f"d{i}" for i in range(MECHANISM_N)]
    m_path = _mechanism(work / "mechanism.json", mech, ins, [f"o{i}" for i in range(MECHANISM_N)])
    order = rng.permutation(MECHANISM_N)
    pairs = [(int(a), int(b)) for a, b in zip(order[:-1], order[1:])]
    n_path = _write_json(work / "neighbors.json", {"pairs": [[ins[a], ins[b]] for a, b in pairs]})
    jobs.append(job("differential_privacy", [m_path, n_path],
                    expected=_ok({"eps_eff": ref_dp_epsilon(mech, pairs)})))
    jobs.append(job("approximate_differential_privacy", [m_path, n_path], params={"eps": repr(ADP_EPS)},
                    expected=_ok(ref_adp_delta(mech, pairs, ADP_EPS))))

    # System anonymity level on the all-ones adjacency: exactly 1.
    a_path = _write_json(work / "adjacency.json",
                         {"n": ADJACENCY_N, "bits": [[1] * ADJACENCY_N] * ADJACENCY_N})
    jobs.append(job("system_anonymity_level", [a_path], expected=_ok(1.0), tolerance=1e-12))

    # One 4-column table, read with a categorical and with a numeric sensitive column.
    zips = rng.integers(0, ZIP_CODES, TABLE_ROWS)
    ages = rng.integers(0, AGE_BANDS, TABLE_ROWS)
    disease = rng.integers(0, len(DISEASES), TABLE_ROWS)
    salary = rng.integers(20, 200, TABLE_ROWS)
    lines = ["zip,age,disease,salary"]
    lines += [f"z{z},a{a},{DISEASES[d]},{s}" for z, a, d, s in zip(zips, ages, disease, salary)]
    t_path = work / "table.csv"
    t_path.write_text("\n".join(lines) + "\n")
    qi = {"zip": "quasi-identifier", "age": "quasi-identifier"}
    cat_schema = _write_json(work / "table.categorical.json",
                             {"roles": {**qi, "disease": "sensitive"}, "kinds": {"salary": "numeric"}})
    num_schema = _write_json(work / "table.numeric.json",
                             {"roles": {**qi, "salary": "sensitive"}, "kinds": {"salary": "numeric"}})
    keys = list(zip(zips.tolist(), ages.tolist()))
    cat = [DISEASES[d] for d in disease]
    ref = ref_tabular(keys, cat, salary.astype(float).tolist())
    for metric, params, value in (
        ("k_anonymity", {}, ref["k"]),
        ("l_diversity", {"mode": "entropy"}, ref["l_entropy"]),
        ("t_closeness", {}, ref["t"]),
        ("alpha_k_anonymity", {"value": ALPHA_VALUE}, {"k": ref["k"], "alpha": ref["alpha"]}),
    ):
        jobs.append(job(metric, [t_path], cat_schema, params, _ok(value)))
    jobs.append(job("ke_anonymity", [t_path], num_schema, expected=_ok({"k": ref["k"], "e": ref["e"]})))
    jobs.append(job("em_anonymity", [t_path], num_schema, {"epsilon": repr(EM_EPSILON)}, _ok(ref["m"])))

    return jobs


def _ok(value) -> dict:
    """Every large input is chosen so its value lies in the catalog range."""
    return {"value": value, "out_of_range": False}


# ---------------------------------------------------------------------------
# large_inputs: independent references


def ref_capacity(ch: np.ndarray, tol: float = 1e-7, max_iter: int = 200_000) -> float:
    """Blahut-Arimoto in numpy: a lower bound on the capacity in bits, within ``tol``.

    Input weights that fall below 1e-200 are set to 0 (they would go on
    shrinking into subnormal floats, which slows every later step tenfold).
    """
    log_ch = np.where(ch > 0, np.log2(np.where(ch > 0, ch, 1.0)), 0.0)
    row_neg_entropy = (ch * log_ch).sum(axis=1)
    r = np.full(ch.shape[0], 1.0 / ch.shape[0])
    for _ in range(max_iter):
        q = r @ ch
        d = row_neg_entropy - ch @ np.log2(q)  # D(P(.|x) || q)
        upper, lower = d.max(), math.log2(float(r @ np.exp2(d)))
        if upper - lower < tol:
            return lower
        r = r * np.exp2(d - upper)
        r[r < 1e-200] = 0.0
        r /= r.sum()
    raise RuntimeError("reference Blahut-Arimoto did not converge")


def ref_dp_epsilon(m: np.ndarray, pairs) -> float:
    a, b = np.array(pairs).T
    return float(np.abs(np.log(m[a]) - np.log(m[b])).max())


def ref_adp_delta(m: np.ndarray, pairs, eps: float) -> float:
    a, b = np.array(pairs).T
    scale = math.exp(eps)
    one_way = np.maximum(0.0, m[a] - scale * m[b]).sum(axis=1)
    other_way = np.maximum(0.0, m[b] - scale * m[a]).sum(axis=1)
    return float(max(one_way.max(), other_way.max()))


def ref_tabular(keys, categorical, numeric) -> dict:
    """k, entropy l, categorical t, alpha, e and m by a plain group-by."""
    groups = defaultdict(list)
    for i, key in enumerate(keys):
        groups[key].append(i)
    total = Counter(categorical)
    domain = sorted(total)
    n = len(categorical)
    k = min(len(rows) for rows in groups.values())
    l_entropy, t, alpha, e, worst_em = math.inf, 0.0, 0.0, math.inf, 0.0
    for rows in groups.values():
        counts = Counter(categorical[i] for i in rows)
        size = len(rows)
        h = -sum((c / size) * math.log2(c / size) for c in counts.values())
        l_entropy = min(l_entropy, 2.0 ** h)
        t = max(t, 0.5 * sum(abs(counts[v] / size - total[v] / n) for v in domain))
        alpha = max(alpha, counts[ALPHA_VALUE] / size)
        vals = np.sort(np.array([numeric[i] for i in rows]))
        e = min(e, float(vals[-1] - vals[0]))
        within = (np.searchsorted(vals, vals + EM_EPSILON, side="right")
                  - np.searchsorted(vals, vals - EM_EPSILON, side="left"))
        worst_em = max(worst_em, within.max() / size)
    return {"k": k, "l_entropy": l_entropy, "t": t, "alpha": alpha, "e": e, "m": 1.0 / worst_em}


def input_sizes(jobs: list[dict]) -> dict:
    """Largest table, DP mechanism, channel and adjacency one pass reads, and its bytes."""
    sizes = {"input.table_rows": 0, "input.mechanism_n": 0, "input.channel_n": 0,
             "input.adjacency_n": 0}
    files = set()
    for j in jobs:
        files.update(j["in"])
        if j["schema"]:
            files.add(j["schema"])
        first = Path(j["in"][0]) if j["in"] else None
        if first is not None and first.suffix == ".csv" and j["schema"]:
            rows = sum(1 for line in first.read_text().splitlines() if line) - 1
            sizes["input.table_rows"] = max(sizes["input.table_rows"], rows)
        elif j["metric"] in ("differential_privacy", "approximate_differential_privacy"):
            n = len(json.loads(first.read_text())["inputs"])
            sizes["input.mechanism_n"] = max(sizes["input.mechanism_n"], n)
        elif j["metric"] == "loss_of_anonymity":
            n = max(len(json.loads(Path(p).read_text())["inputs"]) for p in j["in"])
            sizes["input.channel_n"] = max(sizes["input.channel_n"], n)
        elif j["metric"] == "system_anonymity_level":
            n = json.loads(first.read_text())["n"]
            sizes["input.adjacency_n"] = max(sizes["input.adjacency_n"], n)
    sizes["input.bytes_read"] = sum(Path(f).stat().st_size for f in files)
    return sizes


def shuffled(items: list, seed: int) -> list:
    out = list(items)
    random.Random(seed).shuffle(out)
    return out
