"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Tolerances are pinned here and nowhere else.
"""

import itertools
import json
import math
import random

import jsonschema
import numpy as np
from click.testing import CliRunner

from privmetrics import indist as ind
from privmetrics import infogain as ig
from privmetrics import registry as reg
from privmetrics import tabular as tb
from privmetrics import uncertainty as u
from privmetrics.cli import main
from privmetrics.core import (
    DiscreteDistribution as D,
    JointDistribution as J,
    parse_mechanism,
    parse_table,
)

from conftest import (
    DATA,
    all_fixture_ids,
    load_fixture,
    materialize_fixture,
    values_close,
)


def report(number: int, description: str, ok: bool):
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number} failed: {description}"


def h_bits(ps):
    return -sum(p * math.log2(p) for p in ps if p > 0)


def test_criterion_1_entropy_equivalence():
    uniform = u.shannon_entropy(D(tuple(map(str, range(20))), (1 / 20,) * 20))
    lopsided = u.shannon_entropy(D(tuple(map(str, range(101))), (0.5,) + (0.005,) * 100))
    ok = (
        abs(uniform - lopsided) <= 1e-9
        and abs(uniform - 4.321928094887362) <= 1e-6
    )
    report(1, "uniform-20 and half-plus-100 score the same entropy (1e-9)", ok)


def test_criterion_2_renyi_ordering():
    rng = np.random.default_rng(42)
    alphas = (0.0, 0.5, 1.0, 2.0, math.inf)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(1, 33))
        w = rng.random(n) + 1e-9
        d = D(tuple(map(str, range(n))), tuple((w / w.sum()).tolist()))
        values = [u.renyi_entropy(d, a) for a in alphas]
        for lo, hi in zip(values, values[1:]):
            if lo < hi - 1e-12:  # slack absorbs float rounding only
                violations += 1
        h = u.shannon_entropy(d)
        if not (values[-1] <= h + 1e-12 and h <= values[0] + 1e-12):
            violations += 1
    report(2, "Renyi non-increasing in alpha over 1000 random distributions", violations == 0)


def test_criterion_3_channel_capacity_oracle():
    ok = True
    for q in (0.05, 0.11, 0.25, 0.5):
        matrix = [[1 - q, q], [q, 1 - q]]
        m = parse_mechanism(json.dumps({"inputs": [0, 1], "outputs": [0, 1], "matrix": matrix}))
        cap = ig.channel_capacity(m)
        closed_form = 1.0 - h_bits([q, 1 - q])
        ok &= abs(cap - closed_form) <= 1e-6
    for n in (2, 4, 8):
        labels = list(range(n))
        m = parse_mechanism(
            json.dumps({"inputs": labels, "outputs": labels, "matrix": np.eye(n).tolist()})
        )
        cap = ig.channel_capacity(m)
        ok &= abs(cap - math.log2(n)) <= 1e-9
    report(3, "Blahut-Arimoto matches 1-H_b(q) (1e-6) and log2 n (1e-9)", ok)


def test_criterion_4_permanent_oracle():
    rng = np.random.default_rng(4242)
    ok = True
    for _ in range(200):
        n = int(rng.integers(1, 7))
        bits = tuple(tuple(int(v) for v in rng.integers(0, 2, n)) for _ in range(n))
        ryser = ig.matrix_permanent(ig.AdjacencyMatrix(bits))
        brute = sum(
            math.prod(bits[i][p[i]] for i in range(n))
            for p in itertools.permutations(range(n))
        )
        ok &= ryser == brute
    report(4, "Ryser equals brute-force enumeration on 200 matrices (exact)", ok)


def test_criterion_5_dp_verifier():
    ok = True
    # randomized response closed form
    for p in (0.6, 0.75, 0.9):
        matrix = [[p, 1 - p], [1 - p, p]]
        m = parse_mechanism(
            json.dumps({"inputs": ["yes", "no"], "outputs": [0, 1], "matrix": matrix})
        )
        nr = ind.NeighborRelation((("yes", "no"),))
        eps = ind.dp_epsilon(m, nr)["eps_eff"]
        ok &= abs(eps - math.log(p / (1 - p))) <= 1e-9
        ok &= ind.adp_delta(m, nr, eps) <= 1e-12
        ok &= ind.adp_delta(m, nr, eps + 0.5) <= 1e-12

    # post-processing on 500 random mechanism/merge pairs
    rng = np.random.default_rng(5)
    for _ in range(500):
        n, k = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        mat = rng.random((n, k))
        mask = rng.random((n, k)) < 0.25
        mat[mask] = 0.0
        mat[mat.sum(axis=1) == 0, 0] = 1.0
        mat /= mat.sum(axis=1, keepdims=True)
        labels = {"inputs": list(range(n)), "outputs": list(range(k))}
        m = parse_mechanism(json.dumps({**labels, "matrix": mat.tolist()}))
        nr = ind.NeighborRelation(
            tuple((a, b) for i, a in enumerate(m.inputs) for b in m.inputs[i + 1 :])
        )
        before = ind.dp_epsilon(m, nr)["eps_eff"]
        k2 = int(rng.integers(1, k + 1))
        assign = rng.integers(0, k2, k)
        merged_rows = []
        for row in mat:
            new = [0.0] * k2
            for y, v in enumerate(row):
                new[assign[y]] += v
            merged_rows.append(new)
        merged = {"inputs": m.inputs, "outputs": list(range(k2)), "matrix": merged_rows}
        after = ind.dp_epsilon(parse_mechanism(json.dumps(merged)), nr)["eps_eff"]
        ok &= math.isinf(before) or after <= before + 1e-9
    report(5, "randomized-response epsilon, post-processing, and delta-at-eps checks", ok)


def test_criterion_6_k_anonymity_family():
    fx = json.loads((DATA / "family12.json").read_text())
    table = parse_table(fx["csv"], fx["schema"])
    exp = fx["expected"]
    tol = 1e-9
    ok = tb.k_anonymity(table) == exp["k_anonymity"]
    r = tb.alpha_k_anonymity(table, exp["alpha_k"]["value"])
    ok &= r["k"] == exp["alpha_k"]["k"] and abs(r["alpha"] - exp["alpha_k"]["alpha"]) <= tol
    ok &= abs(tb.l_diversity(table, "entropy") - exp["l_diversity_entropy"]) <= tol
    ok &= (
        abs(
            tb.l_diversity(table, "recursive", exp["l_diversity_recursive"]["c"])
            - exp["l_diversity_recursive"]["l"]
        )
        <= tol
    )
    ok &= abs(tb.t_closeness(table) - exp["t_closeness"]) <= tol
    ke = tb.ke_anonymity(table)
    ok &= ke["k"] == exp["ke"]["k"] and abs(ke["e"] - exp["ke"]["e"]) <= tol
    ok &= abs(tb.em_anonymity(table, exp["em"]["epsilon"]) - exp["em"]["m"]) <= tol
    report(6, "12-row table: k, (alpha,k), l-diversity, t-closeness (=0.5), (k,e), (eps,m)", ok)


def test_criterion_7_registry_fidelity():
    golden = json.loads((DATA / "catalog_reference.json").read_text())
    implemented = [d.id for d in reg.DESCRIPTORS if d.implemented]
    ok = True
    for mid, row in golden.items():
        d = reg.lookup(mid)
        ok &= {
            "range": d.value_range,
            "direction": d.direction,
            "sources": sorted(d.data_sources),
            "inputs": sorted(d.inputs),
            "optional_inputs": sorted(d.optional_inputs),
        } == row
    ok &= {d.id for d in reg.DESCRIPTORS} - set(golden) == {"health_privacy"}
    ok &= len(implemented) >= 60
    ok &= {d.id for d in reg.DESCRIPTORS if not d.implemented} == {
        "observational_equivalence",
        "computational_differential_privacy",
        "distributed_differential_privacy",
    }
    report(7, "catalog matches the frozen reference card; >=60 implemented, 3 descriptor-only", ok)


def test_criterion_8_advisor():
    guarantee = reg.filter_metrics(reg.AdvisorAnswers(q1_guarantee=True)).metrics
    expected = tuple(
        sorted(d.id for d in reg.DESCRIPTORS if d.category == "indistinguishability")
    )
    ok = guarantee == expected

    rng = random.Random(8)
    for _ in range(1000):
        answers = reg.AdvisorAnswers(
            q1_categories=frozenset(
                rng.sample(reg.CATEGORIES, rng.randint(1, len(reg.CATEGORIES)))
            ),
            q1_guarantee=rng.random() < 0.25,
            q3_sources=frozenset(
                rng.sample(reg.DATA_SOURCES, rng.randint(0, len(reg.DATA_SOURCES)))
            ),
            q4_inputs_available=frozenset(
                rng.sample(reg.INPUT_KINDS, rng.randint(0, len(reg.INPUT_KINDS)))
            ),
        )
        got = set(reg.filter_metrics(answers).metrics)
        cats = (
            {"indistinguishability"} if answers.q1_guarantee else answers.q1_categories
        )
        brute = {
            d.id
            for d in reg.DESCRIPTORS
            if d.category in cats
            and d.data_sources & answers.q3_sources
            and d.inputs <= answers.q4_inputs_available
        }
        ok &= got == brute  # sound and complete
    report(8, "guarantee mode exact; filtering sound+complete on 1000 random answers", ok)


def test_criterion_9_cross_module_identities():
    rng = np.random.default_rng(9)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        w = rng.random((n, n)) + 1e-6
        w /= w.sum()
        labels = tuple(f"v{i}" for i in range(n))
        j = J(labels, labels, tuple(tuple(r) for r in w))
        # mi = H(X) - H(X|Y)
        mi = ig.mutual_information(j)
        identity = u.shannon_entropy(j.marginal_x()) - u.conditional_entropy(j)
        ok &= abs(mi - identity) <= 1e-9
        # cross_entropy - entropy = KL on the two (shared-label) marginals
        p, q = j.marginal_x(), j.marginal_y()
        gap = u.cross_entropy(p, q) - u.shannon_entropy(p)
        ok &= abs(gap - ig.kl_divergence(p, q)) <= 1e-9
    report(9, "mi = H(X)-H(X|Y) and cross-entropy - H = KL on 1000 random joints (1e-9)", ok)


def test_criterion_10_cli_smoke(tmp_path, metric_value_schema):
    runner = CliRunner()
    implemented = [d.id for d in reg.DESCRIPTORS if d.implemented]
    ok = set(all_fixture_ids()) == set(implemented)
    for metric_id in all_fixture_ids():
        fixture = load_fixture(metric_id)
        workdir = tmp_path / metric_id
        workdir.mkdir()
        args = materialize_fixture(fixture, workdir)
        result = runner.invoke(main, args)
        if result.exit_code != 0:
            ok = False
            continue
        out = json.loads(result.output)
        try:
            jsonschema.validate(out, metric_value_schema)
        except jsonschema.ValidationError:
            ok = False
        ok &= values_close(
            out["value"], fixture["expected"]["value"], fixture.get("tolerance", 1e-9)
        )
        ok &= out["out_of_range"] == fixture["expected"]["out_of_range"]

    # exit-code contract on three injected error classes
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    ok &= runner.invoke(main, ["compute", "entropy", "--in", str(bad)]).exit_code == 2
    ok &= (
        runner.invoke(main, ["compute", "information_surprisal", "--param", "p=0"]).exit_code
        == 3
    )
    ok &= runner.invoke(main, ["compute", "nosuch"]).exit_code == 2
    report(10, "every implemented metric computes on its fixture; schema + exit codes hold", ok)
