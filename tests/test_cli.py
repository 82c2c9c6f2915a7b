import ast
import csv
import json
import math
import os
import subprocess
import sys

import jsonschema
import pytest
from click.testing import CliRunner

from privmetrics import compute, core, registry as reg
from privmetrics.cli import main

from conftest import REPO, all_fixture_ids, large_rows, load_fixture, materialize_fixture, values_close


@pytest.fixture()
def runner():
    return CliRunner()


DIST = '{"labels":["a","b","c","d"],"probs":[0.25,0.25,0.25,0.25]}'


class TestComputeCommand:
    def test_json_output(self, runner, tmp_path):
        (tmp_path / "d.json").write_text(DIST)
        r = runner.invoke(
            main, ["compute", "entropy", "--in", str(tmp_path / "d.json"), "--format", "json"]
        )
        assert r.exit_code == 0
        assert json.loads(r.output) == {
            "metric": "entropy",
            "value": 2.0,
            "unit": "bits",
            "out_of_range": False,
        }

    def test_text_output(self, runner, tmp_path):
        (tmp_path / "d.json").write_text(DIST)
        r = runner.invoke(main, ["compute", "entropy", "--in", str(tmp_path / "d.json")])
        assert r.exit_code == 0
        assert "entropy = 2.0 [bits]" in r.output

    def test_csv_output(self, runner, tmp_path):
        (tmp_path / "d.json").write_text(DIST)
        r = runner.invoke(
            main, ["compute", "entropy", "--in", str(tmp_path / "d.json"), "--format", "csv"]
        )
        assert r.exit_code == 0
        assert "value,2.0" in r.output

    def test_table_compute(self, runner, tmp_path):
        (tmp_path / "t.csv").write_text("zip,disease\n1,flu\n1,cold\n2,flu\n2,flu\n")
        (tmp_path / "t.roles.json").write_text(
            '{"roles":{"zip":"quasi-identifier","disease":"sensitive"}}'
        )
        r = runner.invoke(
            main,
            [
                "compute", "k_anonymity",
                "--in", str(tmp_path / "t.csv"),
                "--schema", str(tmp_path / "t.roles.json"),
                "--format", "json",
            ],
        )
        assert r.exit_code == 0
        assert json.loads(r.output)["value"] == 2

    def test_infinity_encoded_as_string(self, runner, tmp_path):
        (tmp_path / "m.json").write_text(
            '{"inputs":["a","b"],"outputs":["x","y"],"matrix":[[1,0],[0,1]]}'
        )
        (tmp_path / "n.json").write_text('{"pairs":[["a","b"]]}')
        r = runner.invoke(
            main,
            [
                "compute", "differential_privacy",
                "--in", str(tmp_path / "m.json"),
                "--in", str(tmp_path / "n.json"),
                "--format", "json",
            ],
        )
        assert r.exit_code == 0
        assert json.loads(r.output)["value"] == {"eps_eff": "inf"}

    def test_out_of_range_flagged(self, runner, tmp_path):
        (tmp_path / "xy.json").write_text('{"x":[1,2,3],"y":[-1,-2,-3]}')
        r = runner.invoke(
            main,
            ["compute", "normalized_variance", "--in", str(tmp_path / "xy.json"),
             "--format", "json"],
        )
        assert r.exit_code == 0
        out = json.loads(r.output)
        assert out["value"] == pytest.approx(4.0)
        assert out["out_of_range"] is True


class TestExitCodes:
    def test_schema_error_is_2(self, runner, tmp_path):
        (tmp_path / "bad.json").write_text("{broken")
        r = runner.invoke(main, ["compute", "entropy", "--in", str(tmp_path / "bad.json")])
        assert r.exit_code == 2
        assert json.loads(r.output.splitlines()[0])["error"] == "E_SCHEMA"

    def test_unknown_metric_is_2(self, runner):
        r = runner.invoke(main, ["compute", "nosuch"])
        assert r.exit_code == 2
        assert json.loads(r.output.splitlines()[0])["error"] == "E_UNKNOWN"

    @pytest.mark.parametrize("args, detail", [
        (["compute"], "Missing argument 'METRIC_ID'."),
        (["compute", "entropy", "--format", "xml"],
         "Invalid value for '--format': 'xml' is not one of 'json', 'csv', 'text'."),
        (["compute", "entropy", "--bogus"], "No such option '--bogus'."),
        (["compute", "entropy", "--in"], "Option '--in' requires an argument."),
        (["frobnicate"], "No such command 'frobnicate'."),
        ([], "Missing command."),
    ], ids=["no-metric-id", "format-xml", "unknown-option", "in-without-value",
            "unknown-command", "no-command"])
    def test_usage_fault_prints_error_object(self, runner, args, detail):
        r = runner.invoke(main, args)
        assert r.exit_code == 2, r.output
        assert json.loads(r.stdout) == {"error": "E_USAGE", "detail": detail}
        assert r.stderr.endswith(f"E_USAGE: {detail}\n")
        assert r.stderr.startswith(("Usage:", "Error:"))  # click's own text comes first

    @pytest.mark.parametrize("args", [["--help"], ["compute", "--help"]])
    def test_help_is_unchanged(self, runner, args):
        r = runner.invoke(main, args)
        assert r.exit_code == 0
        assert r.stdout.startswith("Usage: ") and "--help" in r.stdout
        assert r.stderr == ""

    def test_prompt_at_end_of_input_aborts_as_before(self, runner):
        r = runner.invoke(main, ["advise"], input="")
        assert r.exit_code == 1
        assert r.stdout == "" and r.stderr.endswith("Aborted!\n")

    def test_domain_error_is_3(self, runner):
        r = runner.invoke(main, ["compute", "information_surprisal", "--param", "p=0"])
        assert r.exit_code == 3
        assert json.loads(r.output.splitlines()[0])["error"] == "E_DOMAIN"

    @pytest.mark.parametrize("metric_id, params, detail", [
        ("distributional_privacy", "l1=-1 l2=1 prior_ratio=1 eps=1", "l1 must lie in [0, inf], got -1.0"),
        ("haplotype_snp_test", "n=1 l=0", "n must lie in [2, inf], got 1"),
        ("path_compromise", "compromised=0 total=0 path_length=1", "total must lie in [1, inf], got 0"),
        ("time_until_success", "m=1 l=1 n=0 b=1", "n must lie in [1, inf], got 0"),
        ("tp_privacy_violation", "rho_base=2 rho_with=0 p=0", "rho_base must lie in [0, 1], got 2.0"),
    ], ids=["l1", "n-haplotype", "total", "n-batch-mix", "rho_base"])
    def test_domain_fault_names_the_param_typed(self, runner, metric_id, params, detail):
        args = ["compute", metric_id]
        for param in params.split():
            args += ["--param", param]
        r = runner.invoke(main, args)
        assert r.exit_code == 2, r.output
        assert json.loads(r.stdout.splitlines()[0]) == {"error": "E_PARAM", "detail": detail}

    def test_unimplemented_metric_is_2(self, runner):
        r = runner.invoke(main, ["compute", "observational_equivalence"])
        assert r.exit_code == 2

    def test_dist_error_is_2(self, runner, tmp_path):
        (tmp_path / "d.json").write_text('{"labels":["a","b"],"probs":[0.7,0.4]}')
        r = runner.invoke(main, ["compute", "entropy", "--in", str(tmp_path / "d.json")])
        assert r.exit_code == 2
        assert json.loads(r.output.splitlines()[0])["error"] == "E_DIST"

    @pytest.mark.parametrize(
        "metric_id, files",
        [
            ("entropy", ['{"labels":["a","b"],"probs":[1e308,1e308]}']),
            (
                "differential_privacy",
                ['{"inputs":["a","b"],"outputs":["x","y"],"matrix":[[0.5,0.5],[1e308,1e308]]}',
                 '{"pairs":[["a","b"]]}'],
            ),
            ("mutual_information", ['{"x_labels":["a","b"],"y_labels":["x"],"matrix":[[1e308],[1e308]]}']),
        ],
    )
    def test_mass_summing_past_the_largest_float_is_2(self, runner, tmp_path, metric_id, files):
        args = ["compute", metric_id]
        for i, text in enumerate(files):
            (tmp_path / f"{i}.json").write_text(text)
            args += ["--in", str(tmp_path / f"{i}.json")]
        r = runner.invoke(main, args)
        assert r.exit_code == 2, r.output
        assert _error_code(r) == "E_DIST"

    @pytest.mark.parametrize(
        "r_opt, r_min", [("1", "1e-308"), ("1", "5e-324"), ("inf", "inf")], ids=["1e-308", "5e-324", "inf-inf"]
    )
    def test_obfuscation_ratio_past_the_largest_float_is_3(self, runner, r_opt, r_min):
        r = runner.invoke(main, [
            "compute", "accuracy_of_obfuscated_region", "--param", f"r_opt={r_opt}", "--param", f"r_min={r_min}",
        ])
        assert r.exit_code == 3, r.output
        assert _error_code(r) == "E_DOMAIN"

    def test_variance_ratio_past_the_largest_float_is_3(self, runner, tmp_path):
        """x varies, but only below the smallest float at y's scale: the ratio is about 1e620."""
        for x, code, exit_code in (([0.0, 1e-300], "E_DOMAIN", 3), ([1e-300, 1e-300], "E_DEGENERATE", 2)):
            (tmp_path / "xy.json").write_text(json.dumps({"x": x, "y": [0.0, 1e10]}))
            r = runner.invoke(main, ["compute", "normalized_variance", "--in", str(tmp_path / "xy.json")])
            assert r.exit_code == exit_code, r.output
            assert _error_code(r) == code

    @pytest.mark.parametrize("metric_id, files, schema, detail", [
        ("k_anonymity", {"t.csv": "zip,disease\n1,flu\n"}, {"roles": {"zip": 5}},
         "roles['zip']: expected a string, got 5"),
        ("k_anonymity", {"t.csv": "zip,disease\n1,flu\n"}, {"kinds": {"zip": "numeric", "disease": []}},
         "kinds['disease']: expected a string, got []"),
        ("expected_estimation_error",
         {"e.json": {"posterior": {"labels": ["a", "b"], "probs": [0.5, 0.5]}, "truth": "a",
                     "metric": "euclidean", "coords": {"a": [0], "b": ["q"]}}},
         None, "coords['b']: expected a finite number, got 'q'"),
    ])
    def test_mistyped_map_value_names_its_key(self, runner, tmp_path, metric_id, files, schema, detail):
        args = ["compute", metric_id]
        for name, content in files.items():
            (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
            args += ["--in", str(tmp_path / name)]
        if schema is not None:
            (tmp_path / "s.json").write_text(json.dumps(schema))
            args += ["--schema", str(tmp_path / "s.json")]
        r = runner.invoke(main, args)
        assert r.exit_code == 2, r.output
        assert json.loads(r.stdout.splitlines()[0]) == {"error": "E_SCHEMA", "detail": detail}

    @pytest.mark.parametrize("eps", ["700", "1e308", "inf"])
    def test_adp_at_huge_eps_is_the_limit(self, runner, tmp_path, eps):
        (tmp_path / "m.json").write_text('{"inputs":["a","b"],"outputs":["x","y"],"matrix":[[1,0],[0,1]]}')
        (tmp_path / "n.json").write_text('{"pairs":[["a","b"]]}')
        r = runner.invoke(main, [
            "compute", "approximate_differential_privacy", "--in", str(tmp_path / "m.json"),
            "--in", str(tmp_path / "n.json"), "--param", f"eps={eps}", "--format", "json",
        ])
        assert r.exit_code == 0, r.output
        assert json.loads(r.stdout)["value"] == 1.0

    def test_dp_on_a_subnormal_mass_is_finite(self, runner, tmp_path):
        """0.5 / 5e-324 overflows, though its log is about 743.75 nats."""
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        (tmp_path / "m.json").write_text(
            '{"inputs":["a","b"],"outputs":["x","y"],"matrix":[[0.5,0.5],[5e-324,1.0]]}'
        )
        (tmp_path / "n.json").write_text('{"pairs":[["a","b"]]}')
        r = runner.invoke(main, [
            "compute", "differential_privacy", "--in", str(tmp_path / "m.json"),
            "--in", str(tmp_path / "n.json"), "--format", "json",
        ])
        assert r.exit_code == 0, r.output
        reference = float(mpmath.log(mpmath.mpf(0.5) / mpmath.mpf(5e-324)))
        assert json.loads(r.stdout)["value"]["eps_eff"] == pytest.approx(reference, rel=1e-15)

    def _information_privacy(self, runner, tmp_path, matrix):
        (tmp_path / "j.json").write_text(json.dumps(
            {"x_labels": ["a", "b"], "y_labels": ["x", "y"], "matrix": matrix}))
        r = runner.invoke(main, [
            "compute", "information_privacy", "--in", str(tmp_path / "j.json"),
            "--param", "eps=1000", "--format", "json",
        ])
        assert r.exit_code == 0, r.output
        return json.loads(r.stdout)["value"]

    def test_information_privacy_on_a_subnormal_prior_is_finite(self, runner, tmp_path):
        """p(a|x) / p(a) overflows when the prior p(a) is subnormal, though its
        log is about 713.8 nats; so eps=1000 holds."""
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        value = self._information_privacy(runner, tmp_path, [[1e-310, 1e-320], [1e-320, 1.0]])
        a, b = mpmath.mpf(1e-310), mpmath.mpf(1e-320)
        reference = float(mpmath.log(a / (a + b) / (a + b)))  # p(a) = p(x) = a + b
        assert reference == pytest.approx(713.80137882795417, rel=1e-16)
        assert value["eps_min"] == pytest.approx(reference, rel=1e-15)
        assert value["holds"] is True

    def test_information_privacy_keeps_a_subnormal_posterior_unrounded(self, runner, tmp_path):
        """p(a|x) = 1e-320 / 0.3 rounds to a subnormal with few digits; the log is taken
        from the masses, log p(a, x) - log p(x) - log p(a), instead."""
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        value = self._information_privacy(runner, tmp_path, [[1e-320, 0.5], [0.3, 0.2 - 1e-320]])
        m = mpmath.mpf(1e-320)
        reference = float(-mpmath.log(m / (m + mpmath.mpf(0.3)) / (m + mpmath.mpf(0.5))))
        assert reference == pytest.approx(734.9301209060881, rel=1e-16)
        assert value["eps_min"] == pytest.approx(reference, rel=1e-15)

    def _value(self, runner, tmp_path, metric_id, **files):
        for name, content in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(content))
        ins = [arg for name in files for arg in ("--in", str(tmp_path / f"{name}.json"))]
        r = runner.invoke(main, ["compute", metric_id, *ins, "--format", "json"])
        assert r.exit_code == 0, r.output
        return json.loads(r.stdout)["value"]

    def test_mutual_information_on_a_subnormal_mass_is_finite(self, runner, tmp_path):
        """p(a, x) / p(x) / p(a) overflows when the masses are subnormal, though its
        log2 is about 1029 and the value about 1e-307."""
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        value = self._value(runner, tmp_path, "mutual_information", j={
            "x_labels": ["a", "b"], "y_labels": ["x", "y"], "matrix": [[1e-310, 0], [0, 1]]})
        a, b = mpmath.mpf(1e-310), mpmath.mpf(1)
        pa, pb = a / (a + b), b / (a + b)  # p(a) = p(x) and p(b) = p(y): I = H(X)
        reference = float(-pa * mpmath.log(pa, 2) - pb * mpmath.log(pb, 2))
        assert reference == pytest.approx(1.0297977094150792e-307, rel=1e-16)
        assert value == pytest.approx(reference, rel=1e-15)

    def test_relative_entropy_against_a_subnormal_mass_is_finite(self, runner, tmp_path):
        """0.5 / 1e-310 overflows, though 0.5 log2 of it is about 514.4 bits."""
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        value = self._value(runner, tmp_path, "relative_entropy",
                            p={"labels": ["a", "b"], "probs": [0.5, 0.5]},
                            q={"labels": ["a", "b"], "probs": [1e-310, 1.0]})
        half = mpmath.mpf(0.5)
        reference = float(half * mpmath.log(half / mpmath.mpf(1e-310), 2) + half * mpmath.log(half, 2))
        assert reference == pytest.approx(513.8988547075412, rel=1e-16)
        assert value == pytest.approx(reference, rel=1e-15)

    def test_information_privacy_on_a_vanishing_posterior_is_inf(self, runner, tmp_path):
        """p(a|y) = 0 against a positive prior p(a): no finite eps bounds it."""
        value = self._information_privacy(runner, tmp_path, [[1e-310, 0], [0, 1]])
        assert value == {"holds": False, "eps_min": "inf"}

    @pytest.mark.parametrize("metric_id, params", [
        ("min_entropy", []),
        ("renyi_entropy", ["--param", "alpha=2"]),
        ("renyi_entropy", ["--param", "alpha=inf"]),
        ("entropy", []),
    ])
    def test_one_point_distribution_has_positive_zero_entropy(self, metric_id, params, runner,
                                                              tmp_path):
        (tmp_path / "d.json").write_text('{"labels": ["a", "b"], "probs": [1.0, 0.0]}')
        r = runner.invoke(main, ["compute", metric_id, "--in", str(tmp_path / "d.json"),
                                 *params, "--format", "json"])
        assert r.exit_code == 0, r.output
        assert '"value": 0.0' in r.stdout and "-0.0" not in r.stdout
        value = json.loads(r.stdout)["value"]
        assert value == 0.0 and math.copysign(1.0, value) == 1.0


class TestLargeMechanismFaults:
    """A mechanism past ``core._ARRAY_CELLS`` cells is checked as one array
    first; every outcome, fault or value, is the row loop's to the byte."""

    N = 130

    def _run(self, runner, tmp_path, monkeypatch, mechanism, metric="differential_privacy", *params):
        (tmp_path / "m.json").write_text(json.dumps(mechanism))
        (tmp_path / "n.json").write_text(json.dumps({"pairs": [["x0", "x1"], ["x97", "x120"]]}))
        args = ["compute", metric, "--in", str(tmp_path / "m.json"), "--in", str(tmp_path / "n.json"),
                "--format", "json", *params]
        outcomes = []
        for cells in (core._ARRAY_CELLS, 1 << 62):  # the default, then the row loop forced
            monkeypatch.setattr(core, "_ARRAY_CELLS", cells)
            monkeypatch.setattr(compute, "_kept", ())  # parse the file again
            r = runner.invoke(main, args)
            outcomes.append((r.exit_code, r.stdout))
        return outcomes

    def _mechanism(self, **changes):
        ids = [f"x{i}" for i in range(self.N)]
        mechanism = {"inputs": ids, "outputs": list(ids), "matrix": large_rows(self.N)}
        for key, change in changes.items():
            change(mechanism[key])
        return mechanism

    @pytest.mark.parametrize("key, change", [
        ("matrix", lambda m: m[97].__setitem__(3, True)),
        ("matrix", lambda m: m[97].__setitem__(3, "0.5")),
        ("matrix", lambda m: m[97].__setitem__(3, math.nan)),
        ("matrix", lambda m: m[97].__setitem__(3, math.inf)),
        ("matrix", lambda m: m[97].__setitem__(3, 10**400)),
        ("matrix", lambda m: m[97].__setitem__(slice(3, 5), [-m[97][3], m[97][4] + 2 * m[97][3]])),
        ("matrix", lambda m: m[97].__setitem__(3, m[97][3] + 1e-6)),  # past PROB_TOL
        ("matrix", lambda m: m[120].append(0.0)),
        ("matrix", lambda m: (m[120].append(0.0), m[97].__setitem__(3, -0.01))),  # row 97 first
        ("inputs", lambda labels: labels.__setitem__(5, labels[4])),
        ("outputs", lambda labels: labels.__setitem__(5, labels[4])),
    ], ids=["bool", "string", "nan", "infinity", "int past the float range", "negative with the row sum kept",
            "past tolerance", "ragged", "first of two faults", "repeated inputs", "repeated outputs"])
    def test_a_fault(self, runner, tmp_path, monkeypatch, key, change):
        fast, loop = self._run(runner, tmp_path, monkeypatch, self._mechanism(**{key: change}))
        assert fast == loop
        assert fast[0] == 2 and "error" in json.loads(fast[1])

    @pytest.mark.parametrize("off", [1e-10, 7e-13, 4e-13, 0.0])
    @pytest.mark.parametrize("metric, params", [("differential_privacy", ()),
                                                ("approximate_differential_privacy", ("--param", "eps=0.05"))])
    def test_a_row_off_one_is_renormalised_as_by_the_loop(self, runner, tmp_path, monkeypatch, off,
                                                          metric, params):
        def change(matrix):
            matrix[97][:] = [v * (1 + off) for v in matrix[97]]

        fast, loop = self._run(runner, tmp_path, monkeypatch, self._mechanism(matrix=change),
                               metric, *params)
        assert fast == loop
        assert fast[0] == 0


class TestListDescribe:
    def test_list_csv_has_all_metrics(self, runner):
        r = runner.invoke(main, ["list", "--format", "csv"])
        assert r.exit_code == 0
        lines = r.output.strip().splitlines()
        assert lines[0] == "id,category,direction,implemented"
        assert len(lines) - 1 == len(reg.DESCRIPTORS) >= 60

    def test_list_category_filter(self, runner):
        r = runner.invoke(main, ["list", "--format", "json", "--category", "time"])
        rows = json.loads(r.output)
        assert {row["id"] for row in rows} == {
            "max_tracking_time", "time_to_confusion", "time_until_success",
        }

    @pytest.mark.parametrize("category", reg.CATEGORIES)
    def test_list_category_is_the_full_list_filtered(self, runner, category):
        full = json.loads(runner.invoke(main, ["list", "--format", "json"]).output)
        r = runner.invoke(main, ["list", "--format", "json", "--category", category])
        assert json.loads(r.output) == [row for row in full if row["category"] == category]

    def test_list_unknown_category(self, runner):
        r = runner.invoke(main, ["list", "--category", "vibes"])
        assert r.exit_code == 2

    def test_describe_t_closeness_mentions_emd(self, runner):
        r = runner.invoke(main, ["describe", "t_closeness"])
        assert r.exit_code == 0
        assert "Earth Mover" in r.output

    def test_describe_unknown_is_2(self, runner):
        r = runner.invoke(main, ["describe", "nosuch"])
        assert r.exit_code == 2

    def test_describe_json_matches_registry(self, runner):
        r = runner.invoke(main, ["describe", "entropy", "--format", "json"])
        assert json.loads(r.output) == reg.lookup("entropy").to_json_dict()

    @pytest.mark.parametrize("metric_id, expects", [
        ("approximate_differential_privacy",
         "mechanism JSON, neighbor-relation JSON; --param eps=... in [0, inf]"),
        ("distributional_privacy",  # each domain is found by its --param name
         "--param l1=... in [0, inf] l2=... in [0, inf] prior_ratio=... in [0, inf] eps=... in [0, inf]"),
        ("haplotype_snp_test",
         "--param n=... in [2, inf] l=... in [0, inf] [alpha=0.0 in [0, inf]]"
         " [mode=aggregate in {aggregate, statistics}] [log_base=2.0 in (1, inf]]"),
        ("user_centric_privacy", "--param h0=... in [0, inf] lam=... in (0, inf] t=... [t_last=0.0]"),
    ])
    def test_describe_expects_shows_each_param_domain(self, runner, metric_id, expects):
        r = runner.invoke(main, ["describe", metric_id])
        assert f"\n  expects:     {expects}\n" in r.output


class TestAdvise:
    def test_guarantee_mode(self, runner, tmp_path):
        (tmp_path / "a.json").write_text('{"q1_guarantee": true}')
        r = runner.invoke(
            main, ["advise", "--answers", str(tmp_path / "a.json"), "--format", "json"]
        )
        assert r.exit_code == 0
        rec = json.loads(r.output)
        assert set(rec["metrics"]) == {
            d.id for d in reg.DESCRIPTORS if d.category == "indistinguishability"
        }

    def test_empty_q1_is_2(self, runner, tmp_path):
        (tmp_path / "a.json").write_text('{"q1_categories": []}')
        r = runner.invoke(main, ["advise", "--answers", str(tmp_path / "a.json")])
        assert r.exit_code == 2

    def test_interactive_prompts(self, runner):
        # q1 categories, guarantee?, q2?, q3, q4, then q5..q8 free text
        feed = "uncertainty\nn\nn\nall\nall\n\n\n\n\n"
        r = runner.invoke(main, ["advise", "--format", "json"], input=feed)
        assert r.exit_code == 0
        rec = json.loads(r.stdout)
        assert rec["metrics"]
        assert all(reg.lookup(m).category == "uncertainty" for m in rec["metrics"])

    def test_missing_answers_file(self, runner):
        r = runner.invoke(main, ["advise", "--answers", "/nonexistent.json"])
        assert r.exit_code == 2

    @pytest.mark.parametrize(
        "answers",
        [{"q1_guarantee": "false"}, {"q1_categories": 5}, {"q5_audience": ["x"]}],
    )
    def test_mistyped_answer_is_2(self, runner, tmp_path, answers):
        (tmp_path / "a.json").write_text(json.dumps(answers))
        r = runner.invoke(main, ["advise", "--answers", str(tmp_path / "a.json")])
        assert r.exit_code == 2, r.output
        assert _error_code(r) == "E_SCHEMA"


class TestExport:
    def test_roundtrip(self, runner):
        r = runner.invoke(main, ["export"])
        assert r.exit_code == 0
        assert r.output == reg.export_registry() + "\n"

    def test_unimplemented_trio_flagged(self, runner):
        r = runner.invoke(main, ["export"])
        items = json.loads(r.output)
        off = {d["id"] for d in items if not d["implemented"]}
        assert off == {
            "observational_equivalence",
            "computational_differential_privacy",
            "distributed_differential_privacy",
        }


@pytest.mark.parametrize("metric_id", all_fixture_ids())
def test_fixture_smoke(metric_id, runner, tmp_path, metric_value_schema):
    """Every implemented metric computes on its bundled fixture."""
    fixture = load_fixture(metric_id)
    args = materialize_fixture(fixture, tmp_path)
    r = runner.invoke(main, args)
    assert r.exit_code == 0, r.output
    out = json.loads(r.output)
    jsonschema.validate(out, metric_value_schema)
    assert out["metric"] == metric_id
    expected = fixture["expected"]
    tol = fixture.get("tolerance", 1e-9)
    assert values_close(out["value"], expected["value"], tol), (
        out["value"],
        expected["value"],
    )
    assert out["out_of_range"] == expected["out_of_range"]


def test_fixture_per_implemented_metric():
    assert set(all_fixture_ids()) == {d.id for d in reg.DESCRIPTORS if d.implemented}


def _error_code(r):
    return json.loads(r.stdout.splitlines()[0])["error"]


@pytest.mark.parametrize(
    "metric_id, param",
    [
        ("l_diversity", "mdoe=recursive"),
        ("haplotype_snp_test", "alpah=0.5"),
        ("entropy", "alpha=2"),
    ],
)
def test_unknown_param_rejected(metric_id, param, runner, tmp_path):
    args = materialize_fixture(load_fixture(metric_id), tmp_path)
    r = runner.invoke(main, args + ["--param", param])
    assert r.exit_code == 2, r.output
    assert _error_code(r) == "E_PARAM"
    assert param.split("=")[0] in r.stdout


@pytest.mark.parametrize(
    "p_z, code", [("[0.3,0.7]", "E_SHAPE"), ("[5]", "E_DIST"), ("[]", "E_SHAPE")]
)
def test_loss_of_anonymity_checks_p_z_for_one_mechanism(p_z, code, runner, tmp_path):
    """A p_z given with one mechanism file is validated, not ignored."""
    args = materialize_fixture(load_fixture("loss_of_anonymity"), tmp_path)
    r = runner.invoke(main, args + ["--param", f"p_z={p_z}"])
    assert r.exit_code == 2, r.output
    assert _error_code(r) == code


_CHANNEL = {"inputs": ["a", "b"], "outputs": ["x", "y"]}

# Each input that carries probability mass: (metric, input files, params) built from two masses
MASS_INPUTS = {
    "distribution": lambda a, b: ("entropy", [{"labels": ["a", "b"], "probs": [a, b]}], {}),
    "joint": lambda a, b: (
        "mutual_information", [{"x_labels": ["a", "b"], "y_labels": ["x", "y"], "matrix": [[a, 0], [0, b]]}], {}
    ),
    "mechanism_row": lambda a, b: (
        "differential_privacy", [dict(_CHANNEL, matrix=[[0.5, 0.5], [a, b]]), {"pairs": [["a", "b"]]}], {}
    ),
    "p_z": lambda a, b: (
        "loss_of_anonymity",
        [dict(_CHANNEL, matrix=[[0.9, 0.1], [0.1, 0.9]]), dict(_CHANNEL, matrix=[[0.6, 0.4], [0.4, 0.6]])],
        {"p_z": json.dumps([a, b])},
    ),
    "partitions": lambda a, b: (
        "degree_of_unlinkability",
        [{"partitions": [{"blocks": [["u1"], ["u2"]], "prob": a}, {"blocks": [["u1", "u2"]], "prob": b}]}],
        {},
    ),
    "bayes_transition_row": lambda a, b: (
        "entropy_bayes",
        [{"states": ["s0", "s1"], "prior": [0.5, 0.5], "transition": [[a, b], [0.2, 0.8]], "likelihoods": [[0.9, 0.1]]}],
        {},
    ),
    "ci_atoms": lambda a, b: ("confidence_interval_width", [{"atoms": [[5, a], [100, b]]}], {"c": "90"}),
    "cmi_tensor": lambda a, b: ("conditional_mutual_information", [{"tensor": [[[a], [0]], [[0], [b]]]}], {}),
    "distance_error_steps": lambda a, b: (
        "expectation_of_distance_error", [{"steps": [[[a, 2], [b, 4]]], "n_users": 1}], {}
    ),
}


def _compute_with_masses(runner, tmp_path, kind, a, b):
    metric_id, files, params = MASS_INPUTS[kind](a, b)
    args = ["compute", metric_id, "--format", "json"]
    for i, content in enumerate(files):
        (tmp_path / f"{i}.json").write_text(json.dumps(content))
        args += ["--in", str(tmp_path / f"{i}.json")]
    for key, value in params.items():
        args += ["--param", f"{key}={value}"]
    return runner.invoke(main, args)


@pytest.mark.parametrize(
    "masses, code",
    [((0.3, 0.7 + 5e-10), None), ((0.3, 0.7 + 2e-9), "E_DIST"), ((1e308, 1e308), "E_DIST"), ((-0.3, 1.3), "E_DIST")],
    ids=["off-by-5e-10", "off-by-2e-9", "past-the-largest-float", "negative"],
)
@pytest.mark.parametrize("kind", MASS_INPUTS)
def test_every_mass_input_follows_one_rule(kind, masses, code, runner, tmp_path):
    """Mass within 1e-9 of 1 is renormalized; further off, past the largest float or negative is E_DIST."""
    r = _compute_with_masses(runner, tmp_path, kind, *masses)
    if code is None:
        assert (r.exit_code, r.stderr) == (0, ""), r.output
        total = math.fsum(masses)
        divided = _compute_with_masses(runner, tmp_path, kind, *(m / total for m in masses))
        assert values_close(json.loads(r.stdout)["value"], json.loads(divided.stdout)["value"], 1e-12)
    else:
        assert r.exit_code == 2, r.output
        assert _error_code(r) == code
        assert r.stderr.startswith(f"{code}: ") and r.stderr.count("\n") == 1, r.stderr


@pytest.mark.parametrize(
    "metric_id", ["mutual_information", "normalized_mutual_information", "conditional_privacy_loss"]
)
def test_underflowing_marginal_product_is_0(metric_id, runner, tmp_path):
    """p(x)·p(y) = 1e-400 underflows to 0, so the sum divides by each marginal in turn."""
    joint = {"x_labels": ["a", "b"], "y_labels": ["x", "y"], "matrix": [[1e-200, 0], [0, 1]]}
    (tmp_path / "j.json").write_text(json.dumps(joint))
    r = runner.invoke(main, ["compute", metric_id, "--in", str(tmp_path / "j.json"), "--format", "json"])
    assert (r.exit_code, r.stderr) == (0, ""), r.output
    assert math.isfinite(json.loads(r.stdout)["value"])


@pytest.mark.parametrize(
    "metric_id, exit_code", [("mutual_information", 0), ("conditional_privacy_loss", 0),
                             ("normalized_mutual_information", 2)]
)
def test_deterministic_x(metric_id, exit_code, runner, tmp_path):
    """One x label: I(X;Y) = 0 and the privacy loss 1 - 2^-I = 0; only I/H(X) divides by H(X) = 0."""
    joint = {"x_labels": ["a"], "y_labels": ["x", "y"], "matrix": [[0.5, 0.5]]}
    (tmp_path / "j.json").write_text(json.dumps(joint))
    r = runner.invoke(main, ["compute", metric_id, "--in", str(tmp_path / "j.json"), "--format", "json"])
    assert r.exit_code == exit_code, r.output
    if exit_code:
        assert _error_code(r) == "E_PARAM"
    else:
        assert json.loads(r.stdout)["value"] == 0.0


@pytest.mark.parametrize(
    "metric_id, content, exit_code",
    [
        # each term is finite and >= 0, and their exact sum is past the largest float
        ("privacy_score", {"sensitivities": [1e308, 1e308], "visibilities": [1, 1]}, 0),
        # a squared gap past the largest float
        ("mean_squared_error", {"truths": [[1e200]], "observations": [[-1e200]]}, 0),
        # the squares sum past the largest float, but their mean, 1e308, is below it
        ("mean_squared_error", {"truths": [[1e154], [1e154]], "observations": [[0], [0]]}, 3),
    ],
)
def test_sum_past_the_largest_float(metric_id, content, exit_code, runner, tmp_path):
    """inf where the value is past the largest float; exit 3 where the overflow is only in the sum."""
    (tmp_path / "in.json").write_text(json.dumps(content))
    r = runner.invoke(main, ["compute", metric_id, "--in", str(tmp_path / "in.json"), "--format", "json"])
    assert r.exit_code == exit_code, r.output
    if exit_code:
        assert _error_code(r) == "E_DOMAIN"
    else:
        assert json.loads(r.stdout)["value"] == "inf"


DIST_FILE = {"labels": ["a", "b"], "probs": [0.5, 0.5]}


@pytest.mark.parametrize(
    "metric_id, content, params",
    [
        ("anonymity_set_size", {"members": 5}, []),
        ("cumulative_entropy", {"values": [1, "x"]}, []),
        ("pearson_correlation", {"x": [1, 2, 3], "y": "abc"}, []),
        ("asymmetric_entropy", DIST_FILE, ['w=["a",1]']),
        ("expectation_of_distance_error", {"steps": [[[0.5, 2, 9], [0.5, 4]]], "n_users": 1}, []),
        ("uncertainty_region_size", {"cells": [["a", 1]]}, []),
        ("success_rate", {"trials": "yes"}, []),
        ("success_rate", {"trials": [1, 0, "no"]}, []),
        ("expectation_of_distance_error", {"steps": [[[0.5, 2], [0.5, 4]]], "n_users": 2.7}, []),
        ("uncertainty_region_size", {"cells": [[1.5, 2]]}, []),
        ("hiding_property", {"matrix": [["a", 1]]}, ["theta=0.5"]),
        ("ct_isolation", {"points": [["a"]], "guess": [1]}, ["target_index=0", "c=1"]),
    ],
)
def test_mistyped_input_is_2(metric_id, content, params, runner, tmp_path):
    """Wrongly typed input fields fail cleanly instead of crashing or being coerced."""
    (tmp_path / "in.json").write_text(json.dumps(content))
    args = ["compute", metric_id, "--in", str(tmp_path / "in.json"), "--format", "json"]
    for p in params:
        args += ["--param", p]
    r = runner.invoke(main, args)
    assert r.exit_code == 2, r.output
    assert "error" in json.loads(r.stdout.splitlines()[0])


MECHANISM_FILE = {"inputs": ["a", "b"], "outputs": ["x", "y"], "matrix": [[1, 0], [0, 1]]}
REQUESTS_FILE = {"requests": [{"t": 0, "cell": "c"}]}
RELEASE = {"csv_path": "r.csv", "roles": {"zip": "quasi-identifier", "s": "sensitive"},
           "owners": ["o1"]}


def _history(t, cells):
    return {"histories": [{"user": "u", "entries": [{"t": t, "cells": cells}]}]}


def _geo(location, matrix):
    return {"locations": [location, ["b", 0, 0]], "outputs": ["o"], "matrix": matrix}


def _estimate(**fields):
    return {"posterior": DIST_FILE, "truth": "a", "metric": "euclidean", **fields}


@pytest.mark.parametrize(
    "metric_id, files, params",
    [
        # exited 1 with a traceback
        ("system_anonymity_level", [{"n": 2, "bits": [5, [1, 1]]}], []),
        ("unconditional_privacy", [[{"guess": "x", "truth": 0}]], []),
        ("geo_indistinguishability", [_geo(["a", "x", 1], [[1], [1]])], []),
        ("expected_estimation_error", [_estimate(coords=[1])], []),
        ("expected_estimation_error", [_estimate(coords={"a": [0], "b": ["q"]})], []),
        ("historical_k_anonymity", [_history("abc", ["c"]), REQUESTS_FILE], []),
        ("differential_privacy", [MECHANISM_FILE, {"pairs": 5}], []),
        ("max_tracking_time", [{"samples": 5}], ["end_time=4"]),
        ("m_invariance", [[RELEASE]], []),  # r.csv does not exist
        ("m_invariance", [[{**RELEASE, "csv_path": 5}]], []),
        ("mean_squared_error", [{"truths": [["a"]], "observations": [[1]]}], []),
        ("conditional_mutual_information", [{"tensor": [[[0.5, 0.5]], [[0]]]}], []),
        ("ct_isolation", [{"points": [[0, 0], [1]], "guess": [0, 0]}], ["target_index=0", "c=1"]),
        # exited 0 with a value read from a coerced field
        ("system_anonymity_level", [{"n": 2, "bits": [["1", "1"], [1, 1]]}], []),
        ("system_anonymity_level", [{"n": 2, "bits": [[1.9, 1], [1, 1]]}], []),
        ("system_anonymity_level", [{"n": 2, "bits": [[1, 1], [1, 1]], "classes": "ab"}], []),
        ("unconditional_privacy", [[{"guess": 0.9, "truth": 0}]], []),
        ("geo_indistinguishability", [_geo(["a", 1, 0], [["1"], [1]])], []),
        ("expected_estimation_error", [{"posterior": {"labels": ["a", "b"], "probs": ["0.5", 0.5]},
                                        "truth": "a"}], []),
        ("historical_k_anonymity", [_history(0, "cd"), REQUESTS_FILE], []),
        ("differential_privacy", [{**MECHANISM_FILE, "inputs": "ab"}, {"pairs": [["a", "b"]]}], []),
        ("mutual_information", [{"x_labels": "ab", "y_labels": ["c", "d"],
                                 "matrix": [[0.25, 0.25], [0.25, 0.25]]}], []),
        ("max_tracking_time", [{"samples": [{"t": 0, "v": 1}, {"t": "1", "v": 2}]}],
         ["end_time=4"]),
        ("entropy", [{"labels": [["a"], "b"], "probs": [0.5, 0.5]}], []),
        # coordinate vectors of different lengths: exited 1 with a traceback, or 0 with
        # a value numpy broadcast from the shorter vector
        ("expected_estimation_error", [_estimate(coords={"a": [0, 0], "b": [3, 4, 5]})], []),
        ("expected_estimation_error", [_estimate(coords={"a": [0, 0], "b": [3]})], []),
        # empty or ragged vectors
        ("conditional_mutual_information", [{"tensor": []}], []),
        ("conditional_mutual_information", [{"tensor": [[]]}], []),
        ("conditional_mutual_information", [{"tensor": [[[]]]}], []),
        ("conditional_mutual_information", [{"tensor": [[[0.5], [0.25, 0.25]]]}], []),
        ("conditional_mutual_information", [{"tensor": [[[0.5]], [[0.25], [0.25]]]}], []),
        ("ct_isolation", [{"points": [[], [1]], "guess": []}], ["target_index=0", "c=1"]),
        ("ct_isolation", [{"points": [[0, 0], [1, 1]], "guess": [0]}], ["target_index=0", "c=1"]),
        ("ct_isolation", [{"points": [], "guess": []}], ["target_index=0", "c=1"]),
        ("mean_squared_error", [{"truths": [[0, 0]], "observations": [[1]]}], []),
        ("mean_squared_error", [{"truths": [], "observations": []}], []),
        ("event_unobservability", [{"f1": [], "f2": [1]}], ["p1=1", "p2=1", "alpha=0.1", "eps=0.1"]),
        ("pearson_correlation", [{"x": [1, 2], "y": [3]}], []),
        ("pearson_correlation", [{"x": [1, 1], "y": [3, 4]}], []),
        ("normalized_variance", [{"x": [2, 2], "y": [3, 4]}], []),
        # a constant series whose mean rounds off its value: exited 0 with 0.0 and 3.5e33
        ("pearson_correlation", [{"x": [0.1, 0.1, 0.1], "y": [1, 2, 3]}], []),
        ("normalized_variance", [{"x": [0.1, 0.1, 0.1], "y": [1, 2, 3]}], []),
        ("r_squared", [{"transitions": [7, 7, 7]}], []),
        ("privacy_score", [{"sensitivities": [1], "visibilities": []}], []),
        # a repeated location id
        ("geo_indistinguishability", [_geo(["b", 1, 0], [[1], [1]])], []),
    ],
)
def test_mistyped_input_file_is_2(metric_id, files, params, runner, tmp_path):
    """A wrongly typed field in any input file, next to valid ones, fails cleanly."""
    args = ["compute", metric_id, "--format", "json"]
    for i, content in enumerate(files):
        (tmp_path / f"in{i}.json").write_text(json.dumps(content))
        args += ["--in", str(tmp_path / f"in{i}.json")]
    for p in params:
        args += ["--param", p]
    r = runner.invoke(main, args)
    assert r.exit_code == 2, r.output
    assert "error" in json.loads(r.stdout.splitlines()[0])


@pytest.mark.parametrize(
    "command, data",
    [
        (["compute", "m_invariance", "--in"], None),  # no such file
        (["compute", "entropy", "--in"], b"\xad\xff{"),  # not UTF-8
        (["advise", "--answers"], b"\xad\xff{"),
        (["compute", "entropy", "--in"], b'{"labels": ["a"], "probs": [1' + b"0" * 5000 + b"]}"),
    ],
)
def test_unreadable_input_is_2(command, data, runner, tmp_path):
    path = tmp_path / "in.json"
    if data is not None:
        path.write_bytes(data)
    r = runner.invoke(main, command + [str(path)])
    assert r.exit_code == 2, r.output
    assert _error_code(r) == "E_SCHEMA"


def test_schema_sidecar_unknown_key_is_2(runner, tmp_path):
    fixture = load_fixture("k_anonymity")
    args = materialize_fixture(fixture, tmp_path)
    sidecar = {**fixture["files"][fixture["schema"]], "extra": 1}
    (tmp_path / fixture["schema"]).write_text(json.dumps(sidecar))
    r = runner.invoke(main, args)
    assert r.exit_code == 2, r.output
    assert _error_code(r) == "E_SCHEMA"


# Metrics that accept one more input file than their fixture gives.
OPTIONAL_EXTRA_INPUT = {"degree_of_unlinkability"}  # an optional prior


@pytest.mark.parametrize("metric_id", all_fixture_ids())
def test_extra_input_file_rejected(metric_id, runner, tmp_path):
    fixture = load_fixture(metric_id)
    args = materialize_fixture(fixture, tmp_path)
    if fixture["in"]:
        extra = tmp_path / fixture["in"][-1]
    else:
        extra = tmp_path / "extra.json"
        extra.write_text("{}")
    r = runner.invoke(main, args + ["--in", str(extra)])
    if metric_id in OPTIONAL_EXTRA_INPUT:
        assert r.exit_code == 0, r.output
    else:
        assert r.exit_code == 2, r.output
        assert _error_code(r) == "E_PARAM"


def test_table_metric_without_schema_is_2(runner, tmp_path):
    args = materialize_fixture(load_fixture("k_anonymity"), tmp_path)
    i = args.index("--schema")
    r = runner.invoke(main, args[:i] + args[i + 2:])
    assert r.exit_code == 2, r.output
    assert _error_code(r) == "E_PARAM"


_FOOTPRINT = """\
import json, sys
import privmetrics.cli
if sys.argv[1:]:
    try:
        privmetrics.cli.main(args=sys.argv[1:], prog_name="privmetrics")
    except SystemExit:
        pass
print(json.dumps(sorted(m for m in ("numpy", "scipy") if m in sys.modules)), file=sys.stderr)
"""


def _cold(*args, cwd=None):
    """Run the CLI in a fresh interpreter: its stdout and which of numpy and scipy it loaded."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", _FOOTPRINT, *args], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=path), cwd=cwd, timeout=120)
    return r.stdout, json.loads(r.stderr.splitlines()[-1])


# The fixtures whose cold ``compute`` loads numpy or scipy; every other fixture loads neither.
NUMPY_USERS = {"loss_of_anonymity": ["numpy"]}
# The functions that import numpy: Blahut-Arimoto; the array scans that dp_epsilon
# and adp_delta take on large mechanisms only, and a mechanism's one array; the class
# arrays of a large table and the table metrics that read them. No function imports scipy.
NUMPY_FUNCTIONS = {
    "conditional_channel_capacity",
    "_dp_epsilon_arrays", "_adp_delta_arrays", "_array",
    "_numbered", "_class_arrays", "histograms", "sorted_values",
    "_l_entropy_arrays", "_t_closeness_arrays", "_ke_arrays", "_em_anonymity_arrays",
}


# One fixture from each metric module, in the order each thread computes them.
_ONE_PER_MODULE = ("entropy", "mutual_information", "differential_privacy", "success_rate",
                   "k_anonymity")
_THREADS = 4
_THREADED = f"""\
import json, sys, threading
from privmetrics import compute, core
calls = json.loads(sys.argv[1])
barrier = threading.Barrier({_THREADS})
results = [None] * {_THREADS}


def run(i):
    barrier.wait(timeout=60)
    results[i] = [core.jsonable(compute.compute(*call).value) for call in calls]


sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=run, args=(i,)) for i in range({_THREADS})]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
print(json.dumps(results))
"""


class TestImportFootprint:
    def test_import_loads_neither(self):
        assert _cold() == ("", [])

    @pytest.mark.parametrize(
        "args",
        [("list",), ("describe", "cluster_similarity"), ("export",), ("advise", "--answers", "a.json")],
        ids=["list", "describe", "export", "advise"],
    )
    def test_catalog_commands_load_neither(self, args, tmp_path):
        (tmp_path / "a.json").write_text('{"q1_guarantee": true}')
        out, loaded = _cold(*args, cwd=tmp_path)
        assert out
        assert loaded == []

    @pytest.mark.parametrize(
        "metric_id, modules",
        [(metric_id, NUMPY_USERS.get(metric_id, [])) for metric_id in all_fixture_ids()],
        ids=lambda v: v if isinstance(v, str) else "+".join(v) or "neither",
    )
    def test_compute_loads_what_the_metric_uses(self, metric_id, modules, tmp_path):
        fixture = load_fixture(metric_id)
        out, loaded = _cold(*materialize_fixture(fixture, tmp_path))
        assert loaded == modules
        assert values_close(json.loads(out)["value"], fixture["expected"]["value"], fixture["tolerance"])

    def test_no_module_imports_numpy_or_scipy_at_import(self):
        """numpy and scipy are imported inside the functions of ``NUMPY_FUNCTIONS``, never at module
        level and in no other function: a new import site is a deliberate change to that set.
        No module imports scipy at all."""
        importers, scipy_sites = set(), []
        for path in sorted((REPO / "src" / "privmetrics").glob("*.py")):
            pending = [(ast.parse(path.read_text()), None)]
            while pending:
                parent, function = pending.pop()
                for node in ast.iter_child_nodes(parent):
                    if isinstance(node, ast.Import):
                        names = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        names = [node.module or ""]
                    else:
                        names = []
                    roots = {n.split(".")[0] for n in names}
                    if roots & {"numpy", "scipy"}:
                        assert function is not None, (path.name, node.lineno)  # runs at import
                        importers.add(function)
                    if "scipy" in roots:
                        scipy_sites.append((path.name, node.lineno))
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        pending.append((node, node.name))
                    else:
                        pending.append((node, function))
        assert importers == NUMPY_FUNCTIONS
        assert scipy_sites == []

    def test_only_core_raises_distribution_error(self):
        """The probability-mass rule lives in ``core._normalized``; no other module re-implements it."""
        for path in sorted((REPO / "src" / "privmetrics").glob("*.py")):
            if path.name == "core.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    name = getattr(exc, "id", getattr(exc, "attr", None))
                    assert name != "DistributionError", (path.name, node.lineno)

    def test_first_use_from_several_threads(self, tmp_path):
        """Threads that start at once in a fresh interpreter each import the metric modules on
        first use, or wait for the thread that does; none reads a partly imported module."""
        fixtures = [load_fixture(m) for m in _ONE_PER_MODULE]
        calls = []
        for fixture in fixtures:
            directory = tmp_path / fixture["metric"]
            directory.mkdir()
            materialize_fixture(fixture, directory)
            schema = fixture["schema"] and str(directory / fixture["schema"])
            calls.append([fixture["metric"], [str(directory / n) for n in fixture["in"]], schema,
                          fixture["params"]])
        path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        r = subprocess.run([sys.executable, "-c", _THREADED, json.dumps(calls)], capture_output=True,
                           text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
        assert r.returncode == 0, r.stderr
        results = json.loads(r.stdout)
        assert len(results) == _THREADS
        for values in results:
            assert values is not None, r.stderr  # the thread returned
            for fixture, value in zip(fixtures, values, strict=True):
                assert values_close(value, fixture["expected"]["value"], fixture["tolerance"])


@pytest.mark.parametrize("quote", ["", '"'])
def test_field_past_csv_size_limit_is_2(quote, runner, tmp_path):
    """A cell longer than csv.field_size_limit() is refused on both CSV readers."""
    big = "x" * (csv.field_size_limit() + 1)
    (tmp_path / "t.csv").write_text(f"zip,disease\n1,flu\n1,{quote}{big}{quote}\n")
    (tmp_path / "t.roles.json").write_text('{"roles": {"zip": "quasi-identifier"}}')
    r = runner.invoke(main, ["compute", "k_anonymity", "--in", str(tmp_path / "t.csv"),
                             "--schema", str(tmp_path / "t.roles.json"), "--format", "json"])
    assert r.exit_code == 2, r.output
    error = json.loads(r.stdout.splitlines()[0])
    assert error["error"] == "E_SCHEMA"
    assert error["detail"] == f"line 3: field larger than field limit ({csv.field_size_limit()})"


@pytest.mark.parametrize("value", ["abc", "nan", "NaN"])
def test_alpha_k_non_number_on_numeric_column_is_2(value, runner, tmp_path):
    """A numeric sensitive column takes a number; NaN would match no cell and read as alpha 0."""
    (tmp_path / "t.csv").write_text("zip,salary\n1,10\n1,20\n")
    schema = {"roles": {"zip": "quasi-identifier", "salary": "sensitive"},
              "kinds": {"salary": "numeric"}}
    (tmp_path / "t.roles.json").write_text(json.dumps(schema))
    r = runner.invoke(main, ["compute", "alpha_k_anonymity", "--in", str(tmp_path / "t.csv"),
                             "--schema", str(tmp_path / "t.roles.json"),
                             "--param", f"value={value}"])
    assert r.exit_code == 2, r.output
    assert _error_code(r) == "E_PARAM"


def _table_rows():
    diseases = ("flu", "cold", "hiv", "flu ", "cancer")
    for i in range(60):
        yield (f"z{i % 4}", f"a{i % 3}", diseases[i * 7 % 5], repr(20 + (i * 13) % 9 * 2.5))


@pytest.mark.parametrize(
    "metric_id, sensitive, params",
    [
        ("k_anonymity", "disease", []),
        ("l_diversity", "disease", ["mode=entropy"]),
        ("l_diversity", "disease", ["mode=recursive", "c=2"]),
        ("t_closeness", "disease", []),
        ("t_closeness", "salary", []),
        ("alpha_k_anonymity", "disease", ["value=flu"]),
        ("ke_anonymity", "salary", []),
        ("em_anonymity", "salary", ["epsilon=5"]),
    ],
)
def test_quoted_table_prints_what_the_unquoted_one_does(metric_id, sensitive, params, runner,
                                                        tmp_path):
    """The same table, once plain and once with every cell quoted, so that one is split
    by str methods and the other read by csv.reader."""
    rows = [("zip", "age", "disease", "salary"), *_table_rows()]
    plain = "".join(",".join(row) + "\n" for row in rows)
    quoted = "".join(",".join(f'"{cell}"' for cell in row) + "\n" for row in rows)
    assert core._plain_blocks(plain) is not None and core._plain_blocks(quoted) is None
    schema = {"roles": {"zip": "quasi-identifier", "age": "quasi-identifier",
                        sensitive: "sensitive"}, "kinds": {"salary": "numeric"}}
    (tmp_path / "t.roles.json").write_text(json.dumps(schema))
    stdout = []
    for name, text in (("plain.csv", plain), ("quoted.csv", quoted)):
        (tmp_path / name).write_text(text)
        args = ["compute", metric_id, "--in", str(tmp_path / name),
                "--schema", str(tmp_path / "t.roles.json"), "--format", "json"]
        for p in params:
            args += ["--param", p]
        r = runner.invoke(main, args)
        assert r.exit_code == 0, r.output
        stdout.append(r.stdout)
    assert stdout[0] == stdout[1]
