import ast
import json
import os
import subprocess
import sys

import jsonschema
import pytest
from click.testing import CliRunner

from privmetrics import registry as reg
from privmetrics.cli import main

from conftest import REPO, all_fixture_ids, load_fixture, materialize_fixture, values_close


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

    def test_domain_error_is_3(self, runner):
        r = runner.invoke(main, ["compute", "information_surprisal", "--param", "p=0"])
        assert r.exit_code == 3
        assert json.loads(r.output.splitlines()[0])["error"] == "E_DOMAIN"

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

    @pytest.mark.parametrize("r_min", ["1e-308", "5e-324"])
    def test_obfuscation_ratio_past_the_largest_float_is_3(self, runner, r_min):
        r = runner.invoke(main, [
            "compute", "accuracy_of_obfuscated_region", "--param", "r_opt=1", "--param", f"r_min={r_min}",
        ])
        assert r.exit_code == 3, r.output
        assert _error_code(r) == "E_DOMAIN"

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
        assert reg.import_registry(r.output) == tuple(
            sorted(reg.DESCRIPTORS, key=lambda d: d.id)
        )

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
    assert set(all_fixture_ids()) == set(reg.implemented_ids())


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
        [
            ("differential_privacy", []),
            ("min_entropy", []),
            ("system_anonymity_level", []),
            ("k_anonymity", []),
            ("t_closeness", []),
            ("success_rate", []),
            ("expected_estimation_error", []),
            ("entropy", ["numpy"]),
            ("cluster_similarity", ["numpy", "scipy"]),
        ],
        ids=lambda v: v if isinstance(v, str) else "+".join(v) or "neither",
    )
    def test_compute_loads_what_the_metric_uses(self, metric_id, modules, tmp_path):
        fixture = load_fixture(metric_id)
        out, loaded = _cold(*materialize_fixture(fixture, tmp_path))
        assert loaded == modules
        assert values_close(json.loads(out)["value"], fixture["expected"]["value"], fixture["tolerance"])

    def test_no_module_imports_numpy_or_scipy_at_import(self):
        """numpy and scipy are imported inside the functions that use them, never at module level."""
        for path in sorted((REPO / "src" / "privmetrics").glob("*.py")):
            pending = [ast.parse(path.read_text())]
            while pending:
                for node in ast.iter_child_nodes(pending.pop()):
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                        continue  # a function body runs when called, not at import
                    if isinstance(node, ast.Import):
                        names = [alias.name for alias in node.names]
                    elif isinstance(node, ast.ImportFrom):
                        names = [node.module or ""]
                    else:
                        names = []
                    assert not {n.split(".")[0] for n in names} & {"numpy", "scipy"}, (path.name, node.lineno)
                    pending.append(node)
