"""Mutation fuzz over every fixture: one JSON node gets the wrong type, or
one numeric ``--param`` an edge value; and fuzz over malformed command lines.

Whatever the mutation, ``compute`` must give a value (exit 0) or a
machine-readable ``{"error": ...}`` with exit code 2 or 3; it must never
escape with a traceback (exit 1). A NaN parameter, and one outside its
declared domain, is always exit 2 with ``E_PARAM``. A command line click
cannot parse is held to the same 0/2/3 contract.
"""

import copy
import json
import math
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from privmetrics import compute, ranges
from privmetrics.cli import main

from conftest import all_fixture_ids, load_fixture, materialize_fixture


def _nodes(value, path=()):
    """Every node of a JSON document as ``(path, value)``, the root included."""
    yield path, value
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _replacements(value) -> list:
    """The wrongly typed values one node is swapped for."""
    if isinstance(value, (bool, int, float)):
        return [str(value), [value], float("nan"), None]
    if isinstance(value, str):
        return [[value], 1]
    if isinstance(value, list):
        return ["x", 1, []]
    if isinstance(value, dict):
        return [{}, list(value.values())]
    return []


def _mutations(fixture: dict) -> list:
    """``(file name, node path, new value)`` for every JSON input file of a fixture."""
    return [
        (name, path, new)
        for name, content in sorted(fixture["files"].items())
        if not isinstance(content, str)  # CSV files are text
        for path, value in _nodes(content)
        for new in _replacements(value)
    ]


def _mutated(content, path, new):
    if not path:
        return new
    content = copy.deepcopy(content)
    node = content
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = new
    return content


MUTABLE = [m for m in all_fixture_ids() if _mutations(load_fixture(m))]


@pytest.mark.parametrize("metric_id", MUTABLE)
@settings(max_examples=50, derandomize=True, deadline=None)
@given(data=st.data())
def test_mutated_fixture_fails_cleanly(metric_id, data):
    fixture = load_fixture(metric_id)
    name, path, new = data.draw(st.sampled_from(_mutations(fixture)))
    fixture["files"][name] = _mutated(fixture["files"][name], path, new)
    _fails_cleanly(fixture)


def _fails_cleanly(fixture: dict):
    """Run a fixture through the CLI; assert the 0/2/3 contract and return
    the exit code and the error code (None on success)."""
    with tempfile.TemporaryDirectory() as directory:
        r = CliRunner().invoke(main, materialize_fixture(fixture, Path(directory)))
    assert r.exception is None or isinstance(r.exception, SystemExit), repr(r.exception)
    assert r.exit_code in (0, 2, 3), r.output
    if not r.exit_code:
        return 0, None
    error = json.loads(r.stdout.splitlines()[0])
    assert "error" in error
    return r.exit_code, error["error"]


PARAM_VALUES = {
    "nan": "nan", "inf": "inf", "-inf": "-inf", "1e308": "1e308", "-1e308": "-1e308",
    "1e-308": "1e-308", "-1e-308": "-1e-308", "5e-324": "5e-324", "-5e-324": "-5e-324",
    "0": "0", "-1": "-1", "empty": "", "200-digits": "9" * 200, "-200-digits": "-" + "9" * 200,
}


def _number(value: str) -> float:
    """The number a ``--param`` value reads as; a value that is no number reads
    as NaN, which every domain refuses as well."""
    try:
        return float(value)
    except ValueError:
        return math.nan


def _edge_values(domain: dict | None, kind) -> list[str]:
    """Each finite end of a declared domain and the nearest value of the
    parameter's type on either side of it, less the values PARAM_VALUES has."""
    if domain is None:
        return []
    out = []
    for end in (domain["lo"], domain["hi"]):
        if isinstance(end, (int, float)):
            if kind is int:
                out += [end - 1, end, end + 1]
            else:
                out += [math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf)]
    return [v for v in map(repr, out) if v not in PARAM_VALUES.values()]


NUMERIC_PARAMS = [
    pytest.param(metric_id, name, value, domain, id=f"{metric_id}-{name}={label}")
    for metric_id in all_fixture_ids()
    for (name, (kind, _)), domain in zip(
        compute._SPECS[metric_id].params.items(), compute._param_domains(metric_id).values()
    )
    if kind in (float, int)
    for label, value in [*PARAM_VALUES.items(), *((v, v) for v in _edge_values(domain, kind))]
]


@pytest.mark.parametrize("metric_id, name, value, domain", NUMERIC_PARAMS)
def test_numeric_param_fails_cleanly(metric_id, name, value, domain):
    fixture = load_fixture(metric_id)
    fixture["params"][name] = value  # the fixture's other parameters are kept
    exit_code, error = _fails_cleanly(fixture)
    if value == "nan":
        assert exit_code == 2
    if domain is not None and not ranges.contains(domain, _number(value)):
        assert (exit_code, error) == (2, "E_PARAM")


# Fragments of a malformed command line. ``advise`` always gets ``--answers``:
# without it, it prompts, and an empty stdin aborts it with exit 1 by design.
SUBCOMMANDS = [["compute"], ["describe"], ["list"], ["export"], ["frobnicate"], ["comp"], [],
               ["advise", "--answers", "/nonexistent/answers.json"]]
FRAGMENTS = [
    ["--bogus"], ["-x"], ["--in"], ["--schema"], ["--param"], ["--format"], ["--category"],
    ["--format", "xml"], ["--format", ""], ["--format", "JSON"], ["--format", "json"],
    ["nosuch_metric"], ["entropy"], ["k_anonymity"], ["stray"], ["--"], ["-"],
    ["--in", "/nonexistent/in.json"], ["--schema", "/nonexistent/a.json"],
    ["--schema", "/nonexistent/b.json"], ["--param", "p"], ["--param", "p=1"], ["--param=="],
    ["--answers", "/nonexistent/answers.json"],
]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(subcommand=st.sampled_from(SUBCOMMANDS),
       fragments=st.lists(st.sampled_from(FRAGMENTS), max_size=5))
def test_malformed_command_line_fails_cleanly(subcommand, fragments):
    argv = subcommand + [arg for fragment in fragments for arg in fragment]
    r = CliRunner().invoke(main, argv)
    assert r.exception is None or isinstance(r.exception, SystemExit), repr(r.exception)
    assert r.exit_code in (0, 2, 3), (argv, r.output)
    if r.exit_code:  # stdout is one JSON object, nothing else
        assert "error" in json.loads(r.stdout), (argv, r.stdout)
