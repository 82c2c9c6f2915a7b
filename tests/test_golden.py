"""Output-identity gate: ``compute`` stdout and exit code for every fixture.

``data/golden_compute.json`` holds, for each fixture and each of the three
output formats, the exact stdout and exit code of ``privmetrics compute``.
A change that is meant to leave every output alone (a speed-up, a
refactor) must keep this test green byte for byte; a change that alters an
output on purpose re-records the file and says why::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from privmetrics.cli import main

from conftest import DATA, all_fixture_ids, load_fixture, materialize_fixture

GOLDEN = DATA / "golden_compute.json"
FORMATS = ("json", "text", "csv")


def run_fixture(metric_id: str, fmt: str, directory: Path) -> dict:
    args = materialize_fixture(load_fixture(metric_id), directory)
    args[args.index("--format") + 1] = fmt
    result = CliRunner().invoke(main, args)
    return {"exit_code": result.exit_code, "stdout": result.stdout}


def record() -> dict:
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        for metric_id in all_fixture_ids():
            for fmt in FORMATS:
                golden[f"{metric_id}/{fmt}"] = run_fixture(metric_id, fmt, Path(tmp))
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_fixture(golden):
    assert sorted(golden) == sorted(f"{m}/{f}" for m in all_fixture_ids() for f in FORMATS)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("metric_id", all_fixture_ids())
def test_compute_output_unchanged(golden, metric_id, fmt, tmp_path):
    assert run_fixture(metric_id, fmt, tmp_path) == golden[f"{metric_id}/{fmt}"]


# Outputs re-recorded on purpose: the value each replaced. A re-recorded value
# must be no further from a 50-digit mpmath evaluation of the fixture's input
# than the value it replaced.
REPLACED = {
    "conditional_mutual_information": 0.2780719051126379,
    "pearson_correlation": 0.9819805060619659,
}


def mp_reference(metric_id: str):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    files = load_fixture(metric_id)["files"]
    if metric_id == "pearson_correlation":
        x, y = ([mpmath.mpf(v) for v in files["xy.json"][k]] for k in "xy")
        dx, dy = ([v - mpmath.fsum(s) / len(s) for v in s] for s in (x, y))
        sxy, sxx, syy = (mpmath.fsum(map(mpmath.fmul, u, w)) for u, w in ((dx, dy), (dx, dx), (dy, dy)))
        return mpmath, sxy / mpmath.sqrt(sxx * syy)
    t = [[[mpmath.mpf(v) for v in row] for row in plane] for plane in files["t.json"]["tensor"]]
    mass = mpmath.fsum(v for plane in t for row in plane for v in row)
    cells = {(x, y, z): v / mass for x, plane in enumerate(t) for y, row in enumerate(plane)
             for z, v in enumerate(row)}

    def h(*axes):
        marginal = {}
        for key, v in cells.items():
            kept = tuple(key[a] for a in axes)
            marginal[kept] = marginal.get(kept, 0) + v
        return -mpmath.fsum(p * mpmath.log(p, 2) for p in marginal.values() if p > 0)

    return mpmath, h(0, 2) + h(1, 2) - h(0, 1, 2) - h(2)


@pytest.mark.parametrize("metric_id", sorted(REPLACED))
def test_rerecorded_value_is_no_further_from_the_reference(golden, metric_id):
    mpmath, reference = mp_reference(metric_id)
    value = json.loads(golden[f"{metric_id}/json"]["stdout"])["value"]
    value = value["raw"] if isinstance(value, dict) else value
    assert abs(mpmath.mpf(value) - reference) <= abs(mpmath.mpf(REPLACED[metric_id]) - reference)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
