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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
