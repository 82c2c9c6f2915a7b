"""Output-identity gate for what the CLI says about each metric's inputs.

``data/golden_describe.json`` holds, for every catalog id, the exact stdout
and exit code of ``privmetrics describe <id>`` in text and in json format,
and of ``privmetrics compute <id> --param nosuch=1``. Together they pin the
``expects:`` line and the unknown-parameter message of every metric. A
change that alters one on purpose re-records the file and says why::

    PYTHONPATH=src python tests/test_golden_describe.py
"""

import json

import pytest
from click.testing import CliRunner

from privmetrics import registry
from privmetrics.cli import main

from conftest import DATA

GOLDEN = DATA / "golden_describe.json"
IDS = [d.id for d in registry.DESCRIPTORS]
COMMANDS = {
    "describe/text": lambda metric_id: ["describe", metric_id, "--format", "text"],
    "describe/json": lambda metric_id: ["describe", metric_id, "--format", "json"],
    "compute/nosuch": lambda metric_id: ["compute", metric_id, "--param", "nosuch=1"],
}


def run(metric_id: str, command: str) -> dict:
    result = CliRunner().invoke(main, COMMANDS[command](metric_id))
    return {"exit_code": result.exit_code, "stdout": result.stdout}


def record() -> dict:
    return {f"{m}/{c}": run(m, c) for m in IDS for c in COMMANDS}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_catalog_id(golden):
    assert len(IDS) == 79
    assert sorted(golden) == sorted(f"{m}/{c}" for m in IDS for c in COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("metric_id", IDS)
def test_describe_output_unchanged(golden, metric_id, command):
    assert run(metric_id, command) == golden[f"{metric_id}/{command}"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
