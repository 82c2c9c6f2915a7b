import json
import math
import random
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="session")
def catalog_reference():
    """Frozen, hand-maintained copy of each metric's declared metadata."""
    return json.loads((DATA / "catalog_reference.json").read_text())


@pytest.fixture(scope="session")
def metric_value_schema():
    return json.loads((REPO / "schemas" / "metric_value.schema.json").read_text())


def load_fixture(metric_id: str) -> dict:
    return json.loads((FIXTURES / f"{metric_id}.json").read_text())


def all_fixture_ids():
    return sorted(p.stem for p in FIXTURES.glob("*.json"))


def materialize_fixture(fixture: dict, directory: Path) -> list:
    """Write a fixture's inline files to disk; return CLI args."""
    for name, content in fixture["files"].items():
        text = content if isinstance(content, str) else json.dumps(content)
        (directory / name).write_text(text)
    args = ["compute", fixture["metric"], "--format", "json"]
    for name in fixture["in"]:
        args += ["--in", str(directory / name)]
    if fixture["schema"]:
        args += ["--schema", str(directory / fixture["schema"])]
    for key, value in fixture["params"].items():
        args += ["--param", f"{key}={value}"]
    return args


def values_close(actual, expected, tol):
    """Structural comparison with absolute tolerance on floats."""
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and set(actual) == set(expected)
            and all(values_close(actual[k], expected[k], tol) for k in expected)
        )
    if isinstance(expected, list):
        return (
            isinstance(actual, list)
            and len(actual) == len(expected)
            and all(values_close(a, e, tol) for a, e in zip(actual, expected))
        )
    if isinstance(expected, bool) or isinstance(actual, bool):
        return actual == expected
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        return abs(actual - expected) <= tol
    return actual == expected


def large_rows(n=130, seed=7):
    """n rows of n masses, each divided by its exact sum: at n = 128 or more,
    n * n reaches ``core._ARRAY_CELLS``, so a mechanism's mass check takes numpy."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        weights = [rng.random() + 0.05 for _ in range(n)]
        total = math.fsum(weights)
        rows.append([w / total for w in weights])
    return rows
