"""Each metric spec names its library call, and that call is the metric's own function.

A spec in ``compute._SPECS`` is ``_spec("module.function", ...)``: the call
takes the spec's loaded inputs and then its parameters. The test reads the
syntax trees of ``src/privmetrics/`` and fails, naming the metric, on a spec
whose call is not a string literal (a lambda or an adapter in ``compute``),
and on a string that does not name a function defined in that module (an
imported name re-exported by the module does not count).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "privmetrics"
_CALL = re.compile(r"(\w+)\.(\w+)")


def _functions(module: str) -> set[str]:
    path = PACKAGE / f"{module}.py"
    if not path.is_file():
        return set()
    tree = ast.parse(path.read_text(), str(path))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def _specs() -> list[tuple[str, ast.expr | None]]:
    """(metric id, first argument of its ``_spec`` call) for every entry of ``_SPECS``."""
    tree = ast.parse((PACKAGE / "compute.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "_SPECS":
            table = node.value
            break
    else:
        raise AssertionError("compute.py assigns no _SPECS")
    assert isinstance(table, ast.Dict)
    out = []
    for key, value in zip(table.keys, table.values):
        is_spec = isinstance(value, ast.Call) and getattr(value.func, "id", None) == "_spec"
        out.append((key.value, value.args[0] if is_spec and value.args else None))
    return out


def test_every_spec_names_a_function_of_its_module():
    faults = []
    for metric_id, call in _specs():
        if not (isinstance(call, ast.Constant) and isinstance(call.value, str)):
            faults.append(f"{metric_id}: the call is not a \"module.function\" string literal")
            continue
        match = _CALL.fullmatch(call.value)
        if match is None:
            faults.append(f"{metric_id}: {call.value!r} is not \"module.function\"")
        elif match[2] not in _functions(match[1]):
            faults.append(f"{metric_id}: {call.value!r} names no function defined in {match[1]}")
    assert not faults, "\n".join(faults)


def test_the_gate_reads_every_spec():
    from privmetrics import compute

    assert [metric_id for metric_id, _ in _specs()] == list(compute._SPECS)

