"""Mutation sampling: would the tests see a formula change in a module?

Each mutant swaps one comparison (``<`` and ``<=``, ``==`` and ``!=``, ``is``
and ``is not``, ...), arithmetic (``+`` and ``-``, ``*`` and ``/``, also in
``+=``) or boolean (``and`` and ``or``) operator of one module of
``src/privmetrics/``. The runner copies the repository into a temporary
directory once, writes each mutant over the module in that copy, and runs the
module's tests there; the checkout itself is never edited. A mutant that no
test fails on survives and is reported, with the line it changed. Usage::

    python tests/mutants.py compute --sample 40 --seed 0

It uses the standard library and pytest only, and is not part of the test
suite (pytest does not collect it).
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
    ast.Mod: "%", ast.Pow: "**", ast.And: "and", ast.Or: "or",
}

# The tests that exercise each module, its own first; every module's
# mutants also run the tests that go through the CLI.
OWN_TESTS = {
    "core": ["test_core.py", "test_compute.py", "test_exactness.py", "test_tabular.py"],
    "compute": ["test_compute.py", "test_specs.py", "test_domains.py", "test_fuzz.py",
                "test_registry.py"],
    "ranges": ["test_domains.py", "test_fuzz.py"],
    "registry": ["test_registry.py"],
    "uncertainty": ["test_uncertainty.py", "test_exactness.py", "test_numpy_oracles.py"],
    "infogain": ["test_infogain.py", "test_exactness.py", "test_numpy_oracles.py"],
    "tabular": ["test_tabular.py", "test_exactness.py", "test_numpy_oracles.py"],
    "indist": ["test_indist.py", "test_exactness.py"],
    "adversary": ["test_adversary.py", "test_exactness.py", "test_numpy_oracles.py"],
    "cli": [],
}
CLI_TESTS = ["test_golden.py", "test_golden_describe.py", "test_cli.py", "test_acceptance.py"]


def _sites(tree: ast.AST) -> list[tuple[int, int]]:
    """(node number in ``ast.walk`` order, operator index) of each operator
    that ``SWAPS`` can replace."""
    sites = []
    for number, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            sites += [(number, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)):
            if type(node.op) in SWAPS:
                sites.append((number, 0))
    return sites


def mutate(source: str, site: tuple[int, int]) -> tuple[str, str]:
    """The module's source with the operator at ``site`` swapped, and a line
    that says where and what."""
    tree = ast.parse(source)
    number, index = site
    node = next(n for i, n in enumerate(ast.walk(tree)) if i == number)
    ops = node.ops if isinstance(node, ast.Compare) else None
    old = ops[index] if ops else node.op
    new = SWAPS[type(old)]()
    if ops:
        ops[index] = new
    else:
        node.op = new
    where = f"line {node.lineno}: {SYMBOLS[type(old)]} -> {SYMBOLS[type(new)]}"
    return ast.unparse(tree) + "\n", f"{where}  | {source.splitlines()[node.lineno - 1].strip()}"


def run_tests(copy: Path, tests: list[str], timeout: float) -> bool:
    """Whether the tests pass in the copy. Its ``src`` comes first on the
    path through pyproject's ``pythonpath``; no bytecode is written, so a
    mutant never runs from a stale cache."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               *(f"tests/{t}" for t in tests)]
    try:
        done = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False  # a mutant that hangs the tests is seen
    return done.returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", choices=sorted(OWN_TESTS))
    parser.add_argument("--sample", type=int, default=40, help="mutants to run (default 40)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=600, help="seconds per mutant")
    args = parser.parse_args()

    source = (REPO / "src" / "privmetrics" / f"{args.module}.py").read_text()
    sites = _sites(ast.parse(source))
    sample = sorted(random.Random(args.seed).sample(sites, min(args.sample, len(sites))))
    tests = list(dict.fromkeys(OWN_TESTS[args.module] + CLI_TESTS))
    print(f"{args.module}: {len(sample)} of {len(sites)} mutants, seed {args.seed}")
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        for part in ("src", "tests", "fixtures", "schemas"):
            shutil.copytree(REPO / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        shutil.copy(REPO / "pyproject.toml", copy)
        target = copy / "src" / "privmetrics" / f"{args.module}.py"
        target.write_text(ast.unparse(ast.parse(source)) + "\n")  # as a mutant is written
        if not run_tests(copy, tests, args.timeout):
            print("the unmutated, re-written module fails its tests; no mutant was run")
            return 2
        survivors = []
        for site in sample:
            mutant, where = mutate(source, site)
            target.write_text(mutant)
            killed = not run_tests(copy, tests, args.timeout)
            print(("killed   " if killed else "SURVIVED ") + where, flush=True)
            survivors += [] if killed else [where]
    print(f"{len(survivors)} of {len(sample)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
