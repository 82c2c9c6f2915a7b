"""``compute`` keeps the value it loaded last and hands it out again for the
same bytes; these tests check that a kept value is never stale, and that no
metric changes the value it is handed."""

import importlib
import json
import os
import sys
import threading

import pytest
from click.testing import CliRunner

from privmetrics import compute, core
from privmetrics.cli import main
from privmetrics.errors import SchemaError

from conftest import all_fixture_ids, load_fixture, materialize_fixture

PARSER_MODULES = ("privmetrics.adversary", "privmetrics.indist", "privmetrics.infogain",
                  "privmetrics.tabular")
SIDECAR = {"roles": {"zip": "quasi-identifier", "disease": "sensitive"}, "kinds": {"age": "numeric"}}


@pytest.mark.parametrize("metric_id", all_fixture_ids())
def test_fixture_twice_gives_the_same_bytes(metric_id, tmp_path, monkeypatch):
    loaded = []  # (parser, its arguments, the value it returned)
    for module in (core, *map(importlib.import_module, PARSER_MODULES)):
        for name, parse in list(vars(module).items()):
            if name.startswith("parse_") and parse.__module__ == module.__name__:
                def recording(*args, parse=parse):
                    value = parse(*args)
                    loaded.append((parse, args, value))
                    return value
                monkeypatch.setattr(module, name, recording)
    runner = CliRunner()
    args = materialize_fixture(load_fixture(metric_id), tmp_path)
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert (second.exit_code, second.stdout) == (first.exit_code, first.stdout)
    for parse, parse_args, value in loaded:  # no metric changed an input it was given
        assert value == parse(*parse_args)


def _table(path, rows):
    path.write_text("zip,age,disease\n" + "".join(f"{z},{a},{d}\n" for z, a, d in rows))
    return path


def _k(table, sidecar):
    return compute.compute("k_anonymity", [str(table)], str(sidecar)).value


def test_rewrite_with_same_size_and_mtime_is_read_again(tmp_path):
    sidecar = tmp_path / "schema.json"
    sidecar.write_text(json.dumps(SIDECAR))
    table = _table(tmp_path / "t.csv", [("a", 1, "x"), ("a", 2, "y"), ("b", 3, "x"), ("b", 4, "y")])
    assert _k(table, sidecar) == 2
    stat = os.stat(table)
    size = stat.st_size
    _table(table, [("a", 1, "x"), ("a", 2, "y"), ("b", 3, "x"), ("c", 4, "y")])
    os.utime(table, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(table).st_size == size
    assert os.stat(table).st_mtime_ns == stat.st_mtime_ns
    assert _k(table, sidecar) == 1


def test_changed_sidecar_is_part_of_the_key(tmp_path):
    sidecar = tmp_path / "schema.json"
    sidecar.write_text(json.dumps(SIDECAR))
    table = _table(tmp_path / "t.csv", [("a", 1, "x"), ("a", 2, "y"), ("b", 3, "x"), ("b", 3, "y")])
    assert _k(table, sidecar) == 2
    sidecar.write_text(json.dumps({**SIDECAR, "roles": {**SIDECAR["roles"], "age": "quasi-identifier"}}))
    assert _k(table, sidecar) == 1


def test_malformed_file_after_a_good_one_still_raises(tmp_path):
    sidecar = tmp_path / "schema.json"
    sidecar.write_text(json.dumps(SIDECAR))
    good = _table(tmp_path / "good.csv", [("a", 1, "x"), ("a", 2, "y")])
    bad = _table(tmp_path / "bad.csv", [("a", 1, "x"), ("a", "?", "y")])
    assert _k(good, sidecar) == 2
    with pytest.raises(SchemaError, match="not a number"):
        _k(bad, sidecar)
    assert _k(good, sidecar) == 2


def test_threads_alternating_two_tables(tmp_path):
    """More threads than cores, switching often, each alternating two tables."""
    sidecar = tmp_path / "schema.json"
    sidecar.write_text(json.dumps(SIDECAR))
    tables = {
        _table(tmp_path / "k2.csv", [(f"z{i // 2}", i, "x") for i in range(2000)]): 2,
        _table(tmp_path / "k5.csv", [(f"z{i // 5}", i, "y") for i in range(2000)]): 5,
    }
    start = threading.Barrier(4)
    wrong = []

    def run(order):
        start.wait()
        for _ in range(50):
            for table in order:
                k = _k(table, sidecar)
                if k != tables[table]:
                    wrong.append((table.name, k))

    threads = [threading.Thread(target=run, args=(order,))
               for order in (list(tables), list(tables)[::-1]) * 2]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
