"""``compute`` keeps the inputs the last call loaded and hands them out again
for the same bytes; these tests check that a kept value is never stale, that
no metric changes the value it is handed, and that an input the next call
does not use is dropped before that call parses."""

import importlib
import json
import os
import sys
import threading
import weakref

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


def _mechanism(path, rows):
    path.write_text(json.dumps({"inputs": [f"d{i}" for i in range(len(rows))],
                                "outputs": [f"o{j}" for j in range(len(rows[0]))],
                                "matrix": rows}))
    return path


def _dp_files(tmp_path):
    mechanism = _mechanism(tmp_path / "m.json", [[0.5, 0.5], [0.25, 0.75], [0.5, 0.5]])
    neighbors = tmp_path / "n.json"
    neighbors.write_text(json.dumps({"pairs": [["d0", "d1"], ["d1", "d2"]]}))
    return [str(mechanism), str(neighbors)]


def _counting(monkeypatch, module, name, calls):
    parse = getattr(module, name)

    def counted(*args):
        calls.append(name)
        return parse(*args)
    monkeypatch.setattr(module, name, counted)


def test_dp_then_adp_parse_each_file_once(tmp_path, monkeypatch):
    from privmetrics import indist
    monkeypatch.setattr(compute, "_kept", ())  # nothing kept from an earlier test
    calls = []
    _counting(monkeypatch, core, "parse_mechanism", calls)
    _counting(monkeypatch, indist, "parse_neighbor_relation", calls)
    files = _dp_files(tmp_path)
    dp = compute.compute("differential_privacy", files).value
    adp = compute.compute("approximate_differential_privacy", files, params={"eps": "0.1"}).value
    assert sorted(calls) == ["parse_mechanism", "parse_neighbor_relation"]
    assert dp == compute.compute("differential_privacy", files).value
    assert adp == compute.compute("approximate_differential_privacy", files,
                                  params={"eps": "0.1"}).value
    assert len(calls) == 2


def test_an_input_the_next_call_does_not_use_is_dropped_before_it_parses(tmp_path,
                                                                          monkeypatch):
    from privmetrics import infogain
    monkeypatch.setattr(compute, "_kept", ())
    kept = []
    parse_mechanism = core.parse_mechanism

    def parse_and_watch(text):
        mechanism = parse_mechanism(text)
        kept.append(weakref.ref(mechanism))
        return mechanism
    monkeypatch.setattr(core, "parse_mechanism", parse_and_watch)
    compute.compute("differential_privacy", _dp_files(tmp_path))
    assert kept[0]() is not None  # kept between the calls

    alive_at_parse = []
    parse_adjacency = infogain.parse_adjacency

    def parse_after_check(text):
        alive_at_parse.append(kept[0]() is not None)
        return parse_adjacency(text)
    monkeypatch.setattr(infogain, "parse_adjacency", parse_after_check)
    adjacency = tmp_path / "a.json"
    adjacency.write_text(json.dumps({"n": 2, "bits": [[1, 1], [1, 1]]}))
    assert compute.compute("system_anonymity_level", [str(adjacency)]).value == 1.0
    assert alive_at_parse == [False]


def _run_alternating(calls):
    """More threads than cores, switching often, each alternating the calls
    ``calls`` maps to their expected values."""
    start = threading.Barrier(4)
    wrong = []

    def run(order):
        start.wait()
        for _ in range(50):
            for call in order:
                value = call()
                if value != calls[call]:
                    wrong.append((calls[call], value))

    threads = [threading.Thread(target=run, args=(order,))
               for order in (list(calls), list(calls)[::-1]) * 2]
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


def test_threads_alternating_two_tables(tmp_path):
    sidecar = tmp_path / "schema.json"
    sidecar.write_text(json.dumps(SIDECAR))
    k2 = _table(tmp_path / "k2.csv", [(f"z{i // 2}", i, "x") for i in range(2000)])
    k5 = _table(tmp_path / "k5.csv", [(f"z{i // 5}", i, "y") for i in range(2000)])
    _run_alternating({lambda: _k(k2, sidecar): 2, lambda: _k(k5, sidecar): 5})


def test_threads_alternating_two_mechanisms_with_one_neighbour_file(tmp_path):
    """Each call keeps two inputs, one of them the same file for both mechanisms."""
    n = 60
    neighbors = tmp_path / "n.json"
    neighbors.write_text(json.dumps({"pairs": [[f"d{i}", f"d{i + 1}"] for i in range(n - 1)]}))
    calls = {}
    for name, spread in (("flat.json", 0), ("steep.json", 1)):
        rows = [[(1 + spread * i * j) / sum(1 + spread * i * k for k in range(n)) for j in range(n)]
                for i in range(n)]
        files = [str(_mechanism(tmp_path / name, rows)), str(neighbors)]
        expected = compute.compute("differential_privacy", files).value["eps_eff"]
        calls[lambda files=files: compute.compute("differential_privacy", files).value["eps_eff"]] = expected
    assert sorted(calls.values())[0] == 0.0 < sorted(calls.values())[1]
    _run_alternating(calls)
