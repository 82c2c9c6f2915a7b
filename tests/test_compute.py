"""``compute`` keeps the inputs the last call handed out and hands them out
again for the same bytes; these tests check that a kept value is never
stale, that no metric changes the value it is handed, that a kept input of a
kind the next call does not take, or of the kind it is about to parse, is
dropped before that parse, and that a kept table is shared, with the
grouping its last re-tag got, by sidecars that differ only in roles."""

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


def _sidecar(path, roles, kinds=SIDECAR["kinds"]):
    path.write_text(json.dumps({"roles": roles, "kinds": kinds}))
    return path


def test_sidecars_that_differ_in_roles_share_one_parse_and_one_grouping(tmp_path, monkeypatch):
    monkeypatch.setattr(compute, "_kept", ())
    calls = []
    _counting(monkeypatch, core, "parse_table", calls)
    _counting(monkeypatch, core, "_group_by_quasi_identifiers", calls)
    table = _table(tmp_path / "t.csv", [("a", 1, "x"), ("a", 2, "y"), ("b", 3, "x"), ("b", 5, "y")])
    categorical = _sidecar(tmp_path / "c.json", SIDECAR["roles"])
    numeric = _sidecar(tmp_path / "n.json", {"zip": "quasi-identifier", "age": "sensitive"})
    assert _k(table, categorical) == 2
    ke = compute.compute("ke_anonymity", [str(table)], str(numeric)).value
    assert ke == {"k": 2, "e": 1.0}
    assert calls == ["parse_table", "_group_by_quasi_identifiers"]
    fresh = core.parse_table(table.read_text(), json.loads(numeric.read_text()))
    assert ke == compute._function(compute._SPECS["ke_anonymity"].call)(fresh)


def test_a_kept_table_under_its_own_roles_is_handed_out_itself(tmp_path, monkeypatch):
    monkeypatch.setattr(compute, "_kept", ())
    table = _table(tmp_path / "t.csv", [("a", 1, "x"), ("a", 2, "y")])
    sidecar = _sidecar(tmp_path / "s.json", SIDECAR["roles"])
    (first,) = compute._load_inputs(compute._SPECS["k_anonymity"], [str(table)], str(sidecar))
    (second,) = compute._load_inputs(compute._SPECS["l_diversity"], [str(table)], str(sidecar))
    assert second is first
    classes = core.equivalence_classes(first)
    other = _sidecar(tmp_path / "o.json", {"zip": "quasi-identifier", "age": "sensitive"})
    (retagged,) = compute._load_inputs(compute._SPECS["ke_anonymity"], [str(table)], str(other))
    assert retagged.cells is first.cells
    assert core.equivalence_classes(retagged) is classes


def test_other_kinds_parse_again_and_other_quasi_identifiers_group_again(tmp_path, monkeypatch):
    monkeypatch.setattr(compute, "_kept", ())
    calls = []
    _counting(monkeypatch, core, "parse_table", calls)
    _counting(monkeypatch, core, "_group_by_quasi_identifiers", calls)
    table = _table(tmp_path / "t.csv", [("a", 1, "x"), ("a", 2, "y"), ("b", 3, "x"), ("b", 3, "y")])
    assert _k(table, _sidecar(tmp_path / "s.json", SIDECAR["roles"])) == 2
    assert _k(table, _sidecar(tmp_path / "k.json", SIDECAR["roles"], kinds={})) == 2
    assert calls == ["parse_table", "_group_by_quasi_identifiers"] * 2
    both = _sidecar(tmp_path / "q.json", {**SIDECAR["roles"], "age": "quasi-identifier"}, kinds={})
    assert _k(table, both) == 1
    assert calls[4:] == ["_group_by_quasi_identifiers"]


def test_a_re_tag_is_kept_with_its_grouping(tmp_path, monkeypatch):
    monkeypatch.setattr(compute, "_kept", ())
    calls = []
    _counting(monkeypatch, core, "parse_table", calls)
    _counting(monkeypatch, core, "_group_by_quasi_identifiers", calls)
    table = _table(tmp_path / "t.csv", [("a", 1, "x"), ("a", 2, "y"), ("b", 3, "x"), ("b", 5, "y")])
    zip_qi = {"zip": "quasi-identifier"}
    xy = compute.compute("xy_privacy", [str(table)], str(_sidecar(tmp_path / "xy.json", {})),
                         {"x_cols": '["zip"]', "y_cols": '["disease"]'}).value
    assert xy == 0.5
    assert _k(table, _sidecar(tmp_path / "k.json", zip_qi)) == 2
    for metric, sensitive, value in (("l_diversity", "disease", 2.0),
                                     ("ke_anonymity", "age", {"k": 2, "e": 1.0})):
        sidecar = _sidecar(tmp_path / f"{metric}.json", {**zip_qi, sensitive: "sensitive"})
        assert compute.compute(metric, [str(table)], str(sidecar)).value == value
    assert calls == ["parse_table", "_group_by_quasi_identifiers"]


@pytest.mark.parametrize("roles", [
    {"zip": "quasi-identifier", "nosuch": "sensitive"},
    {"zip": "quasi-identifier", "disease": "secret"},
    {"zip": "quasi-identifier", "disease": 5},
    {"nosuch": "quasi-identifier", "disease": "secret"},
    {"disease": "secret", "zip": "nosuch"},
], ids=["unknown-column", "unknown-role", "non-string-role", "column-before-role", "header-order"])
def test_a_role_fault_on_a_kept_table_is_the_fault_of_a_fresh_parse(roles, tmp_path, monkeypatch):
    table = _table(tmp_path / "t.csv", [("a", 1, "x"), ("a", 2, "y")])
    args = ["compute", "k_anonymity", "--in", str(table), "--schema",
            str(_sidecar(tmp_path / "bad.json", roles))]
    runner = CliRunner()
    monkeypatch.setattr(compute, "_kept", ())
    fresh = runner.invoke(main, args)
    assert _k(table, _sidecar(tmp_path / "good.json", SIDECAR["roles"])) == 2
    kept = runner.invoke(main, args)
    assert fresh.exit_code == kept.exit_code == 2
    assert kept.stdout == fresh.stdout and "E_SCHEMA" in fresh.stdout


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


def test_a_file_both_mechanisms_share_is_parsed_once(tmp_path, monkeypatch):
    from privmetrics import indist
    monkeypatch.setattr(compute, "_kept", ())
    calls = []
    _counting(monkeypatch, indist, "parse_neighbor_relation", calls)
    m1, neighbors = _dp_files(tmp_path)
    m2 = str(_mechanism(tmp_path / "m2.json", [[0.5, 0.5], [0.5, 0.5], [0.25, 0.75]]))
    for mechanism in (m1, m2, m1):
        compute.compute("differential_privacy", [mechanism, neighbors])
    assert calls == ["parse_neighbor_relation"]


def test_a_new_mechanism_parses_after_the_kept_one_is_dropped(tmp_path, monkeypatch):
    """The kept value of a kind is dropped before a file of that kind parses,
    while a kept file of another kind that the call uses again is kept."""
    from privmetrics import indist
    monkeypatch.setattr(compute, "_kept", ())
    calls, kept, alive_at_parse = [], [], []
    _counting(monkeypatch, indist, "parse_neighbor_relation", calls)
    parse_mechanism = core.parse_mechanism

    def parse_and_watch(text):
        alive_at_parse.append([mechanism() is not None for mechanism in kept])
        mechanism = parse_mechanism(text)
        kept.append(weakref.ref(mechanism))
        return mechanism
    monkeypatch.setattr(core, "parse_mechanism", parse_and_watch)
    m1, neighbors = _dp_files(tmp_path)
    m2 = str(_mechanism(tmp_path / "m2.json", [[0.5, 0.5], [0.5, 0.5], [0.25, 0.75]]))
    compute.compute("differential_privacy", [m1, neighbors])
    assert kept[0]() is not None  # kept between the calls
    compute.compute("differential_privacy", [m2, neighbors])
    assert alive_at_parse == [[], [False]]
    assert calls == ["parse_neighbor_relation"]


def test_a_file_given_twice_in_one_call_is_parsed_once(tmp_path, monkeypatch):
    monkeypatch.setattr(compute, "_kept", ())
    calls = []
    _counting(monkeypatch, core, "parse_distribution", calls)
    _counting(monkeypatch, core, "parse_mechanism", calls)
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"labels": ["a", "b"], "probs": [0.25, 0.75]}))
    assert compute.compute("relative_entropy", [str(p), str(p)]).value == 0.0
    assert calls == ["parse_distribution"]
    m1, _ = _dp_files(tmp_path)
    m2 = str(_mechanism(tmp_path / "m2.json", [[0.5, 0.5], [0.5, 0.5], [0.25, 0.75]]))
    compute.compute("loss_of_anonymity", [m1, m2, m1], params={"p_z": "[0.25, 0.25, 0.5]"})
    assert calls[1:] == ["parse_mechanism"] * 2


def test_a_malformed_first_file_is_reported_before_a_missing_second_one(tmp_path):
    (tmp_path / "m.json").write_text("{broken")
    with pytest.raises(SchemaError, match="malformed"):
        compute.compute("differential_privacy", [str(tmp_path / "m.json"), str(tmp_path / "no.json")])
    m, _ = _dp_files(tmp_path)
    with pytest.raises(SchemaError, match="cannot read"):
        compute.compute("differential_privacy", [m, str(tmp_path / "no.json")])


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


def test_threads_alternating_two_role_sidecars_over_one_table(tmp_path):
    table = _table(tmp_path / "t.csv", [(f"z{i // 4}", i // 2, "x") for i in range(2000)])
    by_zip = _sidecar(tmp_path / "zip.json", SIDECAR["roles"])
    by_zip_and_age = _sidecar(tmp_path / "both.json", {**SIDECAR["roles"], "age": "quasi-identifier"})
    _run_alternating({lambda: _k(table, by_zip): 4, lambda: _k(table, by_zip_and_age): 2})
