import csv
import json
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privmetrics import core
from privmetrics.core import (
    Column,
    DataTable,
    DiscreteDistribution,
    FiniteMechanism,
    JointDistribution,
    MetricValue,
    Region,
    Trace,
    equivalence_classes,
    parse_distribution,
    parse_joint,
    parse_mechanism,
    parse_region,
    parse_table,
    parse_trace,
)
from privmetrics.errors import (
    DistributionError,
    EmptyError,
    MetricError,
    ParamError,
    SchemaError,
    ShapeError,
)

from conftest import REPO, large_rows


class TestParseDistribution:
    def test_two_outcome_uniform(self):
        d = parse_distribution('{"labels":["a","b"],"probs":[0.5,0.5]}')
        assert d.labels == ("a", "b")
        assert d.probs == (0.5, 0.5)

    def test_bad_sum_rejected(self):
        with pytest.raises(DistributionError):
            parse_distribution('{"labels":["a","b"],"probs":[0.7,0.4]}')

    def test_point_mass(self):
        d = parse_distribution('{"labels":["x"],"probs":[1.0]}')
        assert d.probs == (1.0,)

    def test_negative_prob(self):
        with pytest.raises(DistributionError):
            parse_distribution('{"labels":["a","b"],"probs":[1.5,-0.5]}')

    def test_malformed_json(self):
        with pytest.raises(SchemaError):
            parse_distribution("{nope")

    def test_wrong_keys(self):
        with pytest.raises(SchemaError):
            parse_distribution('{"labels":["a"],"weights":[1]}')

    def test_duplicate_labels(self):
        with pytest.raises(SchemaError):
            parse_distribution('{"labels":["a","a"],"probs":[0.5,0.5]}')

    def test_length_mismatch(self):
        with pytest.raises(SchemaError):
            parse_distribution('{"labels":["a","b"],"probs":[1.0]}')

    @pytest.mark.parametrize("probs", ["1.0", '"1"', '{"a": 1.0}', "[[1.0]]", "[1, true]"])
    def test_probs_not_an_array_of_numbers(self, probs):
        with pytest.raises(SchemaError, match="probs: expected"):
            parse_distribution(f'{{"labels":["a"],"probs":{probs}}}')

    @pytest.mark.parametrize("probs, floats", [("[1]", (1.0,)), ("[0.25, 3e-1, 0.45]", (0.25, 0.3, 0.45)),
                                               ("[0, 1.0]", (0.0, 1.0))])
    def test_probs_are_floats(self, probs, floats):
        d = parse_distribution(f'{{"labels":{list("abc"[:len(floats)])},"probs":{probs}}}'.replace("'", '"'))
        assert d.probs == floats and set(map(type, d.probs)) == {float}

    def test_renormalizes_within_tolerance(self):
        eps = 4e-10
        d = DiscreteDistribution(("a", "b"), (0.5 + eps, 0.5))
        assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_beyond_tolerance(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution(("a", "b"), (0.5 + 1e-8, 0.5))

    @pytest.mark.parametrize("x_labels, y_labels, matrix", [((), ("y",), ()), (("x",), (), ((),))])
    def test_joint_needs_both_alphabets(self, x_labels, y_labels, matrix):
        # one empty alphabet is a schema fault, not a joint whose mass sums to 0
        with pytest.raises(SchemaError, match="non-empty alphabets"):
            JointDistribution(x_labels, y_labels, matrix)

    @pytest.mark.parametrize("x_labels, y_labels", [(("a", "a"), ("b",)), (("a",), ("b", "b"))])
    def test_joint_labels_distinct_on_each_side(self, x_labels, y_labels):
        matrix = tuple((1.0 / (len(x_labels) * len(y_labels)),) * len(y_labels) for _ in x_labels)
        with pytest.raises(SchemaError, match="labels must be distinct"):
            JointDistribution(x_labels, y_labels, matrix)


class TestRoundTrips:
    """Parsing the JSON of a value's fields gives back an equal value."""

    def test_distribution(self):
        d = DiscreteDistribution(("a", "b", "c"), (0.5, 0.25, 0.25))
        assert parse_distribution(json.dumps({"labels": d.labels, "probs": d.probs})) == d

    def test_joint(self):
        j = JointDistribution(("x0", "x1"), ("y0",), ((0.25,), (0.75,)))
        text = json.dumps({"x_labels": j.x_labels, "y_labels": j.y_labels, "matrix": j.matrix})
        assert parse_joint(text) == j

    def test_mechanism(self):
        m = FiniteMechanism(("a", "b"), ("0", "1"), ((0.75, 0.25), (0.25, 0.75)))
        text = json.dumps({"inputs": m.inputs, "outputs": m.outputs, "matrix": m.matrix})
        assert parse_mechanism(text) == m

    def test_mechanism_row_lookup(self):
        matrix = [[0.75, 0.25], [0.25, 0.75]]
        text = json.dumps({"inputs": ["a", "b"], "outputs": [0, 1], "matrix": matrix})
        m = parse_mechanism(text)
        assert m.row_for("b") is m.matrix[1]
        assert m == parse_mechanism(text)
        with pytest.raises(SchemaError):
            m.row_for("c")

    def test_trace(self):
        trace = Trace(((0.0, 1.0), (1.5, 3.0)))
        text = json.dumps({"samples": [{"t": t, "v": v} for t, v in trace.samples]})
        assert parse_trace(text) == trace

    def test_region(self):
        rect = Region(rect=(0.0, 0.5, 2.0, 3.0))
        assert parse_region(json.dumps({"rect": rect.rect})) == rect
        cells = Region(cells=frozenset({(0, 0), (2, 1)}))
        assert parse_region(json.dumps({"cells": sorted(cells.cells)})) == cells

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_distribution_roundtrip_random(self, weights):
        total = sum(weights)
        labels = tuple(map(str, range(len(weights))))
        d = DiscreteDistribution(labels, tuple(w / total for w in weights))
        assert parse_distribution(json.dumps({"labels": d.labels, "probs": d.probs})) == d


@pytest.mark.parametrize(
    "inputs, outputs, matrix, error",
    [
        (("a", "b"), ("0", "1"), ((0.5, 0.5), (1.0,)), SchemaError),  # a row of the wrong width
        (("a",), (), ((),), SchemaError),  # no outputs
        (("a",), ("0", "0"), ((0.5, 0.5),), SchemaError),  # repeated outputs
        (("a",), ("0", "1"), ((0.5, 0.6),), DistributionError),
        ((), ("0",), ((1.0,),), SchemaError),  # no inputs
        (("a", "a"), ("0",), ((1.0,), (1.0,)), SchemaError),
        (("a", "b"), ("0",), ((1.0,),), ShapeError),  # one row for two inputs
        (("a", "b"), ("0",), ((2.0,),), DistributionError),  # the first fault is reported
        (("a",), (), (), ShapeError),
    ],
)
def test_mechanism_reports_its_first_fault(inputs, outputs, matrix, error):
    with pytest.raises(error):
        FiniteMechanism(inputs, outputs, matrix)


class TestMechanismArrayCheck:
    """From ``core._ARRAY_CELLS`` matrix cells on, a mechanism's rows are
    checked as one numpy array first; wherever that check fails, the row loop
    decides, so the rows and the first fault are the loop's."""

    IDS = tuple(f"x{i}" for i in range(130))

    def both(self, monkeypatch, matrix, inputs=IDS, outputs=IDS):
        """The mechanism, or the fault, at the default cut-off and with the row loop forced."""
        results = []
        for cells in (core._ARRAY_CELLS, 1 << 62):
            monkeypatch.setattr(core, "_ARRAY_CELLS", cells)
            try:
                results.append(FiniteMechanism(inputs, outputs, matrix))
            except Exception as exc:
                results.append((type(exc), str(exc)))
        return results

    def test_rows_are_kept_and_the_array_made_once(self, monkeypatch):
        rows = large_rows()
        rows[5][:] = [0.0] * 129 + [1.0]  # entries at both ends of [0, 1]
        rows = tuple(map(tuple, rows))
        assert len(rows) * len(rows[0]) >= core._ARRAY_CELLS
        fast, loop = self.both(monkeypatch, rows)
        assert fast.matrix == loop.matrix == rows
        assert "_array" in vars(fast) and "_array" not in vars(loop)
        assert fast._array.tobytes() == np.array(rows).tobytes()

    @pytest.mark.parametrize("n_in, checked", [(128, True), (127, False)])
    def test_cut_off(self, monkeypatch, n_in, checked):
        # 128 x 128 is 2**14 cells, the first size the array check takes
        rows = tuple(map(tuple, large_rows(128)))[:n_in]
        ids = tuple(f"x{i}" for i in range(128))
        fast, loop = self.both(monkeypatch, rows, ids[:n_in], ids)
        assert fast.matrix == loop.matrix == rows
        assert ("_array" in vars(fast)) == checked

    @pytest.mark.parametrize("off, checked", [(1e-10, False), (7e-13, False), (5.1e-13, False),
                                              (4e-13, True), (-4e-13, True), (-5.1e-13, False),
                                              (-7e-13, False), (-1e-10, False)])
    def test_a_row_off_one(self, monkeypatch, off, checked):
        # only a sum provably within RENORM_FLOOR / 2 of 1 is taken by the
        # array check (a 130-term sum's bound is about 2.9e-14, so 5.1e-13 is
        # not); the loop renormalises past RENORM_FLOOR, to the same bits
        rows = large_rows()
        rows[97] = [v * (1 + off) for v in rows[97]]
        fast, loop = self.both(monkeypatch, tuple(map(tuple, rows)))
        assert fast.matrix == loop.matrix
        assert (fast.matrix[97] == tuple(rows[97])) == (abs(off) < core.RENORM_FLOOR)
        assert ("_array" in vars(fast)) == checked
        assert fast._array.tobytes() == np.array(fast.matrix).tobytes()

    # entries that only a library caller can hand the constructor (a JSON
    # file's typing rejects them first), and short rows; tests/test_cli.py
    # covers the faults a file can bring
    @pytest.mark.parametrize("change", [
        lambda rows: rows[97].__setitem__(3, str(rows[97][3])),
        lambda rows: rows[97].__setitem__(3, None),
        lambda rows: rows[97].__setitem__(3, 10**400),
        lambda rows: rows[97].__setitem__(3, True),
        lambda rows: rows[97].__setitem__(3, math.nan),
        lambda rows: rows[97].__setitem__(3, math.inf),
        lambda rows: rows[120].pop(),
        lambda rows: rows.__setitem__(40, []),
    ], ids=["string", "none", "huge int", "bool", "nan", "inf", "short row", "empty row"])
    def test_a_fault_is_the_loops(self, monkeypatch, change):
        rows = large_rows()
        change(rows)
        fast, loop = self.both(monkeypatch, tuple(map(tuple, rows)))
        assert isinstance(fast, tuple) and fast == loop

    def test_a_cold_process_imports_no_numpy_for_it(self, monkeypatch, tmp_path):
        # the check runs only once something else has imported numpy; before
        # that the row loop keeps the same rows
        rows = large_rows()
        (tmp_path / "rows.json").write_text(json.dumps(rows))
        code = ("import json, sys\n"
                "from privmetrics.core import FiniteMechanism\n"
                "rows = tuple(map(tuple, json.load(open(sys.argv[1]))))\n"
                "ids = tuple(map(str, range(len(rows))))\n"
                "m = FiniteMechanism(ids, ids, rows)\n"
                "print(json.dumps(['numpy' in sys.modules, '_array' in vars(m), m.matrix]))\n")
        path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
        r = subprocess.run([sys.executable, "-c", code, str(tmp_path / "rows.json")], capture_output=True,
                           text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
        loaded, kept, matrix = json.loads(r.stdout)
        fast, _ = self.both(monkeypatch, tuple(map(tuple, rows)))
        assert (loaded, kept) == (False, False) and "_array" in vars(fast)
        assert tuple(map(tuple, matrix)) == fast.matrix

    def test_repeated_labels_are_the_loops(self, monkeypatch):
        rows = tuple(map(tuple, large_rows()))
        inputs = self.IDS[:-1] + self.IDS[:1]
        fast, loop = self.both(monkeypatch, rows, inputs=inputs)
        assert fast == loop == (SchemaError, "input labels must be distinct")
        fast, loop = self.both(monkeypatch, rows, outputs=inputs)
        assert fast == loop == (SchemaError, "mechanism rows need distinct output labels, at least one")


CSV = "zip,disease\n13053,flu\n13053,cold\n13068,flu\n13068,flu\n"
SCHEMA = {"roles": {"zip": "quasi-identifier", "disease": "sensitive"}}


class TestParseTable:
    def test_roles_applied(self):
        t = parse_table(CSV, SCHEMA)
        assert len(t) == 4
        assert t.columns[0].role == "quasi-identifier"
        assert t.columns[1].role == "sensitive"

    def test_ragged_row(self):
        with pytest.raises(ShapeError):
            parse_table("a,b\n1,2\n3\n", {"roles": {}})

    def test_numeric_parse_failure(self):
        with pytest.raises(SchemaError):
            parse_table("a\nabc\n", {"roles": {}, "kinds": {"a": "numeric"}})

    def test_unknown_role_column(self):
        with pytest.raises(SchemaError):
            parse_table(CSV, {"roles": {"salary": "sensitive"}})

    def test_missing_value_rejected(self):
        with pytest.raises(SchemaError):
            parse_table("a,b\n1,\n", {"roles": {}, "kinds": {"b": "numeric"}})

    def test_non_finite_rejected(self):
        with pytest.raises(SchemaError):
            parse_table("a\ninf\n", {"roles": {}, "kinds": {"a": "numeric"}})

    def test_empty_table(self):
        with pytest.raises(EmptyError):
            parse_table("a,b\n", {"roles": {}})

    def test_rfc4180_quoting(self):
        t = parse_table('a,b\n"x,y",2\n', {"roles": {}})
        assert t.rows()[0] == ("x,y", "2")


# Cells a CSV without quotes or CRs can hold: blanks, whitespace, NUL, the
# characters str.splitlines also breaks lines at, and numeric cells that are
# not finite or not numbers at all.
_PLAIN_CELLS = st.one_of(
    st.sampled_from(["1", "-2.5", " 3 ", "1_0", "-0", "0", "1e300", "007"]),
    st.sampled_from(["", " ", "flu", "cold", "1e999", "inf", "nan", "-inf", "x\x00y", "\x00",
                     "a\x0bb", "\x0c", "\x1c", "\x85", "\u2028", "z y"]),
)
_PLAIN_LINES = st.one_of(
    st.just(""),  # a blank line
    st.lists(_PLAIN_CELLS, min_size=1, max_size=4).map(",".join),  # ragged widths
)


@st.composite
def plain_csv_texts(draw):
    names = st.lists(st.sampled_from("qsnx"), min_size=1, max_size=4, unique=True)
    header = draw(st.one_of(names.map(",".join), _PLAIN_LINES))
    width = header.count(",") + 1 if header else 0
    record = st.lists(_PLAIN_CELLS, min_size=width, max_size=width).map(",".join)
    records = st.lists(st.one_of(record, record, record, _PLAIN_LINES), min_size=1, max_size=8)
    text = "\n".join([header] + draw(records)) + draw(st.sampled_from(["", "\n"]))
    numeric = draw(st.sets(st.sampled_from(header.split(",")))) if header else set()
    unknown = draw(st.sampled_from([set()] * 7 + [{"unknown"}]))
    return text, {"roles": {}, "kinds": dict.fromkeys(numeric | unknown, "numeric")}


def _parsed(text, schema):
    """The table and its repr (which tells -0.0 from 0.0), or the error's class and message."""
    try:
        table = parse_table(text, schema)
    except MetricError as exc:
        return type(exc), str(exc)
    return table, repr(table)


def _parsed_by_reader(text, schema):
    """``_parsed`` with the plain split turned off, so that csv.reader reads the text."""
    with mock.patch.object(core, "_plain_blocks", return_value=None) as plain:
        parsed = _parsed(text, schema)
    plain.assert_called_once_with(text)  # parse_table asked the plain split, and was refused
    return parsed


# Blocks of a few characters, so that most records of a small text fall in
# later blocks; and the size parse_table uses.
BLOCKS = (1, 5, core._BLOCK)


class TestPlainSplitAgreesWithCsvReader:
    @settings(max_examples=500, deadline=None)
    @given(plain_csv_texts())
    def test_same_table_or_same_error(self, text_and_schema):
        text, schema = text_and_schema
        assert text == "" or core._plain_blocks(text) is not None  # the fast path ran
        by_reader = _parsed_by_reader(text, schema)
        for block in BLOCKS:
            with mock.patch.object(core, "_BLOCK", block):
                assert _parsed(text, schema) == by_reader

    @pytest.mark.parametrize(
        "text",
        [
            "a,n\nx,1\n\ny\n",  # the ragged record is the 4th, after a blank line
            "a,n\nx,oops\ny\n",  # a bad number before a ragged record
            "a,n\nx,1\ny,inf\n",
            "\na\n",  # a blank header has no fields
            "a,n\n",
            "\n\n",
        ],
    )
    def test_errors_name_the_first_fault_in_file_order(self, text):
        schema = {"roles": {}, "kinds": {"n": "numeric"}} if "n" in text else {"roles": {}}
        fast = _parsed(text, schema)
        assert fast == _parsed_by_reader(text, schema)
        assert isinstance(fast[0], type)

    def test_first_fault_messages(self):
        numeric = {"roles": {}, "kinds": {"n": "numeric"}}
        with pytest.raises(SchemaError, match=r"^line 2, column 'n': not a number: 'oops'$"):
            parse_table("a,n\nx,oops\ny\n", numeric)
        with pytest.raises(ShapeError, match=r"^line 4: expected 2 fields, got 1$"):
            parse_table("a,n\nx,1\n\ny\n", numeric)
        with pytest.raises(SchemaError, match=r"^line 3, column 'n': not finite: 'inf'$"):
            parse_table("a,n\nx,1\ny,inf\n", numeric)

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ('a,n\n"x\ny",1\nz,oops\n', SchemaError, "line 4, column 'n': not a number: 'oops'"),
            ('a,n\n"x\ny",1\nz\n', ShapeError, "line 4: expected 2 fields, got 1"),
            ('a,n\r\n"x\r\ny",1\r\nz,1,2\r\n', ShapeError, "line 4: expected 2 fields, got 3"),
        ],
    )
    def test_a_fault_after_a_multi_line_field_names_its_line(self, text, error, message):
        """A quoted field that spans lines moves the next record's line down."""
        assert _parsed(text, {"roles": {}, "kinds": {"n": "numeric"}}) == (error, message)

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize(
        "last, error, message",
        [
            ("y", ShapeError, "line {}: expected 2 fields, got 1"),
            ("y,2,3", ShapeError, "line {}: expected 2 fields, got 3"),
            ("y,oops", SchemaError, "line {}, column 'n': not a number: 'oops'"),
            ("y,-inf", SchemaError, "line {}, column 'n': not finite: '-inf'"),
        ],
    )
    def test_a_fault_in_a_later_block_names_its_line(self, block, last, error, message,
                                                     monkeypatch):
        """Good records fill whole blocks before a faulty one, after a blank line."""
        good = "a,n\n" + "".join(f"x{i},{i}\n" for i in range(30_000)) + "\n"
        text = good + last + "\n" + "z,1\n"
        lineno = good.count("\n") + 1
        numeric = {"roles": {}, "kinds": {"n": "numeric"}}
        monkeypatch.setattr(core, "_BLOCK", block)
        assert sum(1 for _ in core._plain_blocks(good)[1]) > 1  # the good records span blocks
        assert _parsed(text, numeric) == (error, message.format(lineno))
        assert _parsed(text, numeric) == _parsed_by_reader(text, numeric)
        assert len(parse_table(good, numeric)) == 30_000

    def test_a_long_line_in_a_later_block_goes_to_csv_reader(self, monkeypatch):
        """A line past the field size limit is read by csv.reader, which reads it
        when its fields are within the limit and names its line when one is not."""
        monkeypatch.setattr(core, "_BLOCK", 16)
        good = "a,b\n" + "x,y\n" * 20
        limit = csv.field_size_limit(100)
        try:
            table = parse_table(good + "u" * 60 + "," + "v" * 60 + "\nx,y\n", {"roles": {}})
            error = _parsed(good + "u," + "v" * 101 + "\n", {"roles": {}})
        finally:
            csv.field_size_limit(limit)
        assert table.cells[0][20] == "u" * 60 and len(table) == 22
        assert error == (SchemaError, "line 22: field larger than field limit (100)")


class TestColumnStorage:
    def test_equal_categorical_cells_are_one_object(self):
        for text in ("q,s\nflu,cold\ncold,flu\nflu,hiv\n",
                     '"q","s"\n"flu","cold"\n"cold","flu"\n"flu","hiv"\n'):
            t = parse_table(text, {"roles": {}})
            (q, s) = t.cells
            assert q[0] is q[2] and q[1] is s[0] and q[0] is s[1]  # one map for the whole table

    def test_numeric_cells_are_floats(self):
        t = parse_table("q,n\na,1\nb,2.5\n", {"roles": {}, "kinds": {"n": "numeric"}})
        assert t.cells[1] == (1.0, 2.5) and set(map(type, t.cells[1])) == {float}
        assert t.cells[0] == ("a", "b")

    def test_column_values_is_the_stored_tuple(self):
        t = parse_table(CSV, SCHEMA)
        assert all(t.column_values(j) is t.cells[j] for j in range(len(t.columns)))
        assert type(t.cells) is tuple and all(type(c) is tuple for c in t.cells)

    def test_rows_are_derived_not_stored(self):
        t = parse_table(CSV, SCHEMA)
        assert t.rows() == tuple(zip(*t.cells)) and len(t) == len(t.rows()) == 4
        assert set(vars(t)) == {"columns", "cells"}
        assert list(t.project((1, 0))) == [(s, q) for q, s in t.rows()]

    def test_cells_given_as_lists_are_stored_as_tuples(self):
        t = DataTable((Column("a"),), cells=[["x", "y"]])
        assert t.cells == (("x", "y"),)

    def test_cells_are_keyword_only(self):
        """A row-major table passed by position fails instead of transposing."""
        with pytest.raises(TypeError):
            DataTable((Column("a"), Column("b")), (("x", "y"), ("z", "w")))

    def test_a_string_is_not_a_column(self):
        with pytest.raises(ShapeError) as info:
            DataTable((Column("a"),), cells=("xy",))
        assert str(info.value) == "cells must hold one sequence of values per column, not a string"

    @pytest.mark.parametrize(
        "cells, error, message",
        [
            ((("x", "y"), ("z",)), ShapeError, "row width 1 does not match 2 columns"),
            ((("x", "y"),), ShapeError, "row width 1 does not match 2 columns"),
            ((("x",), ("y",), ("z",)), ShapeError, "row width 3 does not match 2 columns"),
            (((), ()), EmptyError, "table needs at least one row"),
            ((), EmptyError, "table needs at least one row"),
            ((("x", "y"), (1.0, math.inf)), SchemaError,
             "column 'n' expects finite numbers, got inf"),
            ((("x", "y"), (1.0, "2")), SchemaError, "column 'n' expects finite numbers, got '2'"),
        ],
    )
    def test_data_table_rejects(self, cells, error, message):
        with pytest.raises(error) as info:
            DataTable((Column("a"), Column("n", "numeric")), cells=cells)
        assert str(info.value) == message


class TestEquivalenceClasses:
    def test_all_identical(self):
        t = parse_table("q,s\n1,a\n1,b\n1,c\n", {"roles": {"q": "quasi-identifier"}})
        classes = equivalence_classes(t)
        assert len(classes) == 1 and len(classes[0]) == 3

    def test_all_distinct(self):
        t = parse_table("q,s\n1,a\n2,b\n3,c\n", {"roles": {"q": "quasi-identifier"}})
        assert sorted(len(c) for c in equivalence_classes(t)) == [1, 1, 1]

    def test_hand_grouping(self):
        t = parse_table("q\na\na\nb\n", {"roles": {"q": "quasi-identifier"}})
        assert sorted(len(c) for c in equivalence_classes(t)) == [1, 2]

    def test_no_quasi_identifier(self):
        t = parse_table("q\na\n", {"roles": {}})
        with pytest.raises(SchemaError):
            equivalence_classes(t)

    def test_table_is_grouped_once(self):
        text, schema = "q,s\na,x\na,y\nb,x\n", {"roles": {"q": "quasi-identifier"}}
        t = parse_table(text, schema)
        before = hash(t), repr(t)
        assert equivalence_classes(t) is equivalence_classes(t)
        assert (hash(t), repr(t)) == before
        assert t == parse_table(text, schema)

    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=60
        )
    )
    def test_partition_property(self, pairs):
        csv_text = "q,r\n" + "".join(f"{a},{b}\n" for a, b in pairs)
        table = parse_table(
            csv_text, {"roles": {"q": "quasi-identifier", "r": "quasi-identifier"}}
        )
        classes = equivalence_classes(table)
        seen = [i for c in classes for i in c.row_indices]
        assert sorted(seen) == list(range(len(pairs)))
        for c in classes:
            keys = {tuple(table.rows()[i]) for i in c.row_indices}
            assert len(keys) == 1


class TestTraceAndRegion:
    def test_trace_strictly_increasing(self):
        with pytest.raises(SchemaError):
            Trace(((0.0, 1.0), (0.0, 2.0)))

    def test_trace_needs_samples(self):
        with pytest.raises(EmptyError):
            Trace(())

    @pytest.mark.parametrize("sample", [(0.0, math.inf), (math.nan, 1.0), (-math.inf, 1.0)])
    def test_trace_entries_each_finite(self, sample):
        with pytest.raises(SchemaError, match="finite"):
            Trace((sample,))

    def test_rect_area_off_the_origin(self):
        assert Region(rect=(1.0, 2.0, 4.0, 7.0)).area() == 15.0

    def test_rect_positive_extent(self):
        with pytest.raises(ParamError):
            Region(rect=(0.0, 0.0, 0.0, 1.0))

    def test_region_exactly_one_shape(self):
        with pytest.raises(ParamError):
            Region()

    def test_areas(self):
        assert Region(rect=(0, 0, 2, 3)).area() == 6.0
        assert Region(cells=frozenset({(0, 0), (1, 1)})).area() == 2.0


def test_metric_value_unit_checked():
    with pytest.raises(ParamError):
        MetricValue("x", 1.0, "furlongs")
