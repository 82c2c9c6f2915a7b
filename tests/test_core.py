import json
import math

import pytest
from hypothesis import given, strategies as st

from privmetrics.core import (
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
    ParamError,
    SchemaError,
    ShapeError,
)


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

    def test_renormalizes_within_tolerance(self):
        eps = 4e-10
        d = DiscreteDistribution.from_probs([0.5 + eps, 0.5])
        assert math.fsum(d.probs) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_beyond_tolerance(self):
        with pytest.raises(DistributionError):
            DiscreteDistribution.from_probs([0.5 + 1e-8, 0.5])


class TestRoundTrips:
    def test_distribution(self):
        d = DiscreteDistribution.from_probs([0.5, 0.25, 0.25], ["a", "b", "c"])
        assert parse_distribution(json.dumps(d.to_json_dict())) == d

    def test_joint(self):
        j = JointDistribution(("x0", "x1"), ("y0",), ((0.25,), (0.75,)))
        assert parse_joint(json.dumps(j.to_json_dict())) == j

    def test_mechanism(self):
        m = FiniteMechanism.from_matrix([[0.75, 0.25], [0.25, 0.75]], ["a", "b"])
        assert parse_mechanism(json.dumps(m.to_json_dict())) == m

    def test_mechanism_row_lookup(self):
        m = FiniteMechanism.from_matrix([[0.75, 0.25], [0.25, 0.75]], ["a", "b"])
        assert m.row_for("b") is m.rows[1]
        assert m == FiniteMechanism.from_matrix([[0.75, 0.25], [0.25, 0.75]], ["a", "b"])
        with pytest.raises(SchemaError):
            m.row_for("c")

    def test_trace(self):
        t = Trace(((0.0, 1.0), (1.5, 3.0)))
        assert parse_trace(json.dumps(t.to_json_dict())) == t

    def test_table(self):
        t = parse_table(
            "zip,salary\n130,10.5\n131,-3.25\n",
            {"roles": {"zip": "quasi-identifier", "salary": "sensitive"},
             "kinds": {"salary": "numeric"}},
        )
        assert parse_table(t.to_csv(), t.to_schema_dict()) == t

    def test_region(self):
        for r in (
            Region(rect=(0.0, 0.5, 2.0, 3.0)),
            Region(cells=frozenset({(0, 0), (2, 1)})),
        ):
            assert parse_region(json.dumps(r.to_json_dict())) == r

    @given(
        st.lists(
            st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=8,
        )
    )
    def test_distribution_roundtrip_random(self, weights):
        total = sum(weights)
        d = DiscreteDistribution.from_probs([w / total for w in weights])
        assert parse_distribution(json.dumps(d.to_json_dict())) == d


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
        assert t.rows[0] == ("x,y", "2")


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
            keys = {tuple(table.rows[i]) for i in c.row_indices}
            assert len(keys) == 1


class TestTraceAndRegion:
    def test_trace_strictly_increasing(self):
        with pytest.raises(SchemaError):
            Trace(((0.0, 1.0), (0.0, 2.0)))

    def test_trace_needs_samples(self):
        with pytest.raises(EmptyError):
            Trace(())

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
