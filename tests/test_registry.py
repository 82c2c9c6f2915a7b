import json
import random

import pytest

from privmetrics import compute as compute_mod
from privmetrics import registry as reg
from privmetrics.errors import ParamError, SchemaError, UnknownMetricError


class TestLookup:
    def test_k_anonymity_row(self):
        d = reg.lookup("k_anonymity")
        assert d.category == "similarity"
        assert d.direction == "H"
        assert d.value_range == {"kind": "interval", "lo": 1, "hi": "|D|", "lo_open": False}

    def test_min_entropy_direction(self):
        assert reg.lookup("min_entropy").direction == "L"

    def test_unknown_id(self):
        with pytest.raises(UnknownMetricError):
            reg.lookup("nosuch")


class TestCatalogShape:
    def test_counts(self):
        assert len(reg.DESCRIPTORS) >= 60
        assert sum(d.implemented for d in reg.DESCRIPTORS) >= 60
        unimplemented = {d.id for d in reg.DESCRIPTORS if not d.implemented}
        assert unimplemented == {
            "observational_equivalence",
            "computational_differential_privacy",
            "distributed_differential_privacy",
        }

    def test_descriptor_op_bijection(self):
        op_refs = [d.op_ref for d in reg.DESCRIPTORS if d.implemented]
        assert len(op_refs) == len(set(op_refs)), "op_refs must be unique"
        assert set(op_refs) == set(compute_mod._SPECS)

    def test_every_category_used(self):
        assert {d.category for d in reg.DESCRIPTORS} == set(reg.CATEGORIES)

    def test_unimplemented_have_no_op(self):
        for d in reg.DESCRIPTORS:
            if not d.implemented:
                assert d.op_ref is None


class TestCatalogReference:
    def test_every_entry_matches(self, catalog_reference):
        for mid, row in catalog_reference.items():
            d = reg.lookup(mid)
            projection = {
                "range": d.value_range,
                "direction": d.direction,
                "sources": sorted(d.data_sources),
                "inputs": sorted(d.inputs),
                "optional_inputs": sorted(d.optional_inputs),
            }
            assert projection == row, f"{mid} deviates from the reference card"

    def test_only_health_privacy_lacks_a_reference_entry(self, catalog_reference):
        extra = {d.id for d in reg.DESCRIPTORS} - set(catalog_reference)
        assert extra == {"health_privacy"}
        assert set(catalog_reference) <= {d.id for d in reg.DESCRIPTORS}


class TestExport:
    def test_roundtrip(self):
        """The export reads back as every descriptor's record, in id order."""
        records = [d.to_json_dict() for d in sorted(reg.DESCRIPTORS, key=lambda d: d.id)]
        assert json.loads(reg.export_registry()) == records

    def test_deterministic(self):
        assert reg.export_registry() == reg.export_registry()

    def test_sorted_by_id(self):
        items = json.loads(reg.export_registry())
        ids = [d["id"] for d in items]
        assert ids == sorted(ids)
        assert len(ids) >= 60


def brute_force_filter(answers):
    cats = (
        frozenset({"indistinguishability"})
        if answers.q1_guarantee
        else answers.q1_categories
    )
    out = []
    for d in sorted(reg.DESCRIPTORS, key=lambda d: d.id):
        if d.category not in cats:
            continue
        if not (d.data_sources & answers.q3_sources):
            continue
        if not (d.inputs <= answers.q4_inputs_available):
            continue
        out.append(d.id)
    return tuple(out)


class TestAdvisor:
    def test_guarantee_mode_exactly_indistinguishability(self):
        rec = reg.filter_metrics(reg.AdvisorAnswers(q1_guarantee=True))
        expected = tuple(
            sorted(d.id for d in reg.DESCRIPTORS if d.category == "indistinguishability")
        )
        assert rec.metrics == expected

    def test_parameters_only_inputs(self):
        rec = reg.filter_metrics(
            reg.AdvisorAnswers(q4_inputs_available=frozenset({"parameters"}))
        )
        assert "k_anonymity" in rec.metrics
        assert "l_diversity" in rec.metrics
        assert "entropy" not in rec.metrics  # needs the adversary's estimate

    def test_single_category_warns(self):
        rec = reg.filter_metrics(
            reg.AdvisorAnswers(q1_categories=frozenset({"uncertainty"}))
        )
        assert any("fewer than two" in w for w in rec.warnings)

    def test_adversary_required_warns_on_data_only_metrics(self):
        rec = reg.filter_metrics(
            reg.AdvisorAnswers(
                q1_categories=frozenset({"similarity"}), q2_adversary_required=True
            )
        )
        assert any("k_anonymity" in w for w in rec.warnings)

    def test_notes_carry_free_text(self):
        rec = reg.filter_metrics(reg.AdvisorAnswers(q5_audience="regulators"))
        assert any("regulators" in n for n in rec.notes)

    def test_empty_categories_rejected(self):
        with pytest.raises(ParamError):
            reg.AdvisorAnswers(q1_categories=frozenset())

    def test_unknown_category_rejected(self):
        with pytest.raises(ParamError):
            reg.AdvisorAnswers(q1_categories=frozenset({"vibes"}))

    def test_sound_and_complete_random(self):
        rng = random.Random(42)
        for _ in range(300):
            cats = frozenset(
                rng.sample(reg.CATEGORIES, rng.randint(1, len(reg.CATEGORIES)))
            )
            sources = frozenset(
                rng.sample(reg.DATA_SOURCES, rng.randint(0, len(reg.DATA_SOURCES)))
            )
            inputs = frozenset(
                rng.sample(reg.INPUT_KINDS, rng.randint(0, len(reg.INPUT_KINDS)))
            )
            answers = reg.AdvisorAnswers(
                q1_categories=cats,
                q1_guarantee=rng.random() < 0.2,
                q3_sources=sources,
                q4_inputs_available=inputs,
            )
            assert reg.filter_metrics(answers).metrics == brute_force_filter(answers)

    def test_answers_from_json(self):
        ans = reg.AdvisorAnswers.from_json_dict(
            {"q1_categories": ["uncertainty", "error"], "q1_guarantee": False}
        )
        assert ans.q1_categories == frozenset({"uncertainty", "error"})
        with pytest.raises(SchemaError):
            reg.AdvisorAnswers.from_json_dict({"q99": True})
