"""The schema layer: spec forms, bool-is-not-a-number, malformed input."""

import copy
import json
from pathlib import Path

import pytest

from repro.common import schema
from repro.common.schema import ORACLE_SCHEMA, validate
from repro.core.params import ConvParams
from repro.telemetry.oracle import oracle_report

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
SMALL = ConvParams.from_output(ni=32, no=32, ro=16, co=16, kr=3, kc=3, b=16)


def _dataparallel():
    with open(BENCH_DIR / "BENCH_dataparallel.json") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def oracle():
    return oracle_report([SMALL]).as_dict()


class TestSpecForms:
    SPEC = {
        "n": "int",
        "x": "number",
        "tag?": "str",
        "items": [{"ok": "bool"}],
        "counts": {"*": "int"},
    }

    def _errors(self, value):
        errors = []
        schema._check(value, self.SPEC, "", errors)
        return errors

    def _doc(self, **changes):
        doc = {"n": 1, "x": 0.5, "items": [{"ok": True}], "counts": {"a": 2}}
        doc.update(changes)
        return doc

    def test_matching_document_passes(self):
        assert self._errors(self._doc()) == []
        assert self._errors(self._doc(tag="t", extra=[1, "two"])) == []

    def test_optional_key_is_still_typed(self):
        assert self._errors(self._doc(tag=3)) == ["tag: expected str, got int"]

    def test_required_key_named_with_its_path(self):
        doc = self._doc(items=[{"ok": True}, {}])
        assert self._errors(doc) == ["items[1].ok: required key is missing"]

    def test_map_values_checked(self):
        doc = self._doc(counts={"a": 2, "b.c": 2.5})
        assert self._errors(doc) == ["counts['b.c']: expected int, got float"]

    @pytest.mark.parametrize("kind", ["n", "x"])
    def test_bool_is_never_a_number(self, kind):
        errors = self._errors(self._doc(**{kind: True}))
        assert errors and errors[0].startswith(f"{kind}: expected")


# Each mutation keeps the document otherwise consistent (one loss for a
# ``steps`` of True == 1, attainment = bound/measured), so only the type
# check can catch it.
def _steps_true(doc):
    doc.update(steps=True, losses=doc["losses"][:1])


def _measured_true(doc):
    row = doc["rows"][0]
    row.update(measured_bytes=True, attainment=row["bound_bytes"] / 1)


def _bound_true(doc):
    row = doc["rows"][0]
    row.update(bound_bytes=True, attainment=1 / row["measured_bytes"])


class TestBoolIsNotANumber:
    """``True`` is an ``int`` to Python; never a count or a measurement here."""

    @pytest.mark.parametrize(
        "mutate, key",
        [
            (lambda d: d.update(seed=True), "seed"),
            (_steps_true, "steps"),
            (lambda d: d.update(bucket_bytes=True), "bucket_bytes"),
            (lambda d: d.update(final_loss=True), "final_loss"),
            (
                lambda d: d["comm_counters"].update({"comm.allreduces": True}),
                "comm_counters['comm.allreduces']",
            ),
        ],
        ids=["seed", "steps", "bucket_bytes", "final_loss", "comm_counter"],
    )
    def test_dataparallel(self, mutate, key):
        doc = _dataparallel()
        assert validate(doc) == []
        mutate(doc)
        assert any(e.startswith(f"{key}: expected") for e in validate(doc))

    @pytest.mark.parametrize(
        "mutate, key",
        [
            (lambda d: d.update(threshold=True), "threshold"),
            (_measured_true, "rows[0].measured_bytes"),
            (_bound_true, "rows[0].bound_bytes"),
            (lambda d: d.update(flagged="none"), "flagged"),
        ],
        ids=["threshold", "measured_bytes", "bound_bytes", "flagged_string"],
    )
    def test_oracle(self, oracle, mutate, key):
        doc = copy.deepcopy(oracle)
        assert validate(doc) == []
        mutate(doc)
        assert any(e.startswith(f"{key}: expected") for e in validate(doc))


class TestMalformedInput:
    @pytest.mark.parametrize("doc", [None, [], "report", 7])
    def test_non_object_reported(self, doc):
        assert validate(doc) == [
            f"document: expected object, got {type(doc).__name__}"
        ]

    def test_string_efficiency_reported(self):
        doc = _dataparallel()
        doc["weak_scaling"][0]["efficiency"] = "high"
        assert validate(doc) == [
            "weak_scaling[0].efficiency: expected number, got str"
        ]

    @pytest.mark.parametrize("doc", [{}, {"schema": "repro.nope/v1"}])
    def test_unknown_tag_names_the_known_ones(self, doc):
        (error,) = validate(doc)
        assert error.startswith("schema: unknown tag")
        assert all(tag in error for tag in schema.KINDS)

    def test_oracle_tag_written_by_the_report(self, oracle):
        assert oracle["schema"] == ORACLE_SCHEMA
