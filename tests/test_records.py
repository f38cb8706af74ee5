"""The value records of unit_interval, hereditary and crossval: fields, defaults and immutability."""

import json

import pytest

from p3conv.cli import main
from p3conv.crossval import CheckRow, ValidationReport
from p3conv.graph import Graph
from p3conv.hereditary import CrosscheckReport, Disagreement, ForbiddenPattern
from p3conv.unit_interval import CutSegment

ROW = CheckRow("g", "hull_number", 2, 3, 0.5)
FINDING = Disagreement("D]_", 5, ((0, 2), (0, 3)), True, False)

# (record, its fields in order, its field defaults, its properties)
CASES = [
    (CutSegment(0, 4, "anchor-cut", 3), ("lo", "hi", "case_tag", "time"), {}, {}),
    (ForbiddenPattern("paw", Graph(2, [(0, 1)])), ("name", "graph"), {}, {}),
    (FINDING, ("graph6", "vertex_count", "edges", "pattern_free", "idempotent"), {}, {}),
    (
        CrosscheckReport(5, 31, (), (FINDING,)),
        ("max_n", "checked", "forward_violations", "reverse_findings"),
        {},
        {"clean": False},
    ),
    (ROW, ("instance", "parameter", "formula", "oracle", "runtime"), {}, {"agree": False}),
    (
        ValidationReport((ROW,)),
        ("rows", "skipped"),
        {"skipped": ()},
        {
            "disagreements": (ROW,),
            "summary": {"rows": 1, "agreeing": 0, "disagreeing": 1, "skipped": 0},
        },
    ),
]


@pytest.mark.parametrize(
    "record, fields, defaults, properties", CASES, ids=[type(c[0]).__name__ for c in CASES]
)
def test_record_contract(record, fields, defaults, properties):
    cls = type(record)
    assert cls._fields == fields
    assert cls._field_defaults == defaults
    for name, value in properties.items():
        assert getattr(record, name) == value, name
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    args = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
    assert repr(record) == f"{cls.__name__}({args})"


def test_properties_of_clean_records():
    assert CrosscheckReport(3, 3, (), ()).clean
    assert CheckRow("g", "p", 1, 1, 0.0).agree
    assert ValidationReport((ROW,)).to_dict()["rows"][0]["agree"] is False


def test_propcheck_prints_each_finding_as_an_object(capsys):
    assert main(["propcheck", "--max-n", "5", "--format", "object"]) == 2
    payload = json.loads(capsys.readouterr().out)
    (finding,) = payload["reverse_findings"]
    assert set(finding) == {"graph6", "vertex_count", "edges", "pattern_free", "idempotent"}
    assert finding["graph6"] == "D]_"
