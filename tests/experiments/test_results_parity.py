"""Every regenerated experiment against its committed ``results/*.json``.

``results/*.json`` are what the paper's figures and tables are drawn
from; every numeric field must come back within a relative 1e-9 (the
figures agree to ~1e-14 across hosts, not bit for bit), every other field
exactly.  The whole report regenerates in about half a second.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.artifacts import _structured_runners, to_jsonable

RESULTS = Path(__file__).resolve().parents[2] / "results"
RTOL = 1e-9


def _mismatches(got, want, path="result"):
    """Every path where ``got`` disagrees with ``want``."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path}: keys {sorted(got) if isinstance(got, dict) else got!r}"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length {len(got) if isinstance(got, list) else got!r}"]
        return [
            m
            for i, (g, w) in enumerate(zip(got, want))
            for m in _mismatches(g, w, f"{path}[{i}]")
        ]
    numeric = (int, float)
    if isinstance(want, numeric) and not isinstance(want, bool):
        if isinstance(got, numeric) and not isinstance(got, bool):
            if abs(got - want) <= RTOL * abs(want):
                return []
        return [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


RUNNERS = _structured_runners()


def test_every_committed_result_is_gated():
    assert {path.stem for path in RESULTS.glob("*.json")} == set(RUNNERS)


@pytest.mark.parametrize("name, run", sorted(RUNNERS.items()))
def test_regenerated_matches_committed(name, run):
    committed = json.loads((RESULTS / f"{name}.json").read_text())["result"]
    assert _mismatches(to_jsonable(run()), committed) == []


def test_tolerance_catches_drift():
    assert _mismatches({"a": [1.0, 2]}, {"a": [1.0, 2]}) == []
    assert _mismatches({"a": [1.0 + 1e-12]}, {"a": [1.0]}) == []
    assert _mismatches({"a": [1.0 + 1e-8]}, {"a": [1.0]}) != []
    assert _mismatches({"a": 0.0}, {"a": 1e-300}) != []
    assert _mismatches({"a": "img"}, {"a": "batch"}) != []
    assert _mismatches({"a": 1}, {"a": 1, "b": 2}) != []
