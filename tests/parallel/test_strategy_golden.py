"""Golden pin of the serial, profile, Type I and Type II records.

The records these strategies produce are part of the artifacts' and the
resume cache's identity.  ``fixtures/strategy_golden.json`` maps each run
below to the sha256 of its ``RunRecord.canonical()`` JSON; every run must
reproduce it byte for byte.  The simulated cluster pins the model-second
clocks too; the socket runs pin the real-backend record shape (its
``cluster``/``model_seconds`` extras) with the wall-clock fields stripped
by ``canonical()``.  Type III's family is pinned in
``test_type3_golden.py``.

Regenerate (only for a deliberate record change, never to make this
pass)::

    PYTHONPATH=src python tests/parallel/test_strategy_golden.py > \\
        tests/parallel/fixtures/strategy_golden.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.registry import SweepCell, base_spec
from repro.experiments.sweeps import run_cell

FIXTURE = Path(__file__).parent / "fixtures" / "strategy_golden.json"


def _runs() -> dict[str, tuple[str, tuple]]:
    runs: dict[str, tuple[str, tuple]] = {
        "sim/serial": ("serial", ()),
        "sim/profile": ("profile", ()),
    }
    for p in (2, 3):
        runs[f"sim/type1/p={p}"] = ("type1", (("p", p),))
        for pattern in ("fixed", "random", "contiguous"):
            runs[f"sim/type2-{pattern}/p={p}"] = (
                "type2", (("p", p), ("pattern", pattern)),
            )
    socket = (("cluster", "socket"),)
    runs["socket/serial"] = ("serial", socket)
    runs["socket/type1/p=2"] = ("type1", socket + (("p", 2),))
    runs["socket/type2-random/p=2"] = (
        "type2", socket + (("p", 2), ("pattern", "random")),
    )
    return runs


def _digest(label: str, strategy: str, params: tuple) -> str:
    cell = SweepCell(
        "strategy-golden", label, strategy,
        base_spec("s1196", iterations=10, seed=1), tuple(sorted(params)),
    )
    record = run_cell(cell)
    assert record.ok, record.error
    blob = json.dumps(record.canonical(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


RUNS = _runs()


@pytest.mark.parametrize("label", sorted(RUNS))
def test_strategy_record_matches_the_golden_hash(label):
    golden = json.loads(FIXTURE.read_text())
    assert set(golden) == set(RUNS)
    assert _digest(label, *RUNS[label]) == golden[label]


if __name__ == "__main__":
    print(json.dumps(
        {label: _digest(label, *RUNS[label]) for label in sorted(RUNS)},
        indent=2, sort_keys=True,
    ))
