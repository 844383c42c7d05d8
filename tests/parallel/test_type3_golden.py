"""Golden pin of the Type III family's records on the simulated cluster.

Plain Type III, diversified Type III with goodness crossover (type3x)
and without it (type3-diverse) share one searcher protocol; the records
they produce are part of the artifacts' and the resume cache's
identity.  ``fixtures/type3_golden.json`` maps each run below to the
sha256 of its ``RunRecord.canonical()`` JSON; every run must reproduce
it byte for byte.

Regenerate (only for a deliberate record change, never to make this
pass)::

    PYTHONPATH=src python tests/parallel/test_type3_golden.py > \\
        tests/parallel/fixtures/type3_golden.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.registry import SweepCell, base_spec
from repro.experiments.sweeps import run_cell

FIXTURE = Path(__file__).parent / "fixtures" / "type3_golden.json"

#: (strategy, extra params) of the three variants.
VARIANTS = {
    "type3": ("type3", ()),
    "type3x": ("type3x", ()),
    "type3-diverse": ("type3x", (("crossover", False),)),
}


def _runs() -> dict[str, tuple[str, tuple]]:
    runs = {}
    for name, (strategy, extra) in VARIANTS.items():
        for p in (3, 4):
            for retry in (1, 2):
                runs[f"{name}/p={p}/retry={retry}"] = (
                    strategy, extra + (("p", p), ("retry_threshold", retry)),
                )
        runs[f"{name}/p=4/retry=1/degrade"] = (
            strategy,
            extra + (("on_rank_failure", "degrade"), ("p", 4),
                     ("retry_threshold", 1)),
        )
    return runs


def _digest(label: str, strategy: str, params: tuple) -> str:
    cell = SweepCell(
        "type3-golden", label, strategy,
        base_spec("s1196", iterations=10, seed=1), tuple(sorted(params)),
    )
    record = run_cell(cell)
    assert record.ok, record.error
    blob = json.dumps(record.canonical(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


RUNS = _runs()


@pytest.mark.parametrize("label", sorted(RUNS))
def test_type3_family_record_matches_the_golden_hash(label):
    golden = json.loads(FIXTURE.read_text())
    assert set(golden) == set(RUNS)
    assert _digest(label, *RUNS[label]) == golden[label]


if __name__ == "__main__":
    print(json.dumps(
        {label: _digest(label, *RUNS[label]) for label in sorted(RUNS)},
        indent=2, sort_keys=True,
    ))
