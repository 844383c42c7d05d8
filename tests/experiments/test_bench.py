"""Determinism gate: the smoke suite's model-seconds and µ(s), pinned.

``BENCH_PR3.json`` (repo root) is the committed baseline: every cell of
the ``smoke`` scenario plus the Table-2 scenario resolved at smoke size,
with the exact model-seconds and best µ(s) each one gives.  The gate
pins *behaviour*, not speed: a change that alters what the engine
computes — rather than how fast — trips it.  Wall-clock is never
compared here; ``perfbench/`` measures it.

The gate runs every cell twice.  The first pass is the one a fresh
interpreter makes (cold caches); the second must give the same
canonical records.  ``_gate_problems`` is the verdict; the tests at the
bottom show it rejects each way a pass can miss the baseline.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.experiments.registry import resolve
from repro.experiments.sweeps import run_cell

BASELINE = Path(__file__).resolve().parents[2] / "BENCH_PR3.json"


def _gate_cells():
    return resolve("smoke", smoke=True) + resolve("table2", smoke=True)


def _gate_id(cell):
    return f"{cell.scenario}:{cell.cell_id}"


def _baseline():
    """The baseline's cells keyed by ``scenario:cell_id``."""
    return {c["id"]: c for c in json.loads(BASELINE.read_text())["cells"]}


def _gate_problems(baseline, first, second):
    """Every way two passes (records keyed by gate id) miss ``baseline``.

    Empty means the gate holds: the passes cover exactly the baseline's
    cells, each cell succeeded with the pinned model-seconds and best µ
    (compared with ``==``), and both passes gave the same canonical record.
    """
    problems = [f"{gid}: in baseline, not run"
                for gid in sorted(baseline.keys() - first.keys())]
    problems += [f"{gid}: run, not in baseline"
                 for gid in sorted(first.keys() - baseline.keys())]
    for gid in sorted(first.keys() & baseline.keys()):
        record = first[gid]
        if not record.ok:
            problems.append(f"{gid}: failed: {record.error}")
            continue
        pinned = baseline[gid]
        got = (record.outcome["runtime"], record.outcome["best_mu"])
        want = (pinned["model_seconds"], pinned["best_mu"])
        if got != want:
            problems.append(f"{gid}: (model_seconds, best_mu) {got!r} != {want!r}")
        again = second.get(gid)
        if again is None or again.canonical() != record.canonical():
            problems.append(f"{gid}: passes differ")
    return problems


@pytest.fixture(scope="module")
def gate_passes():
    """Two passes over the gate cells, each keyed by gate id."""
    cells = _gate_cells()
    first = {_gate_id(c): run_cell(c) for c in cells}
    second = {_gate_id(c): run_cell(c) for c in cells}
    return first, second


def test_committed_baseline_is_loadable():
    """BENCH_PR3.json parses and lists exactly the gate suite's cells."""
    assert {_gate_id(c) for c in _gate_cells()} == set(_baseline())


def test_committed_baseline_gate_is_exact(gate_passes):
    """Every gate cell reproduces BENCH_PR3.json exactly — model-seconds
    and best µ, i.e. every fused-kernel trajectory — and a second pass
    gives the same canonical records as the first (cold) one."""
    first, second = gate_passes
    assert len(first) == len(_gate_cells())
    assert _gate_problems(_baseline(), first, second) == []


@pytest.mark.parametrize("gid", sorted(_baseline()))
def test_baseline_cell_is_exact(gid, gate_passes):
    """The gate's verdict for one cell, so a drift names every cell it
    moved rather than the first one."""
    first, second = gate_passes
    assert gid in first, f"{gid}: in baseline, not resolved"
    one = {gid: first[gid]}
    assert _gate_problems({gid: _baseline()[gid]}, one, second) == []


def test_bench_verb_is_gone(capsys):
    """The tier-1 test above is the only determinism gate."""
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--check", str(BASELINE)])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


# ------------------------------------------------- the verdict's teeth


@pytest.fixture(scope="module")
def one_pass():
    """A real record of one cheap smoke cell and the baseline it implies."""
    (cell,) = [c for c in resolve("smoke", smoke=True)
               if c.strategy == "serial"]
    record = run_cell(cell)
    assert record.ok, record.error
    gid = _gate_id(cell)
    pinned = {"id": gid,
              "model_seconds": record.outcome["runtime"],
              "best_mu": record.outcome["best_mu"]}
    return gid, record, pinned


def _with_mu(record, mu):
    return replace(record, outcome=dict(record.outcome, best_mu=mu))


def test_gate_passes_against_itself(one_pass):
    gid, record, pinned = one_pass
    assert _gate_problems({gid: pinned}, {gid: record}, {gid: record}) == []


def test_gate_catches_model_second_drift(one_pass):
    gid, record, pinned = one_pass
    moved = dict(pinned, model_seconds=pinned["model_seconds"] + 1e-9)
    (problem,) = _gate_problems({gid: moved}, {gid: record}, {gid: record})
    assert "model_seconds" in problem


def test_gate_catches_a_one_ulp_best_mu_drift(one_pass):
    gid, record, pinned = one_pass
    moved = dict(pinned, best_mu=float(np.nextafter(pinned["best_mu"], 2.0)))
    assert moved["best_mu"] != pinned["best_mu"]
    (problem,) = _gate_problems({gid: moved}, {gid: record}, {gid: record})
    assert "best_mu" in problem


def test_gate_catches_missing_and_extra_cells(one_pass):
    gid, record, pinned = one_pass
    dropped = _gate_problems({}, {gid: record}, {gid: record})
    assert dropped == [f"{gid}: run, not in baseline"]
    absent = "smoke:absent"
    extra = _gate_problems({gid: pinned, absent: dict(pinned, id=absent)},
                           {gid: record}, {gid: record})
    assert extra == [f"{absent}: in baseline, not run"]


def test_gate_ignores_wall_clock(one_pass):
    gid, record, pinned = one_pass
    slower = replace(record, wall_seconds=record.wall_seconds * 100.0 + 1.0)
    assert _gate_problems({gid: pinned}, {gid: record}, {gid: slower}) == []


def test_cold_run_that_differs_is_non_deterministic(one_pass):
    """The first (cold) pass is compared like the second: a first pass
    that disagrees with the second fails even if the second matches
    the baseline, and so does one that matches when the second does not."""
    gid, record, pinned = one_pass
    cold = _with_mu(record, record.outcome["best_mu"] / 2)
    cold_problems = _gate_problems({gid: pinned}, {gid: cold}, {gid: record})
    assert f"{gid}: passes differ" in cold_problems
    warm = _gate_problems({gid: pinned}, {gid: record}, {gid: cold})
    assert warm == [f"{gid}: passes differ"]


def test_gate_catches_a_second_pass_that_skipped_a_cell(one_pass):
    gid, record, pinned = one_pass
    assert _gate_problems({gid: pinned}, {gid: record}, {}) == [
        f"{gid}: passes differ"]


def test_gate_catches_a_failed_cell(one_pass):
    gid, record, pinned = one_pass
    failed = replace(record, ok=False, error="boom", outcome=None)
    assert _gate_problems({gid: pinned}, {gid: failed}, {gid: failed}) == [
        f"{gid}: failed: boom"]
