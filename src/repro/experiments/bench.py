"""Determinism gate: the smoke suite's model-seconds and µ(s), pinned.

The work meter measures the *algorithm* (model-seconds); ``repro bench``
pins it.  It runs the gate suite — every cell of the ``smoke`` scenario
plus the Table-2 scenario resolved at smoke size — ``repeats`` passes
through :func:`~repro.experiments.sweeps.run_cell` and writes a JSON
report (``BENCH_PR3.json`` at the repo root is the committed baseline).

Two checks:

* **determinism self-check** — every pass, the first (cold) one
  included, must give the same canonical record per cell (wall-clock
  aside); a cell whose passes disagree fails the bench;
* **determinism gate** (``--check``) — model-seconds and best µ(s) per
  cell must exactly match a baseline report.  This gates *behaviour*,
  not speed: an optimization that changes what the engine computes —
  rather than how fast — trips it.

The bench times nothing itself: a cell's ``wall_seconds`` is the minimum
of its records' own ``RunRecord.wall_seconds``, recorded but never
compared (it is host-dependent).  Implementation wall-clock is measured
by ``perfbench/`` (see ``BENCHMARK.json``) and by the ``wall_seconds``
every sweep record carries.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.experiments.artifacts import _atomic_write
from repro.experiments.registry import SweepCell, resolve
from repro.experiments.sweeps import run_cell

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_SCENARIOS",
    "bench_cells",
    "run_bench",
    "check_against",
    "render_bench",
]

BENCH_SCHEMA = 1

#: The gate suite's scenarios (resolved at smoke size): the CI smoke
#: suite plus the Table-2 Type II family.
DEFAULT_SCENARIOS: tuple[str, ...] = ("smoke", "table2")


def bench_cells(scenarios: Iterable[str] = DEFAULT_SCENARIOS) -> list[SweepCell]:
    """The gate suite: every listed scenario resolved at smoke size."""
    cells: list[SweepCell] = []
    for name in scenarios:
        cells.extend(resolve(name, smoke=True))
    return cells


def run_bench(
    cells: Sequence[SweepCell] | None = None, repeats: int = 3
) -> dict[str, Any]:
    """Run ``repeats`` passes of the suite; return the JSON-ready report.

    The first pass is cold and every pass is compared: a cell is
    ``deterministic`` only if all its canonical records are identical.
    A cell's wall is the minimum of its records' ``wall_seconds``.
    """
    if cells is None:
        cells = bench_cells()
    passes = [[run_cell(cell) for cell in cells] for _ in range(max(1, repeats))]
    results: list[dict[str, Any]] = []
    for cell, records in zip(cells, zip(*passes)):
        first = records[0]
        deterministic = all(
            r.canonical() == first.canonical() for r in records[1:]
        )
        outcome = first.outcome or {}
        results.append({
            "id": f"{cell.scenario}:{cell.cell_id}",
            "scenario": cell.scenario,
            "cell_id": cell.cell_id,
            "ok": first.ok and deterministic,
            "deterministic": deterministic,
            "wall_seconds": min(r.wall_seconds for r in records),
            "model_seconds": outcome.get("runtime"),
            "best_mu": outcome.get("best_mu"),
            "error": first.error,
        })
    scenario_wall: dict[str, float] = {}
    for r in results:
        scenario_wall[r["scenario"]] = (
            scenario_wall.get(r["scenario"], 0.0) + r["wall_seconds"]
        )
    return {
        "schema": BENCH_SCHEMA,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "repeats": repeats,
        "cells": results,
        "scenario_wall_seconds": scenario_wall,
    }


def check_against(
    report: dict[str, Any], baseline: dict[str, Any]
) -> list[str]:
    """Determinism gate: exact model-seconds / best-µ match per cell.

    Returns human-readable mismatch descriptions (empty = gate passes).
    Wall-clock fields are never compared.
    """
    problems: list[str] = []
    base_by_id = {c["id"]: c for c in baseline.get("cells", [])}
    seen = set()
    for c in report.get("cells", []):
        cid = c["id"]
        seen.add(cid)
        b = base_by_id.get(cid)
        if b is None:
            problems.append(f"{cid}: not in baseline")
            continue
        if not c["ok"]:
            problems.append(f"{cid}: cell failed ({c.get('error')})")
            continue
        for field in ("model_seconds", "best_mu"):
            if c.get(field) != b.get(field):
                problems.append(
                    f"{cid}: {field} {c.get(field)!r} != baseline {b.get(field)!r}"
                )
    for cid in base_by_id:
        if cid not in seen:
            problems.append(f"{cid}: in baseline but not benchmarked")
    return problems


def render_bench(report: dict[str, Any]) -> str:
    """Plain-text summary table of a bench report."""
    lines = [
        f"{'cell':55s} {'wall[s]':>8s} {'model[s]':>9s} {'µ(s)':>7s}",
        "-" * 82,
    ]
    for c in report["cells"]:
        mu = c.get("best_mu")
        ms = c.get("model_seconds")
        lines.append(
            f"{c['id']:55s} {c['wall_seconds']:8.3f} "
            f"{(f'{ms:.4f}' if ms is not None else '-'):>9s} "
            f"{(f'{mu:.4f}' if mu is not None else '-'):>7s}"
            + ("" if c["ok"] else "  FAILED")
        )
    lines.append("-" * 82)
    for name, wall in report["scenario_wall_seconds"].items():
        lines.append(f"{name + ' (scenario total)':55s} {wall:8.3f}")
    return "\n".join(lines)


def load_report(path: str | Path) -> dict[str, Any]:
    """Load a bench report from disk."""
    return json.loads(Path(path).read_text())


def save_report(report: dict[str, Any], path: str | Path) -> Path:
    """Write a bench report as pretty-printed JSON; returns the path.

    The file is replaced atomically: a write that dies midway leaves the
    previous report loadable.
    """
    p = Path(path)
    if p.parent and not p.parent.exists():
        p.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(p, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return p
