"""Wall-clock benchmark harness: the perf trajectory and determinism gate.

The work meter measures the *algorithm* (model-seconds); this module
measures the *implementation* (wall-clock).  ``repro bench`` runs the smoke
benchmark suite — every cell of the ``smoke`` scenario plus the Table-2
scenario resolved at smoke size — with a warm-up pass and timed repeats per
cell, and writes a JSON report (``BENCH_PR<n>.json`` by convention at the
repo root) so successive PRs have a perf trajectory to beat.

Two invariants ride along:

* **determinism self-check** — the repeats of a cell must produce
  byte-identical canonical records (wall-clock aside); a flaky cell fails
  the bench;
* **determinism gate** (``--check``) — model-seconds and best µ(s) per
  cell must exactly match a committed baseline report.  This gates
  *behaviour*, not speed: an optimization that changes what the engine
  computes — rather than how fast — trips it.  Wall-clock numbers are
  recorded but never compared (they are host-dependent).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from repro.experiments.registry import SweepCell, override, resolve
from repro.experiments.sweeps import run_cell

__all__ = [
    "BENCH_SCHEMA",
    "DEFAULT_SCENARIOS",
    "bench_cells",
    "run_bench",
    "check_against",
    "embed_reference",
    "render_bench",
]

BENCH_SCHEMA = 1

#: Scenarios benchmarked by default (resolved at smoke size): the CI smoke
#: suite plus the Table-2 Type II family the perf acceptance tracks.
DEFAULT_SCENARIOS: tuple[str, ...] = ("smoke", "table2")


def bench_cells(
    scenarios: Iterable[str] = DEFAULT_SCENARIOS,
    smoke: bool = True,
    scale: int = 100,
    circuits: Sequence[str] | None = None,
) -> list[SweepCell]:
    """The benchmark suite: every listed scenario resolved.

    The default is smoke size (the committed-baseline suite);
    ``smoke=False`` resolves at full size divided by ``scale`` — the
    scaling-ladder benches (``BENCH_PR6.json``) use that with a circuit
    filter.
    """
    cells: list[SweepCell] = []
    for name in scenarios:
        cells.extend(resolve(name, scale=scale, circuits=circuits, smoke=smoke))
    return cells


def _bench_id(cell: SweepCell) -> str:
    return f"{cell.scenario}:{cell.cell_id}"


def run_bench(
    cells: Sequence[SweepCell] | None = None,
    repeats: int = 3,
    warmup: bool = True,
    scenarios: Iterable[str] = DEFAULT_SCENARIOS,
    eval_modes: Sequence[str] = ("scalar",),
    smoke: bool = True,
    scale: int = 100,
    circuits: Sequence[str] | None = None,
) -> dict[str, Any]:
    """Run the suite; return the JSON-ready report.

    Per cell: one warm-up run (pays one-time construction caches so the
    timed runs measure the algorithmic path), then ``repeats`` timed runs;
    the reported wall is the minimum (noise floor), and every repeat's
    canonical record must be identical (determinism self-check).

    ``eval_modes`` benches every cell once per listed evaluation path
    (``override(eval_mode=...)`` per cell, so non-default modes get their
    own cell ids); the report's ``eval_speedup`` block derives, per base
    cell, the wall-clock speedup of each non-scalar mode over scalar.
    Host provenance (python, numpy, platform, CPU count) is embedded so
    fast-path numbers stay attributable across machines; serial cells
    additionally report cells-probed-per-second throughput derived from
    the work meter's ``probe`` counter — a kernel metric independent of
    circuit size.
    """
    if cells is None:
        cells = bench_cells(scenarios, smoke=smoke, scale=scale,
                            circuits=circuits)
    results: list[dict[str, Any]] = []
    for base_cell in cells:
        for mode in eval_modes:
            # Per-cell override (not over the whole list at once): the
            # passthrough/dedup in override must never shift
            # the mode↔cell pairing.
            cell = override([base_cell], eval_mode=mode)[0]
            if warmup:
                run_cell(cell)
            walls: list[float] = []
            canon: dict | None = None
            record = None
            deterministic = True
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                record = run_cell(cell)
                walls.append(time.perf_counter() - t0)
                c = record.canonical()
                if canon is None:
                    canon = c
                elif c != canon:
                    deterministic = False
            outcome = record.outcome or {}
            work_units = (outcome.get("extras") or {}).get("work_units") or {}
            probes = work_units.get("probe")
            wall = min(walls)
            results.append({
                "id": _bench_id(cell),
                "scenario": cell.scenario,
                "cell_id": cell.cell_id,
                "base_id": _bench_id(base_cell),
                "eval_mode": mode,
                "ok": record.ok and deterministic,
                "deterministic": deterministic,
                "wall_seconds": wall,
                "wall_seconds_all": walls,
                "model_seconds": outcome.get("runtime"),
                "best_mu": outcome.get("best_mu"),
                "cells_probed": probes,
                "cells_probed_per_second": (
                    probes / wall if probes and wall > 0 else None
                ),
                "error": record.error,
            })
    scenario_wall: dict[str, float] = {}
    for r in results:
        # Non-default modes get their own scenario bucket so the scalar
        # totals stay comparable across reports.
        key = (r["scenario"] if r["eval_mode"] == "scalar"
               else f"{r['scenario']}[{r['eval_mode']}]")
        scenario_wall[key] = scenario_wall.get(key, 0.0) + r["wall_seconds"]
    scalar_wall = {r["base_id"]: r["wall_seconds"] for r in results
                   if r["eval_mode"] == "scalar"}
    eval_speedup: dict[str, dict[str, float]] = {}
    for r in results:
        base = scalar_wall.get(r["base_id"])
        if r["eval_mode"] != "scalar" and base and r["wall_seconds"] > 0:
            eval_speedup.setdefault(r["base_id"], {})[r["eval_mode"]] = round(
                base / r["wall_seconds"], 2
            )
    return {
        "schema": BENCH_SCHEMA,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "eval_modes": list(eval_modes),
        "cells": results,
        "scenario_wall_seconds": scenario_wall,
        "eval_speedup": eval_speedup,
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


def embed_reference(
    report: dict[str, Any],
    reference: dict[str, Any],
    note: str = "previous baseline",
) -> dict[str, Any]:
    """Attach a prior report as the ``reference`` block (perf trajectory).

    Copies the reference's cells and scenario walls and derives per-cell
    and per-scenario wall-clock speedups, so a freshly written baseline
    carries the numbers it was measured against.  Returns ``report``.
    """
    ref_cells = reference.get("cells", [])
    ref_wall = reference.get("scenario_wall_seconds", {})
    ref_by_id = {c["id"]: c for c in ref_cells}
    speedups = {}
    for c in report["cells"]:
        r = ref_by_id.get(c["id"])
        if r and r.get("wall_seconds") and c["wall_seconds"]:
            speedups[c["id"]] = round(r["wall_seconds"] / c["wall_seconds"], 2)
    report["reference"] = {
        "note": note,
        "cells": ref_cells,
        "scenario_wall_seconds": ref_wall,
        "speedup_by_cell": speedups,
        "scenario_speedup": {
            k: round(ref_wall[k] / v, 2)
            for k, v in report["scenario_wall_seconds"].items()
            if ref_wall.get(k)
        },
    }
    return report


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
    for base, modes in (report.get("eval_speedup") or {}).items():
        for mode, s in modes.items():
            lines.append(f"{base}: {mode} speedup vs scalar {s:.2f}x")
    return "\n".join(lines)


def load_report(path: str | Path) -> dict[str, Any]:
    """Load a bench report from disk."""
    return json.loads(Path(path).read_text())


def save_report(report: dict[str, Any], path: str | Path) -> Path:
    """Write a bench report as pretty-printed JSON; returns the path."""
    p = Path(path)
    if p.parent and not p.parent.exists():
        p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return p
