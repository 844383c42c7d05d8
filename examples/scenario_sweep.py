#!/usr/bin/env python3
"""Drive the experiment layer from Python: registry → sweep → artifacts.

Resolves the Table 2 scenario down to one circuit, fans it out over a
process pool, saves JSON/CSV artifacts, and renders the paper-shaped
report — the same pipeline as ``repro sweep --scenario table2``, but as a
library tour for building custom studies on top of.

Run:  python examples/scenario_sweep.py
"""

from repro.analysis.reporting import render_records
from repro.experiments import ArtifactStore, resolve, run_sweep


def main() -> None:
    # The registry declares each paper table as data; resolution yields
    # validated (spec, strategy, params) cells.  smoke=True keeps this
    # example at seconds scale — drop it (or pass scale=1) for real runs.
    cells = resolve("table2", smoke=True)
    print(f"Table 2 scenario resolved to {len(cells)} cells:")
    for cell in cells:
        print(f"  {cell.cell_id}")

    # Cells are pure functions of their spec, so the process pool (implied
    # by workers=) returns exactly what serial execution would — just faster.
    records = run_sweep(
        cells,
        workers=4,
        progress=lambda i, n, r: print(f"  [{i}/{n}] {r.cell_id}"),
    )

    store = ArtifactStore("artifacts")
    json_path, csv_path = store.save("example-table2", records)
    print(f"\nartifacts: {json_path}  {csv_path}")

    # Artifacts round-trip: reload from disk and render the paper layout.
    _meta, loaded = store.load("example-table2")
    print()
    print(render_records(loaded, "table2"))


if __name__ == "__main__":
    main()
