"""Wall-clock bench harness: report shape, determinism gate, CLI."""

import json

import pytest

from repro.cli import main
from repro.experiments.bench import (
    BENCH_SCHEMA,
    bench_cells,
    check_against,
    load_report,
    render_bench,
    run_bench,
    save_report,
)
from repro.experiments.registry import resolve


@pytest.fixture(scope="module")
def smoke_report():
    """One real bench run over a single cheap cell (shared by the tests)."""
    cells = [c for c in resolve("smoke", smoke=True) if c.strategy == "serial"]
    return run_bench(cells=cells, repeats=2, warmup=False)


def test_bench_cells_covers_default_suite():
    ids = {f"{c.scenario}:{c.cell_id}" for c in bench_cells()}
    assert any(i.startswith("smoke:") for i in ids)
    # The perf acceptance tracks the Table-2 Type II smoke scenario.
    assert any(i.startswith("table2:") and "type2" in i for i in ids)


def test_report_shape_and_determinism(smoke_report):
    r = smoke_report
    assert r["schema"] == BENCH_SCHEMA
    assert r["repeats"] == 2
    (cell,) = r["cells"]
    assert cell["ok"] and cell["deterministic"]
    assert cell["wall_seconds"] == min(cell["wall_seconds_all"])
    assert cell["model_seconds"] > 0
    assert 0.0 <= cell["best_mu"] <= 1.0
    assert r["scenario_wall_seconds"]["smoke"] == cell["wall_seconds"]
    assert "smoke:" in render_bench(r)


def test_gate_passes_against_itself(smoke_report):
    assert check_against(smoke_report, smoke_report) == []


def test_gate_catches_model_second_drift(smoke_report):
    tampered = json.loads(json.dumps(smoke_report))
    tampered["cells"][0]["model_seconds"] += 1e-9
    problems = check_against(tampered, smoke_report)
    assert problems and "model_seconds" in problems[0]


def test_gate_catches_missing_and_extra_cells(smoke_report):
    empty = {"cells": []}
    assert any("not in baseline" in p
               for p in check_against(smoke_report, empty))
    assert any("not benchmarked" in p
               for p in check_against(empty, smoke_report))


def test_gate_ignores_wall_clock(smoke_report):
    slower = json.loads(json.dumps(smoke_report))
    slower["cells"][0]["wall_seconds"] *= 100.0
    assert check_against(slower, smoke_report) == []


def test_cli_bench_writes_report_and_self_checks(tmp_path):
    out = tmp_path / "bench.json"
    rc = main(["bench", "--scenarios", "smoke", "--repeats", "1",
               "--no-warmup", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == BENCH_SCHEMA
    assert len(payload["cells"]) == len(resolve("smoke", smoke=True))
    # The written report gates cleanly against itself.
    rc = main(["bench", "--scenarios", "smoke", "--repeats", "1",
               "--no-warmup", "--check", str(out)])
    assert rc == 0


def test_committed_baseline_is_loadable():
    """BENCH_PR3.json (repo root) parses and covers the default suite."""
    from pathlib import Path

    root = Path(__file__).resolve().parents[2] / "BENCH_PR3.json"
    payload = json.loads(root.read_text())
    assert payload["schema"] == BENCH_SCHEMA
    ids = {c["id"] for c in payload["cells"]}
    assert {f"{c.scenario}:{c.cell_id}" for c in bench_cells()} == ids
    assert "reference" in payload  # pre-PR3 wall-clock trajectory


def test_committed_baseline_gate_is_exact():
    """The default bench suite reproduces BENCH_PR3.json exactly: every
    cell's model-seconds and best µ, i.e. every fused-kernel trajectory."""
    from pathlib import Path

    baseline = load_report(
        Path(__file__).resolve().parents[2] / "BENCH_PR3.json"
    )
    report = run_bench(cells=bench_cells(), repeats=1, warmup=False)
    assert check_against(report, baseline) == []


def test_save_report_roundtrip(tmp_path, smoke_report):
    path = save_report(smoke_report, tmp_path / "r.json")
    assert json.loads(path.read_text()) == json.loads(json.dumps(smoke_report))


def test_embed_reference_derives_speedups(smoke_report):
    from repro.experiments.bench import embed_reference

    ref = json.loads(json.dumps(smoke_report))
    ref["cells"][0]["wall_seconds"] *= 2.0
    ref["scenario_wall_seconds"]["smoke"] *= 2.0
    report = embed_reference(
        json.loads(json.dumps(smoke_report)), ref, note="previous PR")
    block = report["reference"]
    assert block["note"] == "previous PR"
    cid = smoke_report["cells"][0]["id"]
    assert block["speedup_by_cell"][cid] == pytest.approx(2.0)
    assert block["scenario_speedup"]["smoke"] == pytest.approx(2.0)


def test_report_records_host_provenance(smoke_report):
    """numpy/python/cpu provenance rides in every report (attribution)."""
    import numpy as np

    assert smoke_report["numpy"] == np.__version__
    assert smoke_report["python"]
    assert smoke_report["cpu_count"] >= 1
    assert smoke_report["eval_modes"] == ["scalar"]


def test_cells_probed_per_second_throughput(smoke_report):
    """Serial cells report work-meter-derived kernel throughput."""
    (cell,) = smoke_report["cells"]
    assert cell["eval_mode"] == "scalar"
    assert cell["cells_probed"] > 0
    assert cell["cells_probed_per_second"] == pytest.approx(
        cell["cells_probed"] / cell["wall_seconds"]
    )


def test_multi_mode_bench_derives_eval_speedup():
    """eval_modes benches each cell per mode and derives speedups."""
    cells = [c for c in resolve("smoke", smoke=True) if c.strategy == "serial"]
    report = run_bench(cells=cells, repeats=1, warmup=False,
                       eval_modes=("scalar", "batch"))
    assert len(report["cells"]) == 2 * len(cells)
    by_mode = {c["eval_mode"] for c in report["cells"]}
    assert by_mode == {"scalar", "batch"}
    batch_rows = [c for c in report["cells"] if c["eval_mode"] == "batch"]
    for c in batch_rows:
        assert "eval_mode=batch" in c["cell_id"]
        assert c["ok"]
    # Scalar scenario totals keep their plain key; batch gets its own.
    assert "smoke" in report["scenario_wall_seconds"]
    assert "smoke[batch]" in report["scenario_wall_seconds"]
    base_id = report["cells"][0]["base_id"]
    assert "batch" in report["eval_speedup"][base_id]
