"""Determinism gate: report shape, pass agreement, baseline check, CLI."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments import bench
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
from repro.experiments.sweeps import run_cell
from tests.experiments.test_sweeps_artifacts import _DiskFillsUp


def _serial_smoke_cells():
    return [c for c in resolve("smoke", smoke=True) if c.strategy == "serial"]


@pytest.fixture(scope="module")
def smoke_report():
    """One real bench run over a single cheap cell (shared by the tests)."""
    return run_bench(cells=_serial_smoke_cells(), repeats=2)


def test_bench_cells_covers_default_suite():
    ids = {f"{c.scenario}:{c.cell_id}" for c in bench_cells()}
    assert any(i.startswith("smoke:") for i in ids)
    # The perf acceptance tracks the Table-2 Type II smoke scenario.
    assert any(i.startswith("table2:") and "type2" in i for i in ids)


def test_report_shape_and_determinism(smoke_report):
    r = smoke_report
    assert r["schema"] == BENCH_SCHEMA
    assert r["repeats"] == 2
    assert set(r) == {"schema", "python", "platform", "repeats", "cells",
                      "scenario_wall_seconds"}
    (cell,) = r["cells"]
    assert set(cell) == {"id", "scenario", "cell_id", "ok", "deterministic",
                         "wall_seconds", "model_seconds", "best_mu", "error"}
    assert cell["ok"] and cell["deterministic"]
    assert cell["wall_seconds"] > 0
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


@pytest.fixture
def serial_only(monkeypatch):
    """Narrow every ``--scenarios`` name to its serial smoke cells."""
    monkeypatch.setattr(
        bench, "resolve",
        lambda name, smoke: [c for c in resolve(name, smoke=smoke)
                             if c.strategy == "serial"])


def test_cli_bench_writes_report_and_self_checks(tmp_path, serial_only):
    out = tmp_path / "bench.json"
    rc = main(["bench", "--scenarios", "smoke", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == BENCH_SCHEMA
    assert payload["repeats"] == 3
    assert len(payload["cells"]) == len(_serial_smoke_cells())
    # The written report gates cleanly against itself.
    rc = main(["bench", "--scenarios", "smoke", "--check", str(out)])
    assert rc == 0


def test_cli_bench_has_only_the_gate_flags(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "-h"])
    out = capsys.readouterr().out
    flags = {w.strip("[],") for w in out.split() if w.startswith(("--", "[--"))}
    assert flags == {"--smoke", "--scenarios", "--out", "--check", "--help"}


def _cold_run_differs(monkeypatch):
    """``run_cell`` whose first run of each cell reports another µ(s)."""
    seen = set()

    def diverging(cell):
        record = run_cell(cell)
        if cell.cell_id in seen:
            return record
        seen.add(cell.cell_id)
        outcome = dict(record.outcome, best_mu=record.outcome["best_mu"] / 2)
        return replace(record, outcome=outcome)

    monkeypatch.setattr(bench, "run_cell", diverging)


def test_cold_run_that_differs_is_non_deterministic(monkeypatch):
    """The first (cold) pass is compared like every other pass."""
    _cold_run_differs(monkeypatch)
    (cell,) = run_bench(cells=_serial_smoke_cells(), repeats=2)["cells"]
    assert not cell["deterministic"]
    assert not cell["ok"]


def test_cli_bench_fails_on_a_cold_run_divergence(
    monkeypatch, serial_only, capsys,
):
    _cold_run_differs(monkeypatch)
    assert main(["bench", "--scenarios", "smoke"]) == 1
    assert "non-deterministic repeats" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    None,
    "{not json",
    json.dumps({"meta": {}, "records": []}),
    json.dumps([1, 2]),
], ids=["missing", "not-json", "sweep-artifact", "not-an-object"])
def test_bad_baseline_is_a_usage_error_before_any_cell_runs(
    content, tmp_path, monkeypatch, capsys,
):
    baseline = tmp_path / "baseline.json"
    if content is not None:
        baseline.write_text(content)

    def no_cell_may_run(cell):
        raise AssertionError(f"ran {cell.cell_id} before checking the baseline")

    monkeypatch.setattr(bench, "run_cell", no_cell_may_run)
    assert main(["bench", "--check", str(baseline)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_committed_baseline_is_loadable():
    """BENCH_PR3.json (repo root) parses and covers the default suite."""
    root = Path(__file__).resolve().parents[2] / "BENCH_PR3.json"
    payload = json.loads(root.read_text())
    assert payload["schema"] == BENCH_SCHEMA
    ids = {c["id"] for c in payload["cells"]}
    assert {f"{c.scenario}:{c.cell_id}" for c in bench_cells()} == ids
    assert "reference" in payload  # pre-PR3 wall-clock trajectory


def test_committed_baseline_gate_is_exact():
    """The default bench suite reproduces BENCH_PR3.json exactly: every
    cell's model-seconds and best µ, i.e. every fused-kernel trajectory."""
    baseline = load_report(
        Path(__file__).resolve().parents[2] / "BENCH_PR3.json"
    )
    report = run_bench(cells=bench_cells(), repeats=1)
    assert check_against(report, baseline) == []


def test_save_report_roundtrip(tmp_path, smoke_report):
    path = save_report(smoke_report, tmp_path / "r.json")
    assert json.loads(path.read_text()) == json.loads(json.dumps(smoke_report))


def test_save_report_that_fails_midway_keeps_the_previous_report(
    tmp_path, monkeypatch, smoke_report,
):
    path = save_report(smoke_report, tmp_path / "BENCH.json")
    old = path.read_bytes()

    real_open = Path.open

    def open_on_a_full_disk(p, mode="r", *args, **kwargs):
        fh = real_open(p, mode, *args, **kwargs)
        if "w" in mode and p.name.startswith("BENCH.json"):
            return _DiskFillsUp(fh, budget=200)
        return fh

    monkeypatch.setattr(Path, "open", open_on_a_full_disk)
    with pytest.raises(OSError, match="No space left"):
        save_report({**smoke_report, "repeats": 99}, path)
    monkeypatch.undo()

    assert path.read_bytes() == old
    assert load_report(path) == json.loads(json.dumps(smoke_report))
    assert not list(tmp_path.glob("*.tmp*"))


def test_report_records_host_provenance(smoke_report):
    """python/platform provenance rides in every report (attribution)."""
    assert smoke_report["python"]
    assert smoke_report["platform"]
