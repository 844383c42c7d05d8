"""Sweep execution (determinism, failure isolation) and artifact round trips."""

from __future__ import annotations

import csv

import pytest

from repro.analysis.reporting import render_records
from repro.analysis.speedup import quality_bracket
from repro.experiments.artifacts import ArtifactStore, RunRecord, failed
from repro.experiments.registry import SweepCell, base_spec, resolve
from repro.experiments.sweeps import run_cell, run_sweep

TINY_ITERS = 6


def _tiny_cells() -> list[SweepCell]:
    spec = base_spec("s1196", iterations=TINY_ITERS, seed=3)
    return [
        SweepCell("t", "s1196/serial", "serial", spec),
        SweepCell("t", "s1196/type2", "type2", spec,
                  (("p", 2), ("pattern", "random"))),
    ]


def test_run_cell_produces_full_record():
    record = run_cell(_tiny_cells()[0])
    assert record.ok and record.error is None
    assert record.outcome is not None
    assert record.outcome["strategy"] == "serial"
    assert record.outcome["best_mu"] > 0
    assert record.spec == _tiny_cells()[0].spec.to_dict()
    outcome = record.parallel_outcome()
    assert outcome.best_mu == record.outcome["best_mu"]
    assert outcome.history  # rebuilt as tuples
    assert isinstance(outcome.history[0], tuple)


def test_sweep_serial_and_pool_agree():
    cells = _tiny_cells()
    serial = run_sweep(cells, processes=False)
    pooled = run_sweep(cells, workers=2, processes=True)
    assert [r.canonical() for r in serial] == [r.canonical() for r in pooled]


def _record_with_cluster(cluster: str) -> RunRecord:
    # Only the real-backend runner paths set extras["cluster"]; a sim
    # outcome never carries the key.
    extras = {
        "model_seconds": 3.0,
        "wall_seconds": 1.3,
        "rank_clocks": [1.2, 1.25],
    }
    if cluster != "sim":
        extras["cluster"] = cluster
    return RunRecord(
        scenario="t", cell_id=f"c[{cluster}]", strategy="type2",
        spec={"circuit": "s1196"}, params={"p": 2}, ok=True, error=None,
        outcome={
            "best_mu": 0.5,
            "runtime": 1.25,
            "history": [[0, 0.4, 0.7], [1, 0.5, 1.25]],
            "extras": extras,
        },
        wall_seconds=1.3,
    )


def test_canonical_strips_wall_timing_on_real_backends_only():
    # Two runs of the same cell on a wall-clock backend never agree on
    # host timing; canonical() must key on the solution, the meter
    # charges and the µ trajectory alone.  On sim the same fields are
    # deterministic model-seconds and stay part of the key.  "mp" stands
    # for an artifact written by the retired pipe-mesh backend: diffing
    # such older records must still ignore their host timing.
    for cluster in ("mp", "socket"):
        c = _record_with_cluster(cluster).canonical()
        out = c["outcome"]
        assert "wall_seconds" not in c
        assert "runtime" not in out
        assert "wall_seconds" not in out["extras"]
        assert "rank_clocks" not in out["extras"]
        assert out["history"] == [[0, 0.4], [1, 0.5]]  # µ kept, clock dropped
        assert out["extras"]["model_seconds"] == 3.0

    sim = _record_with_cluster("sim").canonical()
    assert "wall_seconds" not in sim
    assert sim["outcome"] == _record_with_cluster("sim").outcome
    # canonical() must not mutate the record it was asked to describe.
    rec = _record_with_cluster("socket")
    rec.canonical()
    assert rec.outcome["runtime"] == 1.25
    assert rec.outcome["extras"]["rank_clocks"] == [1.2, 1.25]


def test_failure_isolation():
    good = _tiny_cells()[0]
    bad = SweepCell(
        "t", "bad/circuit", "serial", base_spec("does-not-exist", iterations=2)
    )
    seen = []
    records = run_sweep(
        [bad, good], progress=lambda i, n, r: seen.append((i, n, r.ok))
    )
    assert [r.ok for r in records] == [False, True]
    assert "does-not-exist" in (records[0].error or "")
    assert records[0].outcome is None
    assert failed(records) == [records[0]]
    assert seen == [(1, 2, False), (2, 2, True)]
    with pytest.raises(ValueError):
        records[0].parallel_outcome()


def test_unknown_strategy_is_isolated_too():
    cell = SweepCell("t", "x", "serial", base_spec("s1196", iterations=2))
    object.__setattr__(cell, "strategy", "warp-drive")
    record = run_cell(cell)
    assert not record.ok and "warp-drive" in (record.error or "")


def test_artifact_store_roundtrip(tmp_path):
    records = run_sweep(_tiny_cells())
    store = ArtifactStore(tmp_path / "artifacts")
    json_path, csv_path = store.save("tiny", records, meta={"scale": 1})
    assert json_path.exists() and csv_path.exists()

    meta, loaded = store.load("tiny")
    assert meta == {"scale": 1}
    assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]
    # Loading by explicit path works too.
    _, again = store.load(json_path)
    assert [r.to_dict() for r in again] == [r.to_dict() for r in loaded]

    with csv_path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(records)
    assert rows[0]["strategy"] == "serial"
    assert rows[1]["pattern"] == "random"
    assert float(rows[0]["best_mu"]) > 0


def test_loaded_records_feed_analysis(tmp_path):
    records = run_sweep(_tiny_cells())
    store = ArtifactStore(tmp_path)
    store.save("tiny", records)
    _, loaded = store.load("tiny")
    serial = loaded[0].parallel_outcome()
    bracket = quality_bracket(loaded[1].parallel_outcome(), serial.best_mu)
    assert bracket.time > 0


def test_render_records_paper_shapes():
    cells = resolve("table1", circuits=["s1196"], smoke=True)
    records = run_sweep(cells)
    text = render_records(records, "table1")
    assert "Table 1" in text and "p=5" in text and "s1196" in text

    generic = render_records(records, "unknown-scenario")
    assert "Sweep results" in generic


def test_table2_and_table3_reports_are_distinguishable():
    cells = resolve("table2", circuits=["s1196"], smoke=True)[:2]
    records = run_sweep(cells)
    assert "Table 2" in render_records(records, "table2")
    assert "Table 3" in render_records(records, "table3")


def test_render_keeps_multi_seed_replicates_separate():
    cells = resolve("table1", circuits=["s1196"], seeds=[1, 2], smoke=True)
    records = run_sweep(cells)
    text = render_records(records, "table1")
    lines = [l for l in text.splitlines() if l.startswith("s1196")]
    assert len(lines) == 2  # one row per replicate, not merged
    assert "seed" in text
    mus = {r.outcome["best_mu"] for r in records if r.strategy == "serial"}
    assert len(mus) == 2  # different seeds actually diverge
    for mu in mus:
        assert f"{mu:.3f}" in text


def test_render_table_unions_columns_across_rows():
    from repro.analysis.reporting import render_table

    # A sparse first row must not hide columns that later rows carry.
    text = render_table([{"a": 1}, {"a": 2, "b": 3}])
    assert "b" in text and "3" in text


def test_table4_renderer_excludes_type3x():
    from repro.analysis.reporting import render_table4_records

    spec = base_spec("s1238", iterations=TINY_ITERS)
    cells = [
        SweepCell("t", "s1238/serial", "serial", spec),
        SweepCell("t", "s1238/type3", "type3", spec,
                  (("p", 3), ("retry_threshold", 1))),
        SweepCell("t", "s1238/type3x", "type3x", spec,
                  (("p", 3), ("retry_threshold", 1))),
    ]
    records = run_sweep(cells)
    text = render_table4_records(records)
    mu3 = records[1].outcome["best_mu"]
    assert f"{mu3:.3f}@" in text  # type3's cell, not type3x's


def test_render_records_handles_missing_error_text():
    record = RunRecord(
        scenario="t", cell_id="x", strategy="serial", spec={}, params={},
        ok=False, error=None, outcome=None, wall_seconds=0.0,
    )
    text = render_records([record], "custom")
    assert "(no error recorded)" in text


def test_artifact_store_load_handles_dotted_names(tmp_path):
    store = ArtifactStore(tmp_path)
    records = [run_cell(_tiny_cells()[0])]
    store.save("run.v2", records)
    _, loaded = store.load("run.v2")
    assert len(loaded) == 1


def test_artifact_store_load_keeps_subdirectories(tmp_path):
    store = ArtifactStore(tmp_path)
    sub = ArtifactStore(tmp_path / "runs")
    records = [run_cell(_tiny_cells()[0])]
    sub.save("tiny", records)
    _, loaded = store.load("runs/tiny")
    assert [r.to_dict() for r in loaded] == [r.to_dict() for r in records]


def test_render_records_lists_failures():
    bad = SweepCell(
        "t", "bad/circuit", "serial", base_spec("does-not-exist", iterations=2)
    )
    records = run_sweep([bad])
    text = render_records(records, "custom")
    assert "1 failed cell(s):" in text and "bad/circuit" in text
