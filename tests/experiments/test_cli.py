"""CLI smoke tests: `repro list`, `repro run`, `repro sweep`, `repro diff`."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def test_list_scenarios(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("table1", "table2", "table3", "table4", "profile", "smoke"):
        assert name in out


def test_list_verbose_and_circuits(capsys):
    assert main(["list", "-v"]) == 0
    assert "pattern" in capsys.readouterr().out
    assert main(["list", "--circuits"]) == 0
    assert "s1196" in capsys.readouterr().out


def test_run_serial(capsys):
    assert main(["run", "--circuit", "s1196", "--iterations", "6"]) == 0
    out = capsys.readouterr().out
    assert "µ(s)=" in out and "wirelength" in out


@pytest.mark.parametrize("argv, message", [
    (["--strategy", "type3x", "--p", "3", "--retry-threshold", "0"],
     "retry_threshold must be >= 1"),
    (["--strategy", "type3", "--retry-threshold", "0"],
     "retry_threshold must be >= 1"),
    (["--strategy", "type1", "--p", "1"], "type1 needs p >= 2, got 1"),
    (["--strategy", "type3", "--p", "2"], "type3 needs p >= 3, got 2"),
    (["--strategy", "serial", "--p", "4"], "serial takes no p parameter"),
    (["--strategy", "type1", "--retry-threshold", "5"],
     "type1 takes no retry_threshold parameter"),
    (["--strategy", "type3", "--pattern", "fixed"],
     "type3 takes no pattern parameter"),
    (["--strategy", "profile", "--p", "2"], "profile takes no p parameter"),
])
def test_run_rejects_an_invalid_cell_before_running(argv, message, capsys):
    """The cell is validated like a registry cell: one line, exit 2."""
    assert main(["run", "--circuit", "s1196", "--iterations", "4", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_run_json_and_artifact(tmp_path, capsys):
    code = main([
        "run", "--circuit", "s1196", "--strategy", "type2", "--p", "2",
        "--iterations", "6", "--json", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    record = json.loads(out[: out.rindex("}") + 1])
    assert record["ok"] is True
    assert record["outcome"]["strategy"] == "type2-random"
    # Artifact named after the full cell (params included), so runs with
    # different configurations don't clobber each other.
    assert (tmp_path / "s1196-seed1-type2[p=2,pattern=random].json").exists()


def test_sweep_smoke_writes_artifacts(tmp_path, capsys):
    code = main(["sweep", "--smoke", "--out", str(tmp_path), "--tag", "ci"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Sweep results" in out
    payload = json.loads((tmp_path / "ci.json").read_text())
    assert payload["meta"]["scenario"] == "smoke"
    assert all(r["ok"] for r in payload["records"])
    assert (tmp_path / "ci.csv").exists()


def test_sweep_smoke_scenario_runs_every_strategy(tmp_path, capsys):
    """The smoke scenario is five cells, one per strategy."""
    code = main(["sweep", "--scenario", "smoke", "--no-cache",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "sweep smoke: 5 cells" in out
    payload = json.loads((tmp_path / "smoke.json").read_text())
    assert {r["strategy"] for r in payload["records"]} == {
        "serial", "type1", "type2", "type3", "type3x"
    }


def test_tables_smoke_renders_table_shape(tmp_path, capsys):
    code = main(["sweep", "--scenario", "table1", "--smoke", "--out",
                 str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    for col in ("Seq", "p=2", "p=3", "p=4", "p=5"):
        assert col in out
    payload = json.loads((tmp_path / "table1-smoke.json").read_text())
    strategies = {r["strategy"] for r in payload["records"]}
    assert strategies == {"serial", "type1"}


def test_sweep_prints_one_verdict_per_claim(tmp_path, capsys):
    """Under a paper table, `sweep` prints one verdict line per DESIGN §7
    claim; a shard lacks cells, so none of them is checked, let alone
    holds, and the exit status stays the sweep's own."""
    from repro.analysis.claims import CLAIMS

    names = [c.name for c in CLAIMS["table1"]]
    argv = ["sweep", "--scenario", "table1", "--smoke", "--out", str(tmp_path)]

    def verdicts(out):
        return [line.strip() for line in out.splitlines()
                if line.strip().startswith("E")]

    assert main(argv) == 0
    full = verdicts(capsys.readouterr().out)
    assert [v.split(": ")[0] for v in full] == names
    assert all(v.split(": ")[1] in ("holds", "does not hold") for v in full)

    assert main(argv + ["--shard", "1/2", "--resume"]) == 0
    shard = verdicts(capsys.readouterr().out)
    assert [v.split(": ")[0] for v in shard] == names
    assert all(v.split(": ")[1] == "not checked" for v in shard)
    assert not any("holds" in v for v in shard)


def test_sweep_custom_grid_smoke_keeps_circuits(tmp_path, capsys):
    code = main([
        "sweep", "--circuits", "s1238", "--strategies", "serial",
        "--smoke", "--out", str(tmp_path),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "sweep-smoke.json").read_text())
    assert {r["spec"]["circuit"] for r in payload["records"]} == {"s1238"}


def test_sweep_custom_grid_bad_inputs_error_cleanly(capsys):
    assert main(["sweep", "--circuits", "bogus", "--strategies", "serial"]) == 2
    assert "unknown circuit" in capsys.readouterr().err
    assert main([
        "sweep", "--circuits", "s1196", "--strategies", "type3",
        "--p-values", "2",
    ]) == 2
    assert "needs p >=" in capsys.readouterr().err


def test_list_cell_counts_reflect_resolution(capsys):
    from repro.experiments.registry import resolve

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("table4"))
    assert str(len(resolve("table4", scale=100))) in line.split()


def test_sweep_empty_circuits_errors(capsys):
    assert main(["sweep", "--scenario", "smoke", "--circuits", ""]) == 2
    assert "0 cells" in capsys.readouterr().err


def test_sweep_unknown_scenario_errors(capsys):
    assert main(["sweep", "--scenario", "nope"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_sweep_custom_grid_requires_circuits(capsys):
    assert main(["sweep", "--strategies", "serial"]) == 2


def test_sweep_scenario_and_strategies_conflict(capsys):
    code = main([
        "sweep", "--scenario", "table3", "--circuits", "s1196",
        "--strategies", "type2",
    ])
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_sweep_without_target_errors(capsys):
    assert main(["sweep"]) == 2


def test_run_rejects_unknown_circuit():
    with pytest.raises(SystemExit):
        main(["run", "--circuit", "bogus"])


def _patch_runner(monkeypatch, strategy, run):
    """Swap one strategy's runner in the table sweep dispatch reads."""
    from dataclasses import replace

    from repro.experiments.registry import STRATEGIES

    monkeypatch.setitem(
        STRATEGIES, strategy, replace(STRATEGIES[strategy], run=run)
    )


def test_run_failed_cell_exits_nonzero(capsys, monkeypatch):
    # A valid cell whose run fails: the exit code must say so.  (An
    # invalid cell never runs; see the test above.)
    def boom(spec, **params):
        raise RuntimeError("type3 exploded")

    _patch_runner(monkeypatch, "type3", boom)
    code = main([
        "run", "--circuit", "s1196", "--strategy", "type3", "--p", "3",
        "--iterations", "4",
    ])
    assert code == 1
    assert "FAILED" in capsys.readouterr().err


def test_sweep_failed_cells_exit_nonzero(tmp_path, capsys, monkeypatch):
    def boom(spec, **params):
        raise RuntimeError("type1 exploded")

    _patch_runner(monkeypatch, "type1", boom)
    code = main(["sweep", "--smoke", "--out", str(tmp_path), "--no-cache"])
    assert code == 1
    err = capsys.readouterr().err
    assert "cell(s) FAILED" in err
    # The artifact still records the failure (isolation, not abortion).
    payload = json.loads((tmp_path / "smoke.json").read_text())
    bad = [r for r in payload["records"] if not r["ok"]]
    assert len(bad) == 1 and "type1 exploded" in bad[0]["error"]


def test_sweep_custom_grid_surfaces_dropped_cells(tmp_path, capsys):
    code = main([
        "sweep", "--circuits", "s1196", "--strategies", "serial,type3",
        "--p-values", "2,4", "--smoke", "--out", str(tmp_path), "--no-cache",
    ])
    assert code == 0
    assert "dropped type3[p=2]" in capsys.readouterr().err


def test_sweep_shard_resume_merges_to_fresh_run(tmp_path, capsys):
    fresh, sharded = tmp_path / "fresh", tmp_path / "sharded"
    assert main(["sweep", "--smoke", "--out", str(fresh), "--no-cache"]) == 0
    for i in (1, 2):
        assert main([
            "sweep", "--smoke", "--out", str(sharded), "--shard", f"{i}/2",
        ]) == 0
        assert (sharded / f"smoke-shard{i}of2.json").exists()
    # Merge: resume replays both shards' cells from the cache.
    assert main(["sweep", "--smoke", "--out", str(sharded), "--resume"]) == 0
    capsys.readouterr()
    code = main(["diff", str(sharded / "smoke.json"), str(fresh / "smoke.json")])
    assert code == 0
    assert "identical" in capsys.readouterr().out


def test_sweep_resume_from_explicit_dir(tmp_path, capsys):
    first = tmp_path / "first"
    assert main(["sweep", "--smoke", "--out", str(first)]) == 0
    out = tmp_path / "second"
    assert main([
        "sweep", "--smoke", "--out", str(out), "--resume", str(first),
    ]) == 0
    capsys.readouterr()
    assert main(["diff", str(first / "smoke.json"),
                 str(out / "smoke.json")]) == 0


def test_sweep_resume_explicit_dir_caches_fresh_cells_under_out(tmp_path):
    # Seed a *partial* source dir (one shard), then resume into a new
    # --out: the freshly-run cells must land in out/cells (so a later
    # bare --resume on out works) and the source dir must not grow.
    src, out = tmp_path / "src", tmp_path / "out"
    assert main(["sweep", "--smoke", "--out", str(src), "--shard", "1/2"]) == 0
    src_cells_before = sorted(p.name for p in (src / "cells").glob("*.json"))
    assert main([
        "sweep", "--smoke", "--out", str(out), "--resume", str(src),
    ]) == 0
    src_cells_after = sorted(p.name for p in (src / "cells").glob("*.json"))
    assert src_cells_after == src_cells_before  # source never mutated
    # out/cells is self-contained: promoted shard hits + fresh cells.
    out_cells = {p.name for p in (out / "cells").glob("*.json")}
    assert set(src_cells_before) < out_cells
    # The advertised follow-up: bare --resume on out replays everything.
    assert main(["sweep", "--smoke", "--out", str(out), "--resume"]) == 0


def test_sweep_bad_shard_errors(capsys):
    assert main(["sweep", "--smoke", "--shard", "3/2"]) == 2
    assert "shard" in capsys.readouterr().err


def test_sweep_resume_with_no_cache_is_a_usage_error(capsys):
    assert main(["sweep", "--smoke", "--resume", "--no-cache"]) == 2
    assert "contradictory" in capsys.readouterr().err


def test_diff_reports_differences(tmp_path, capsys):
    a = {"meta": {}, "records": [{
        "scenario": "t", "cell_id": "x", "strategy": "serial", "spec": {},
        "params": {}, "ok": True, "error": None,
        "outcome": {"best_mu": 0.5}, "wall_seconds": 1.0,
    }]}
    import copy

    b = copy.deepcopy(a)
    b["records"][0]["outcome"]["best_mu"] = 0.6
    (tmp_path / "a.json").write_text(json.dumps(a))
    (tmp_path / "b.json").write_text(json.dumps(b))
    code = main(["diff", str(tmp_path / "a.json"), str(tmp_path / "b.json")])
    assert code == 1
    assert "differs: x" in capsys.readouterr().out
    # wall_seconds alone never counts as a difference.
    c = copy.deepcopy(a)
    c["records"][0]["wall_seconds"] = 99.0
    (tmp_path / "c.json").write_text(json.dumps(c))
    assert main(["diff", str(tmp_path / "a.json"), str(tmp_path / "c.json")]) == 0


def test_diff_rejects_recordless_json(tmp_path, capsys):
    # A JSON without records is a wrong file, not an empty comparison —
    # "identical: 0 cells" must never green-light a merge gate.
    (tmp_path / "bench.json").write_text(json.dumps({"cells": [1, 2]}))
    (tmp_path / "bench2.json").write_text(json.dumps({"cells": [1, 2]}))
    code = main(["diff", str(tmp_path / "bench.json"),
                 str(tmp_path / "bench2.json")])
    assert code == 2
    assert "no run records" in capsys.readouterr().err
    # Malformed records error cleanly (exit 2), never traceback.
    (tmp_path / "bad.json").write_text(json.dumps({"records": [{"spec": {}}]}))
    assert main(["diff", str(tmp_path / "bad.json"),
                 str(tmp_path / "bad.json")]) == 2


def test_tables_renders_new_scenarios_smoke(tmp_path, capsys):
    # The acceptance bar: the new families render via `repro sweep`.
    code = main([
        "sweep", "--scenario", "knobs", "--smoke", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Knob grid" in out and "adaptive" in out

    code = main([
        "sweep", "--scenario", "shootout", "--smoke", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Shootout" in out and "type2/random" in out


def test_tables_scenario_scaling_and_retry_render(tmp_path, capsys):
    code = main([
        "sweep", "--scenario", "scaling", "--smoke", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Scaling ladder" in out and "synth250" in out and "250" in out

    code = main([
        "sweep", "--scenario", "retry", "--smoke", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Retry study" in out and "type3x" in out


def test_list_shows_new_scenarios_and_ladder(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("scaling", "knobs", "retry", "shootout"):
        assert name in out
    assert main(["list", "--circuits"]) == 0
    out = capsys.readouterr().out
    assert "synth2000" in out and "s1196" in out


# ------------------------------------------------------- --cluster / speedup


def test_run_on_socket_cluster(tmp_path, capsys):
    argv = [
        "run", "--circuit", "s1196", "--strategy", "type2", "--p", "2",
        "--cluster", "socket", "--iterations", "4",
    ]
    code = main(argv + ["--json", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    record = json.loads(out[: out.rindex("}") + 1])
    assert record["ok"] is True
    assert record["params"]["cluster"] == "socket"
    assert record["outcome"]["extras"]["cluster"] == "socket"
    assert record["outcome"]["extras"]["wall_seconds"] > 0
    # The summary line labels the real backend's runtime as wall time.
    assert main(argv) == 0
    assert "wall-time=" in capsys.readouterr().out


def test_run_profile_rejects_socket_cluster(capsys):
    code = main([
        "run", "--circuit", "s1196", "--strategy", "profile",
        "--cluster", "socket", "--iterations", "4",
    ])
    assert code == 2
    assert "profile" in capsys.readouterr().err


def test_mp_cluster_is_rejected_with_pointer_to_socket(capsys):
    """The retired pipe-mesh backend name fails up front and names the
    backend that replaced it."""
    from repro.parallel.mpi.backend import make_cluster

    for argv in (
        ["run", "--circuit", "s1196", "--strategy", "type2", "--p", "2",
         "--cluster", "mp", "--iterations", "4"],
        ["sweep", "--smoke", "--cluster", "mp", "--no-cache"],
    ):
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert "socket" in capsys.readouterr().err
    with pytest.raises(ValueError, match="socket"):
        make_cluster("mp", 2)


def test_sweep_smoke_on_socket_cluster(tmp_path, capsys):
    """`repro sweep --smoke --cluster socket`: every strategy end to end
    on real processes, artifacts tagged separately from the sim run."""
    code = main([
        "sweep", "--smoke", "--cluster", "socket", "--out", str(tmp_path),
        "--no-cache",
    ])
    assert code == 0
    payload = json.loads((tmp_path / "smoke-socket.json").read_text())
    assert all(r["ok"] for r in payload["records"])
    strategies = {r["strategy"] for r in payload["records"]}
    assert strategies == {"serial", "type1", "type2", "type3", "type3x"}
    for r in payload["records"]:
        assert r["params"]["cluster"] == "socket"
        assert "cluster=socket" in r["cell_id"]


def test_tables_speedup_smoke_renders_side_by_side(tmp_path, capsys):
    code = main([
        "sweep", "--scenario", "speedup", "--smoke", "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "Speedup" in out
    assert "sim t" in out and "socket t" in out and "socket ×" in out
    assert "mp t" not in out
    payload = json.loads((tmp_path / "speedup-smoke.json").read_text())
    clusters = {r["params"].get("cluster") for r in payload["records"]}
    assert clusters == {"sim", "socket"}
    # The p > 8 socket ladder is excluded from smoke runs.
    assert max(r["params"].get("p", 1) for r in payload["records"]) <= 8
    assert all(r["ok"] for r in payload["records"])


def test_run_requires_circuit(capsys):
    """`repro run` runs one --circuit cell; a scenario is `repro sweep`'s."""
    for argv, message in [
        (["run"], "the following arguments are required: --circuit"),
        (["run", "--scenario", "smoke"], "arguments are required: --circuit"),
        (["run", "--circuit", "s1196", "--scenario", "smoke"],
         "unrecognized arguments: --scenario smoke"),
    ]:
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        assert message in capsys.readouterr().err


# ------------------------------------------------------------- --eval-mode


def test_run_eval_mode_batch_tags_cell_id(tmp_path, capsys):
    code = main([
        "run", "--circuit", "s1196", "--iterations", "4",
        "--eval-mode", "batch", "--json",
    ])
    assert code == 0
    out = capsys.readouterr().out
    record = json.loads(out[: out.rindex("}") + 1])
    assert record["ok"] is True
    assert "eval_mode=batch" in record["cell_id"]
    assert record["spec"]["eval_mode"] == "batch"
    assert "eval_mode" not in record["params"]


def test_run_eval_mode_check_matches_scalar(capsys):
    """The CLI equivalence gate: a check run records the scalar outcome."""
    outs = []
    for mode in ("scalar", "check"):
        assert main([
            "run", "--circuit", "s1196", "--iterations", "3",
            "--eval-mode", mode, "--json",
        ]) == 0
        out = capsys.readouterr().out
        outs.append(json.loads(out[: out.rindex("}") + 1]))
    scalar, check = outs
    assert check["outcome"]["best_mu"] == scalar["outcome"]["best_mu"]
    assert check["outcome"]["runtime"] == scalar["outcome"]["runtime"]


def test_sweep_eval_mode_tags_artifact(tmp_path, capsys):
    code = main([
        "sweep", "--smoke", "--eval-mode", "batch", "--no-cache",
        "--out", str(tmp_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "smoke-batch.json" in out
    payload = json.loads((tmp_path / "smoke-batch.json").read_text())
    for rec in payload["records"]:
        assert "eval_mode=batch" in rec["cell_id"]
        assert rec["spec"]["eval_mode"] == "batch"


def test_sweep_scenario_artifact_is_knob_suffixed(tmp_path, capsys):
    """`repro sweep --scenario` suffixes forced knobs onto the artifact
    name, so a batch run never overwrites the default `smoke.json`."""
    for knobs in ([], ["--eval-mode", "batch"]):
        assert main(["sweep", "--scenario", "smoke", *knobs, "--no-cache",
                     "--out", str(tmp_path)]) == 0
    default = json.loads((tmp_path / "smoke.json").read_text())
    batch = json.loads((tmp_path / "smoke-batch.json").read_text())
    assert {r["spec"]["eval_mode"] for r in default["records"]} == {"scalar"}
    assert {r["spec"]["eval_mode"] for r in batch["records"]} == {"batch"}


# ------------------------------------------------------ shared knob flags


@pytest.mark.parametrize("command", [
    ["run", "--circuit", "s1196", "--strategy", "type2", "--p", "2",
     "--cluster", "socket"],
    ["sweep", "--smoke", "--no-cache"],
    ["sweep", "--scenario", "table4", "--smoke"],
])
@pytest.mark.parametrize("bad, flag", [
    (["--deadline", "0"], "--deadline"),
    (["--deadline", "-1"], "--deadline"),
    (["--max-retries", "-1"], "--max-retries"),
    (["--inject-faults", "kill:when=3"], "--inject-faults"),
])
def test_bad_knob_value_is_a_usage_error(command, bad, flag, tmp_path, capsys):
    """Every command rejects a bad knob value at parse time: exit 2 with
    a message naming the flag, before any cell (or rank) runs."""
    _assert_usage_error(command + bad, flag, tmp_path, capsys)


def _assert_usage_error(argv, flag, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(argv + ["--out", str(tmp_path)])
    assert exc_info.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, bad, flag", [
    (command, [flag, value], flag)
    for command, flags in [
        (["sweep", "--smoke", "--no-cache"], ["--workers", "--scale"]),
        (["sweep", "--circuits", "s1196", "--strategies", "serial"],
         ["--workers"]),
        (["sweep", "--scenario", "table4", "--smoke"],
         ["--workers", "--scale"]),
        (["run", "--circuit", "s1196"], ["--iterations"]),
    ]
    for flag in flags
    for value in ("0", "-1")
])
def test_bad_pool_or_scale_value_is_a_usage_error(
    command, bad, flag, tmp_path, capsys,
):
    """The pool and scale flags of ``sweep`` (on the smoke scenario, a
    custom grid and a paper table) and the iteration budget of ``run``
    take positive integers: 0 or less is the
    same parse-time usage error as a bad knob (not a pool or engine
    traceback, nor a silent full-budget run)."""
    _assert_usage_error(command + bad, flag, tmp_path, capsys)


@pytest.mark.parametrize("argv, flag", [
    (["--strategy", "profile", "--cluster", "socket"], "--cluster"),
    (["--deadline", "5"], "--deadline"),
    (["--cluster", "socket", "--strategy", "profile", "--deadline", "5"],
     "--cluster"),
    (["--inject-faults", "kill:at=3"], "--inject-faults"),
    (["--strategy", "type2", "--on-rank-failure", "degrade"],
     "--on-rank-failure"),
])
def test_run_refuses_a_knob_its_cell_ignores(argv, flag, capsys):
    assert main(["run", "--circuit", "s1196", *argv]) == 2
    assert f"{flag} does not apply" in capsys.readouterr().err


def test_run_accepts_knobs_at_their_defaults(monkeypatch):
    """Forcing a knob's default value is a no-op, not a refusal."""
    import repro.cli as cli

    cells = []

    def capture(cell, max_retries=0):
        cells.append(cell)
        raise SystemExit(0)

    monkeypatch.setattr(cli, "run_cell", capture)
    with pytest.raises(SystemExit):
        main(["run", "--circuit", "s1196", "--strategy", "profile",
              "--cluster", "sim", "--on-rank-failure", "abort",
              "--eval-mode", "scalar"])
    assert [c.cell_id for c in cells] == ["s1196/seed1/profile"]
    assert cells[0].params == ()
