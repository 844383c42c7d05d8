"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench -q      # from the repository root
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import spans  # noqa: E402
from run import END_TO_END  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    def __init__(self) -> None:
        self.t = 0

    def __call__(self) -> int:
        return self.t


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spans, "_now", fake)
    return fake


def _span(rec, clock, name, start, end, inner=()):
    clock.t = start
    st, frame = rec.enter(name)
    for child in inner:
        child()
    clock.t = end
    rec.exit(st, frame)


def test_self_time_subtracts_nested_children(clock, tmp_path):
    rec = spans.Recorder(tmp_path)
    grand = lambda: _span(rec, clock, "g", 50, 60)  # noqa: E731
    a = lambda: _span(rec, clock, "a", 10, 30)  # noqa: E731
    b = lambda: _span(rec, clock, "b", 40, 70, (grand,))  # noqa: E731
    _span(rec, clock, "outer", 0, 100, (a, b))
    stats = layers.merge([rec.snapshot()])["stats"]
    assert {n: s[2] for n, s in stats.items()} == {
        "outer": 50, "a": 20, "b": 20, "g": 10,
    }
    assert stats["outer"][1] == 100 and stats["b"][1] == 30


def test_same_name_nesting_counts_the_outermost_call_once(clock, tmp_path):
    rec = spans.Recorder(tmp_path)
    inner = lambda: _span(rec, clock, "commit", 20, 50)  # noqa: E731
    _span(rec, clock, "commit", 0, 80, (inner, inner))
    calls, total, self_ns, _count = layers.merge([rec.snapshot()])["stats"]["commit"]
    assert (calls, total, self_ns) == (1, 80, 80)


def test_wrap_counts_work_and_survives_exceptions(clock, tmp_path):
    rec = spans.Recorder(tmp_path)

    def scan(lo, hi):
        if hi < lo:
            raise ValueError("empty window")
        return hi

    wrapped = rec.wrap(scan, "cost.probe", lambda a, k, r: a[1] - a[0] + 1)
    assert wrapped(3, 7) == 7
    with pytest.raises(ValueError):
        wrapped(5, 1)
    calls, _total, _self, count = rec.snapshot()["threads"][0]["stats"]["cost.probe"]
    assert (calls, count) == (2, 5)
    assert rec._state().stack == []


def test_tail_picks_highest_percentile_with_ten_samples_beyond():
    assert layers.tail(list(range(1, 1001)))[2] == 99.0
    assert layers.tail(list(range(1, 51)))[2] == 75.0
    p50, tail, pct = layers.tail([5, 1, 3])
    assert (p50, tail, pct) == (3.0, 3.0, 50.0)


def test_metric_names_and_units_fit_the_charset():
    names = [n for n, _ in END_TO_END] + [n for n, _ in layers.per_layer()]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for _, unit in list(END_TO_END) + layers.per_layer():
        assert UNIT.match(unit), unit


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.per_layer()


def test_host_speed_scales_by_the_reference_over_the_sample():
    import ast

    import hostspeed

    assert hostspeed.scale(hostspeed.REF_SECONDS) == 1.0
    assert hostspeed.scale(2 * hostspeed.REF_SECONDS) == 0.5
    assert hostspeed.sample() > 0
    # The kernel must not run program code, or a change to the program
    # would move the reference along with the timing it scales.
    tree = ast.parse(Path(hostspeed.__file__).read_text())
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module.split(".")[0]
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    }
    assert imported <= {"__future__", "random", "time", "numpy"}


def test_refuses_multi_process_workloads_below_two_cpus(monkeypatch, tmp_path, capsys):
    import run

    monkeypatch.setattr(run.os, "cpu_count", lambda: 1)
    assert run.run_workload(run.parse_args(["--workload", "sweep"]), tmp_path) == 2
    assert "refusing to time sweep" in capsys.readouterr().err


def _attribute_ids() -> dict:
    """Identity of every attribute of every repro module and class."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("repro") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            out[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in list(vars(value).items()):
                    out[(mod_name, attr, cattr)] = cvalue
    return out


def test_traced_run_restores_every_wrapped_attribute(tmp_path, monkeypatch):
    from repro.experiments import sweeps
    from repro.experiments.registry import override_cluster, resolve

    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    smoke = resolve("smoke", smoke=True)
    cells = [c for c in smoke if c.strategy in ("serial", "type2")]
    cells += override_cluster([c for c in cells if c.strategy == "type2"], "socket")
    # An untraced run first settles lazy imports and class-level caches,
    # so any attribute that differs afterwards was left behind by tracing.
    plain = [sweeps.run_cell(c) for c in cells]
    before = _attribute_ids()
    ship = tmp_path / "spans"
    ship.mkdir()
    rec = spans.Recorder(ship, sampled=layers.SAMPLED)
    patches = layers.install(rec)
    try:
        assert sweeps.run_cell is not before[("repro.experiments.sweeps", "run_cell")]
        records = [sweeps.run_cell(c) for c in cells]
    finally:
        patches.restore()
        rec.active = False
    assert all(r.ok for r in records)
    assert [r.canonical() for r in records] == [r.canonical() for r in plain]
    after = _attribute_ids()
    changed = [k for k, v in before.items() if after.get(k) is not v]
    assert changed == []
    # Modules first imported while tracing must not keep a wrapper either.
    ours = {spans.__file__, layers.__file__}
    leftovers = [
        k for k, v in after.items()
        if getattr(getattr(v, "__code__", None), "co_filename", None) in ours
    ]
    assert leftovers == []

    view = layers.merge(rec.collect())
    assert view["stats"]["experiments.cell"][0] == len(cells)
    # The socket ranks ran in forked processes and shipped their spans.
    assert len(list(ship.glob("*.json"))) == 2
    assert view["counters"]["mpi.send.bytes"] > 0
    assert all(len(view["ranks"][t]) == size for t, (_a, _b, size) in view["runs"].items())
