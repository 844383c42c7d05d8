"""Profiling report, speed-up math, quality brackets, table rendering."""

import pytest

from repro.analysis.profiling import PAPER_SHARES, profile_serial_run
from repro.analysis.reporting import format_seconds, render_table
from repro.analysis.speedup import (
    BracketResult,
    efficiency,
    quality_bracket,
    speedup,
)
from repro.netlist.generator import CircuitSpec
from repro.netlist.suite import PAPER_CIRCUITS, paper_circuit
from repro.parallel.runners import ExperimentSpec, ParallelOutcome


@pytest.fixture(scope="module", autouse=True)
def tiny_suite_entry():
    PAPER_CIRCUITS["_an100"] = (
        CircuitSpec("_an100", n_gates=100, n_inputs=5, n_outputs=5,
                    frac_dff=0.05, depth=7),
        66,
    )
    yield
    PAPER_CIRCUITS.pop("_an100")
    paper_circuit.cache_clear()


def test_profile_allocation_dominates():
    """The E1 acceptance criterion: allocation > 90 % of model-time."""
    spec = ExperimentSpec(circuit="_an100", iterations=8)
    report = profile_serial_run(spec)
    assert report.allocation_share > 0.90
    assert sum(report.shares.values()) == pytest.approx(1.0)


def test_profile_rows_include_paper_values():
    spec = ExperimentSpec(circuit="_an100", iterations=5)
    report = profile_serial_run(spec)
    rows = report.rows()
    alloc_row = next(r for r in rows if r["category"] == "allocation")
    assert alloc_row["paper %"] == pytest.approx(98.4)
    assert report.version_key() == "wirelength-power"


def test_paper_shares_reference():
    assert PAPER_SHARES["wirelength-power"]["allocation"] == 0.984
    assert PAPER_SHARES["wirelength-power-delay"]["delay"] == 0.002


def test_speedup_and_efficiency():
    assert speedup(10.0, 5.0) == 2.0
    assert efficiency(10.0, 5.0, 4) == 0.5
    with pytest.raises(ValueError):
        speedup(1.0, 0.0)
    with pytest.raises(ValueError):
        efficiency(1.0, 1.0, 0)


def _outcome(history, best_mu, runtime=100.0):
    return ParallelOutcome(
        strategy="x", circuit="c", objectives=("wirelength",), p=2,
        iterations=len(history), runtime=runtime, best_mu=best_mu,
        history=history,
    )


def test_quality_bracket_reached():
    out = _outcome([(0, 0.3, 10.0), (1, 0.6, 20.0), (2, 0.7, 30.0)], 0.7)
    b = quality_bracket(out, serial_best_mu=0.6)
    assert b.reached and b.time == 20.0
    assert b.cell() == "20.0"


def test_quality_bracket_missed():
    out = _outcome([(0, 0.3, 10.0), (1, 0.5, 20.0)], 0.5, runtime=99.0)
    b = quality_bracket(out, serial_best_mu=0.8)
    assert not b.reached
    assert b.time == 99.0
    assert b.percent == int(round(100 * 0.5 / 0.8))
    assert "(" in b.cell()


def test_quality_bracket_degenerate_serial():
    out = _outcome([(0, 0.0, 1.0)], 0.0, runtime=5.0)
    b = quality_bracket(out, serial_best_mu=0.0)
    assert b.reached and b.time == 5.0


def test_bracket_cell_format():
    assert BracketResult(12.345, False, 93).cell() == "12.3 (93)"
    assert BracketResult(12.345, True, 100).cell(decimals=2) == "12.35"


def test_render_table_alignment():
    rows = [{"a": 1, "b": "xx"}, {"a": 22, "b": "y"}]
    text = render_table(rows, title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "b" in lines[1]
    assert len(lines) == 5


def test_render_table_missing_cells():
    text = render_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
    assert "-" in text


def test_render_table_empty():
    assert "(empty)" in render_table([])


def test_format_seconds():
    assert format_seconds(123.4) == "123"
    assert format_seconds(12.34) == "12.3"
    assert format_seconds(0.1234) == "0.123"


# ------------------------------------------------------- backend speedups


def _rec(strategy, cluster, runtime, mu, p=1, cell=None):
    from repro.experiments.artifacts import RunRecord

    params = {"cluster": cluster}
    if p > 1:
        params["p"] = p
    return RunRecord(
        scenario="speedup",
        cell_id=cell or f"c1/seed1/{strategy}[cluster={cluster},p={p}]",
        strategy=strategy,
        spec={"circuit": "c1", "seed": 1},
        params=params,
        ok=True,
        error=None,
        outcome={"best_mu": mu, "runtime": runtime, "p": p},
        wall_seconds=runtime,
    )


def test_backend_speedup_is_none_tolerant():
    from repro.analysis.speedup import backend_speedup

    assert backend_speedup(10.0, 2.0) == pytest.approx(5.0)
    assert backend_speedup(None, 2.0) is None
    assert backend_speedup(10.0, None) is None
    assert backend_speedup(10.0, 0.0) is None


def test_render_speedup_records_keeps_clock_domains_apart():
    from repro.analysis.reporting import render_speedup_records

    # An artifact from the retired pipe-mesh backend still renders its
    # mp column (and gains no empty socket column).
    records = [
        _rec("serial", "sim", 100.0, 0.60),
        _rec("serial", "mp", 10.0, 0.60),
        _rec("type2", "sim", 50.0, 0.58, p=4),
        _rec("type2", "mp", 4.0, 0.59, p=4),
    ]
    out = render_speedup_records(records)
    lines = out.splitlines()
    assert "sim t" in lines[1] and "mp t" in lines[1]
    assert "socket t" not in lines[1]
    t2_line = next(l for l in lines if "type2" in l)
    # sim speedup = 100/50, mp speedup = 10/4 — never 100/4 or 10/50.
    assert "2.00" in t2_line and "2.50" in t2_line
    assert "25.0" not in t2_line and "0.20" not in t2_line


def test_render_speedup_records_shows_only_present_backends():
    from repro.analysis.reporting import render_speedup_records

    records = [
        _rec("serial", "sim", 100.0, 0.60),
        _rec("serial", "socket", 10.0, 0.60),
        _rec("type2", "sim", 50.0, 0.58, p=4),
        _rec("type2", "socket", 5.0, 0.59, p=4),
    ]
    header = render_speedup_records(records).splitlines()[1]
    assert "sim t" in header and "socket t" in header
    assert "mp t" not in header and "mp ×" not in header


def test_render_speedup_records_tolerates_missing_backend():
    from repro.analysis.reporting import render_speedup_records

    records = [
        _rec("serial", "sim", 100.0, 0.60),
        _rec("serial", "socket", 10.0, 0.60),
        _rec("type1", "sim", 120.0, 0.60, p=2),
    ]
    out = render_speedup_records(records)
    t1_line = next(l for l in out.splitlines() if "type1" in l)
    assert "0.83" in t1_line  # sim slowdown still reported
    assert "-" in t1_line     # socket cells absent, not crashing
