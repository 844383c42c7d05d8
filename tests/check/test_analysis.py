"""Each static detector fires on its violating fixture and stays silent
on the clean twin and on the shipped strategies (the false-positive
side, mirroring the lint battery's golden-fixture discipline)."""

from pathlib import Path

import pytest

from repro.check.analysis import ProtocolRule, explore_deadlocks
from repro.check.extract import extract_protocols
from repro.lint.engine import lint_paths
from repro.lint.rules import all_rules

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro" / "parallel"

STATIC_RULES = [r.id for r in all_rules() if isinstance(r, ProtocolRule)]


def analyze(paths):
    """Every static protocol rule's findings (and any LNT00x) on paths."""
    return lint_paths(paths, select=STATIC_RULES).findings


def run_fixture(name: str):
    return analyze([FIXTURES / name])


STATIC_PAIRS = [
    ("P501", "tag_bad.py", "tag_ok.py"),
    ("P502", "collective_bad.py", "collective_ok.py"),
    ("P503", "cycle_bad.py", "cycle_ok.py"),
    ("P504", "deadline_bad.py", "deadline_ok.py"),
    ("P504", "deadline_driver_bad.py", "deadline_driver_ok.py"),
]


@pytest.mark.parametrize("rule,bad,ok", STATIC_PAIRS)
def test_detector_fires_on_bad_fixture(rule, bad, ok):
    findings = [f for f in run_fixture(bad) if f.rule == rule]
    assert findings, f"{rule} found nothing in {bad}"
    for f in findings:
        assert f.line >= 1 and f.message
        assert f.path.endswith(bad)


@pytest.mark.parametrize("rule,bad,ok", STATIC_PAIRS)
def test_detector_is_silent_on_clean_fixture(rule, bad, ok):
    assert [f for f in run_fixture(ok) if f.rule == rule] == []


@pytest.mark.parametrize("rule,bad,ok", STATIC_PAIRS)
def test_clean_fixture_is_clean_of_everything(rule, bad, ok):
    assert run_fixture(ok) == []


def test_every_static_detector_has_a_fixture_pair():
    covered = {rule for rule, _, _ in STATIC_PAIRS}
    assert covered == set(STATIC_RULES) == {"P501", "P502", "P503", "P504"}


def test_shipped_strategies_are_clean():
    """The whole point: our own protocols withstand the battery."""
    paths = [
        SRC / "type1.py", SRC / "type2.py", SRC / "type3.py",
        SRC / "type3x.py", SRC / "mpi" / "commbase.py",
    ]
    protos, ext = extract_protocols(paths)
    assert not ext.errors
    findings = analyze(paths)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cycle_deadlock_names_every_blocked_site():
    findings = [f for f in run_fixture("cycle_bad.py") if f.rule == "P503"]
    (finding,) = findings
    # Both the master's and the workers' receives partake in the cycle.
    assert finding.message.count("recv") >= 2


def test_explorer_scales_with_p():
    protos, ext = extract_protocols([FIXTURES / "cycle_ok.py"])
    (proto,) = protos
    for p in (2, 3, 4):
        assert explore_deadlocks(proto, p=p) == []
    protos, _ = extract_protocols([FIXTURES / "cycle_bad.py"])
    (proto,) = protos
    assert explore_deadlocks(proto, p=4)


def test_deadline_check_names_the_killing_fault_kinds():
    findings = [f for f in run_fixture("deadline_bad.py")
                if f.rule == "P504"]
    assert findings
    assert any("kill" in f.message for f in findings)


def test_collective_complementarity_on_commbase():
    protos, ext = extract_protocols([SRC / "mpi" / "commbase.py"])
    colls = [p for p in protos if p.kind == "collective"]
    assert {p.name.rsplit(".", 1)[1] for p in colls} == \
        {"bcast", "scatter", "gather"}
    assert colls == protos  # so the rules below check exactly these
    assert analyze([SRC / "mpi" / "commbase.py"]) == []
