"""Golden-fixture battery: every rule flags its bad fixture, passes its
clean one.

Each registered rule ``R`` has ``fixtures/<r>_bad.py`` (deliberate
violations) and ``fixtures/<r>_ok.py`` (the sanctioned way to write the
same thing).  Running only rule ``R`` against them pins both the
detection and the false-positive side of the rule.
"""

from pathlib import Path

import pytest

from repro.lint.engine import lint_paths
from repro.lint.rules import ModuleRule, ProjectRule, all_rules

FIXTURES = Path(__file__).parent / "fixtures"

#: Rules pinned by a single-file fixture pair here.  The protocol rules
#: (P5xx) have their protocol and trace fixtures in ``tests/check/``.
RULE_IDS = [r.id for r in all_rules() if not r.id.startswith("P")]


def run_rule(rule_id: str, fixture: str):
    report = lint_paths([FIXTURES / fixture], select=[rule_id], no_scope=True)
    return [f for f in report.active if f.rule == rule_id]


def test_battery_shape():
    rules = all_rules()
    ids = [r.id for r in rules]
    assert len(ids) == len(set(ids)), "duplicate rule ids"
    assert len(ids) >= 10
    families = {i[0] for i in ids}
    assert {"D", "C", "K", "T", "P"} <= families
    for r in rules:
        assert r.invariant, f"{r.id} has no invariant statement"
        assert isinstance(r, (ModuleRule, ProjectRule))
    # The cache-identity family cross-references across definitions, so
    # it must run as project rules (whole-scan view), not per-module.
    # So do the protocol rules: a protocol spans modules.
    assert all(
        isinstance(r, ProjectRule) for r in rules if r.id[0] in "KP"
    )


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_fixture_pair_exists(rule_id):
    assert (FIXTURES / f"{rule_id.lower()}_bad.py").is_file()
    assert (FIXTURES / f"{rule_id.lower()}_ok.py").is_file()


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_is_flagged(rule_id):
    findings = run_rule(rule_id, f"{rule_id.lower()}_bad.py")
    assert findings, f"{rule_id} found nothing in its violating fixture"
    for f in findings:
        assert f.line >= 1
        assert f.message


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_ok_fixture_is_clean(rule_id):
    findings = run_rule(rule_id, f"{rule_id.lower()}_ok.py")
    assert findings == [], (
        f"{rule_id} false-positives on its clean fixture: "
        + "; ".join(f.render() for f in findings)
    )


def test_d105_flags_each_construct():
    # for-loop, list(), and a comprehension over a set: three findings.
    assert len(run_rule("D105", "d105_bad.py")) == 3


def test_c202_flags_each_construct():
    # wait() without timeout, bare Connection.recv(), select() with no
    # timeout: three findings.
    assert len(run_rule("C202", "c202_bad.py")) == 3


def test_k302_flags_both_halves():
    # A non-delegating override_* alias AND a literal cell_key
    # exclusion: one finding per half.
    assert len(run_rule("K302", "k302_bad.py")) == 2


def test_fixtures_excluded_from_directory_scans():
    # A directory walk over tests/ must skip the deliberately-violating
    # fixtures; explicit file paths (as used above) bypass the exclusion.
    report = lint_paths([FIXTURES.parent])
    flagged = {Path(f.path).name for f in report.active}
    assert not any(name.endswith("_bad.py") for name in flagged)


def test_scoping_binds_rules_to_their_layers():
    # Without no_scope, a comm-layer rule must ignore a file whose path
    # is outside parallel/ — the same source text that was flagged above.
    report = lint_paths([FIXTURES / "c201_bad.py"], select=["C201"])
    assert report.active == []
