"""Regression: the shipped tree passes its own protocol battery.

``repro lint src/ --select P501,...,P506`` exits 0 — every P5xx finding
in ``src/`` is either fixed or carries a written justification of at
least MIN_JUSTIFICATION characters.  The whole-battery gate lives in
``tests/lint/test_src_clean.py``; these run the protocol family alone,
so a P5xx regression is named as one even when other rules also fail.
"""

from pathlib import Path

from repro.lint.engine import lint_paths
from repro.lint.noqa import MIN_JUSTIFICATION
from repro.lint.rules import all_rules

ROOT = Path(__file__).resolve().parents[2]

PROTOCOL_RULES = [r.id for r in all_rules() if r.id.startswith("P")]


def test_src_static_battery_is_clean():
    report = lint_paths([ROOT / "src"], select=PROTOCOL_RULES)
    assert report.files_scanned > 50
    assert {"P501", "P502", "P503", "P504"} <= set(report.rules_run)
    assert report.exit_code() == 0, "\n" + "\n".join(
        f.render() for f in report.errors()
    )


def test_every_commcheck_suppression_is_justified():
    report = lint_paths([ROOT / "src"], select=PROTOCOL_RULES, trace=True)
    assert {"P505", "P506"} <= set(report.rules_run)
    for f in report.suppressed:
        assert f.rule.startswith("P"), f.render()
        assert len(f.justification) >= MIN_JUSTIFICATION, f.render()
