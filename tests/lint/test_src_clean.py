"""Regression: the shipped tree lints clean.

``repro lint src/`` exits 0 — every finding in ``src/`` is either fixed
or carries a written justification.  This is the gate that keeps the
rule battery honest: a rule that cannot hold on our own code (or, for
the P5xx rules, on our own protocols) is either wrong or the code is.
"""

from pathlib import Path

import pytest

from repro.lint.engine import lint_paths
from repro.lint.noqa import MIN_JUSTIFICATION

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def traced_report():
    return lint_paths([ROOT / "src"], trace=True)


def test_src_lints_clean():
    report = lint_paths([ROOT / "src"])
    assert report.files_scanned > 50
    assert {"P501", "P502", "P503", "P504"} <= set(report.rules_run)
    assert report.exit_code() == 0, "\n" + "\n".join(
        f.render() for f in report.errors()
    )


def test_every_suppression_carries_a_justification(traced_report):
    assert traced_report.suppressed, (
        "expected the known justified suppressions"
    )
    for f in traced_report.suppressed:
        assert len(f.justification) >= MIN_JUSTIFICATION, f.render()


def test_traced_src_run_is_clean_modulo_certified_funnel(traced_report):
    """The replay's only finding on our tree is the Type III store race
    — certified in-source with a justified suppression."""
    assert traced_report.exit_code() == 0, "\n" + "\n".join(
        f.render() for f in traced_report.errors()
    )
    protocol = [f for f in traced_report.suppressed if f.rule[0] == "P"]
    assert protocol, "the funnel race must be detected"
    assert {f.rule for f in protocol} == {"P505"}
    assert all(f.path.endswith("type3.py") for f in protocol)
