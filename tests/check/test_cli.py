"""The protocol rules through ``repro lint``: exit codes, formats,
suppression, traces and ``--changed-only``."""

import json
import subprocess
from pathlib import Path

import pytest

from repro.lint.cli import main
from repro.lint.engine import lint_paths
from repro.lint.findings import JSON_SCHEMA_VERSION

FIXTURES = Path(__file__).parent / "fixtures"


def test_bad_fixture_exits_nonzero(capsys):
    rc = main([str(FIXTURES / "tag_bad.py")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "P501" in out


def test_clean_fixtures_exit_zero(capsys):
    rc = main([str(FIXTURES / "tag_ok.py"), str(FIXTURES / "cycle_ok.py")])
    assert rc == 0


def test_json_format_is_the_versioned_schema(capsys):
    rc = main(["--format", "json", str(FIXTURES / "deadline_bad.py")])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["version"] == JSON_SCHEMA_VERSION
    rules = {f["rule"] for f in payload["findings"]}
    assert "P504" in rules


def test_list_detectors(capsys):
    rc = main(["--list-rules"])
    out = capsys.readouterr().out
    assert rc == 0
    for rule in ("P501", "P502", "P503", "P504", "P505", "P506"):
        assert rule in out
    assert "P500" not in out


def test_unknown_detector_select_is_an_error(capsys):
    rc = main(["--select", "P999", str(FIXTURES / "tag_ok.py")])
    assert rc == 2


def test_select_narrows_the_battery(capsys):
    rc = main(["--select", "P501", str(FIXTURES / "cycle_bad.py")])
    assert rc == 0  # cycle_bad violates P503, which was not selected


def test_trace_dir_replays_recorded_traces(capsys):
    rc = main(["--trace-dir", str(FIXTURES / "trace_race"),
               str(FIXTURES / "tag_ok.py")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "P505" in out


def test_trace_dir_without_traces_is_a_usage_error(tmp_path, capsys):
    for trace_dir in (tmp_path / "missing", tmp_path):
        rc = main(["--trace-dir", str(trace_dir),
                   str(FIXTURES / "tag_ok.py")])
        out = capsys.readouterr().out
        assert rc == 2
        assert out.count("\n") == 1 and str(trace_dir) in out


def test_torn_trace_line_is_a_p506_finding(tmp_path, capsys):
    for src in (FIXTURES / "trace_race").glob("rank-*.jsonl"):
        (tmp_path / src.name).write_text(src.read_text())
    torn = tmp_path / "rank-0.jsonl"
    lines = torn.read_text().count("\n")
    torn.write_text(torn.read_text() + '{"op": "se')
    rc = main(["--format", "json", "--trace-dir", str(tmp_path),
               str(FIXTURES / "tag_ok.py")])
    (finding,) = json.loads(capsys.readouterr().out)["findings"]
    assert rc == 1
    assert (finding["rule"], finding["path"], finding["line"]) == (
        "P506", str(torn), lines + 1
    )


def test_suppression_with_justification_is_honored(tmp_path, capsys):
    src = (FIXTURES / "deadline_bad.py").read_text()
    patched = src.replace(
        "_src, res = comm.recv(r, tag=3)",
        "_src, res = comm.recv(r, tag=3)  # repro: noqa[P504] -- "
        "fixture copy proving protocol findings honor suppressions",
    ).replace(
        "_src, work = comm.recv(0, tag=3)",
        "_src, work = comm.recv(0, tag=3)  # repro: noqa[P504] -- "
        "fixture copy proving protocol findings honor suppressions",
    )
    f = tmp_path / "suppressed.py"
    f.write_text(patched)
    rc = main([str(f)])
    assert rc == 0
    rc = main(["-v", str(f)])
    assert "suppressed" in capsys.readouterr().out


def test_parse_error_is_an_lnt002_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def _spmd(comm:\n")
    report = lint_paths([bad])
    assert [f.rule for f in report.active] == ["LNT002"]
    assert report.exit_code() == 1


def test_repro_cli_wires_one_checker_verb(capsys):
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["lint", "--list-rules"])
    rc = args.func(args)
    assert rc == 0
    assert "P503" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        parser.parse_args(["commcheck", "--list-rules"])


def test_changed_only_smoke(tmp_path, capsys, monkeypatch):
    """Outside a git repo, --changed-only falls back to a full run."""
    f = tmp_path / "mod.py"
    f.write_text((FIXTURES / "tag_ok.py").read_text())
    monkeypatch.chdir(tmp_path)
    rc = main(["--changed-only", str(f)])
    assert rc == 0
    assert "scanned" in capsys.readouterr().out


def test_changed_only_skips_an_unchanged_tree(tmp_path, capsys, monkeypatch):
    """Inside a git tree with no change vs HEAD, nothing runs — not even
    on a file that would fail; touching any file runs everything."""
    (tmp_path / "bad.py").write_text((FIXTURES / "tag_bad.py").read_text())
    (tmp_path / "ok.py").write_text((FIXTURES / "tag_ok.py").read_text())
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t",
           "-c", "commit.gpgsign=false"]
    for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-qm", "seed"]):
        subprocess.run(git + cmd, cwd=tmp_path, check=True)
    monkeypatch.chdir(tmp_path)
    rc = main(["--changed-only", "."])
    assert rc == 0
    assert "no changed" in capsys.readouterr().out
    (tmp_path / "ok.py").write_text("X = 1\n")
    rc = main(["--changed-only", "."])
    assert rc == 1
    assert "P501" in capsys.readouterr().out
