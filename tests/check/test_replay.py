"""The vector-clock replay checker: happens-before, races, admission."""

from pathlib import Path

from repro.check.extract import extract_protocols
from repro.check.replay import check_traces, pair_p2p, vector_clocks
from repro.parallel.trace import load_trace
from repro.parallel.type2 import run_type2
from repro.parallel.type3 import run_type3

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro" / "parallel"


def _ev(op, i, **kw):
    base = {"op": op, "i": i, "file": "t.py", "line": 1, "label": None}
    base.update(kw)
    return base


# ---------------------------------------------------------------- pairing


def test_fifo_pairing_matches_kth_recv_to_kth_send():
    traces = {
        0: [_ev("recv", 0, req=-1, tag=1, src=1),
            _ev("recv", 1, req=-1, tag=1, src=1)],
        1: [_ev("send", 0, dst=0, tag=1),
            _ev("send", 1, dst=0, tag=1)],
    }
    pairs, problems = pair_p2p(traces)
    assert problems == []
    assert pairs == {(0, 0): (1, 0), (0, 1): (1, 1)}


def test_unpairable_recv_is_a_p506():
    traces = {
        0: [_ev("recv", 0, req=1, tag=5, src=1)],
        1: [_ev("send", 0, dst=0, tag=6)],
    }
    pairs, problems = pair_p2p(traces)
    assert pairs == {}
    assert [p.rule for p in problems] == ["P506"]


# ---------------------------------------------------------- vector clocks


def test_program_order_is_happens_before():
    traces = {0: [_ev("send", 0, dst=1, tag=0),
                  _ev("send", 1, dst=1, tag=0)],
              1: [_ev("recv", 0, req=1, tag=0, src=0),
                  _ev("recv", 1, req=1, tag=0, src=0)]}
    pairs, _ = pair_p2p(traces)
    clocks = vector_clocks(traces, pairs, [])
    assert clocks[(0, 1)][0] == 2          # own component counts
    assert clocks[(1, 0)][0] >= 1          # send 0 -> recv 0
    assert clocks[(1, 1)][0] >= 2          # send 1 -> recv 1 (FIFO)


def test_send_recv_edge_carries_the_senders_history():
    traces = {
        0: [_ev("recv", 0, req=-1, tag=0, src=1),
            _ev("send", 1, dst=2, tag=0)],
        1: [_ev("send", 0, dst=0, tag=0)],
        2: [_ev("recv", 0, req=-1, tag=0, src=0)],
    }
    pairs, _ = pair_p2p(traces)
    clocks = vector_clocks(traces, pairs, [])
    # rank 1's send happens-before rank 2's recv, transitively via rank 0.
    assert clocks[(2, 0)][1] >= 1


def test_collectives_join_all_members():
    traces = {
        0: [_ev("send", 0, dst=1, tag=0), _ev("barrier", 1, root=0)],
        1: [_ev("recv", 0, req=1, tag=0, src=0), _ev("barrier", 1, root=0),
            _ev("send", 2, dst=0, tag=0)],
    }
    pairs, _ = pair_p2p(traces)
    groups = [[(0, 1), (1, 1)]]
    clocks = vector_clocks(traces, pairs, groups)
    # Everything before the barrier happens-before everything after it.
    assert clocks[(1, 2)][0] >= 1


def test_concurrent_sends_are_not_ordered():
    traces = {
        0: [_ev("recv", 0, req=-1, tag=0, src=1),
            _ev("recv", 1, req=-1, tag=0, src=2)],
        1: [_ev("send", 0, dst=0, tag=0)],
        2: [_ev("send", 0, dst=0, tag=0)],
    }
    pairs, _ = pair_p2p(traces)
    clocks = vector_clocks(traces, pairs, [])
    assert clocks[(1, 0)][2] == 0 and clocks[(2, 0)][1] == 0


# ------------------------------------------------------------------ P505


def test_race_fixture_is_flagged():
    findings = check_traces(load_trace(FIXTURES / "trace_race"))
    assert {f.rule for f in findings} == {"P505"}
    (f,) = [x for x in findings if "rank 1" in x.message or
            "rank 2" in x.message][:1]
    assert f.line == 9 and f.path.endswith("funnel.py")


def test_clean_fixture_is_clean():
    assert check_traces(load_trace(FIXTURES / "trace_clean")) == []


def test_pinned_source_recvs_never_race():
    """The same interleaving with pinned sources is deterministic."""
    traces = {
        0: [_ev("recv", 0, req=1, tag=0, src=1),
            _ev("recv", 1, req=2, tag=0, src=2)],
        1: [_ev("send", 0, dst=0, tag=0)],
        2: [_ev("send", 0, dst=0, tag=0)],
    }
    assert check_traces(traces) == []


def test_sequenced_wildcards_do_not_race():
    """A reply-ack turnaround orders the second sender after the first
    receive, so the wildcard match is determined by happens-before."""
    traces = {
        0: [_ev("recv", 0, req=-1, tag=0, src=1),
            _ev("send", 1, dst=2, tag=1),
            _ev("recv", 2, req=-1, tag=0, src=2)],
        1: [_ev("send", 0, dst=0, tag=0)],
        2: [_ev("recv", 0, req=1, tag=1, src=0),
            _ev("send", 1, dst=0, tag=0)],
    }
    assert check_traces(traces) == []


# ------------------------------------------------------------------ P506


def test_unmatched_trace_fixture_is_flagged():
    findings = check_traces(load_trace(FIXTURES / "trace_unmatched"))
    assert [f.rule for f in findings] == ["P506"]


def test_admission_rejects_foreign_tags():
    protos, _ = extract_protocols([SRC / "type3.py"])
    proto = next(p for p in protos if p.name == "type3")
    traces = {
        0: [_ev("recv", 0, req=-1, tag=9, src=1)],
        1: [_ev("send", 0, dst=0, tag=9)],
    }
    findings = check_traces(traces, protocol=proto)
    assert {f.rule for f in findings} == {"P506"}
    assert any("never waits" in f.message for f in findings)


def test_admission_rejects_foreign_labels():
    protos, _ = extract_protocols([SRC / "type3.py"])
    proto = next(p for p in protos if p.name == "type3")
    traces = {
        0: [_ev("recv", 0, req=-1, tag=0, src=1)],
        1: [_ev("send", 0, dst=0, tag=0, label="gossip")],
    }
    findings = check_traces(traces, protocol=proto)
    assert any(f.rule == "P506" and "gossip" in f.message for f in findings)


def test_admission_rejects_unskeletoned_wildcards():
    """Type III *workers* receive only from the store (pinned source);
    a worker-side wildcard recv is outside the model."""
    protos, _ = extract_protocols([SRC / "type3.py"])
    proto = next(p for p in protos if p.name == "type3")
    traces = {1: [_ev("recv", 0, req=-1, tag=0, src=0)],
              0: [_ev("send", 0, dst=1, tag=0)]}
    findings = check_traces(traces, protocol=proto)
    assert any(f.rule == "P506" and "wildcard" in f.message
               for f in findings)


# --------------------------------------------------------- real protocols


def test_type3_traced_run_flags_only_the_funnel(tiny_spec, tmp_path):
    protos, _ = extract_protocols([SRC / "type3.py"])
    proto = next(p for p in protos if p.name == "type3")
    run_type3(tiny_spec, p=3, retry_threshold=1, trace_dir=str(tmp_path))
    findings = check_traces(load_trace(tmp_path), protocol=proto)
    assert findings, "the Type III funnel is genuinely racy"
    assert {f.rule for f in findings} == {"P505"}
    # The store's one wildcard receive.
    (funnel,) = [
        n for n, line in enumerate(
            (SRC / "type3.py").read_text().splitlines(), start=1)
        if "comm.recv(source=ANY_SOURCE" in line
    ]
    for f in findings:
        assert f.path.endswith("type3.py") and f.line == funnel


def test_type2_traced_run_is_silent(tiny_spec, tmp_path):
    protos, _ = extract_protocols([SRC / "type2.py"])
    proto = next(p for p in protos if p.name == "type2")
    run_type2(tiny_spec, p=3, trace_dir=str(tmp_path))
    findings = check_traces(load_trace(tmp_path), protocol=proto)
    assert findings == [], "\n".join(f.render() for f in findings)
