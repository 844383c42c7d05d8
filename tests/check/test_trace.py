"""The trace recorder: faithful records, zero behavioural footprint.

The hard requirement is bit-identity — arming the recorder must not
change a single bit of any strategy result, because traced CI runs
vouch for the untraced production runs.
"""

import pickle

import pytest

from repro.parallel.intercept import InterceptedFn, intercept
from repro.parallel.trace import CommTraceRecorder, load_trace
from repro.parallel.type3 import run_type3


class FakeComm:
    rank = 0

    def __init__(self):
        self.calls = []

    def send(self, obj, dest, tag=0):
        self.calls.append("send")

    def recv(self, source=-1, tag=0):
        self.calls.append("recv")
        return (1, ("report", 0.5))

    def bcast(self, obj, root=0):
        # Real comms implement collectives ON TOP of send/recv; the
        # depth guard must keep those inner ops out of the trace.
        self.recv(source=root, tag=-7)
        return obj

    def scatter(self, chunks, root=0):
        return chunks

    def gather(self, obj, root=0):
        return [obj]

    def barrier(self):
        return None


def test_recorder_captures_op_peer_tag_and_label():
    comm = FakeComm()
    rec = CommTraceRecorder()
    intercept(comm, [rec])
    comm.send(("work", 1), 2, tag=5)
    comm.recv(source=-1, tag=5)
    events = rec.events
    assert [e["op"] for e in events] == ["send", "recv"]
    assert events[0]["dst"] == 2 and events[0]["tag"] == 5
    assert events[0]["label"] == "work"
    assert events[1]["req"] == -1 and events[1]["src"] == 1
    assert events[1]["label"] == "report"
    assert [e["i"] for e in events] == [0, 1]


def test_depth_guard_hides_collective_internals():
    comm = FakeComm()
    rec = CommTraceRecorder()
    intercept(comm, [rec])
    comm.bcast(("rows",), root=0)
    assert [e["op"] for e in rec.events] == ["bcast"]
    # ... but the inner recv really ran.
    assert comm.calls == ["recv"]


def test_call_site_attribution_points_here():
    comm = FakeComm()
    rec = CommTraceRecorder()
    intercept(comm, [rec])
    comm.send(("x",), 1)
    assert rec.events[0]["file"].endswith("test_trace.py")


def _worker(comm, base):
    comm.send(("msg", base), 0, tag=1)
    return base


def test_traced_fn_survives_pickling(tmp_path):
    fn = InterceptedFn(_worker, trace_dir=str(tmp_path))
    clone = pickle.loads(pickle.dumps(fn))
    comm = FakeComm()
    assert clone(comm, 7) == 7
    traces = load_trace(tmp_path)
    assert [e["op"] for e in traces[0]] == ["send"]


def test_dump_and_load_roundtrip(tmp_path):
    comm = FakeComm()
    rec = CommTraceRecorder()
    intercept(comm, [rec])
    comm.send(("x",), 1, tag=2)
    rec.dump(tmp_path / "rank-0.jsonl")
    traces = load_trace(tmp_path)
    assert traces[0] == rec.events


def test_tracing_is_bit_identical_on_type3(tiny_spec, tmp_path):
    """Arming the recorder must not move a single bit of the result."""
    plain = run_type3(tiny_spec, p=3, retry_threshold=1)
    traced = run_type3(tiny_spec, p=3, retry_threshold=1,
                       trace_dir=str(tmp_path))
    assert traced.best_mu == plain.best_mu
    assert traced.history == plain.history
    assert traced.best_costs == plain.best_costs
    assert traced.runtime == plain.runtime
    traces = load_trace(tmp_path)
    assert sorted(traces) == [0, 1, 2]
    assert all(traces.values()), "every rank recorded events"


def test_recorder_is_off_by_default(tiny_spec):
    out = run_type3(tiny_spec, p=3, retry_threshold=2)
    assert "trace_dir" not in out.extras


def test_trace_tags_match_the_wire_protocol(tiny_spec, tmp_path):
    run_type3(tiny_spec, p=3, retry_threshold=1, trace_dir=str(tmp_path))
    traces = load_trace(tmp_path)
    for rank, events in traces.items():
        for ev in events:
            if ev["op"] in ("send", "recv"):
                assert ev["tag"] == 0, (rank, ev)
    labels = {ev["label"] for ev in traces[1] if ev["op"] == "send"}
    assert "done" in labels


def test_multiple_wildcard_recvs_keep_program_order(tiny_spec, tmp_path):
    run_type3(tiny_spec, p=3, retry_threshold=1, trace_dir=str(tmp_path))
    master = load_trace(tmp_path)[0]
    assert [e["i"] for e in master] == list(range(len(master)))
