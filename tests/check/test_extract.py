"""The extractor builds faithful skeletons of the real strategies.

These tests pin the *shape* of what extraction produces on the shipped
code — roles, ops, markers, loop kinds, guards — because every analysis
downstream is only as good as the skeleton it reads.
"""

from pathlib import Path

import pytest

from repro.check.driver import _runs
from repro.check.events import ANY, RANKS, REPLY, Choice, Event, Loop, \
    iter_events
from repro.check.extract import extract_protocols
from repro.check.replay import check_traces
from repro.parallel.trace import load_trace
from repro.parallel.type3x import run_type3_diversified

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro" / "parallel"

STRATEGY_PATHS = [
    SRC / "type1.py", SRC / "type2.py", SRC / "type3.py", SRC / "type3x.py",
]


@pytest.fixture(scope="module")
def protocols():
    protos, ext = extract_protocols(
        STRATEGY_PATHS + [SRC / "mpi" / "commbase.py"]
    )
    assert not ext.errors
    return {p.name: p for p in protos}


def test_every_strategy_yields_master_and_worker(protocols):
    for name in ("type1", "type2", "type3"):
        proto = protocols[name]
        assert proto.kind == "strategy"
        assert set(proto.roles) == {"master", "worker"}
        assert proto.deadline_capable, (
            f"{name}'s runner threads --deadline into run_cluster"
        )


def test_type1_roles_mirror_collectives(protocols):
    proto = protocols["type1"]
    for role in ("master", "worker"):
        ops = [e.op for e in proto.events(role)]
        assert ops == ["bcast", "gather"], role
        assert all(e.root == 0 for e in proto.events(role))


def test_type3_master_is_a_serve_loop_funnel(protocols):
    master = protocols["type3"].roles["master"].nodes
    serves = [n for n in master if isinstance(n, Loop) and n.kind == "serve"]
    assert len(serves) == 1
    events = list(iter_events(serves[0].body))
    recvs = [e for e in events if e.op == "recv"]
    assert len(recvs) == 1 and recvs[0].peer == ANY
    assert all(e.peer == REPLY for e in events if e.op == "send")
    # The funnel recv and the replies sit in the CommError guard: a dead
    # searcher surfaces as a handled exception, not a hang.
    assert all(e.guarded for e in events)


def test_type3_worker_labels_and_tags(protocols):
    worker = protocols["type3"].events("worker")
    sends = [e for e in worker if e.op == "send"]
    assert {e.label for e in sends} == {"report", "request", "done"}
    assert all(e.peer == 0 and e.tag == 0 for e in sends)


def test_type3_master_choice_is_reactive(protocols):
    master = protocols["type3"].roles["master"].nodes
    serve = next(n for n in master if isinstance(n, Loop))
    choices = [n for n in serve.body if isinstance(n, Choice)]
    assert choices and choices[0].reactive
    labels = {b.label for b in choices[0].branches}
    assert {"report", "request", "done"} <= labels


def test_type3x_has_no_protocol_of_its_own(protocols):
    """type3x runs type3's store and searcher: one protocol, not two."""
    assert "type3x" not in protocols
    # The traced smoke runs replay every strategy against a protocol
    # that exists, so none is skipped as unknown.
    names = {name: proto for name, proto, _run in _runs(3)}
    assert names["type3x"] == "type3"
    assert set(names.values()) <= set(protocols)


def test_type3x_trace_is_admitted_by_the_type3_protocol(
    protocols, tiny_spec, tmp_path
):
    """Both diversified searchers (with and without crossover) speak the
    type3 protocol: their traces pass admission, and the only finding is
    the store funnel's accepted ANY_SOURCE race."""
    for crossover in (True, False):
        trace_dir = tmp_path / str(crossover)
        run_type3_diversified(tiny_spec, p=3, retry_threshold=1,
                              crossover=crossover, trace_dir=str(trace_dir))
        findings = check_traces(load_trace(trace_dir),
                                protocol=protocols["type3"])
        assert findings, "the Type III funnel is genuinely racy"
        assert {f.rule for f in findings} == {"P505"}
        assert all(f.path.endswith("type3.py") for f in findings)


def test_collective_impls_extract_root_and_nonroot(protocols):
    bcast = protocols["commbase.BufferedComm.bcast"]
    assert bcast.kind == "collective"
    root_sends = [e for e in bcast.events("root") if e.op == "send"]
    assert root_sends and all(e.peer == RANKS for e in root_sends)
    assert all(e.tag == -7 for e in bcast.events())
    gather = protocols["commbase.BufferedComm.gather"]
    assert [e.op for e in gather.events("nonroot")] == ["send"]
    assert [e.op for e in gather.events("root")] == ["recv"]


def test_extractor_never_imports_checked_code(tmp_path):
    """A module whose import would explode must still extract."""
    mod = tmp_path / "boom.py"
    mod.write_text(
        "raise RuntimeError('imported!')\n\n\n"
        "def _spmd(comm):\n"
        "    if comm.rank == 0:\n"
        "        comm.send(('x',), 1, tag=2)\n"
        "        return None\n"
        "    _s, m = comm.recv(0, tag=2)\n"
        "    return m\n"
    )
    protos, ext = extract_protocols([mod])
    assert not ext.errors
    (proto,) = protos
    assert [e.tag for e in proto.events()] == [2, 2]


def test_syntax_error_is_reported_not_raised(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def _spmd(comm:\n")
    protos, ext = extract_protocols([bad])
    assert protos == []
    assert len(ext.errors) == 1
    assert ext.errors[0].rule == "LNT002"
    assert str(bad) in ext.errors[0].path


def test_unresolvable_values_degrade_to_unknown(tmp_path):
    mod = tmp_path / "dyn.py"
    mod.write_text(
        "def _spmd(comm, peers):\n"
        "    if comm.rank == 0:\n"
        "        comm.send(('x',), pick(peers), tag=compute())\n"
        "        return None\n"
        "    return comm.recv(0, tag=compute())\n"
    )
    protos, ext = extract_protocols([mod])
    (proto,) = protos
    send = next(e for e in proto.events("master") if e.op == "send")
    assert send.peer == "?" and send.tag == "?"


def test_events_carry_real_source_locations(protocols):
    for e in protocols["type3"].events():
        assert e.path.endswith("type3.py")
        assert isinstance(e.line, int) and e.line > 0
