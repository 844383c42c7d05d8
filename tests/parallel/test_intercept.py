"""The comm interceptor chain: hook order, swallowing, arming."""

import pickle

import pytest

from repro.parallel.faults import FaultPlan
from repro.parallel.intercept import Hook, InterceptedFn, chained, intercept
from repro.parallel.mpi.simcluster import SimCluster
from repro.parallel.mpi.socket_backend import SocketCluster


class LoopComm:
    """A rank-0 communicator that logs what reaches it."""

    rank = 0
    size = 2

    def __init__(self):
        self.wire = []

    def send(self, obj, dest, tag=0):
        self.wire.append(("send", obj))

    def recv(self, source=-1, tag=0):
        self.wire.append(("recv", source))
        return source, ("reply",)

    def bcast(self, obj, root=0):
        return obj

    def scatter(self, objs, root=0):
        raise RuntimeError("scatter failed")

    def gather(self, obj, root=0):
        return [obj]

    def barrier(self):
        return None


class Log(Hook):
    def __init__(self, name, log, swallow=()):
        self.name = name
        self.log = log
        self.swallow = swallow

    def before(self, op, args, kwargs):
        self.log.append((self.name, "before", op))
        return op in self.swallow

    def after(self, op, args, kwargs, result):
        self.log.append((self.name, "after", op))


def test_hooks_run_in_order_around_the_op():
    comm, log = LoopComm(), []
    intercept(comm, [Log("a", log), Log("b", log)])
    assert comm.gather(5) == [5]
    assert log == [
        ("a", "before", "gather"), ("b", "before", "gather"),
        ("a", "after", "gather"), ("b", "after", "gather"),
    ]


def test_a_swallowed_op_never_runs_and_later_hooks_never_see_it():
    comm, log = LoopComm(), []
    intercept(comm, [Log("a", log, swallow=("send",)), Log("b", log)])
    assert comm.send("x", 1) is None
    assert comm.wire == []
    assert log == [("a", "before", "send")]


def test_an_op_that_raises_reaches_no_after_hook():
    comm, log = LoopComm(), []
    intercept(comm, [Log("a", log)])
    with pytest.raises(RuntimeError):
        comm.scatter([1, 2])
    assert log == [("a", "before", "scatter")]
    comm.barrier()  # the depth counter was restored
    assert log[-1] == ("a", "after", "barrier")


def test_unarmed_clusters_run_the_callers_fn_object():
    def fn(comm):
        return comm.rank

    assert chained(fn, SimCluster(2), mode="exception") is fn
    assert chained(fn, SocketCluster(2), mode="process") is fn


def test_armed_clusters_wrap_once_with_a_resolved_plan(tmp_path):
    plan = FaultPlan.parse("kill:at=2", seed=3)
    traced = chained(len, SimCluster(4, trace_dir=str(tmp_path)), "exception")
    assert isinstance(traced, InterceptedFn) and traced.fn is len
    assert traced.faults is None and traced.trace_dir == str(tmp_path)
    faulted = chained(len, SocketCluster(4, faults=plan), "process")
    assert faulted.faults == plan.resolve(4)
    assert faulted.mode == "process" and faulted.trace_dir is None
    clone = pickle.loads(pickle.dumps(faulted))
    assert clone.faults == faulted.faults and clone.fn is len
    with pytest.raises(ValueError, match="only 2 ranks"):
        chained(len, SimCluster(2, faults=FaultPlan.parse("kill:rank=3")), "exception")
