"""One interceptor chain on a communicator's six public comm ops.

Fault injection (:mod:`repro.parallel.faults`) and comm-event tracing
(:mod:`repro.parallel.trace`) are hooks of this one chain; DESIGN.md §9
gives the hook order.  Clusters arm it with :func:`chained`, once per
run; with no fault plan and no trace directory it returns the rank
function itself and no op is wrapped.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Sequence

__all__ = ["OPS", "Hook", "InterceptedFn", "chained", "intercept"]

#: The public comm ops, in the order they are wrapped.
OPS = ("send", "recv", "bcast", "scatter", "gather", "barrier")


class Hook:
    """One link of the chain; subclasses override either side."""

    def before(self, op: str, args: tuple, kwargs: dict) -> bool:
        """Runs before a public op; True swallows it (it returns None,
        never runs, and no later hook sees it)."""
        return False

    def after(self, op: str, args: tuple, kwargs: dict, result: Any) -> None:
        """Runs after a public op that returned ``result``."""


def intercept(comm: Any, hooks: Sequence[Hook]) -> None:
    """Wrap ``comm``'s public ops in place to run ``hooks`` in order.

    One depth counter lets the calls a public op makes on ``comm`` (a
    collective built over the backend's own send/recv) pass straight
    through, so the hooks see one call per public op on every backend.
    """
    depth = 0

    def wrap(op: str, base: Callable[..., Any]) -> Callable[..., Any]:
        def wrapped(*args: Any, **kwargs: Any) -> Any:
            nonlocal depth
            if depth:
                return base(*args, **kwargs)
            if any(hook.before(op, args, kwargs) for hook in hooks):
                return None
            depth += 1
            try:
                result = base(*args, **kwargs)
            finally:
                depth -= 1
            for hook in hooks:
                hook.after(op, args, kwargs, result)
            return result

        return wrapped

    for op in OPS:
        setattr(comm, op, wrap(op, getattr(comm, op)))


class InterceptedFn:
    """Picklable SPMD wrapper: arms the chain on each rank's comm, then
    runs ``fn``.

    The armed fault plan (``mode`` as in ``FaultPlan.hook``) is the first
    hook, the trace recorder the last; ``<trace_dir>/rank-N.jsonl`` is
    written when the rank finishes, on the error path too.
    """

    def __init__(
        self,
        fn: Callable[..., Any],
        faults: Any = None,
        mode: str = "exception",
        trace_dir: str | None = None,
    ):
        self.fn = fn
        self.faults = faults
        self.mode = mode
        self.trace_dir = None if trace_dir is None else str(trace_dir)

    def __call__(self, comm: Any, *args: Any, **kwargs: Any) -> Any:
        hooks = []
        fault_hook = self.faults and self.faults.hook(comm, self.mode)
        if fault_hook:
            hooks.append(fault_hook)
        recorder = None
        if self.trace_dir is not None:
            from repro.parallel.trace import CommTraceRecorder

            recorder = CommTraceRecorder()
            hooks.append(recorder)
        if hooks:
            intercept(comm, hooks)
        try:
            return self.fn(comm, *args, **kwargs)
        finally:
            if recorder is not None:
                recorder.dump(Path(self.trace_dir) / f"rank-{comm.rank}.jsonl")


def chained(fn: Callable[..., Any], cluster: Any, mode: str) -> Callable[..., Any]:
    """The rank function ``cluster`` runs: ``fn`` itself unless the
    cluster has a fault plan (resolved here, so a bad rank fails before
    any rank starts) or a trace directory."""
    if cluster.faults is None and cluster.trace_dir is None:
        return fn
    faults = None if cluster.faults is None else cluster.faults.resolve(cluster.size)
    return InterceptedFn(fn, faults, mode, cluster.trace_dir)
