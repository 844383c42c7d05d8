"""Net-length evaluation against a placement.

:class:`NetEvaluator` is the single component that turns placements into
per-net lengths.  It owns nothing mutable: callers (the cost engine) pass
the coordinate arrays and cache the results.  Two access patterns:

* **full sweep** — vectorized evaluation of every net at once (used when a
  placement is first attached and by the Type I slaves' partition sweeps);
* **single net / override** — pure-Python evaluation of one net: one
  kernel per estimator, ``eval_net_branch``, returns the length together
  with its y-term (the engine's commit cache; callers wanting only the
  length take ``[0]``), and ``eval_net_override`` evaluates it with one
  cell's coordinates overridden (the allocation operator's trial probes).
  Both exclude unplaced cells (partial solutions during allocation).

Unplaced movable cells are marked by NaN coordinates and are skipped, so a
partial solution Φp (selected cells removed) still has well-defined net
lengths, matching the SimE formulation.
"""

from __future__ import annotations

import math

import numpy as np

from repro.cost.steiner import batch_hpwl, batch_single_trunk, hpwl_length, single_trunk_length
from repro.netlist.core import Netlist

__all__ = ["NetEvaluator"]

_ESTIMATORS = ("steiner", "hpwl")


class NetEvaluator:
    """Evaluates net lengths for one netlist with a chosen estimator.

    Parameters
    ----------
    netlist:
        Frozen netlist.
    estimator:
        ``"steiner"`` (single-trunk, the paper's choice) or ``"hpwl"``
        (bounding box, used in ablations).
    """

    def __init__(self, netlist: Netlist, estimator: str = "steiner"):
        if estimator not in _ESTIMATORS:
            raise ValueError(f"estimator must be one of {_ESTIMATORS}")
        netlist.freeze()
        self.netlist = netlist
        self.estimator = estimator
        self._scalar = single_trunk_length if estimator == "steiner" else hpwl_length
        self._batch = batch_single_trunk if estimator == "steiner" else batch_hpwl
        # Single-net evaluation is the incremental-update hot path: bind
        # the estimator-specific inlined variant once (the generic
        # build-lists-then-call shape costs ~2x in interpreter overhead).
        self.eval_net_branch = (
            self._eval_branch_steiner
            if estimator == "steiner"
            else self._eval_branch_hpwl
        )
        # Pure-Python pin lists for the hot single-net path.
        self.net_pins: list[list[int]] = [list(map(int, netlist.pins_of_net(j)))
                                          for j in range(netlist.num_nets)]
        self.net_degree = np.diff(netlist.net_pin_indptr).astype(np.int64)
        # Static sweep helpers (pure functions of the CSR structure).
        self._net_ids = np.repeat(
            np.arange(netlist.num_nets), self.net_degree
        )
        self._deg_groups = [
            (int(d), np.flatnonzero(self.net_degree == d))
            for d in np.unique(self.net_degree[self.net_degree >= 2])
        ]

    # ------------------------------------------------------------------
    def full_sweep(
        self, x: np.ndarray, y: np.ndarray, branch_out: list | None = None
    ) -> np.ndarray:
        """Lengths of every net (requires all cells placed: no NaNs used).

        Vectorized: gathers the CSR pin coordinates once and hands them to
        the batch estimator — per net, the result is bit-identical to
        :meth:`eval_net_branch` (the estimators' bit-exactness contract).

        ``branch_out``, when given, is filled per net with the estimator's
        **y-term** — the single-trunk branch sum ``Σ|y_i − med|`` or the
        HPWL y-span — which the cost engine caches: a horizontal-only
        shift leaves it bit-unchanged, so commits can rebuild such a net's
        length as x-span + cached y-term (see ``CostEngine``).
        """
        pin_cells = self.netlist.net_pin_cells
        indptr = self.netlist.net_pin_indptr
        px = x[pin_cells]
        py = y[pin_cells]
        if self.estimator == "steiner":
            out = batch_single_trunk(
                indptr, px, py,
                net_ids=self._net_ids,
                deg_groups=self._deg_groups,
                branch_out=branch_out,
            )
            return out
        out = batch_hpwl(indptr, px, py)
        if branch_out is not None:
            starts = indptr[:-1]
            yspan = (
                np.maximum.reduceat(py, starts) - np.minimum.reduceat(py, starts)
            )
            yspan[self.net_degree < 2] = 0.0
            branch_out[:] = yspan.tolist()
        return out

    # ------------------------------------------------------------------
    # eval_net_branch — ``(length, y-term)`` of net ``j``, skipping
    # unplaced (NaN) pins.  Bound per estimator in __init__; both variants
    # inline their scalar estimator with the identical operation sequence,
    # so the length is bit-identical to ``self._scalar`` over the gathered
    # coordinate lists.
    def _eval_branch_steiner(self, j: int, x, y) -> tuple[float, float]:
        """``(length, branch)`` of net ``j`` (single trunk)."""
        ys: list[float] = []
        lo = hi = 0.0
        n = 0
        for c in self.net_pins[j]:
            vx = x[c]
            if vx == vx:  # not NaN
                if n == 0:
                    lo = hi = vx
                elif vx < lo:
                    lo = vx
                elif vx > hi:
                    hi = vx
                n += 1
                ys.append(y[c])
        if n < 2:
            return 0.0, 0.0
        if n == 2:
            # Two-pin fast path (the majority of nets): the sort is a
            # no-op for the median value (addition commutes bitwise) and
            # the branch loop unrolls — identical bits, half the work.
            y0, y1 = ys
            med = 0.5 * (y0 + y1)
            b = abs(y0 - med) + abs(y1 - med)
            return (hi - lo) + b, b
        if n == 3:
            # Median-of-three by comparison; branch loop unrolled in pin
            # order — identical bits to the sort-based general path.
            y0, y1, y2 = ys
            if y0 <= y1:
                med = y1 if y1 <= y2 else (y2 if y0 <= y2 else y0)
            else:
                med = y0 if y0 <= y2 else (y2 if y1 <= y2 else y1)
            b = abs(y0 - med) + abs(y1 - med) + abs(y2 - med)
            return (hi - lo) + b, b
        sorted_y = sorted(ys)
        med = sorted_y[n // 2] if n % 2 == 1 else 0.5 * (
            sorted_y[n // 2 - 1] + sorted_y[n // 2]
        )
        branches = 0.0
        for v in ys:
            branches += abs(v - med)
        return (hi - lo) + branches, branches

    def _eval_branch_hpwl(self, j: int, x, y) -> tuple[float, float]:
        """``(length, y-span)`` of net ``j`` (bounding box)."""
        lo_x = hi_x = lo_y = hi_y = 0.0
        n = 0
        for c in self.net_pins[j]:
            vx = x[c]
            if vx == vx:
                vy = y[c]
                if n == 0:
                    lo_x = hi_x = vx
                    lo_y = hi_y = vy
                else:
                    if vx < lo_x:
                        lo_x = vx
                    elif vx > hi_x:
                        hi_x = vx
                    if vy < lo_y:
                        lo_y = vy
                    elif vy > hi_y:
                        hi_y = vy
                n += 1
        if n < 2:
            return 0.0, 0.0
        yspan = hi_y - lo_y
        return (hi_x - lo_x) + yspan, yspan

    def eval_net_override(
        self,
        j: int,
        x: np.ndarray,
        y: np.ndarray,
        cell: int,
        cx: float,
        cy: float,
    ) -> float:
        """Length of net ``j`` with ``cell`` forced to ``(cx, cy)``.

        Other unplaced pins are skipped as in :meth:`eval_net_branch`; if
        ``cell`` is not on the net its pins are evaluated as-is.
        """
        xs: list[float] = []
        ys: list[float] = []
        for c in self.net_pins[j]:
            if c == cell:
                xs.append(cx)
                ys.append(cy)
            else:
                vx = x[c]
                if vx == vx:
                    xs.append(vx)
                    ys.append(y[c])
        return self._scalar(xs, ys)
