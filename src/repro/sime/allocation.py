"""Allocation step: sorted individual best-fit.

The operator the paper's profile bills ~98 % of the runtime to.  Following
the 'sorted individual best fit method' of Sait & Khan [9]:

1. all selected cells are **removed** from the solution, leaving the
   partial solution Φp (rows stay packed);
2. the selected cells are **sorted** (worst goodness first by default — the
   cells most in need of relocation get the emptiest solution to choose
   from; the order is an ablation knob);
3. each cell is placed at its **best fit**: the probe window is centred on
   the cell's *optimal position* — the median x/y of the cells and pads it
   connects to — and every candidate (row, slot) in the window is scored by
   the cell's fuzzy goodness at that position via
   :meth:`~repro.cost.engine.CostEngine.trial_insertion`; the best legal
   candidate wins and is committed before the next cell is processed.

Width legality is enforced here (candidates overflowing a row are
rejected), implementing the paper's width *constraint*.  If every probed
candidate is illegal the allocator falls back to the currently-widest
slack row, which always admits the cell for any sane ``alpha``.

Restricting ``allowed_rows`` confines both probing and fallback to a row
subset — exactly the hook Type II domain decomposition uses ("each
processor only has a limited freedom of cell movement", Section 6.2).

Performance: the candidate scan runs on the fused probe kernel
(:meth:`~repro.cost.engine.CostEngine.open_probe`), which precomputes each
incident net's fixed-pin partial once per cell and scores candidates in
O(incident nets) — bit-identical results and meter charges to the scalar
``trial_insertion`` loop, which is kept behind ``use_kernel=False`` as the
reference implementation the equivalence tests pin.

``SimEConfig.eval_mode`` selects the evaluation path on top of that:
``"scalar"`` (default) keeps bit-exact semantics with two implementations
dispatched by round size — rounds with at least
:data:`EXACT_KERNEL_MIN_CANDIDATES` candidates in rows the cell fits in
run on the vectorized kernel's exact fold (``open_batch_probe(cell,
exact=True)``, bit-identical to the fused kernel), smaller ones on the
fused kernel, whose per-candidate cost undercuts numpy's per-round
dispatch there; ``"batch"`` scores each
cell's whole probe window in one vectorized pass over the engine's SoA
mirror (:meth:`~repro.cost.engine.CostEngine.open_batch_probe`, equivalent
within the documented ulp budget); ``"check"`` decides and charges exactly
like ``"scalar"`` while re-scoring every candidate on the budgeted batch
path and raising on any divergence past the budget — and, on exact-kernel
rounds, on any bit difference from the fused kernel.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.cost.engine import CostEngine, TrialResult
from repro.sime.config import SimEConfig
from repro.utils.rng import RngStream

__all__ = ["Allocator", "EXACT_KERNEL_MIN_CANDIDATES"]

#: Scalar- and check-mode probe rounds with at least this many scored
#: candidates (see ``Allocator._windows``) run on the exact vectorized
#: fold instead of the fused kernel — same bits, same charges.  The
#: measured crossover: below it numpy's fixed per-round cost outweighs
#: the Python loop's per-candidate cost (DESIGN §2 has the table).
EXACT_KERNEL_MIN_CANDIDATES = 100


def _median(vals: list[float]) -> float:
    """Median of ``vals`` (consumed!) — lower/upper-middle midpoint.

    Selection, not sorting, for large gathers: ``np.partition`` places the
    two middle order statistics in O(n); small lists sort (cheaper below
    the numpy call overhead).  Both paths produce the identical value —
    medians are exact selections plus the same midpoint expression.
    """
    n = len(vals)
    mid = n // 2
    if n >= 64:
        arr = np.asarray(vals)
        if n % 2 == 1:
            return float(np.partition(arr, mid)[mid])
        part = np.partition(arr, (mid - 1, mid))
        return 0.5 * (float(part[mid - 1]) + float(part[mid]))
    vals.sort()
    return vals[mid] if n % 2 == 1 else 0.5 * (vals[mid - 1] + vals[mid])


class Allocator:
    """Sorted individual best-fit allocation against one cost engine."""

    #: Scan candidates with the fused probe kernel; ``False`` falls back
    #: to the scalar ``trial_insertion`` reference loop (tests compare
    #: the two bit-for-bit).
    use_kernel: bool = True

    def __init__(self, engine: CostEngine, config: SimEConfig, rng: RngStream):
        self.engine = engine
        self.config = config
        self.rng = rng

    # ------------------------------------------------------------------
    def allocate(
        self,
        selected: Sequence[int],
        goodness: Mapping[int, float],
        allowed_rows: Sequence[int] | None = None,
    ) -> None:
        """Remove and re-place every selected cell (see module docstring).

        ``allowed_rows`` restricts candidate rows (Type II); None allows
        the full grid.
        """
        if not selected:
            return
        engine = self.engine
        rows = (
            sorted(set(allowed_rows))
            if allowed_rows is not None
            else list(range(engine.grid.num_rows))
        )
        if not rows:
            raise ValueError("allowed_rows must not be empty")

        order = sorted(
            selected,
            key=lambda c: goodness.get(c, 0.0),
            reverse=self.config.sort_descending,
        )
        engine.remove_cells(order)
        # Candidate-row orderings only depend on the target row; memoize
        # them across this round's cells (deterministic, so the scan order
        # — and with it tie-breaking — is unchanged).
        row_memo: dict[int, list[int]] = {}
        for cell in order:
            row, slot = self._best_fit(cell, rows, row_memo)
            engine.insert_cell(cell, row, slot)

    # ------------------------------------------------------------------
    def _target_point(self, cell: int) -> tuple[float, float]:
        """Optimal position estimate: median of connected placed pins.

        The connectivity gather runs over the flat neighbour list of the
        cell's static probe table (shared with both probe kernels): a
        neighbour on two nets counts twice.  The medians are computed by
        selection rather than a per-call full sort (:func:`_median`).
        """
        engine = self.engine
        p = engine.placement
        x, y = p.x, p.y
        xs: list[float] = []
        ys: list[float] = []
        for c in engine.probe_table(cell).pins:
            vx = x[c]
            if vx == vx:  # placed or pad
                xs.append(vx)
                ys.append(y[c])
        if not xs:
            # Isolated during this allocation round: aim at the core center.
            return engine.grid.w_avg / 2.0, engine.grid.row_y(
                engine.grid.num_rows // 2
            )
        return _median(xs), _median(ys)

    def _ideal_slot(self, row: int, x: float) -> int:
        """Slot in ``row`` whose insertion boundary is closest to ``x``.

        Binary search over the (monotone) left boundaries of the packed
        row, reading only O(log n) coordinates instead of materializing
        the whole boundary list (open-coded ``bisect_left`` — the ``key=``
        lambda dispatch showed up in the allocation profile).
        """
        p = self.engine.placement
        cells = p.rows[row]
        px = p.x
        widths = p._widths
        lo, hi = 0, len(cells)
        while lo < hi:
            mid = (lo + hi) // 2
            c = cells[mid]
            if px[c] - widths[c] / 2.0 < x:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _windows(
        self, cand_rows: Sequence[int], tx: float, width: float
    ) -> tuple[list[tuple[int, int, int]], int]:
        """Probe windows ``(row, lo_slot, hi_slot)`` centred on the target,
        and the round's scored-candidate count.

        One shared window computation for every evaluation path, so the
        scalar, batch and check scans see byte-for-byte the same candidate
        set in the same scan order (tie-breaking depends on it).  The
        count covers the rows a cell of ``width`` fits in: both kernels
        charge but skip the others, so only these cost scan time.
        """
        cfg = self.config
        p = self.engine.placement
        row_width = p.row_width
        max_ok = self.engine.grid.max_legal_width + 1e-9
        sw = cfg.slot_window
        out: list[tuple[int, int, int]] = []
        n_cand = 0
        for r in cand_rows:
            n_row = len(p.rows[r])
            if n_row <= sw:
                # The window covers the whole row for every possible ideal
                # slot (0 <= ideal <= n_row <= slot_window), so the clamped
                # bounds are (0, n_row) no matter where the target lands —
                # skip the boundary bisection.  Scan-heavy configurations
                # (exhaustive row scans) hit this path on every row.
                lo, hi = 0, n_row
            else:
                ideal = self._ideal_slot(r, tx)
                lo = max(0, ideal - sw)
                hi = min(n_row, ideal + sw)
            out.append((r, lo, hi))
            if row_width[r] + width <= max_ok:
                n_cand += hi - lo + 1
        return out, n_cand

    def _best_fit(
        self,
        cell: int,
        rows: Sequence[int],
        row_memo: dict[int, list[int]] | None = None,
    ) -> tuple[int, int]:
        """Best legal candidate (row, slot) for ``cell`` within ``rows``.

        Ties break to the **first** best-goodness candidate in scan order
        (strict ``>``) — rows by distance to the target, slots ascending —
        in the kernel, the batch and the scalar reference paths; the
        trajectory depends on it.
        """
        engine = self.engine
        cfg = self.config
        tx, ty = self._target_point(cell)
        target_row = engine.grid.nearest_row(ty)
        # Candidate rows: allowed rows ordered by distance to the target.
        cand_rows = row_memo.get(target_row) if row_memo is not None else None
        if cand_rows is None:
            cand_rows = sorted(rows, key=lambda r: abs(r - target_row))[
                : 2 * cfg.row_window + 1
            ]
            if row_memo is not None:
                row_memo[target_row] = cand_rows
        windows, n_cand = self._windows(
            cand_rows, tx, engine.placement._widths[cell]
        )
        if self.use_kernel:
            mode = cfg.eval_mode
            exact = mode != "batch" and n_cand >= EXACT_KERNEL_MIN_CANDIDATES
            if mode == "batch" or exact:
                bctx = engine.open_batch_probe(cell, exact=exact)
                kbest = bctx.scan_rows(windows)
                bctx.flush_charges()
            else:
                ctx = engine.open_probe(cell)
                kbest = None
                for r, lo, hi in windows:
                    kbest = ctx.scan_row(r, lo, hi, kbest)
                ctx.flush_charges()
            if mode == "check":
                # Equivalence gate, uncharged (the deciding scan paid): an
                # exact round must equal the fused kernel bit for bit,
                # winner included; every round is re-scored on the
                # budgeted batch path and raises past the ulp budget.  The
                # committed decision is the scalar-mode one, so a checked
                # run's trajectory and charges equal a plain scalar run's.
                if exact:
                    ctx = engine.open_probe(cell)
                    bctx.assert_matches_scalar(ctx, windows, kbest)
                engine.open_batch_probe(cell).assert_matches_scalar(
                    ctx, windows
                )
            if kbest is not None:
                return kbest[1], kbest[2]
            return self._fallback(rows)
        best: TrialResult | None = None
        for r, lo, hi in windows:
            for slot in range(lo, hi + 1):
                t = engine.trial_insertion(cell, r, slot)
                if not t.legal:
                    continue
                if best is None or t.goodness > best.goodness:
                    best = t
        if best is not None:
            return best.row, best.slot
        return self._fallback(rows)

    def _fallback(self, rows: Sequence[int]) -> tuple[int, int]:
        # Fallback: widest slack among allowed rows (always legal for sane
        # alpha because selected cells were removed first).
        p = self.engine.placement
        r = min(rows, key=lambda r_: float(p.row_width[r_]))
        return r, len(p.rows[r])
