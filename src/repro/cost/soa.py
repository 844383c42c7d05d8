"""Batched SoA evaluation: vectorized candidate scans for the allocation loop.

:class:`~repro.cost.probe.ProbeContext` (PR 3) removed the per-candidate
pin re-walk but still scores candidates one at a time in Python — the
per-candidate interpreter overhead is now the allocation hot loop's floor.
This module removes that too: :class:`BatchProbeContext` scores **every
candidate slot of a probe round in one set of numpy operations** over a
struct-of-arrays snapshot of the placement (:class:`SoAState`).

Data layout
-----------
``SoAState`` (one per engine, created lazily on the first vectorized
probe) mirrors the placement's plain-list coordinates as float64 arrays
with one extra **sentinel slot** at index ``num_cells`` holding NaN:
per-cell pin tables are padded rectangles of cell indices where padding
points at the sentinel, so one fancy-index gather yields an
(incident-nets × max-degree)
coordinate matrix in which padding and unplaced cells are both NaN and a
single ``isfinite`` mask separates placed pins.  The engine keeps the
mirror in sync through its one mutation funnel
(:meth:`~repro.cost.engine.CostEngine._update_nets_of` forwards exactly
the coordinate-changed cells) and marks it stale on placement rebinds;
runs whose probe rounds all stay on the scalar kernel never build it, so
small-window runs pay nothing.

On top of the coordinate mirror the state memoizes, per row, the array of
candidate **insertion boundaries** (each resident cell's left edge in slot
order, then the packed row end for the append slot).  Consecutive probe
rounds differ by exactly one commit — one row's contents — so the
engine's mutators invalidate just the rows they touch
(:meth:`SoAState.invalidate_rows`) and a scan re-derives one row instead
of all of them; any sync without row information conservatively drops the
whole cache.

Per probe round, ``BatchProbeContext`` gathers the fixed-pin matrices
once, reduces them to per-net x extremes, computes the estimator
**y-term of every incident net for a whole row at once** (the merged
median by sorting each row's pin ys with the probe's ``cy`` in place,
replaying the scalar kernel's exact median choice), and then scores all
candidates of all
probed windows as one (candidates × nets) broadcast: x-spans, wirelength
and power partials, the delay ratio over the critical columns, the fuzzy
goodness combine, and the per-row width-legality mask.  The winner is the
**first** best legal candidate in scan order — ``np.argmax`` returns the
first maximum, matching the scalar loop's strict-``>`` tie-break.

Two folds: budgeted and exact
-----------------------------
Per candidate, every *selection* (min/max extremes, medians, the merged
median) and the candidate x coordinate are **bit-identical** to the scalar
kernel, and so is every elementwise operation.  What differs is how the
*sums* are taken — the Steiner branch sums over a net's pins, and the
wirelength, power and delay accumulations over the cell's nets.

* The **budgeted** fold (``open_batch_probe(cell)``, ``eval_mode="batch"``)
  uses ``.sum(axis=…)`` and ``@``.  Those re-associate: numpy's ``sum``
  along a contiguous axis adds pairwise in unrolled blocks, ``@`` goes to
  BLAS, and the probe pin's branch term is added last instead of at its
  pin position.  All summands are non-negative, so re-association cannot
  cancel — the result differs from the scalar kernel by a small relative
  error that grows with the number of terms.  The documented budget is
  :data:`BATCH_ULP_BUDGET` units in the last place on the final goodness
  value; ``eval_mode="check"`` runs (and the property tests) enforce it
  per candidate via :func:`ulp_diff` and raise :class:`EquivalenceError`
  past it.  Because an in-budget ulp flip can still swap an argmax,
  batch-mode *trajectories* may diverge from scalar ones.
* The **exact** fold (``open_batch_probe(cell, exact=True)``) replays the
  scalar kernel's accumulation order: each sum is a left fold
  ``((0.0 + t0) + t1) + …`` over the nets (or, for a branch sum, over the
  net's pins in pin order with the probe pin's term in the cell's own pin
  position — the gapped pin table in ``_BatchTables``).  A fold is
  either a loop of vector adds over the folded axis or ``np.cumsum``
  along it (:func:`_fold`); ``cumsum`` is an accumulate, so it adds
  strictly in index order, unlike ``sum``/``@``.  Padding and unplaced
  pins contribute ``+0.0``, which leaves a non-negative running sum
  bit-unchanged.  The result is the scalar kernel's goodness bit for bit,
  so ``eval_mode="scalar"`` runs large rounds on it (see
  :mod:`repro.sime.allocation`) without changing any trajectory, and the
  check gate demands ``==`` of it.

Work charges are identical to the scalar paths: one ``allocation`` unit
per candidate plus one per net-pin the scalar walk would visit, and one
``probe`` unit per candidate (the zero-cost throughput counter the
records carry as ``work_units["probe"]``).  Unit counts are integer-valued,
so the one batched charge per round is exact.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

__all__ = [
    "BATCH_ULP_BUDGET",
    "EquivalenceError",
    "SoAState",
    "BatchProbeContext",
    "ulp_diff",
]

#: Maximum tolerated ulp distance between a batch-scored goodness and the
#: scalar kernel's value at the same candidate.  Budgeted for positive-sum
#: re-association over a few hundred terms (pins × nets) plus the ratio
#: divisions and the final OWA combine; measured divergence on the test
#: circuits is far below it.
BATCH_ULP_BUDGET = 128


class EquivalenceError(AssertionError):
    """Batch evaluation diverged from the scalar kernel past its contract
    (the ulp budget, or bit equality for the exact fold)."""


#: Default of ``assert_matches_scalar(best=…)``: no winner to check.
_UNCHECKED = object()


def _float_key(values: np.ndarray) -> np.ndarray:
    """Map float64 to uint64 monotonically (the radix-sort bit flip)."""
    u = np.ascontiguousarray(values, dtype=np.float64).view(np.uint64)
    return np.where(u >> np.uint64(63), ~u, u | np.uint64(1) << np.uint64(63))


def ulp_diff(a, b) -> np.ndarray:
    """Elementwise distance in units-in-the-last-place between ``a``, ``b``.

    Computed on the monotone integer image of the float64 bit patterns,
    so 0 means bit-identical (with −0.0 one ulp from +0.0) and adjacent
    representable doubles are 1 apart.
    """
    ka = _float_key(np.atleast_1d(np.asarray(a, dtype=np.float64)))
    kb = _float_key(np.atleast_1d(np.asarray(b, dtype=np.float64)))
    return np.where(ka >= kb, ka - kb, kb - ka)


#: Folds over an axis at most this long run as a loop of vector adds;
#: longer ones as one ``np.cumsum`` (whose per-element cost is higher but
#: whose per-call cost is paid once).  Both are left folds.
_FOLD_LOOP_MAX = 8


def _fold(a: np.ndarray) -> np.ndarray:
    """Left fold ``((0.0 + a0) + a1) + …`` of ``a`` along its last axis.

    Replays the scalar kernel's running sums bit for bit: both branches
    add the terms strictly in index order (see the module docstring), and
    ``0.0 + a0`` is ``a0`` for the non-negative summands folded here.
    """
    n = a.shape[-1]
    if n > _FOLD_LOOP_MAX:
        return np.cumsum(a, axis=-1)[..., -1]
    out = np.zeros(a.shape[:-1])
    for k in range(n):
        out += a[..., k]
    return out


class _BatchTables:
    """The SoA kernel's padded numpy view of one cell's probe table.

    Derived from :class:`~repro.cost.engine.ProbeTable` on the cell's first
    vectorized round and kept on it (``ProbeTable.batch``).  ``pins`` holds
    each net's other pins in pin order, padded with the sentinel ``n``.
    ``pins_ext`` is the same table one column wider, with a sentinel gap
    (marked in ``gap``) at the table's split — the cell's own pin position,
    where the exact Steiner fold adds the probe pin's term.
    """

    __slots__ = ("pins", "pins_ext", "gap", "row_off", "act", "crit_cols",
                 "crit_dr", "crit_sc", "crit_w", "crit_const")

    def __init__(self, engine, table, n: int):
        spans = table.spans
        n_nets = len(spans)
        d = max((b - a for a, _g, b in spans), default=0)
        pins_ext = np.full((n_nets, d + 1), n, dtype=np.intp)
        gap = np.zeros(pins_ext.shape, dtype=bool)
        for i, (a, g, b) in enumerate(spans):
            pins_ext[i, : g - a] = table.pins[a:g]
            pins_ext[i, g - a + 1: b - a + 1] = table.pins[g:b]
            gap[i, g - a] = True
        # Each row has exactly one gap: dropping it leaves the plain table.
        self.pins = pins_ext[~gap].reshape(n_nets, d)
        self.pins_ext = pins_ext
        self.gap = gap
        #: Flat offset of each net's row in a raveled gapped table.
        self.row_off = np.arange(n_nets, dtype=np.intp) * (d + 1)
        self.act = np.asarray(table.act, dtype=np.float64)
        crit = table.crit
        cols, dr, sc = zip(*crit) if crit else ((), (), ())
        self.crit_cols = np.asarray(cols, dtype=np.intp)
        self.crit_dr = np.asarray(dr, dtype=np.float64)
        self.crit_sc = np.asarray(sc, dtype=np.float64)
        # Only delay engines have critical nets (and a wire capacitance).
        self.crit_w = self.crit_dr * engine._wire_cap if crit else self.crit_dr
        self.crit_const = float(sum(r * c for r, c in zip(dr, sc)))


class SoAState:
    """Struct-of-arrays mirror of one engine's placement (see module doc).

    ``x``/``y`` have ``num_cells + 1`` entries; the last is a permanent
    NaN sentinel that padded pin tables point at.  The mirror is updated
    incrementally by the engine's mutation funnel and re-copied wholesale
    (``ensure_fresh``) after a placement rebind or full refresh.
    """

    __slots__ = ("n", "xy", "x", "y", "widths", "row_y",
                 "_row_cache", "_stale", "_bound")

    def __init__(self, engine):
        # No back-reference to the engine (which owns this mirror): the
        # cycle would keep every finished run's engine alive until a full
        # garbage collection, inflating peak memory over a sweep.
        self.n = engine.netlist.num_cells
        # x and y are views of one (2, n+1) block so a probe context can
        # fetch both coordinate matrices with a single fancy-index gather.
        self.xy = np.full((2, self.n + 1), np.nan)
        self.x = self.xy[0]
        self.y = self.xy[1]
        self.widths = np.zeros(self.n)
        # Fixed row geometry as an array: the y-term broadcast gathers row
        # centers by fancy index instead of a per-scan method-call loop.
        grid = engine.grid
        self.row_y = np.asarray(
            [grid.row_y(r) for r in range(grid.num_rows)]
        )
        #: row -> insertion boundaries in slot order (append slot last);
        #: see the module docstring.  Entries are dropped by invalidate_rows.
        self._row_cache: dict[int, np.ndarray] = {}
        self._stale = True
        self._bound = None

    # ------------------------------------------------------------------
    def mark_stale(self) -> None:
        """The placement changed out from under the mirror (rebind)."""
        self._stale = True
        self._row_cache.clear()

    def ensure_fresh(self, placement) -> None:
        """Bulk-resync from the placement if stale or rebound."""
        if not self._stale and self._bound is placement:
            return
        self.x[: self.n] = placement.x
        self.y[: self.n] = placement.y
        self.widths[:] = placement._widths
        self._row_cache.clear()
        self._bound = placement
        self._stale = False

    def update_cells(
        self, cells: Sequence[int], x, y,
        rows: Sequence[int] | None = None,
    ) -> None:
        """Incremental sync hook: copy the changed cells' coordinates.

        ``x``/``y`` are the placement's plain lists; ``cells`` is exactly
        the coordinate-changed set the engine's mutation funnel computed.
        ``rows`` names the rows whose membership or packing changed — their
        cached insertion boundaries are dropped; ``None`` (a sync of
        unknown provenance) conservatively drops every row's cache.
        """
        if self._stale:
            return  # the next ensure_fresh() re-copies everything anyway
        sx, sy = self.x, self.y
        for c in cells:
            sx[c] = x[c]
            sy[c] = y[c]
        self.invalidate_rows(rows)

    def invalidate_rows(self, rows: Sequence[int] | None) -> None:
        """Drop cached insertion boundaries for ``rows`` (None: all)."""
        if rows is None:
            self._row_cache.clear()
        else:
            cache = self._row_cache
            for r in rows:
                cache.pop(r, None)

    def row_bounds(
        self, row: int, cells: Sequence[int], end: float
    ) -> np.ndarray:
        """Cached insertion boundaries of one row, one per slot.

        ``cells`` is the placement's current slot-ordered cell list for
        ``row`` and ``end`` its packed width: entry ``s`` is the left edge
        (``x - width/2``) of the cell in slot ``s``, and the last entry —
        the append slot — is ``end``.  These are the identical doubles the
        scalar kernel reads per candidate.  Correctness rests on the
        engine's mutators invalidating every row they touch (the
        equivalence tests and the check-mode gate exercise exactly that).
        """
        ent = self._row_cache.get(row)
        if ent is None:
            mid = np.asarray(cells, dtype=np.intp)
            ent = np.empty(len(cells) + 1)
            np.subtract(self.x[mid], self.widths[mid] * 0.5, out=ent[:-1])
            ent[-1] = end
            self._row_cache[row] = ent
        return ent


class BatchProbeContext:
    """One cell's probe round, scored with vectorized numpy.

    Open via :meth:`repro.cost.engine.CostEngine.open_batch_probe`.  Like
    the scalar :class:`~repro.cost.probe.ProbeContext`, a context is valid
    until the next structural mutation; the allocator opens one per cell.
    ``exact`` selects the exact fold over the budgeted one (module doc).
    """

    __slots__ = (
        "engine", "cell", "_p", "_soa", "_bt", "_w", "_max_legal", "_units",
        "_o_wl", "_o_pw", "_o_d",
        "_steiner", "_has_power", "_has_delay", "_beta", "_n_obj",
        "_mask", "_m", "_xlo", "_xhi", "_Y", "_Yg", "_ylo", "_yhi",
        "_modd", "_i_lo", "_i_hi", "_pending_units", "_pending_probes",
        "_exact",
    )

    def __init__(self, engine, cell: int, exact: bool = False):
        p = engine._require_placement()
        soa = engine.soa_state()
        soa.ensure_fresh(p)
        table = engine.probe_table(cell)
        bt = table.batch
        if bt is None:
            bt = table.batch = _BatchTables(engine, table, soa.n)
        self.engine = engine
        self.cell = cell
        self._p = p
        self._soa = soa
        self._bt = bt
        self._w = float(p._widths[cell])
        self._max_legal = engine.grid.max_legal_width
        self._units = table.units
        self._o_wl = engine._cell_o_wl[cell]
        self._o_pw = engine._cell_o_pw[cell]
        self._o_d = engine._cell_o_d[cell]
        self._steiner = engine.evaluator.estimator == "steiner"
        self._has_power = engine.has_power
        self._has_delay = engine.has_delay
        self._beta = engine._beta
        self._n_obj = 1 + int(self._has_power) + int(self._has_delay)
        self._exact = exact

        # One gather: fixed-pin coordinate matrices (nets × max degree);
        # padding and unplaced pins are NaN (in both coordinates), one
        # mask covers both.
        XY = soa.xy[:, bt.pins]
        X = XY[0]
        Y = XY[1]
        mask = np.isfinite(X)
        self._mask = mask
        self._m = mask.sum(axis=1)
        self._xlo = np.fmin.reduce(X, axis=1, initial=np.inf)
        self._xhi = np.fmax.reduce(X, axis=1, initial=-np.inf)
        self._Y = self._Yg = self._ylo = self._yhi = None
        self._modd = self._i_lo = self._i_hi = None
        if self._steiner:
            self._Y = Y
            # The gapped pin table's ys (see _BatchTables), and the
            # row-independent pieces of the merged-median selection: the
            # merged length is m + 1 per net, so the median indexes and
            # the odd/even parity never change across probed rows.
            self._Yg = soa.y[bt.pins_ext]
            half = (self._m + 1) // 2
            self._modd = (self._m + 1) % 2 == 1
            self._i_hi = bt.row_off + half
            self._i_lo = bt.row_off + np.maximum(half - 1, 0)
        else:
            self._ylo = np.fmin.reduce(Y, axis=1, initial=np.inf)
            self._yhi = np.fmax.reduce(Y, axis=1, initial=-np.inf)
        self._pending_units = 0.0
        self._pending_probes = 0.0

    # ------------------------------------------------------------------
    def _yterms(self, rows: Sequence[int]) -> np.ndarray:
        """(rows × nets) estimator y-terms, every probed row in one shot.

        For steiner, each row's probe ``cy`` fills every net's gap in the
        gapped pin table, so a row holds the net's pins in pin order with
        the probe where the scalar walk meets it.  Sorting that row puts
        the merged sequence first (NaN padding sorts last), so the median
        picks are plain flat gathers at the row-independent merged
        indexes ``half - 1`` and ``half`` — the same doubles the scalar
        kernel's insertion-point selection returns.  The branch sum is
        then taken by the exact fold over that pin-ordered row (probe pin
        in place; ``fmax(·, 0.0)`` turns padding into exact ``+0.0``
        summands) or by the budgeted ``sum`` plus the probe term.
        """
        cy = self._soa.row_y[np.asarray(rows, dtype=np.intp)]
        if not self._steiner:
            yt = (np.maximum(self._yhi[None, :], cy[:, None])
                  - np.minimum(self._ylo[None, :], cy[:, None]))
        else:
            full = np.where(self._bt.gap, cy[:, None, None], self._Yg[None])
            srt = np.sort(full, axis=2).reshape(len(cy), -1)
            v_hi = srt[:, self._i_hi]
            v_lo = srt[:, self._i_lo]
            med = np.where(self._modd, v_hi, 0.5 * (v_lo + v_hi))
            if self._exact:
                yt = _fold(np.fmax(np.abs(full - med[:, :, None]), 0.0))
            else:
                yt = np.where(
                    self._mask[None, :, :],
                    np.abs(self._Y[None, :, :] - med[:, :, None]),
                    0.0,
                ).sum(axis=2) + np.abs(cy[:, None] - med)
        # A net with no placed fixed pin gets exactly 0.0 with no masking:
        # its HPWL span is cy - cy, and its only Steiner pin is the probe,
        # which is its own median.
        return yt

    # ------------------------------------------------------------------
    def _gather(
        self,
        windows: Sequence[tuple[int, int, int]],
        legal_only: bool = False,
        charge: bool = False,
    ) -> tuple:
        """One Python pass over the windows: clamp, charge, build meta.

        Returns ``(meta, chunks, pos, counts)``.  ``meta`` is the compact
        per-window bookkeeping ``(rows_used, los, oks, ends)``: the
        clamped window rows, their first slots, their width-legality, and
        the cumulative candidate-count ends (``counts`` holds the
        per-window sizes, ``pos`` their total).  Per-candidate row/slot/
        legal views are derived from it on demand (:meth:`_candidate_at`
        for the single winner, :meth:`_expand_meta` for the equivalence
        paths) — the hot path never builds per-candidate Python lists.
        ``chunks`` holds each window's slice of the SoA per-row boundary
        cache (:meth:`SoAState.row_bounds`) — consecutive scans touch one
        row, so all but one slice comes straight from the cache.

        ``charge`` books the scalar scan's exact accounting (one
        candidate's units per unclamped slot, legal row or not);
        ``legal_only`` then drops width-illegal rows from the gathered
        set, replaying the scalar scan's early exit — their candidates
        are charged but can never win, so they are never scored.
        """
        p = self._p
        rows = p.rows
        row_bounds = self._soa.row_bounds
        w = self._w
        row_width = p.row_width
        max_ok = self._max_legal + 1e-9
        rows_used: list[int] = []
        los: list[int] = []
        oks: list[bool] = []
        ends: list[int] = []
        counts: list[int] = []
        chunks: list[np.ndarray] = []
        pos = 0
        charged = 0
        for row, lo, hi in windows:
            if hi >= lo:
                charged += hi - lo + 1
            width = row_width[row]
            ok = width + w <= max_ok
            if legal_only and not ok:
                continue
            cells = rows[row]
            n_row = len(cells)
            if lo < 0:
                lo = 0
            if hi > n_row:
                hi = n_row
            if hi < lo:
                continue
            rows_used.append(row)
            los.append(lo)
            oks.append(ok)
            # Insertion boundaries: the next cell's left edge per interior
            # slot, the packed row end for the append slot — the same
            # doubles the scalar kernel computes.
            chunks.append(row_bounds(row, cells, width)[lo: hi + 1])
            n = hi - lo + 1
            pos += n
            counts.append(n)
            ends.append(pos)
        if charge:
            # Integer-valued units: one product equals the scalar scan's
            # per-window running sum exactly.
            self._pending_units += charged * self._units
            self._pending_probes += float(charged)
        return (rows_used, los, oks, ends), chunks, pos, counts

    def _score(self, gathered: tuple) -> tuple[np.ndarray, ...]:
        """Score every gathered candidate with vectorized numpy.

        Returns ``(goodness, cx, meta)`` over all candidates, concatenated
        in scan order (windows in order, slots ascending) — the order the
        argmax tie-break depends on.
        """
        meta, chunks, pos, counts = gathered
        if not pos:
            empty_f = np.zeros(0)
            return empty_f, empty_f, meta
        bounds = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        cx = bounds + 0.5 * self._w
        yt = np.repeat(self._yterms(meta[0]), counts, axis=0)
        lens = (
            np.maximum(self._xhi[None, :], cx[:, None])
            - np.minimum(self._xlo[None, :], cx[:, None])
            + yt
        )
        n_cand = cx.shape[0]
        bt = self._bt
        exact = self._exact
        c_wl = _fold(lens) if exact else lens.sum(axis=1)
        r0 = np.divide(self._o_wl, c_wl, out=np.ones(n_cand),
                       where=c_wl > self._o_wl)
        worst = r0
        total = r0
        if self._has_power:
            c_pw = _fold(lens * bt.act) if exact else lens @ bt.act
            r1 = np.divide(self._o_pw, c_pw, out=np.ones(n_cand),
                           where=c_pw > self._o_pw)
            worst = np.minimum(worst, r1)
            total = total + r1
        if self._has_delay:
            if bt.crit_cols.size:
                if exact:
                    c_d = _fold(bt.crit_dr * (
                        self.engine._wire_cap * lens[:, bt.crit_cols]
                        + bt.crit_sc
                    ))
                else:
                    c_d = lens[:, bt.crit_cols] @ bt.crit_w + bt.crit_const
                r2 = np.divide(self._o_d, c_d, out=np.ones(n_cand),
                               where=c_d > self._o_d)
                worst = np.minimum(worst, r2)
                total = total + r2
            else:
                worst = np.minimum(worst, 1.0)
                total = total + 1.0
        g = self._beta * worst + (1.0 - self._beta) * (total / self._n_obj)
        return g, cx, meta

    @staticmethod
    def _candidate_at(meta, i: int) -> tuple[int, int, bool]:
        """(row, slot, legal) of flat candidate ``i`` from compact meta."""
        rows_used, los, oks, ends = meta
        w = bisect_right(ends, i)
        start = ends[w - 1] if w else 0
        return rows_used[w], los[w] + (i - start), oks[w]

    @staticmethod
    def _expand_meta(meta) -> tuple[list, list, np.ndarray]:
        """Per-candidate ``(rows, slots, legal)`` views of compact meta."""
        rows_used, los, oks, ends = meta
        rows_list: list[int] = []
        slots_list: list[int] = []
        legal_list: list[bool] = []
        start = 0
        for row, lo, ok, end in zip(rows_used, los, oks, ends):
            n = end - start
            rows_list.extend([row] * n)
            slots_list.extend(range(lo, lo + n))
            legal_list.extend([ok] * n)
            start = end
        return rows_list, slots_list, np.asarray(legal_list, dtype=bool)

    # ------------------------------------------------------------------
    def score_windows(
        self, windows: Sequence[tuple[int, int, int]], charge: bool = True
    ) -> tuple[np.ndarray, ...]:
        """Per-candidate ``(goodness, legal, rows, slots, cx)`` in scan order.

        The equivalence-facing form: every candidate expanded, illegal
        rows included and scored.  ``charge=False`` skips the meter
        accounting — the check-mode gate scores the batch path *alongside*
        an already-charged scalar scan.
        """
        g, cx, meta = self._score(self._gather(windows))
        if charge:
            n = g.shape[0]
            self._pending_units += n * self._units
            self._pending_probes += float(n)
        rows_list, slots_list, legal = self._expand_meta(meta)
        return g, legal, rows_list, slots_list, cx

    def scan_rows(
        self,
        windows: Sequence[tuple[int, int, int]],
        best: tuple[float, int, int] | None = None,
    ) -> tuple[float, int, int] | None:
        """Best legal candidate over all windows, batch-scored.

        Returns ``(goodness, row, slot)`` with the scalar loop's
        tie-breaking: the first best candidate in scan order wins
        (``np.argmax`` returns the first maximum; a carried-in ``best``
        is only displaced by a strictly better goodness).  Charges one
        candidate's units per slot, legal row or not, exactly like the
        scalar scan — and like the scalar scan's early exit, width-illegal
        rows are charged but never scored (their candidates cannot win),
        so the vectorized work tracks the legal windows only.
        """
        g, _cx, meta = self._score(
            self._gather(windows, legal_only=True, charge=True)
        )
        if not g.shape[0]:
            return best
        i = int(np.argmax(g))
        gi = float(g[i])
        if best is None or gi > best[0]:
            row, slot, _ok = self._candidate_at(meta, i)
            return gi, row, slot
        return best

    def flush_charges(self) -> None:
        """Charge the accumulated scan work to the meter."""
        if self._pending_units:
            meter = self.engine.meter
            meter.charge("allocation", self._pending_units)
            meter.charge("probe", self._pending_probes)
            self._pending_units = 0.0
            self._pending_probes = 0.0

    # ------------------------------------------------------------------
    def assert_matches_scalar(
        self,
        scalar_ctx,
        windows: Sequence[tuple[int, int, int]],
        best=_UNCHECKED,
    ) -> None:
        """The check-mode gate: batch vs scalar kernel, per candidate.

        Scores the windows on the batch path (uncharged — the deciding
        scan already paid) and asserts, for every candidate, identical
        width legality and a goodness within :data:`BATCH_ULP_BUDGET` ulps
        of the scalar kernel's charge-free evaluation — or, on an exact
        context, an equal (``==``) goodness.  ``best``, the winner this
        exact context's :meth:`scan_rows` chose, must also equal a replay
        of the scalar scan (whose charges are left pending, never
        flushed).  Raises :class:`EquivalenceError` on the first violation.
        """
        g, legal, rows_arr, slots_arr, cx = self.score_windows(
            windows, charge=False
        )
        p = self._p
        w = self._w
        exact = self._exact
        for i in range(g.shape[0]):
            row = int(rows_arr[i])
            slot = int(slots_arr[i])
            s_legal = p.row_width[row] + w <= self._max_legal + 1e-9
            if bool(legal[i]) != s_legal:
                raise EquivalenceError(
                    f"cell {self.cell} at ({row},{slot}): batch legality "
                    f"{bool(legal[i])} != scalar {s_legal}"
                )
            s_cx, _ = self.engine.insertion_coords(self.cell, row, slot)
            s_g = scalar_ctx._goodness_at(row, s_cx)
            if exact:
                if float(g[i]) != s_g:
                    raise EquivalenceError(
                        f"cell {self.cell} at ({row},{slot}): exact goodness "
                        f"{float(g[i])!r} != scalar {s_g!r}"
                    )
                continue
            d = int(ulp_diff(float(g[i]), s_g)[0])
            if d > BATCH_ULP_BUDGET:
                raise EquivalenceError(
                    f"cell {self.cell} at ({row},{slot}): goodness "
                    f"{float(g[i])!r} vs scalar {s_g!r} differs by {d} ulp "
                    f"(budget {BATCH_ULP_BUDGET}; cx {float(cx[i])!r} vs "
                    f"{s_cx!r})"
                )
        if best is not _UNCHECKED:
            s_best = None
            for row, lo, hi in windows:
                s_best = scalar_ctx.scan_row(row, lo, hi, s_best)
            if s_best != best:
                raise EquivalenceError(
                    f"cell {self.cell}: winner {best!r} != scalar {s_best!r}"
                )
