"""Fused allocation-probe kernel: probe-context scoring of candidates.

:meth:`~repro.cost.engine.CostEngine.trial_insertion` — the allocation
operator's inner loop — re-walks every pin of every incident net for every
candidate ``(row, slot)`` probed.  During one best-fit round, however, all
pins except the probed cell's are **fixed**: re-reading them per candidate
is pure interpreter overhead (the paper's Section 4 profile bills ~98 % of
runtime to exactly this loop).

:class:`ProbeContext` hoists the fixed-pin work out of the candidate loop.
The cell's static half — its incident nets' other pins split at its own
pin, the work units, the activities and the critical nets — is the
engine's per-cell :class:`~repro.cost.engine.ProbeTable`, built once and
shared with the SoA kernel and the allocator.  ``CostEngine.open_probe``
builds only the coordinate-dependent half, walking each net's pins
**once** per round and recording, per net:

* the placed fixed-pin x extremes (the probe only stretches or keeps the
  span);
* the placed fixed-pin y values before and after the cell's pin, and also
  sorted (for merged-median lookup).

``probe(row, slot)`` then scores a candidate in O(incident nets): the span
is two comparisons, and the branch term ``Σ|y − med|`` only depends on the
candidate's **row**, so it is computed once per row and cached
(:meth:`_row_branches`) — turning the best-fit scan from
``candidates × pins`` into ``pins + rows × pins + candidates × nets``.

Bit-exactness contract
----------------------
Every ``probe`` result is **bit-identical** to ``trial_insertion`` at the
same candidate, and every probe charges **exactly** the same work units
(one per candidate plus one per net-pin the scalar walk would visit — the
paper's gprof accounting is a model of the algorithm, not of this
implementation).  Exactness is by construction, not tolerance: mins/maxes
and medians are exact selections, and every floating-point *sum* (branch
terms, cost accumulations, ratio means) replays the scalar code's
accumulation order.  ``tests/cost/test_probe.py`` pins this per candidate
and end-to-end.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

from repro.cost.engine import TrialResult

__all__ = ["ProbeContext"]


def _branch_at(m: int, pre: list, post: list, srt: list, cy: float) -> float:
    """Single-trunk branch sum ``Σ|y − med|`` with the probe pin at ``cy``.

    ``pre``/``post`` are the fixed pin ys around the probed cell's pin
    slot (pin order), ``srt`` their sorted union.  The merged median is an
    exact selection via the insertion index of ``cy``; the sum replays the
    scalar accumulation order (pre pins, probe pin, post pins).
    """
    if m == 1:
        # Two-pin net: the midpoint and the two-term sum both commute
        # bitwise, so no ordering bookkeeping is needed.
        y0 = srt[0]
        med = 0.5 * (y0 + cy)
        return abs(y0 - med) + abs(cy - med)
    n = m + 1
    k = bisect_left(srt, cy)
    half = n // 2
    if n % 2 == 1:
        med = srt[half] if half < k else (cy if half == k else srt[half - 1])
    else:
        a = half - 1
        va = srt[a] if a < k else (cy if a == k else srt[a - 1])
        vb = srt[half] if half < k else (cy if half == k else srt[half - 1])
        med = 0.5 * (va + vb)
    b = 0.0
    for v in pre:
        b += abs(v - med)
    b += abs(cy - med)
    for v in post:
        b += abs(v - med)
    return b


class ProbeContext:
    """One cell's probe round against a frozen background placement.

    Open via :meth:`repro.cost.engine.CostEngine.open_probe`.  The context
    snapshots the fixed pins of the cell's incident nets, so it is valid
    only until the next structural mutation of the placement (the
    allocator opens a fresh context per cell, after the previous commit).
    """

    __slots__ = (
        "engine",
        "cell",
        "_p",
        "_row_y",
        "_widths",
        "_w",
        "_max_legal",
        "_units",
        "_steiner",
        "_m",
        "_lo",
        "_hi",
        "_loy",
        "_hiy",
        "_pre",
        "_post",
        "_sorted",
        "_act",
        "_crit",
        "_has_power",
        "_has_delay",
        "_o_wl",
        "_o_pw",
        "_o_d",
        "_beta",
        "_row_branch",
        "_row_fast",
        "_pending_units",
        "_pending_probes",
    )

    def __init__(self, engine, cell: int):
        p = engine._require_placement()
        self.engine = engine
        self.cell = cell
        self._p = p
        self._row_y = engine.grid.row_y
        self._widths = p._widths
        self._w = p._widths[cell]
        self._max_legal = engine.grid.max_legal_width
        self._has_power = engine.has_power
        self._has_delay = engine.has_delay
        self._o_wl = engine._cell_o_wl[cell]
        self._o_pw = engine._cell_o_pw[cell]
        self._o_d = engine._cell_o_d[cell]
        self._beta = engine._beta
        self._row_branch: dict[int, list] = {}
        self._row_fast: dict[int, list] = {}

        steiner = engine.evaluator.estimator == "steiner"
        self._steiner = steiner
        table = engine.probe_table(cell)
        self._units = table.units
        self._act = table.act
        self._crit = table.crit
        pins = table.pins
        x, y = p.x, p.y

        # The coordinate-dependent half: per net, the placed fixed pins'
        # extremes and their ys before and after the cell's own pin.
        m_l: list[int] = []
        lo_l: list[float] = []
        hi_l: list[float] = []
        loy_l: list[float] = []
        hiy_l: list[float] = []
        pre_l: list[list[float]] = []
        post_l: list[list[float]] = []
        sort_l: list[list[float]] = []
        for a, g, b in table.spans:
            pre: list[float] = []
            post: list[float] = []
            ys = pre
            lo = hi = loy = hiy = 0.0
            m = 0
            for i, c in enumerate(pins[a:b], a):
                if i == g:  # past the cell's own pin
                    ys = post
                vx = x[c]
                if vx == vx:  # placed pin (not NaN)
                    vy = y[c]
                    if m == 0:
                        lo = hi = vx
                        loy = hiy = vy
                    else:
                        if vx < lo:
                            lo = vx
                        elif vx > hi:
                            hi = vx
                        if vy < loy:
                            loy = vy
                        elif vy > hiy:
                            hiy = vy
                    m += 1
                    ys.append(vy)
            m_l.append(m)
            lo_l.append(lo)
            hi_l.append(hi)
            loy_l.append(loy)
            hiy_l.append(hiy)
            pre_l.append(pre)
            post_l.append(post)
            sort_l.append(sorted(pre + post) if steiner else [])
        self._m = m_l
        self._lo = lo_l
        self._hi = hi_l
        self._loy = loy_l
        self._hiy = hiy_l
        self._pre = pre_l
        self._post = post_l
        self._sorted = sort_l
        self._pending_units = 0.0
        self._pending_probes = 0.0

    # ------------------------------------------------------------------
    def _row_branches(self, row: int) -> list:
        """Per-net y-terms for candidates in ``row`` (row constants).

        Within one row the probe's y is fixed, so the estimator's y
        contribution — the single-trunk branch sum ``Σ|y − med|``, or the
        HPWL y-span — is a row constant per net; only the x-span varies
        slot to slot.  The branch sum replays the scalar accumulation
        order: fixed pins before the cell's pin slot, the probe pin,
        fixed pins after.
        """
        cached = self._row_branch.get(row)
        if cached is not None:
            return cached
        cy = self._row_y(row)
        out: list[float] = []
        if not self._steiner:
            for m, loy, hiy in zip(self._m, self._loy, self._hiy):
                if m == 0:
                    out.append(0.0)
                    continue
                if cy < loy:
                    loy = cy
                elif cy > hiy:
                    hiy = cy
                out.append(hiy - loy)
            self._row_branch[row] = out
            return out
        for m, pre, post, srt in zip(self._m, self._pre, self._post, self._sorted):
            if m == 0:
                out.append(0.0)
                continue
            out.append(_branch_at(m, pre, post, srt, cy))
        self._row_branch[row] = out
        return out

    def _goodness_at(self, row: int, cx: float) -> float:
        """Fuzzy goodness of the cell at x = ``cx`` in ``row``.

        Runs on the same per-row fused records as :meth:`scan_row`, so
        repeated probes into one row — ``probe_many`` in particular —
        share one cached y-term computation per row instead of rebuilding
        it per call.  Dropping m == 0 nets and reusing the records is
        value-preserving (they contribute an exact 0.0 in the same
        accumulation positions), so results stay bit-identical to
        ``trial_insertion``.
        """
        c_wl = 0.0
        c_pw = 0.0
        has_power = self._has_power
        for lo, hi, a, yt in self._row_fast_data(row):
            if cx < lo:
                lo = cx
            elif cx > hi:
                hi = cx
            new_len = (hi - lo) + yt
            c_wl += new_len
            if has_power:
                c_pw += a * new_len
        o_wl = self._o_wl
        r0 = o_wl / c_wl if c_wl > o_wl else 1.0
        worst = r0
        total = r0
        n_obj = 1
        if has_power:
            o_pw = self._o_pw
            r1 = o_pw / c_pw if c_pw > o_pw else 1.0
            if r1 < worst:
                worst = r1
            total = total + r1
            n_obj = 2
        if self._has_delay:
            r2 = self._delay_ratio(row, cx)
            if r2 < worst:
                worst = r2
            total = total + r2
            n_obj += 1
        beta = self._beta
        return beta * worst + (1.0 - beta) * (total / n_obj)

    def _delay_ratio(self, row: int, cx: float) -> float:
        """Delay goodness ratio at the candidate (1.0 off critical paths)."""
        if not self._crit:
            return 1.0
        branches = self._row_branches(row)
        wc = self.engine._wire_cap
        c_d = 0.0
        for idx, dr, sc in self._crit:
            if self._m[idx] == 0:
                new_len = 0.0
            else:
                lo = self._lo[idx]
                hi = self._hi[idx]
                if cx < lo:
                    lo = cx
                elif cx > hi:
                    hi = cx
                new_len = (hi - lo) + branches[idx]
            c_d += dr * (wc * new_len + sc)
        o_d = self._o_d
        return o_d / c_d if c_d > o_d else 1.0

    # ------------------------------------------------------------------
    def probe(self, row: int, slot: int) -> TrialResult:
        """Score one candidate — drop-in for ``trial_insertion``.

        Bit-identical result and meter charge (see module docstring).
        """
        cx, cy = self.engine.insertion_coords(self.cell, row, slot)
        p = self._p
        legal = p.row_width[row] + self._w <= self._max_legal + 1e-9
        goodness = self._goodness_at(row, cx)
        self.engine.meter.charge("allocation", self._units)
        self.engine.meter.charge("probe", 1.0)
        return TrialResult(
            legal=legal, goodness=goodness, row=row, slot=slot, x=cx, y=cy
        )

    def _row_fast_data(self, row: int) -> list:
        """Per-row fused net records ``(lo, hi, act, y_term)``, m > 0 only.

        Zero-pin nets contribute an exact 0.0 to every cost sum, so
        dropping them from the scan loop is value-preserving.  Delay
        engines derive from the full per-net list (the critical-net path
        indexes it); otherwise the records are built in one pass.
        """
        fast = self._row_fast.get(row)
        if fast is not None:
            return fast
        if self._has_delay or not self._steiner:
            branches = self._row_branches(row)
            fast = [
                (lo, hi, a, br)
                for m, lo, hi, a, br in zip(
                    self._m, self._lo, self._hi, self._act, branches
                )
                if m > 0
            ]
        else:
            cy = self._row_y(row)
            fast = []
            fast_append = fast.append
            for m, lo, hi, a, pre, post, srt in zip(
                self._m, self._lo, self._hi, self._act,
                self._pre, self._post, self._sorted,
            ):
                if m == 0:
                    continue
                fast_append((lo, hi, a, _branch_at(m, pre, post, srt, cy)))
        self._row_fast[row] = fast
        return fast

    def probe_many(
        self, candidates: Iterable[tuple[int, int]]
    ) -> list[TrialResult]:
        """Score a batch of ``(row, slot)`` candidates (see :meth:`probe`)."""
        return [self.probe(row, slot) for row, slot in candidates]

    def scan_row(
        self,
        row: int,
        lo_slot: int,
        hi_slot: int,
        best: tuple[float, int, int] | None,
    ) -> tuple[float, int, int] | None:
        """Scan slots ``lo_slot..hi_slot`` (inclusive), keeping the best.

        ``best`` is ``(goodness, row, slot)`` carried across rows; strict
        ``>`` keeps the **first** best candidate in scan order, matching
        the scalar loop's tie-breaking exactly.  Charges one candidate's
        units per slot whether or not the row is width-legal (the scalar
        path probes illegal candidates too — it just discards them).

        This is the allocator's innermost loop: the goodness evaluation is
        inlined (same operation sequence as :meth:`_goodness_at` — the
        equivalence tests pin ``probe`` against ``trial_insertion`` and
        the full allocator against the scalar reference path).
        """
        n_cand = hi_slot - lo_slot + 1
        if n_cand <= 0:
            return best
        p = self._p
        # Deferred to one meter call per probe round (``flush_charges``):
        # unit counts are integer-valued, so the batched total is exact.
        self._pending_units += n_cand * self._units
        self._pending_probes += float(n_cand)
        if not (p.row_width[row] + self._w <= self._max_legal + 1e-9):
            return best
        cells = p.rows[row]
        n_row = len(cells)
        x = p.x
        widths = self._widths
        half_w = self._w / 2.0
        row_end = p.row_width[row]
        fast = self._row_fast_data(row)
        has_power = self._has_power
        has_delay = self._has_delay
        crit = self._crit
        o_wl = self._o_wl
        o_pw = self._o_pw
        beta = self._beta
        one_minus_beta = 1.0 - beta
        n_obj = 1 + (1 if has_power else 0) + (1 if has_delay else 0)
        best_g = best[0] if best is not None else None
        for slot in range(lo_slot, hi_slot + 1):
            if slot >= n_row:
                boundary = row_end
            else:
                nxt = cells[slot]
                boundary = x[nxt] - widths[nxt] / 2.0
            cx = boundary + half_w
            c_wl = 0.0
            c_pw = 0.0
            if has_power:
                for lo, hi, a, yt in fast:
                    if cx < lo:
                        lo = cx
                    elif cx > hi:
                        hi = cx
                    ln = (hi - lo) + yt
                    c_wl += ln
                    c_pw += a * ln
            else:
                for lo, hi, _a, yt in fast:
                    if cx < lo:
                        lo = cx
                    elif cx > hi:
                        hi = cx
                    c_wl += (hi - lo) + yt
            r0 = o_wl / c_wl if c_wl > o_wl else 1.0
            worst = r0
            total = r0
            if has_power:
                r1 = o_pw / c_pw if c_pw > o_pw else 1.0
                if r1 < worst:
                    worst = r1
                total = total + r1
            if has_delay:
                r2 = self._delay_ratio(row, cx)
                if r2 < worst:
                    worst = r2
                total = total + r2
            g = beta * worst + one_minus_beta * (total / n_obj)
            if best_g is None or g > best_g:
                best_g = g
                best = (g, row, slot)
        return best

    def flush_charges(self) -> None:
        """Charge the accumulated ``scan_row`` work to the meter."""
        if self._pending_units:
            meter = self.engine.meter
            meter.charge("allocation", self._pending_units)
            meter.charge("probe", self._pending_probes)
            self._pending_units = 0.0
            self._pending_probes = 0.0
