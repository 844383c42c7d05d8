"""The machinery behind the comm-protocol rules (P5xx) of ``repro lint``.

Static half (P501–P504): :mod:`repro.check.extract` abstracts each SPMD
strategy and collective implementation into per-role communication
skeletons, built from the modules the lint run already parsed;
:mod:`repro.check.analysis` checks them (tag matching, collective
alignment, bounded deadlock exploration, deadline coverage against the
fault model).

Dynamic half (P505/P506, ``repro lint --trace`` / ``--trace-dir``):
:mod:`repro.check.driver` records sim-backend smoke runs through
:mod:`repro.parallel.trace`, or reads recorded traces;
:mod:`repro.check.replay` reconstructs happens-before with vector clocks
and flags ANY_SOURCE message races (P505) and trace/model divergence
(P506).

Each rule is declared, with its id, severity and invariant, next to
the analysis that implements it.  The static half is stdlib-only and
never imports the code it checks.
"""
