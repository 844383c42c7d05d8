"""Analysis and reporting: profiling breakdowns, speed-ups, paper tables.

* :mod:`repro.analysis.profiling` — the Section 4 runtime-share breakdown;
* :mod:`repro.analysis.speedup` — speed-up/efficiency math and the paper's
  quality-bracket convention for Tables 2/3;
* :mod:`repro.analysis.reporting` — plain-text rendering of sweep records
  in the paper's table shapes;
* :mod:`repro.analysis.claims` — the DESIGN §7 claims as checks over sweep
  records.  Only ``repro sweep`` imports it, so it is not re-exported here.
"""

from repro.analysis.profiling import profile_serial_run, ProfileReport
from repro.analysis.speedup import speedup, efficiency, quality_bracket, BracketResult
from repro.analysis.reporting import render_table, format_seconds

__all__ = [
    "profile_serial_run",
    "ProfileReport",
    "speedup",
    "efficiency",
    "quality_bracket",
    "BracketResult",
    "render_table",
    "format_seconds",
]
