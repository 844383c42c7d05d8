"""Parallel SimE strategies and their message-passing substrate.

* :mod:`repro.parallel.mpi` — the MPI-like communication layer: an abstract
  :class:`~repro.parallel.mpi.comm.Communicator`, the deterministic
  discrete-event :class:`~repro.parallel.mpi.simcluster.SimCluster`, the
  real-process :class:`~repro.parallel.mpi.socket_backend.SocketCluster`,
  and the calibrated network/work models;
* :mod:`repro.parallel.partition` — the row-allocation patterns of the
  paper's Type II study (fixed alternating [5] and random [7]);
* :mod:`repro.parallel.type1` / :mod:`type2` / :mod:`type3` — the three
  parallelization strategies of Section 6;
* :mod:`repro.parallel.type3x` — the Section 7 "future work" diversified
  Type III variant (heterogeneous allocators + goodness-aware crossover),
  run on type3's store/searcher protocol;
* :mod:`repro.parallel.runners` — one-call experiment runners used by the
  benches and examples.
"""

from repro.parallel.partition import fixed_row_pattern, random_row_pattern, contiguous_row_pattern
from repro.parallel.type1 import run_type1
from repro.parallel.type2 import run_type2
from repro.parallel.type3 import run_type3
from repro.parallel.runners import run_serial, ParallelOutcome

__all__ = [
    "fixed_row_pattern",
    "random_row_pattern",
    "contiguous_row_pattern",
    "run_type1",
    "run_type2",
    "run_type3",
    "run_serial",
    "ParallelOutcome",
]
