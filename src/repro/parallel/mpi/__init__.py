"""MPI-like message-passing substrate.

The paper ran on MPICH 1.2.5 over an 8-node fast-ethernet cluster; this
environment has neither MPI nor a network, so the substrate provides the
same programming model (mpi4py-style lower-case pickle semantics) over
interchangeable backends:

* :class:`~repro.parallel.mpi.simcluster.SimCluster` — deterministic
  discrete-event simulation with per-rank virtual clocks driven by the
  calibrated work model and a fast-ethernet-class network model (the
  backend all reproduction benches use);
* :class:`~repro.parallel.mpi.socket_backend.SocketCluster` — real OS
  processes over a hub-and-spoke socket router for genuine wall-clock
  parallelism: O(p) descriptors, p in the hundreds on one host, optional
  TCP addresses for multi-host.
"""

from repro.parallel.mpi.comm import Communicator, ANY_SOURCE, CommError, DeadlockError
from repro.parallel.mpi.message import Message
from repro.parallel.mpi.netmodel import NetworkModel
from repro.parallel.mpi.simcluster import SimCluster
from repro.parallel.mpi.socket_backend import SocketCluster
from repro.parallel.mpi.backend import CLUSTERS, ClusterBackend, make_cluster
from repro.parallel.mpi.calibration import (
    calibrated_work_model,
    calibrated_network_model,
)

__all__ = [
    "Communicator",
    "ANY_SOURCE",
    "CommError",
    "DeadlockError",
    "Message",
    "NetworkModel",
    "SimCluster",
    "SocketCluster",
    "CLUSTERS",
    "ClusterBackend",
    "make_cluster",
    "calibrated_work_model",
    "calibrated_network_model",
]
