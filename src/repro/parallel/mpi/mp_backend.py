"""Older import path of :func:`socket_backend.pick_start_method`."""

from repro.parallel.mpi.socket_backend import pick_start_method

__all__ = ["pick_start_method"]
