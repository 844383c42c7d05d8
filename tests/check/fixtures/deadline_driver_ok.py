"""Clean counterpart of deadline_driver_bad: the runner threads its
deadline into run_cluster, so every blocking receive is bounded on the
real backends."""


def _spmd(comm, spec):
    if comm.rank == 0:
        for r in range(1, comm.size):
            comm.send(("work",), r, tag=3)
        results = []
        for r in range(1, comm.size):
            _src, res = comm.recv(r, tag=3)
            results.append(res)
        return results
    _src, work = comm.recv(0, tag=3)
    comm.send(("result",), 0, tag=3)
    return work


def run(spec, p, cluster, deadline):
    res, real = run_cluster(_spmd, spec, p, {}, cluster=cluster,
                            deadline=deadline)
    return res
