"""P504 violation through the cluster driver: the runner calls
run_cluster without a deadline, so a killed peer leaves these
receives hanging instead of raising CommError."""


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


def run(spec, p, cluster):
    res, real = run_cluster(_spmd, spec, p, {}, cluster=cluster)
    return res
