"""Simulated MPI substrate.

A deterministic, discrete-event simulation of an MPI runtime.  Rank programs
are Python generator functions scheduled cooperatively over a virtual clock;
communication costs (latency, bandwidth, tree depth) are charged in virtual
time so that the timing behaviour of a message-passing machine is preserved
without real processes or a real interconnect.

The public surface mirrors the mpi4py conventions the paper's code relies on:

* lowercase, object-based operations (``send``/``recv``/``bcast``/``gather``)
  that accept arbitrary picklable payloads (numpy arrays are passed by copy),
* ``Comm_split`` / ``Comm_split_type(COMM_TYPE_SHARED)`` used by the
  monitoring framework to build per-node communicators,
* barriers, non-blocking ``isend``/``irecv`` with request objects.

Because every rank program is a generator, *all* blocking operations are
generator functions and must be invoked as ``data = yield from comm.recv(...)``.
"""
