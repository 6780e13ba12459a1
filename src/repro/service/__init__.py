"""``repro.service`` — the multi-process typechecking service.

The deployment shape the compiled-session API (PR 2) was built for, turned
into an actual long-lived service: the schema pair is fixed and resident
(Martens & Neven's fixed-schema observation), while transducers and
documents arrive as requests.

* :mod:`~repro.service.protocol` — the JSON-lines wire protocol and the
  instance text codec (the CLI's section format, now bidirectional);
* :mod:`~repro.service.pool` — a ``multiprocessing`` worker pool: each
  worker owns warm :class:`~repro.core.session.Session` objects hydrated
  from the shared artifact cache, requests route by schema-pair content
  hash, batches fan out across the workers, and crashed workers are
  respawned and their in-flight requests retried on healthy ones.  One
  query runs on one worker: after the pair is compiled its fixpoint is
  small, so parallelism pays across queries, not inside one;
* :mod:`~repro.service.server` — an asyncio JSON-lines TCP front-end with
  backpressure and per-request timing (``python -m repro serve``);
* :mod:`~repro.service.client` — a thin synchronous client.

Quickstart::

    # terminal 1
    python -m repro serve --port 8722 --workers 4

    # terminal 2 (or any process)
    from repro.service.client import ServiceClient
    with ServiceClient(port=8722) as client:
        verdict = client.typecheck(transducer, din, dout)

In-process, without a socket::

    from repro.service.pool import WorkerPool
    with WorkerPool(workers=4) as pool:
        results = pool.typecheck_batch(din, dout, transducers)
"""

from repro.service.client import PairHandle, ServiceClient
from repro.service.pool import WorkerPool
from repro.service.server import serve

__all__ = ["PairHandle", "ServiceClient", "WorkerPool", "serve"]
