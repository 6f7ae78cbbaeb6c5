"""Concurrent multi-client front-end: socket server + group commit.

The engine is single-writer by design (one latch, one undo journal); this
package makes that safe to share. Writers submit ready-made transactions,
or parsed DML the commit thread derives in queue order, to a bounded
commit queue; a single commit thread drains the queue in batches,
composes same-shaped staged deltas from many clients with
:func:`~repro.ivm.compose.compose_batch`, and runs **one** maintenance
pass — and, when durable, one WAL barrier/fsync — per batch (the paper's
§2.3 deferral, finally paying off *across* clients). Readers never wait:
they pin an epoch and reconstruct their snapshot from the epoch log's
inverse deltas (``Engine.select(expr, epoch=...)``).

Layers:

* :mod:`repro.server.commit` — :class:`GroupCommitter`, the single-writer
  commit queue (usable without any networking).
* :mod:`repro.server.protocol` — the line-delimited JSON wire protocol.
* :mod:`repro.server.server` — the asyncio socket server.
* :mod:`repro.server.client` — a blocking client library.
"""

from repro.server.client import ClientError, ReproClient
from repro.server.commit import (
    BatchRecord,
    CommitRequest,
    GroupCommitter,
    compose_batch,
    replay_batches,
)
from repro.server.protocol import MAX_LINE, ProtocolError, decode, encode
from repro.server.server import ReproServer, run_server

__all__ = [
    "BatchRecord",
    "ClientError",
    "CommitRequest",
    "GroupCommitter",
    "MAX_LINE",
    "ProtocolError",
    "ReproClient",
    "ReproServer",
    "compose_batch",
    "decode",
    "encode",
    "replay_batches",
    "run_server",
]
