"""Distributed campaign execution (ROADMAP item 3).

DelayAVF campaigns are embarrassingly parallel across sampled cycles, and a
:class:`repro.core.plan.WorkShard` is already a tiny self-contained
description any worker can resolve against its own rebuilt session — this
package lets those shards leave the box, in the DAVOS host/controller shape:

- :mod:`repro.distrib.transport` — stdlib-only message channels: JSON lines
  over a TCP socket, or a file queue on a shared filesystem.
- :mod:`repro.distrib.worker` — the worker loop: connect, rebuild sessions
  from wire-serializable :class:`repro.core.executor.SessionSpec` payloads,
  serve shards from warm caches, stream back
  :class:`~repro.core.executor.ShardResult` payloads (records + telemetry
  delta + trace spans).  ``repro worker`` runs it on any host; the local
  processes of a :class:`~repro.core.executor.ParallelExecutor` run it too.
- :mod:`repro.distrib.coordinator` — :class:`RemoteExecutor`, the repo's
  one fault-tolerant shard executor: per-shard timeout, bounded
  retry-with-backoff, dead-worker eviction with re-dispatch of only the
  unfinished shards, a circuit breaker, and serial fallback when the fleet
  empties.

Records are byte-identical to :class:`~repro.core.executor.SerialExecutor`
runs — shard execution is deterministic and the merge is order-independent —
so a fleet only ever changes wall-clock time and telemetry.
"""

from repro.distrib.coordinator import (
    RemoteExecutor,
    breaker_states,
    shared_remote_executor,
)
from repro.distrib.transport import parse_workers_from

__all__ = [
    "RemoteExecutor",
    "breaker_states",
    "shared_remote_executor",
    "parse_workers_from",
]
