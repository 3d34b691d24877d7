"""The worker serve loop: execute shards a coordinator sends.

Every off-process shard runs here, whether the worker is a ``repro worker``
on another host or one of the local processes a
:class:`~repro.core.executor.ParallelExecutor` starts (:func:`serve_local`).
A worker rebuilds a campaign session once per
:class:`~repro.core.executor.SessionSpec` (golden run, analyzers, verdict
cache) and then serves shards from those warm caches, streaming back
:class:`~repro.core.executor.ShardResult` payloads that carry the records,
the worker's telemetry delta, and its drained trace spans.

Protocol (all messages are JSON dicts over one
:class:`~repro.distrib.transport.MessageChannel`):

========== =========== =====================================================
direction   type        payload
========== =========== =====================================================
worker →    ``hello``   ``pid``, ``worker_id`` — announce and identify
coord →     ``session`` ``digest``, ``spec`` — build/cache a session
coord →     ``plan``    ``plan_id``, ``digest``, ``plan`` — register a plan
coord →     ``shard``   ``plan_id`` + the shard payload — execute one shard
coord →     ``ping``    liveness probe; answered with ``pong``
coord →     ``shutdown`` flush caches and exit the loop
worker →    ``result``  ``plan_id``, ``shard_index``, ``result`` payload
worker →    ``error``   ``plan_id``, ``shard_index``, ``message`` — raised
worker →    ``pong``    liveness answer
========== =========== =====================================================

Sessions are cached per spec *digest*, so a coordinator serving several
engines (the campaign service) can interleave their shards and every engine
still hits a warm session.  The worker never interprets shard contents — it
runs the exact :func:`repro.core.executor.execute_shard` inner loop the
serial path runs, which is what keeps fleet records byte-identical.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Any, Dict, Optional, Tuple

from repro.core import tracing
from repro.core.executor import (
    SessionSpec,
    execute_shard,
    shard_result_to_payload,
)
from repro.core.plan import CampaignPlan, WorkShard
from repro.distrib.transport import MessageChannel, TransportError, connect


def _build_session(spec: SessionSpec, cache_dir: Optional[str]):
    """Rebuild the campaign session, honouring a worker-local cache override.

    With ``--cache-dir`` the worker keeps its *own* verdict cache (useful when
    workers do not share a filesystem with the coordinator); records still
    merge on return because the coordinator re-puts every record into its own
    cache after the merge (``_persist_result``), so per-worker caches are
    additive warm-starts, never sources of divergence.
    """
    if cache_dir:
        spec = dataclasses.replace(
            spec, config=dataclasses.replace(spec.config, cache_dir=cache_dir)
        )
    return spec.build_session()


def serve(
    channel: MessageChannel,
    *,
    cache_dir: Optional[str] = None,
    max_idle: Optional[float] = None,
    configure_tracing: bool = True,
) -> int:
    """Serve shards from *channel* until shutdown; returns shards served.

    *max_idle* bounds how long the worker waits for the next message before
    giving up (None = wait forever); CI uses it so orphaned workers drain
    themselves.  *configure_tracing* lets in-process test workers leave the
    host tracer alone — a real worker process adopts the campaign's tracing
    state from the first session spec it receives.
    """
    sessions: Dict[str, Any] = {}
    plans: Dict[str, Tuple[CampaignPlan, str]] = {}
    served = 0

    def flush_caches() -> None:
        for session in sessions.values():
            if session.verdict_cache is not None:
                session.verdict_cache.flush()

    try:
        channel.send(
            {"type": "hello", "pid": os.getpid(), "worker_id": uuid_of(channel)}
        )
        while True:
            message = channel.recv(timeout=max_idle)
            if message is None:
                break  # idled out
            kind = message.get("type")
            if kind == "shutdown":
                break
            if kind == "ping":
                channel.send({"type": "pong", "pid": os.getpid()})
            elif kind == "session":
                digest = str(message["digest"])
                if digest not in sessions:
                    spec = SessionSpec.from_payload(message["spec"])
                    if configure_tracing:
                        tracing.configure(
                            bool(getattr(spec.config, "trace", False)),
                            reset=True,
                        )
                    sessions[digest] = _build_session(spec, cache_dir)
            elif kind == "plan":
                plans[str(message["plan_id"])] = (
                    CampaignPlan.from_payload(message["plan"]),
                    str(message["digest"]),
                )
            elif kind == "shard":
                served += _serve_shard(channel, sessions, plans, message)
    finally:
        flush_caches()
    return served


def serve_local(host: str, port: int) -> None:
    """Body of a :class:`~repro.core.executor.ParallelExecutor` worker process.

    Connects to the executor's private loopback listener and serves until
    told to shut down.  A vanished coordinator (its process died) or an
    interrupt ends the loop quietly: the executor has already moved on.
    """
    try:
        channel = connect(host, port, retry_seconds=10.0, retry_interval=0.05)
    except TransportError:
        return
    try:
        serve(channel)
    except (TransportError, KeyboardInterrupt):
        pass
    finally:
        channel.close()


def uuid_of(channel: MessageChannel) -> str:
    """The channel's worker id when it has one (file queue), else the pid."""
    return str(getattr(channel, "worker_id", os.getpid()))


def _maybe_inject_worker_fault(shard: WorkShard) -> None:
    """Test seam: deterministically fault a worker (CI fault smokes).

    ``REPRO_FAULT_WORKER=<mode>:<shard index>`` faults the worker that picks
    up the named shard; *mode* is ``crash`` (``os._exit``, dropping the
    connection), ``hang`` (sleep ``REPRO_FAULT_HANG_SECONDS``, default 3600,
    to trip the per-shard timeout), or ``raise`` (an ordinary exception, to
    exercise retry).  When ``REPRO_FAULT_ONCE_FILE`` names a marker file the
    fault fires at most once across all workers and attempts — the first
    process to atomically create the marker wins.  Only workers call this,
    so the serial path (and the serial *fallback* path) is immune by
    construction.
    """
    directive = os.environ.get("REPRO_FAULT_WORKER")
    if not directive:
        return
    mode, _, index = directive.partition(":")
    if not index or shard.index != int(index):
        return
    marker = os.environ.get("REPRO_FAULT_ONCE_FILE")
    if marker:
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return  # the fault already fired once
    if mode == "crash":
        os._exit(23)
    elif mode == "hang":
        time.sleep(float(os.environ.get("REPRO_FAULT_HANG_SECONDS", "3600")))
    elif mode == "raise":
        raise RuntimeError(f"injected worker fault on shard {shard.index}")


def _serve_shard(
    channel: MessageChannel,
    sessions: Dict[str, Any],
    plans: Dict[str, Tuple[CampaignPlan, str]],
    message: Dict[str, Any],
) -> int:
    """Execute one shard message; returns 1 on a result reply, 0 on error."""
    shard = WorkShard.from_payload(message["shard"])
    try:
        plan, digest = plans[str(message["plan_id"])]
        session = sessions[digest]
        _maybe_inject_worker_fault(shard)
        before = session.telemetry.snapshot()
        result = execute_shard(session, plan, shard)
        result.telemetry = session.telemetry.diff(before)
        if tracing.enabled():
            result.spans = tracing.drain()
    except TransportError:
        raise
    except BaseException as exc:  # noqa: BLE001 - report, keep serving
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        channel.send(
            {
                "type": "error",
                "plan_id": message.get("plan_id"),
                "shard_index": shard.index,
                "message": f"{type(exc).__name__}: {exc}",
            }
        )
        return 0
    channel.send(
        {
            "type": "result",
            "plan_id": message.get("plan_id"),
            "shard_index": result.shard_index,
            "pid": os.getpid(),
            "result": shard_result_to_payload(result),
        }
    )
    return 1
