"""The coordinator side of fleet campaign execution.

:class:`RemoteExecutor` is an :class:`~repro.core.executor.Executor` that
dispatches a plan's shards to worker processes — ``repro worker`` processes
on any host, or the local workers of a
:class:`~repro.core.executor.ParallelExecutor`, which drives a private
instance of this class.  It is the repo's one fault-tolerant shard
executor:

- one shard in flight per worker, dispatched over a
  :class:`~repro.distrib.transport.MessageChannel` (socket or file queue);
- a worker-raised shard error is retried with exponential backoff up to
  *max_retries* further attempts, then propagates as
  :class:`~repro.core.executor.ShardExecutionError`;
- a shard exceeding *shard_timeout* evicts its (presumed hung) worker and
  requeues the shard, charging it one attempt;
- a dropped connection evicts the worker and requeues its in-flight shard
  *without* charging the retry budget (the shard did nothing wrong);
- when the fleet empties and stays empty for *worker_wait_seconds*, the
  remaining shards limp home in-process on the serial path.

Every recovery action lands in campaign telemetry (``shard_retries``,
``shard_timeouts``, ``serial_fallbacks``, plus the remote-specific
``remote_workers_joined`` / ``remote_workers_evicted`` /
``remote_shards_completed``) and in progress notes, but records are
unaffected: shard execution is deterministic and the merge is
order-independent, so a remote campaign — even one that lost workers — is
byte-identical to a serial run.

Workers stream back telemetry deltas and trace spans with each result; the
coordinator re-homes the spans onto the worker's pid track and parent-links
their roots to its own dispatch span
(:func:`repro.core.tracing.stitch_remote_spans`), so ``repro trace
summarize`` sees one coherent cross-host trace.

Because a listen address can only be bound once per process, engines that
share a ``workers_from`` address (the campaign service runs one engine per
benchmark/structure pair) share one :func:`shared_remote_executor` instance;
its :meth:`~RemoteExecutor.execute` is serialized by an internal lock and
:meth:`~RemoteExecutor.close` is a no-op until
:func:`shutdown_shared_executors` (called from ``repro.api.shutdown`` and at
interpreter exit) releases the fleet.
"""

from __future__ import annotations

import atexit
import dataclasses
import hashlib
import json
import os
import select
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

from repro.core import tracing
from repro.core.breaker import HALF_OPEN, OPEN, CircuitBreaker
from repro.core.executor import (
    Executor,
    SessionSpec,
    ShardExecutionError,
    ShardResult,
    execute_shard,
    shard_result_from_payload,
)
from repro.core.plan import CampaignPlan, WorkShard
from repro.core.telemetry import CampaignTelemetry
from repro.distrib.transport import (
    CorruptFrameError,
    FileQueueListener,
    SocketChannel,
    SocketListener,
    TransportError,
    parse_workers_from,
)

#: Seconds between file-queue spool GC sweeps (see ``sweep_stale_files``).
_SWEEP_INTERVAL = 30.0


@dataclass
class _WorkerState:
    """Coordinator-side bookkeeping for one connected worker."""

    key: str
    channel: Any
    pid: Optional[int] = None
    sessions: Set[str] = field(default_factory=set)  #: spec digests sent
    plans: Set[str] = field(default_factory=set)  #: plan ids sent
    busy: Optional[int] = None  #: shard index in flight, if any
    deadline: Optional[float] = None  #: monotonic timeout for the busy shard


class RemoteExecutor(Executor):
    """Dispatch shards to remote workers; fall back to serial when alone.

    *workers_from* is a listen address — ``HOST:PORT`` for the socket
    transport or ``queue:DIR`` for the shared-filesystem queue (see
    :func:`repro.distrib.transport.parse_workers_from`).  Workers join with
    ``repro worker --connect HOST:PORT`` (or ``--queue DIR``) at any time,
    including mid-campaign; the executor folds them in on the next dispatch
    round.

    *shard_timeout* must cover a cold worker's session build (golden run)
    plus the slowest expected shard — the clock starts at dispatch, and the
    first shard a worker sees pays the whole session rebuild.

    *on_evict*, when given, is called with the pid an evicted worker
    announced (``None`` if it never said hello); the owner of local worker
    processes uses it to terminate them.
    """

    def __init__(
        self,
        workers_from: str,
        *,
        shard_timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        worker_wait_seconds: float = 30.0,
        breaker_threshold: int = 3,
        breaker_reset_seconds: float = 60.0,
        on_evict: Optional[Callable[[Optional[int]], None]] = None,
    ):
        self.workers_from = workers_from
        self.on_evict = on_evict
        self.shard_timeout = shard_timeout
        self.max_retries = max(0, int(max_retries))
        self.retry_backoff = max(0.0, float(retry_backoff))
        self.worker_wait_seconds = max(0.0, float(worker_wait_seconds))
        #: Fleet circuit breaker: consecutive evictions (worker deaths,
        #: shard timeouts, corrupt frames) trip it; while open, campaigns
        #: short-circuit to the in-process serial path instead of paying
        #: dispatch-timeout-evict cycles, and after the cool-down a single
        #: half-open probe campaign decides whether the fleet is back.
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            reset_seconds=breaker_reset_seconds,
        )
        self._run_evictions = 0
        self._last_sweep = time.monotonic()
        parsed = parse_workers_from(workers_from)
        if parsed[0] == "queue":
            self._listener = FileQueueListener(parsed[1])
        else:
            self._listener = SocketListener(parsed[1], parsed[2])
        self._workers: Dict[str, _WorkerState] = {}
        self._worker_seq = 0
        self._plan_seq = 0
        self._fallback_session = None
        self._lock = threading.Lock()
        self._shared = False
        self._closed = False

    @property
    def address(self):
        """The actually bound listen address (resolves ephemeral ports)."""
        return self._listener.address

    # ------------------------------------------------------------------
    # Executor interface
    # ------------------------------------------------------------------
    def execute(self, plan, session=None, spec=None, progress=None):
        if spec is None:
            raise ValueError(
                "RemoteExecutor needs a SessionSpec to ship to workers; "
                "construct the engine via DelayAVFEngine.from_spec(...)"
            )
        # Shared instances serve several engines: one campaign at a time.
        with self._lock:
            return self._execute_locked(plan, session, spec, progress)

    def _execute_locked(self, plan, session, spec, progress):
        telemetry = (
            session.telemetry if session is not None else CampaignTelemetry()
        )
        shards: Dict[int, WorkShard] = {s.index: s for s in plan.shards}
        pending: List[int] = sorted(shards)
        done: Dict[int, ShardResult] = {}
        if not self._admit_fleet(telemetry, progress):
            # Breaker open and still cooling down: do not even wait for
            # workers — short-circuit the whole campaign to the serial path.
            self._serial_finish(
                pending, shards, plan, session, spec, done, telemetry, progress
            )
            return [done[index] for index in sorted(done)]
        spec_payload, digest = self._wire_spec(spec)
        self._plan_seq += 1
        plan_id = f"{digest[:8]}:{self._plan_seq}"
        plan_payload = plan.to_payload()
        inflight: Dict[int, str] = {}  #: shard index -> worker key
        attempts: Dict[int, int] = {index: 0 for index in shards}
        retry_rounds = 0
        fleet_empty_since = None
        self._run_evictions = 0
        with tracing.span(
            "executor.remote", cat="executor",
            shards=len(shards), transport=self.workers_from,
        ) as dispatch_span:
            while len(done) < len(shards):
                self._accept_new_workers(telemetry, progress)
                self._dispatch(
                    pending, inflight, spec_payload, digest, plan_id,
                    plan_payload, shards, telemetry, progress,
                )
                if self.breaker.state == OPEN:
                    # Evictions during this run tripped the breaker: stop
                    # feeding the sick fleet and limp home in-process.
                    self._requeue_inflight(inflight, pending)
                    self._serial_finish(
                        pending, shards, plan, session, spec, done,
                        telemetry, progress,
                    )
                    break
                if not self._workers:
                    now = time.monotonic()
                    if fleet_empty_since is None:
                        fleet_empty_since = now
                    if now - fleet_empty_since >= self.worker_wait_seconds:
                        # Nobody is coming: limp home in-process.
                        self._requeue_inflight(inflight, pending)
                        self._serial_finish(
                            pending, shards, plan, session, spec, done,
                            telemetry, progress,
                        )
                        break
                    time.sleep(0.05)
                    continue
                fleet_empty_since = None
                # Waiting before collecting, not after, lets a worker that
                # just answered get its next shard without a tick's delay.
                self._wait_for_messages(0.02)
                had_retries = self._collect(
                    plan_id, shards, inflight, pending, done, attempts,
                    telemetry, progress, dispatch_span,
                )
                self._check_timeouts(
                    inflight, pending, attempts, telemetry, progress
                )
                if had_retries:
                    retry_rounds += 1
                    time.sleep(
                        min(2.0, self.retry_backoff * (2 ** (retry_rounds - 1)))
                    )
        if self._run_evictions == 0 and self.breaker.record_success():
            # A clean run through a previously tripped breaker: the fleet
            # (or lack of one) is healthy again.
            telemetry.incr("breaker_recoveries")
            tracing.instant("executor.breaker_recovered", cat="executor")
            if progress is not None:
                progress.note("breaker_recoveries")
        return [done[index] for index in sorted(done)]

    def _admit_fleet(self, telemetry, progress) -> bool:
        """Consult the breaker; True means the fleet may be used this run."""
        probing = self.breaker.state == HALF_OPEN
        if not self.breaker.allow():
            telemetry.incr("breaker_short_circuits")
            tracing.instant(
                "executor.breaker_short_circuit", cat="executor",
                transport=self.workers_from,
            )
            if progress is not None:
                progress.note("breaker_short_circuits")
            return False
        if probing:
            telemetry.incr("breaker_probes")
            tracing.instant(
                "executor.breaker_probe", cat="executor",
                transport=self.workers_from,
            )
        return True

    @property
    def breaker_state(self) -> str:
        """``closed`` / ``open`` / ``half_open`` (health endpoints read this)."""
        return self.breaker.state

    # ------------------------------------------------------------------
    # Wire forms
    # ------------------------------------------------------------------
    def _wire_spec(self, spec: SessionSpec):
        """The spec as shipped to workers, plus its content digest.

        The wire config is neutralized (no progress stream, metrics file, or
        stats printing fighting the coordinator's) and must not recurse:
        workers run their shards in-process, so ``jobs`` collapses to 1 and
        ``workers_from`` is stripped.  ``trace`` survives — worker spans come
        back with each result.  Sessions are cached per digest on workers, so
        two engines with identical wire specs share one warm session.
        """
        config = spec.config.neutral()
        replacements: Dict[str, Any] = {"jobs": 1}
        if getattr(config, "workers_from", None) is not None:
            replacements["workers_from"] = None
        config = dataclasses.replace(config, **replacements)
        payload = dataclasses.replace(spec, config=config).to_payload()
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()
        return payload, digest

    # ------------------------------------------------------------------
    # Fleet management
    # ------------------------------------------------------------------
    def _accept_new_workers(self, telemetry, progress) -> None:
        self._sweep_spool(telemetry)
        for channel in self._listener.accept():
            self._worker_seq += 1
            key = str(
                getattr(channel, "worker_id", f"worker-{self._worker_seq}")
            )
            self._workers[key] = _WorkerState(key=key, channel=channel)
            telemetry.incr("remote_workers_joined")
            tracing.instant("executor.worker_joined", cat="executor", worker=key)
            if progress is not None:
                progress.note("workers_joined")

    def greet_workers(self, telemetry) -> Set[int]:
        """Accept waiting workers, read their hellos; returns the known pids.

        Lets an owner of local workers wait until all of them have joined
        before a campaign starts.  Only workers that have not said hello yet
        are polled, and a fresh worker sends nothing else before its first
        shard, so no campaign message is consumed here.
        """
        self._accept_new_workers(telemetry, None)
        for worker in list(self._workers.values()):
            if worker.pid is not None:
                continue
            try:
                messages = worker.channel.poll()
            except TransportError as exc:
                self._note_transport_error(exc, telemetry)
                self._evict(worker, {}, [], telemetry, None)
                continue
            for message in messages:
                if message.get("type") == "hello":
                    worker.pid = message.get("pid")
        return {w.pid for w in self._workers.values() if w.pid is not None}

    def _sweep_spool(self, telemetry) -> None:
        """Throttled GC of the file-queue spool (no-op on socket fleets)."""
        sweep = getattr(self._listener, "sweep", None)
        if sweep is None:
            return
        now = time.monotonic()
        if now - self._last_sweep < _SWEEP_INTERVAL:
            return
        self._last_sweep = now
        try:
            swept = sweep()
        except OSError:
            return
        if swept:
            telemetry.incr("spool_files_swept", swept)
            tracing.instant(
                "executor.spool_swept", cat="executor", files=swept
            )

    def _note_transport_error(self, exc: TransportError, telemetry) -> None:
        """Corrupt frames get their own counter on top of the eviction."""
        if isinstance(exc, CorruptFrameError):
            telemetry.incr("corrupt_frames")
            tracing.instant(
                "executor.corrupt_frame", cat="executor", detail=str(exc)
            )

    def _evict(
        self, worker: _WorkerState, inflight, pending, telemetry, progress
    ) -> None:
        """Drop a dead worker; its in-flight shard (if any) is requeued.

        Requeueing does *not* charge the shard's retry budget: the worker
        died, the shard did nothing wrong.
        """
        self._workers.pop(worker.key, None)
        try:
            worker.channel.close()
        except Exception:
            pass
        if self.on_evict is not None:
            self.on_evict(worker.pid)
        telemetry.incr("remote_workers_evicted")
        tracing.instant(
            "executor.worker_evicted", cat="executor", worker=worker.key
        )
        if progress is not None:
            progress.note("evictions")
        if worker.busy is not None and worker.busy in inflight:
            inflight.pop(worker.busy)
            pending.append(worker.busy)
        worker.busy = None
        self._run_evictions += 1
        if self.breaker.record_failure():
            telemetry.incr("breaker_trips")
            tracing.instant(
                "executor.breaker_tripped", cat="executor",
                transport=self.workers_from,
            )
            if progress is not None:
                progress.note("breaker_trips")

    def _dispatch(
        self, pending, inflight, spec_payload, digest, plan_id, plan_payload,
        shards, telemetry, progress,
    ) -> None:
        """Hand one pending shard to every idle worker (warming it first)."""
        if not pending:
            return
        for worker in list(self._workers.values()):
            if not pending:
                break
            if worker.busy is not None:
                continue
            index = min(pending)
            try:
                if digest not in worker.sessions:
                    worker.channel.send(
                        {"type": "session", "digest": digest,
                         "spec": spec_payload}
                    )
                    worker.sessions.add(digest)
                if plan_id not in worker.plans:
                    worker.channel.send(
                        {"type": "plan", "plan_id": plan_id,
                         "digest": digest, "plan": plan_payload}
                    )
                    worker.plans.add(plan_id)
                worker.channel.send(
                    {"type": "shard", "plan_id": plan_id,
                     "shard": shards[index].to_payload()}
                )
            except TransportError as exc:
                self._note_transport_error(exc, telemetry)
                self._evict(worker, inflight, pending, telemetry, progress)
                continue
            pending.remove(index)
            worker.busy = index
            worker.deadline = (
                None if self.shard_timeout is None
                else time.monotonic() + self.shard_timeout
            )
            inflight[index] = worker.key

    # ------------------------------------------------------------------
    # Result collection / fault handling
    # ------------------------------------------------------------------
    def _collect(
        self, plan_id, shards, inflight, pending, done, attempts,
        telemetry, progress, dispatch_span,
    ) -> bool:
        """Poll every worker once; returns True when a shard was retried."""
        had_retries = False
        for worker in list(self._workers.values()):
            try:
                messages = worker.channel.poll()
            except TransportError as exc:
                self._note_transport_error(exc, telemetry)
                self._evict(worker, inflight, pending, telemetry, progress)
                continue
            for message in messages:
                kind = message.get("type")
                if kind == "hello":
                    worker.pid = message.get("pid")
                elif kind in ("result", "error"):
                    if message.get("plan_id") != plan_id:
                        worker.busy = None  # stale answer to an old plan
                        continue
                    index = int(message["shard_index"])
                    worker.busy = None
                    worker.deadline = None
                    if index in done or index not in inflight:
                        continue  # already answered elsewhere
                    inflight.pop(index)
                    if kind == "error":
                        attempts[index] += 1
                        if attempts[index] > self.max_retries:
                            raise ShardExecutionError(
                                f"shard {index} (cycle {shards[index].cycle}) "
                                f"failed {attempts[index]} times on worker "
                                f"{worker.key}; giving up: "
                                f"{message.get('message')}"
                            )
                        telemetry.incr("shard_retries")
                        tracing.instant(
                            "executor.retry", cat="executor", shard=index
                        )
                        if progress is not None:
                            progress.note("retries")
                        pending.append(index)
                        had_retries = True
                        continue
                    result = shard_result_from_payload(
                        message["result"], shards[index]
                    )
                    if result.spans:
                        result.spans = tracing.stitch_remote_spans(
                            result.spans,
                            pid=message.get("pid", worker.pid),
                            parent=dispatch_span,
                            parent_pid=os.getpid(),
                        )
                    done[index] = result
                    telemetry.incr("remote_shards_completed")
                    if progress is not None:
                        progress.shard_done(result.telemetry)
        return had_retries

    def _check_timeouts(
        self, inflight, pending, attempts, telemetry, progress
    ) -> None:
        """Evict workers whose shard overran *shard_timeout*.

        A shard running on another process cannot be cancelled, so the
        worker is evicted outright.  The timeout charges the shard one
        attempt but never raises; a shard that times out everywhere ends in
        the serial fallback once the fleet is gone.
        """
        if self.shard_timeout is None:
            return
        now = time.monotonic()
        for index, worker_key in list(inflight.items()):
            worker = self._workers.get(worker_key)
            if worker is None or worker.deadline is None:
                continue
            if now < worker.deadline:
                continue
            telemetry.incr("shard_timeouts")
            tracing.instant(
                "executor.shard_timeout", cat="executor", shard=index
            )
            if progress is not None:
                progress.note("timeouts")
            attempts[index] += 1
            self._evict(worker, inflight, pending, telemetry, progress)

    def _wait_for_messages(self, timeout: float) -> None:
        """Sleep until a socket worker has sent something, at most *timeout*.

        Waking on the reply instead of on a fixed tick keeps a worker from
        idling between shards.  File-queue channels cannot be waited on, so
        a fleet with any of them just sleeps.
        """
        channels = [worker.channel for worker in self._workers.values()]
        if all(isinstance(channel, SocketChannel) for channel in channels):
            try:
                select.select(channels, [], [], timeout)
                return
            except (OSError, ValueError):
                pass  # a socket closed under us; the next poll evicts it
        time.sleep(timeout)

    @staticmethod
    def _requeue_inflight(inflight, pending) -> None:
        pending.extend(inflight)
        inflight.clear()

    def _serial_finish(
        self, pending, shards, plan, session, spec, done, telemetry, progress
    ) -> None:
        """Run every remaining shard in-process (the fleet is gone)."""
        telemetry.incr("serial_fallbacks")
        if progress is not None:
            progress.note("serial_fallbacks")
        with tracing.span(
            "executor.serial_fallback", cat="executor", shards=len(pending)
        ):
            fallback = self._serial_session(session, spec)
            for index in sorted(set(pending)):
                before = (
                    fallback.telemetry.snapshot()
                    if progress is not None else None
                )
                done[index] = execute_shard(fallback, plan, shards[index])
                if progress is not None:
                    progress.shard_done(fallback.telemetry.diff(before))
        pending.clear()

    def _serial_session(self, session, spec: SessionSpec):
        """Prefer the engine's live session; else build one and keep it."""
        if session is not None:
            return session
        if self._fallback_session is None:
            self._fallback_session = spec.build_session()
        return self._fallback_session

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the fleet — unless shared, then only the registry may."""
        if not self._shared:
            self.shutdown()

    def shutdown(self) -> None:
        """Send every worker a shutdown, close channels and the listener."""
        if self._closed:
            return
        self._closed = True
        for worker in list(self._workers.values()):
            try:
                worker.channel.send({"type": "shutdown"})
            except TransportError:
                pass
            try:
                worker.channel.close()
            except Exception:
                pass
        self._workers.clear()
        self._listener.close()
        if self._fallback_session is not None:
            if self._fallback_session.verdict_cache is not None:
                self._fallback_session.verdict_cache.flush()
            self._fallback_session = None

    def __enter__(self) -> "RemoteExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
# Shared fleets: one listener per address, however many engines use it
# ----------------------------------------------------------------------
_SHARED: Dict[str, RemoteExecutor] = {}
_SHARED_LOCK = threading.Lock()


def shared_remote_executor(workers_from: str, **kwargs) -> RemoteExecutor:
    """The process-wide :class:`RemoteExecutor` for *workers_from*.

    A listen address binds once; every engine configured with the same
    address (the service runs one engine per benchmark/structure pair) gets
    the same executor, whose :meth:`~RemoteExecutor.execute` is internally
    serialized.  Engine ``close()`` calls are no-ops on shared instances;
    :func:`shutdown_shared_executors` — wired into ``repro.api.shutdown``
    and ``atexit`` — releases the fleets.
    """
    with _SHARED_LOCK:
        executor = _SHARED.get(workers_from)
        if executor is None or executor._closed:
            executor = RemoteExecutor(workers_from, **kwargs)
            executor._shared = True
            _SHARED[workers_from] = executor
        return executor


def breaker_states() -> Dict[str, Dict[str, Any]]:
    """Breaker snapshot per live shared fleet (``/v1/healthz`` reads this)."""
    with _SHARED_LOCK:
        return {
            address: executor.breaker.snapshot()
            for address, executor in _SHARED.items()
            if not executor._closed
        }


def shutdown_shared_executors() -> None:
    """Tear down every shared fleet (workers get a shutdown message)."""
    with _SHARED_LOCK:
        executors = list(_SHARED.values())
        _SHARED.clear()
    for executor in executors:
        executor.shutdown()


atexit.register(shutdown_shared_executors)
