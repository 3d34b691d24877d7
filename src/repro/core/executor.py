"""Campaign execution: pluggable executors over planned work shards.

The campaign engine plans a structure campaign into per-cycle
:class:`repro.core.plan.WorkShard` descriptors and hands them to an
:class:`Executor`:

- :class:`SerialExecutor` runs every shard in-process against the engine's
  live :class:`repro.core.campaign.CampaignSession` (the historical
  behaviour, and the default).
- :class:`ParallelExecutor` starts ``jobs`` local worker processes and
  hands the plan to a private loopback
  :class:`repro.distrib.coordinator.RemoteExecutor`.  Each worker rebuilds
  the session once from the JSON form of a :class:`SessionSpec` (system
  factory + program + config) and then serves shards from its warm caches;
  the workers stay up across ``run_structure`` calls so consecutive
  structure campaigns reuse worker sessions exactly like the serial engine
  reuses its one session.

Fault tolerance lives in one place, the fleet coordinator: per-shard
timeout, bounded retry-with-backoff, eviction of dead or hung workers with
re-dispatch of only the unfinished shards, and in-process serial fallback.
Every recovery action is counted in campaign telemetry (``shard_retries``,
``shard_timeouts``, ``remote_workers_evicted``, ``serial_fallbacks``) so
operators can see that a campaign limped home — but the *records* are
unaffected: shard execution is deterministic and
:func:`merge_shard_results` is order-independent, so a recovered campaign
is byte-identical to a clean one.

Shard results are merged deterministically in plan order, so serial and
parallel runs produce identical :class:`StructureCampaignResult` records —
the executors differ only in wall-clock time and telemetry.
"""

from __future__ import annotations

import abc
import base64
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import tracing
from repro.core.cache import (
    record_from_payload,
    record_key,
    record_to_payload,
    shard_key,
)
from repro.core.plan import CampaignPlan, WorkShard
from repro.core.results import DelayAVFResult, InjectionRecord, StructureCampaignResult
from repro.core.telemetry import CampaignTelemetry


@dataclass(frozen=True)
class SessionSpec:
    """Everything a worker needs to rebuild a campaign session.

    ``system_factory`` must be importable by reference (a module-level
    callable, e.g. :func:`repro.soc.system.build_system`): workers resolve
    it from its ``module:qualname``.  ``factory_kwargs`` is a tuple of
    ``(name, value)`` pairs so the spec stays comparable.
    """

    system_factory: Callable[..., Any]
    program: Any  #: :class:`repro.isa.assembler.Program`
    config: Any  #: :class:`repro.core.campaign.CampaignConfig`
    factory_kwargs: Tuple[Tuple[str, Any], ...] = ()

    def build_system(self):
        return self.system_factory(**dict(self.factory_kwargs))

    def build_session(self):
        """Rebuild the full campaign session (golden run, analyzers, cache)."""
        from repro.core.campaign import CampaignSession

        system = self.build_system()
        return CampaignSession(
            system,
            self.program,
            self.config,
            verdict_cache=open_configured_cache(system, self.program, self.config),
        )

    # ------------------------------------------------------------------
    # Wire round-trip: how the fleet coordinator ships specs to its
    # workers, local or remote (no shared process state assumed).
    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, Any]:
        """A JSON-safe dict :meth:`from_payload` rebuilds exactly.

        The factory travels by dotted reference (``module:qualname``), the
        program image as base64, the config through its own payload
        round-trip.
        Factory kwarg values must be JSON-representable primitives (the
        existing specs only carry booleans).
        """
        factory = self.system_factory
        return {
            "system_factory": f"{factory.__module__}:{factory.__qualname__}",
            "program": {
                "name": self.program.name,
                "image": base64.b64encode(self.program.image).decode("ascii"),
                "entry": self.program.entry,
                "symbols": dict(self.program.symbols),
            },
            "config": self.config.to_payload(),
            "factory_kwargs": [[name, value] for name, value in self.factory_kwargs],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SessionSpec":
        """Rebuild a spec from its wire form (inverse of :meth:`to_payload`).

        Trusts its coordinator: the factory reference is imported and
        resolved.  Workers only ever deserialize
        specs from the coordinator they explicitly connected to.
        """
        from repro.core.campaign import CampaignConfig
        from repro.isa.assembler import Program

        module_name, _, qualname = str(payload["system_factory"]).partition(":")
        factory: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            factory = getattr(factory, part)
        program_payload = payload["program"]
        program = Program(
            name=str(program_payload["name"]),
            image=base64.b64decode(program_payload["image"]),
            entry=int(program_payload.get("entry", 0)),
            symbols={
                str(name): int(addr)
                for name, addr in (program_payload.get("symbols") or {}).items()
            },
        )
        return cls(
            system_factory=factory,
            program=program,
            config=CampaignConfig.from_payload(payload["config"]),
            factory_kwargs=tuple(
                (str(name), value)
                for name, value in payload.get("factory_kwargs") or ()
            ),
        )


def open_configured_cache(system, program, config):
    """The :class:`VerdictCache` named by ``config.cache_dir`` (or ``None``)."""
    if not getattr(config, "cache_dir", None):
        return None
    from repro.core.cache import VerdictCache

    return VerdictCache.open(config.cache_dir, system.netlist, program, config)


@dataclass
class ShardResult:
    """One executed shard: per-delay records plus the worker's telemetry."""

    shard_index: int
    by_delay: Dict[float, List[InjectionRecord]]
    telemetry: Optional[Dict[str, Dict]] = None  #: telemetry snapshot delta
    spans: Optional[List[Dict]] = None  #: trace spans drained from the worker


def shard_result_to_payload(result: ShardResult) -> Dict[str, Any]:
    """The JSON-safe wire form of one executed shard (remote workers).

    Records compress to their derived-field payloads
    (:func:`repro.core.cache.record_to_payload`); identity — wire index,
    cycle, delay — is *not* shipped because the coordinator re-supplies it
    from the shard it dispatched.  Record lists ride in evaluation order
    (wire-outer within each delay), which is exactly the order
    ``shard.wire_indices`` enumerates, so the round-trip is positional and
    lossless.  Telemetry deltas and drained spans are plain dicts already.
    """
    return {
        "shard_index": result.shard_index,
        "records": [
            [record_to_payload(record) for record in records]
            for records in result.by_delay.values()
        ],
        "telemetry": result.telemetry,
        "spans": result.spans,
    }


def shard_result_from_payload(
    payload: Dict[str, Any], shard: WorkShard
) -> ShardResult:
    """Rebuild a :class:`ShardResult` against the shard it answers.

    The inverse of :func:`shard_result_to_payload`: per-delay record lists
    are re-keyed by ``shard.delay_fractions`` (payload order follows the
    shard's declaration order) and each record regains its identity from
    ``shard.wire_indices`` position, the shard's cycle, and its delay.
    """
    record_lists = payload["records"]
    if len(record_lists) != len(shard.delay_fractions):
        raise ValueError(
            f"shard {shard.index}: expected {len(shard.delay_fractions)} "
            f"delay record lists, got {len(record_lists)}"
        )
    by_delay: Dict[float, List[InjectionRecord]] = {}
    for delay, records in zip(shard.delay_fractions, record_lists):
        if len(records) != len(shard.wire_indices):
            raise ValueError(
                f"shard {shard.index}: expected {len(shard.wire_indices)} "
                f"records for delay {delay}, got {len(records)}"
            )
        by_delay[delay] = [
            record_from_payload(record, wire_index, shard.cycle, delay)
            for wire_index, record in zip(shard.wire_indices, records)
        ]
    return ShardResult(
        shard_index=int(payload["shard_index"]),
        by_delay=by_delay,
        telemetry=payload.get("telemetry"),
        spans=payload.get("spans"),
    )


# ----------------------------------------------------------------------
# The shard inner loop (shared verbatim by serial runs and every worker)
# ----------------------------------------------------------------------
def execute_shard(session, plan: CampaignPlan, shard: WorkShard) -> ShardResult:
    """Run every (wire, delay) injection of one sampled cycle.

    Loops are wire-outer / delay-inner within the shard — combined with the
    plan's cycle-per-shard decomposition this reproduces the legacy engine's
    cycle-outermost §V-C cache-reuse order exactly.

    Completed injections are served from the persistent record cache when one
    is attached; the shard only builds waveforms and checkpoints (the
    expensive timing-aware event simulation) for the injections it actually
    has to evaluate, so a fully warm shard never touches the event simulator.
    Cold injections first flow through the batched timing-aware engine
    (:meth:`DynamicReachability.reachable_set_batch`), which amortizes
    fan-out-cone construction and fault-free waveform slicing across the
    whole cycle before the per-record evaluation loop runs.
    """
    with tracing.span(
        "shard.execute",
        cat="shard",
        structure=plan.structure,
        shard=shard.index,
        cycle=shard.cycle,
        wires=len(shard.wire_indices),
        delays=len(shard.delay_fractions),
    ):
        return _execute_shard_body(session, plan, shard)


@dataclass
class _PreparedShard:
    """A shard's timing-aware pass, paused before GroupACE resolution."""

    shard: WorkShard
    chosen: List[Tuple[int, Any]]  #: (wire index, wire) pairs
    cached: Dict[Tuple[int, float], InjectionRecord]
    waves: Any = None
    checkpoint: Any = None
    reach_sets: List[Dict[int, int]] = None


def _prepare_shard(session, plan: CampaignPlan, shard: WorkShard) -> _PreparedShard:
    """Record-cache lookups plus the batched timing-aware reachability pass.

    Everything *before* GroupACE resolution: the returned object carries the
    dynamically reachable error sets the prefetch (per-shard or
    campaign-spanning) still has to resolve.
    """
    config = session.config
    telemetry = session.telemetry
    cache = session.verdict_cache
    with_orace = bool(config.compute_orace)
    wires = session.system.structure_wires(plan.structure)
    chosen = [(index, wires[index]) for index in shard.wire_indices]

    cached: Dict[Tuple[int, float], InjectionRecord] = {}
    if cache is not None:
        for index, _ in chosen:
            for delay in shard.delay_fractions:
                payload = cache.get_record(
                    _record_key_of(session, plan, shard, index, delay)
                )
                if payload is not None:
                    cached[(index, delay)] = record_from_payload(
                        payload, index, shard.cycle, delay
                    )
        telemetry.incr("record_cache_hits", len(cached))

    prepared = _PreparedShard(shard=shard, chosen=chosen, cached=cached)
    pending = shard.injection_pairs(skip=cached)
    if pending:
        prepared.waves = session.waveforms(shard.cycle)
        prepared.checkpoint = session.checkpoint(shard.cycle)
        # Batched timing-aware pass: resolve every pending dynamically
        # reachable set through the shared-cone batch API up front, so the
        # per-record evaluation afterwards runs against warm per-cycle memos.
        wire_of = dict(chosen)
        lane_width = int(getattr(plan, "lane_width", config.lane_width))
        prepared.reach_sets = session.dynamic.reachable_set_batch(
            prepared.waves,
            [(wire_of[index], delay) for index, delay in pending],
            lanes=lane_width,
        )
    return prepared


def _record_key_of(session, plan, shard, index: int, delay: float) -> str:
    return record_key(
        plan.structure, shard.cycle, index, delay,
        bool(session.config.compute_orace), session.system.clock_period,
    )


def _evaluate_shard(
    session, plan: CampaignPlan, prepared: _PreparedShard
) -> ShardResult:
    """The per-record evaluation loop over a prepared shard."""
    shard = prepared.shard
    config = session.config
    cache = session.verdict_cache
    with_orace = bool(config.compute_orace)
    by_delay: Dict[float, List[InjectionRecord]] = {
        delay: [] for delay in shard.delay_fractions
    }
    with session.telemetry.timer("evaluate"):
        for index, wire in prepared.chosen:
            for delay in shard.delay_fractions:
                record = prepared.cached.get((index, delay))
                if record is None:
                    record = session.evaluator.evaluate(
                        prepared.waves,
                        prepared.checkpoint,
                        wire,
                        index,
                        delay,
                        with_orace=with_orace,
                    )
                    if cache is not None:
                        cache.put_record(
                            _record_key_of(session, plan, shard, index, delay),
                            record_to_payload(record),
                        )
                by_delay[delay].append(record)
    if cache is not None:
        # Every record of this shard is now in the store: mark the shard
        # complete (resume skips it) and persist incrementally.  The flush is
        # throttled — per-shard read-merge-rewrite under the inter-process
        # lock would serialize workers on disk I/O — with unconditional
        # flushes at worker exit and campaign end guaranteeing completeness.
        cache.mark_shard_complete(
            shard_key(
                plan.structure, shard.cycle, shard.wire_indices,
                shard.delay_fractions, with_orace, session.system.clock_period,
            )
        )
        cache.flush_throttled(
            every_n=getattr(config, "flush_every_shards", 8),
            max_seconds=getattr(config, "flush_max_seconds", 10.0),
        )
    return ShardResult(shard_index=shard.index, by_delay=by_delay)


def _execute_shard_body(session, plan: CampaignPlan, shard: WorkShard) -> ShardResult:
    prepared = _prepare_shard(session, plan, shard)
    lane_width = int(getattr(plan, "lane_width", session.config.lane_width))
    if prepared.reach_sets and lane_width > 1:
        with session.telemetry.timer("prefetch"):
            session.group_ace.prefetch_spanning(
                _group_ace_queries(
                    session, [(prepared.checkpoint, prepared.reach_sets)]
                ),
                lanes=lane_width,
            )
    return _evaluate_shard(session, plan, prepared)


def _group_ace_queries(session, checkpointed_sets):
    """Flatten (checkpoint, reach sets) pairs into spanning prefetch items.

    ``checkpointed_sets`` holds one entry per prepared shard.  Collects each
    non-empty dynamically reachable set — plus the per-member singleton sets
    ORACE requires for multi-bit errors — so one lane-parallel resolution
    makes the scalar evaluation pass afterwards pure cache hits.
    """
    queries = []
    orace = bool(session.config.compute_orace)
    for checkpoint, reach_sets in checkpointed_sets:
        for errors in reach_sets:
            if not errors:
                continue
            queries.append((checkpoint, errors))
            if orace and len(errors) > 1:
                queries.extend(
                    (checkpoint, {dff: value}) for dff, value in errors.items()
                )
    return queries


def prepare_plan_shards(
    session, plan: CampaignPlan
) -> List[_PreparedShard]:
    """Prepare every shard of a plan (pass 1 of the spanning path)."""
    prepared_shards: List[_PreparedShard] = []
    for shard in plan.shards:
        with tracing.span(
            "shard.execute",
            cat="shard",
            structure=plan.structure,
            shard=shard.index,
            cycle=shard.cycle,
            wires=len(shard.wire_indices),
            delays=len(shard.delay_fractions),
        ):
            prepared_shards.append(_prepare_shard(session, plan, shard))
    return prepared_shards


def plan_queries(session, prepared_shards: List[_PreparedShard]):
    """Spanning GroupACE/ORACE queries still unresolved after preparation."""
    return _group_ace_queries(
        session,
        [
            (prepared.checkpoint, prepared.reach_sets)
            for prepared in prepared_shards
            if prepared.reach_sets
        ],
    )


def evaluate_prepared_shards(
    session, plan: CampaignPlan, prepared_shards: List[_PreparedShard],
    progress=None,
) -> List[ShardResult]:
    """Per-shard evaluation loops (pass 3 of the spanning path)."""
    telemetry = session.telemetry
    results = []
    for prepared in prepared_shards:
        before = telemetry.snapshot() if progress is not None else None
        with tracing.span(
            "shard.evaluate", cat="executor",
            structure=plan.structure, shard=prepared.shard.index,
        ):
            result = _evaluate_shard(session, plan, prepared)
        if progress is not None:
            progress.shard_done(telemetry.diff(before))
        results.append(result)
    return results


def execute_shards_spanning(
    session, plan: CampaignPlan, progress=None
) -> List[ShardResult]:
    """Run a plan's shards with lane packing spanning the whole campaign.

    Single cycles rarely contribute enough unique error sets to fill a
    64-lane word, so per-shard prefetching leaves most planes idle.  This
    path prepares *every* shard first (record-cache lookups, waveforms, the
    batched timing-aware reachability pass), resolves all GroupACE/ORACE
    queries of the campaign in one cross-checkpoint lane-parallel prefetch,
    then runs the per-shard evaluation loops against the warm cache.
    Records are byte-identical to the per-shard path — only the packing of
    the timing-agnostic simulations changes.  (One engine can pack even
    wider — across whole campaigns — via
    :meth:`repro.core.campaign.DelayAVFEngine.run_structures`.)
    """
    telemetry = session.telemetry
    prepared_shards = prepare_plan_shards(session, plan)
    queries = plan_queries(session, prepared_shards)
    lane_width = int(getattr(plan, "lane_width", session.config.lane_width))
    if queries:
        with tracing.span(
            "campaign.prefetch", cat="executor",
            queries=len(queries), lanes=lane_width,
        ):
            with telemetry.timer("prefetch"):
                session.group_ace.prefetch_spanning(queries, lanes=lane_width)
    return evaluate_prepared_shards(session, plan, prepared_shards, progress)


def merge_shard_results(
    plan: CampaignPlan, shard_results: Sequence[ShardResult]
) -> StructureCampaignResult:
    """Deterministic merge: shard (= cycle) order, then shard-internal order.

    Keyed by ``shard_index`` so out-of-order completion (a worker fleet) and
    in-order completion (the serial executor) assemble byte-identical
    results.
    """
    result = StructureCampaignResult(
        structure=plan.structure,
        benchmark=plan.benchmark,
        wire_count=plan.wire_count,
        sampled_wires=len(plan.wire_indices),
        sampled_cycles=plan.sampled_cycles,
        by_delay={
            delay: DelayAVFResult(
                structure=plan.structure,
                benchmark=plan.benchmark,
                delay_fraction=delay,
            )
            for delay in plan.delay_fractions
        },
    )
    for shard_result in sorted(shard_results, key=lambda s: s.shard_index):
        for delay in plan.delay_fractions:
            result.by_delay[delay].records.extend(shard_result.by_delay[delay])
    return result


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class Executor(abc.ABC):
    """Strategy for running a plan's shards against session state."""

    @abc.abstractmethod
    def execute(
        self,
        plan: CampaignPlan,
        session=None,
        spec: Optional[SessionSpec] = None,
        progress=None,
    ) -> List[ShardResult]:
        """Run every shard of *plan*; results may arrive in any order.

        *progress*, when given, is a :class:`repro.core.progress.ProgressReporter`
        notified as shards complete (``shard_done``) and as recovery actions
        fire (``note``) so long campaigns stream liveness to stderr and the
        heartbeat file.
        """

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release executor resources (worker processes); idempotent."""


class SerialExecutor(Executor):
    """In-process execution against a live session (default behaviour).

    With a packed lane width (``plan.lane_width > 1``) the serial path packs
    GroupACE resolution *across* shards (:func:`execute_shards_spanning`);
    at width 1 it runs the historical one-shard-at-a-time loop.
    """

    def execute(self, plan, session=None, spec=None, progress=None):
        if session is None:
            if spec is None:
                raise ValueError("SerialExecutor needs a session or a spec")
            session = spec.build_session()
        lane_width = int(getattr(plan, "lane_width", session.config.lane_width))
        if lane_width > 1:
            return execute_shards_spanning(session, plan, progress)
        results = []
        for shard in plan.shards:
            before = session.telemetry.snapshot() if progress is not None else None
            result = execute_shard(session, plan, shard)
            if progress is not None:
                progress.shard_done(session.telemetry.diff(before))
            results.append(result)
        return results


class ShardExecutionError(RuntimeError):
    """A shard kept failing after its full retry budget was spent."""


#: Seconds a freshly started local worker gets to connect and say hello.
_WORKER_START_SECONDS = 30.0
#: Seconds a local worker gets to drain its shutdown message at close.
_WORKER_STOP_SECONDS = 10.0


class ParallelExecutor(Executor):
    """*jobs* local worker processes behind a private loopback fleet.

    This executor only starts and stops its workers.  Everything else —
    dispatch, retry with backoff, per-shard timeout, eviction, the circuit
    breaker and serial fallback — is a
    :class:`repro.distrib.coordinator.RemoteExecutor` bound to an ephemeral
    loopback port that only these workers know.  Each worker runs the
    ``repro worker`` loop (:func:`repro.distrib.worker.serve`), so local and
    remote campaigns share one recovery path and one wire format.  Requires
    a :class:`SessionSpec` — construct the engine via
    :meth:`repro.core.campaign.DelayAVFEngine.from_spec` (or pass ``spec=``).

    - A worker the fleet evicts (its connection died, or its shard overran
      *shard_timeout*) is terminated here; the next :meth:`execute` starts
      a replacement, so a long-lived engine does not stay short-handed.
    - A fleet that has lost every worker finishes the campaign serially at
      once: nothing else can join a private listener, so there is nothing
      to wait for.
    - Workers and their warm sessions persist across :meth:`execute` calls
      until :meth:`close`, which leaves no worker process alive.
    """

    def __init__(
        self,
        jobs: int = 2,
        shard_timeout: Optional[float] = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
        breaker_threshold: int = 3,
        breaker_reset_seconds: float = 60.0,
    ):
        self.jobs = max(1, int(jobs))
        self.shard_timeout = shard_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.breaker_threshold = breaker_threshold
        self.breaker_reset_seconds = breaker_reset_seconds
        self._fleet = None  #: the private RemoteExecutor, once started
        self._processes: Dict[int, Any] = {}  #: pid -> worker Process

    def execute(self, plan, session=None, spec=None, progress=None):
        if spec is None:
            raise ValueError(
                "ParallelExecutor needs a SessionSpec to ship to its workers; "
                "construct the engine via DelayAVFEngine.from_spec(...)"
            )
        telemetry = session.telemetry if session is not None else CampaignTelemetry()
        self._start_workers(telemetry)
        return self._fleet.execute(plan, session, spec, progress)

    def _start_workers(self, telemetry: CampaignTelemetry) -> None:
        """Top the fleet up to *jobs* workers and wait until they joined."""
        # Imported here: `import repro` must not pull in the fleet code.
        import multiprocessing

        from repro.distrib.coordinator import RemoteExecutor
        from repro.distrib.worker import serve_local

        if self._fleet is None:
            self._fleet = RemoteExecutor(
                "127.0.0.1:0",
                shard_timeout=self.shard_timeout,
                max_retries=self.max_retries,
                retry_backoff=self.retry_backoff,
                worker_wait_seconds=0.0,
                breaker_threshold=self.breaker_threshold,
                breaker_reset_seconds=self.breaker_reset_seconds,
                on_evict=self._stop_worker,
            )
        for pid, process in list(self._processes.items()):
            if not process.is_alive():
                process.join()
                del self._processes[pid]
        host, port = self._fleet.address
        # Forked workers start at once.  A process with other threads (the
        # campaign service) spawns them instead: a forked child can inherit
        # a lock another thread held, and deadlock on it.
        fork = (
            threading.active_count() == 1
            and "fork" in multiprocessing.get_all_start_methods()
        )
        context = multiprocessing.get_context("fork" if fork else "spawn")
        while len(self._processes) < self.jobs:
            process = context.Process(
                target=serve_local, args=(host, port), daemon=True
            )
            process.start()
            self._processes[process.pid] = process
        deadline = time.monotonic() + _WORKER_START_SECONDS
        while time.monotonic() < deadline:
            joined = self._fleet.greet_workers(telemetry)
            if all(
                pid in joined or not process.is_alive()
                for pid, process in self._processes.items()
            ):
                break
            time.sleep(0.005)

    def _stop_worker(self, pid: Optional[int]) -> None:
        """Terminate an evicted worker (a hung one would never exit)."""
        process = self._processes.pop(pid, None)
        if process is not None:
            _stop_process(process, grace=0.0)

    def close(self) -> None:
        fleet, self._fleet = self._fleet, None
        if fleet is not None:
            fleet.shutdown()  # every worker gets a shutdown message
        for process in self._processes.values():
            _stop_process(process, grace=_WORKER_STOP_SECONDS)
        self._processes.clear()

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _stop_process(process, grace: float) -> None:
    """Wait *grace* seconds for *process* to exit, then terminate, then kill."""
    process.join(grace)
    if process.is_alive():
        process.terminate()
        process.join(_WORKER_STOP_SECONDS)
    if process.is_alive():
        process.kill()
        process.join()
