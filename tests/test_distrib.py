"""Distributed campaign execution: transport, worker loop, RemoteExecutor.

The acceptance bar mirrors the fault-tolerance suite: however shards travel
(socket, file queue) and whatever goes wrong on the way (worker death,
raised shards, an empty fleet), the merged records must be byte-identical to
a clean serial run — only telemetry, spans, and the ``degraded`` flag may
differ.  In-process workers run :func:`repro.distrib.worker.serve` on daemon
threads with ``configure_tracing=False`` so they never touch the host
tracer; the crash test uses real ``repro worker`` subprocesses because the
``crash`` fault mode calls ``os._exit``.

``ParallelExecutor`` (``--jobs N``) runs the same coordinator over N local
worker processes, so its fault scenarios live here too.  Faults are injected
through the ``REPRO_FAULT_WORKER`` seam in :mod:`repro.distrib.worker` (the
same seam CI's fault smokes use): the worker that picks up the named shard
crashes (``os._exit``), hangs, or raises.
"""

import dataclasses
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest

from repro.core import tracing
from repro.core.campaign import CampaignConfig, DelayAVFEngine
from repro.core.executor import (
    ParallelExecutor,
    SerialExecutor,
    SessionSpec,
    ShardExecutionError,
    execute_shard,
    shard_result_from_payload,
    shard_result_to_payload,
)
from repro.core.plan import CampaignPlan, WorkShard, build_plan
from repro.distrib import transport
from repro.distrib.coordinator import (
    RemoteExecutor,
    shared_remote_executor,
    shutdown_shared_executors,
)
from repro.distrib.worker import serve
from repro.soc.system import build_system
from repro.workloads.beebs import load_benchmark

#: Small but real: 3 shards x 8 wires x 2 delays on the shortest benchmark.
DISTRIB_CONFIG = CampaignConfig(
    cycle_count=3, max_wires=8, delay_fractions=(0.5, 0.9), margin_cycles=400
)


def _fibcall_spec(config=DISTRIB_CONFIG) -> SessionSpec:
    return SessionSpec(
        system_factory=build_system,
        program=load_benchmark("libfibcall"),
        config=config,
        factory_kwargs=(("use_ecc", False),),
    )


@pytest.fixture(scope="module")
def fib_engine():
    engine = DelayAVFEngine.from_spec(_fibcall_spec())
    yield engine
    engine.close()


@pytest.fixture(scope="module")
def clean_result(fib_engine):
    """The clean serial reference every remote run must reproduce."""
    return fib_engine.run_structure("alu", executor=SerialExecutor())


def _start_worker_threads(host, port, count):
    """In-process workers serving shards over real sockets."""
    threads = []
    for _ in range(count):
        channel = transport.connect(host, port, retry_seconds=10.0)
        thread = threading.Thread(
            target=serve,
            args=(channel,),
            kwargs={"configure_tracing": False},
            daemon=True,
        )
        thread.start()
        threads.append(thread)
    return threads


def _assert_identical(result, clean_result):
    for delay in DISTRIB_CONFIG.delay_fractions:
        assert (
            result.by_delay[delay].records
            == clean_result.by_delay[delay].records
        )


# ----------------------------------------------------------------------
# Address parsing
# ----------------------------------------------------------------------
def test_parse_workers_from_socket_and_queue():
    assert transport.parse_workers_from("127.0.0.1:8765") == (
        "socket", "127.0.0.1", 8765
    )
    assert transport.parse_workers_from(":0") == ("socket", "127.0.0.1", 0)
    assert transport.parse_workers_from("queue:/tmp/q") == ("queue", "/tmp/q")


@pytest.mark.parametrize(
    "bad", ["", "nonsense", "host:notaport", "host:70000", "queue:"]
)
def test_parse_workers_from_rejects_garbage(bad):
    with pytest.raises(ValueError):
        transport.parse_workers_from(bad)


def test_config_validates_workers_from():
    with pytest.raises(ValueError):
        CampaignConfig(
            cycle_count=1, delay_fractions=(0.5,), workers_from="bogus"
        )
    with pytest.raises(ValueError):
        CampaignConfig(
            cycle_count=1, delay_fractions=(0.5,), worker_wait_seconds=-1.0
        )


# ----------------------------------------------------------------------
# Wire payload round-trips
# ----------------------------------------------------------------------
def test_session_spec_payload_roundtrip():
    spec = _fibcall_spec()
    payload = json.loads(json.dumps(spec.to_payload()))
    rebuilt = SessionSpec.from_payload(payload)
    assert rebuilt.system_factory is build_system
    assert rebuilt.config == spec.config
    assert rebuilt.factory_kwargs == spec.factory_kwargs
    assert rebuilt.program.image == spec.program.image
    assert rebuilt.program.symbols == spec.program.symbols


def test_plan_and_shard_payload_roundtrip(fib_engine):
    session = fib_engine.session
    plan = build_plan(
        "alu", "libfibcall",
        session.system.structure_wires("alu"),
        session.sampled_cycles, fib_engine.config,
    )
    rebuilt = CampaignPlan.from_payload(json.loads(json.dumps(plan.to_payload())))
    assert rebuilt == plan
    shard = plan.shards[0]
    assert WorkShard.from_payload(
        json.loads(json.dumps(shard.to_payload()))
    ) == shard


def test_shard_result_payload_roundtrip(fib_engine):
    session = fib_engine.session
    plan = build_plan(
        "alu", "libfibcall",
        session.system.structure_wires("alu"),
        session.sampled_cycles, fib_engine.config,
    )
    shard = plan.shards[0]
    result = execute_shard(session, plan, shard)
    payload = json.loads(json.dumps(shard_result_to_payload(result)))
    rebuilt = shard_result_from_payload(payload, shard)
    assert rebuilt.shard_index == result.shard_index
    assert rebuilt.by_delay == result.by_delay


def test_shard_result_payload_validates_shape(fib_engine):
    session = fib_engine.session
    plan = build_plan(
        "alu", "libfibcall",
        session.system.structure_wires("alu"),
        session.sampled_cycles, fib_engine.config,
    )
    shard = plan.shards[0]
    payload = shard_result_to_payload(execute_shard(session, plan, shard))
    truncated = dict(payload, records=payload["records"][:1])
    with pytest.raises(ValueError):
        shard_result_from_payload(truncated, shard)


# ----------------------------------------------------------------------
# Socket transport: parity with serial execution
# ----------------------------------------------------------------------
def test_remote_socket_parity(fib_engine, clean_result):
    with RemoteExecutor("127.0.0.1:0", worker_wait_seconds=60.0) as remote:
        host, port = remote.address
        _start_worker_threads(host, port, 2)
        result = fib_engine.run_structure("alu", executor=remote)
    assert result == clean_result
    _assert_identical(result, clean_result)
    assert result.telemetry.count("remote_workers_joined") == 2
    assert result.telemetry.count("remote_shards_completed") == 3
    assert not result.degraded


def test_remote_executor_requires_spec():
    with RemoteExecutor("127.0.0.1:0") as remote:
        plan = CampaignPlan(
            structure="alu", benchmark="x", wire_count=1,
            wire_indices=(0,), sampled_cycles=(1,),
            delay_fractions=(0.5,), shards=(),
        )
        with pytest.raises(ValueError):
            remote.execute(plan)


# ----------------------------------------------------------------------
# File-queue transport
# ----------------------------------------------------------------------
def test_remote_queue_parity(tmp_path, fib_engine, clean_result):
    queue_dir = str(tmp_path / "q")
    with RemoteExecutor(f"queue:{queue_dir}", worker_wait_seconds=60.0) as remote:
        channel = transport.announce(queue_dir)
        thread = threading.Thread(
            target=serve,
            args=(channel,),
            kwargs={"configure_tracing": False},
            daemon=True,
        )
        thread.start()
        result = fib_engine.run_structure("alu", executor=remote)
    assert result == clean_result
    _assert_identical(result, clean_result)
    assert result.telemetry.count("remote_workers_joined") == 1


# ----------------------------------------------------------------------
# Fault tolerance at the coordinator
# ----------------------------------------------------------------------
def test_empty_fleet_falls_back_to_serial(fib_engine, clean_result):
    with RemoteExecutor("127.0.0.1:0", worker_wait_seconds=0.1) as remote:
        result = fib_engine.run_structure("alu", executor=remote)
    assert result == clean_result
    _assert_identical(result, clean_result)
    assert result.telemetry.count("serial_fallbacks") == 1
    assert result.degraded


def test_worker_raise_is_retried(monkeypatch, tmp_path, fib_engine, clean_result):
    monkeypatch.setenv("REPRO_FAULT_WORKER", "raise:1")
    monkeypatch.setenv("REPRO_FAULT_ONCE_FILE", str(tmp_path / "fault.marker"))
    with RemoteExecutor("127.0.0.1:0", worker_wait_seconds=60.0) as remote:
        host, port = remote.address
        _start_worker_threads(host, port, 2)
        result = fib_engine.run_structure("alu", executor=remote)
    _assert_identical(result, clean_result)
    assert result.telemetry.count("shard_retries") >= 1


def test_worker_crash_evicts_and_recovers(tmp_path, clean_result):
    """Kill one of two real worker processes mid-campaign: the survivor
    finishes the requeued shard and records stay byte-identical."""
    # trace=True travels to the workers through the wire spec, so their
    # spans come back with each result for the stitching assertions below.
    engine = DelayAVFEngine.from_spec(
        _fibcall_spec(dataclasses.replace(DISTRIB_CONFIG, trace=True))
    )
    tracing.enable(reset=True)
    try:
        with RemoteExecutor("127.0.0.1:0", worker_wait_seconds=120.0) as remote:
            host, port = remote.address
            env = dict(
                os.environ,
                REPRO_FAULT_WORKER="crash:1",
                REPRO_FAULT_ONCE_FILE=str(tmp_path / "fault.marker"),
                PYTHONPATH=os.pathsep.join(sys.path),
            )
            procs = [
                subprocess.Popen(
                    [
                        sys.executable, "-m", "repro", "worker",
                        "--connect", f"{host}:{port}",
                        "--retry-seconds", "30",
                    ],
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
                for _ in range(2)
            ]
            try:
                result = engine.run_structure("alu", executor=remote)
            finally:
                for proc in procs:
                    proc.terminate()
                for proc in procs:
                    proc.wait(timeout=30)
        _assert_identical(result, clean_result)
        assert result.telemetry.count("remote_workers_evicted") >= 1
        assert result.degraded
        # Cross-host span stitching: worker spans come back on their own pid
        # track, their roots parent-linked to the coordinator dispatch span.
        spans = tracing.drain()
        remote_spans = [
            s for s in spans if s.get("pid") not in (None, os.getpid())
        ]
        assert remote_spans, "no worker spans came back with the results"
        assert {s["pid"] for s in remote_spans} <= {p.pid for p in procs}
        roots = [s for s in remote_spans if s.get("parent_pid") == os.getpid()]
        assert roots and all(r["parent"] is not None for r in roots)
    finally:
        tracing.disable()
        tracing.reset()
        engine.close()


def test_stitch_remote_spans_rehomes_roots():
    spans = [
        {"name": "a", "cat": "shard", "pid": 1, "tid": 1, "id": 1,
         "parent": None, "args": {}},
        {"name": "b", "cat": "shard", "pid": 1, "tid": 1, "id": 2,
         "parent": 1, "args": {}},
    ]
    stitched = tracing.stitch_remote_spans(
        spans, pid=777, parent=42, parent_pid=9
    )
    assert all(s["pid"] == 777 and s["tid"] == 777 for s in stitched)
    assert stitched[0]["parent"] == 42
    assert stitched[0]["parent_pid"] == 9
    assert stitched[1]["parent"] == 1  # non-root keeps its worker-local parent
    assert "parent_pid" not in stitched[1]
    # Identity (name, cat, args) is untouched by stitching.
    assert tracing.span_identity(stitched[0]) == ("a", "shard", ())


# ----------------------------------------------------------------------
# Resume across a coordinator restart
# ----------------------------------------------------------------------
def test_resume_after_coordinator_restart(tmp_path, clean_result):
    """A remote campaign persists shard completions on the *coordinator's*
    cache (records re-put post-merge), so a restarted coordinator resumes
    from the shard table without any workers at all."""
    config = CampaignConfig(
        cycle_count=3, max_wires=8, delay_fractions=(0.5, 0.9),
        margin_cycles=400, cache_dir=str(tmp_path / "verdicts"),
    )
    spec = _fibcall_spec(config)
    engine = DelayAVFEngine.from_spec(spec)
    try:
        with RemoteExecutor("127.0.0.1:0", worker_wait_seconds=60.0) as remote:
            host, port = remote.address
            _start_worker_threads(host, port, 2)
            first = engine.run_structure("alu", executor=remote)
    finally:
        engine.close()  # flushes the verdict cache
    _assert_identical(first, clean_result)

    # "Restart": a fresh engine over the same cache, a fleet nobody joins.
    engine = DelayAVFEngine.from_spec(spec)
    try:
        with RemoteExecutor("127.0.0.1:0", worker_wait_seconds=0.1) as remote:
            resumed = engine.run_structure("alu", executor=remote, resume=True)
    finally:
        engine.close()
    _assert_identical(resumed, clean_result)
    assert resumed.telemetry.count("shards_resumed") == 3
    assert resumed.telemetry.count("serial_fallbacks") == 0


# ----------------------------------------------------------------------
# Shared fleets
# ----------------------------------------------------------------------
def test_shared_remote_executor_is_per_address(tmp_path):
    addr = f"queue:{tmp_path / 'shared-q'}"
    try:
        first = shared_remote_executor(addr)
        assert shared_remote_executor(addr) is first
        first.close()  # engine-level close: a no-op on shared instances
        assert not first._closed
        shutdown_shared_executors()
        assert first._closed
        # A fresh request after shutdown builds a fresh fleet.
        assert shared_remote_executor(addr) is not first
    finally:
        shutdown_shared_executors()


def test_default_executor_prefers_remote(tmp_path):
    config = CampaignConfig(
        cycle_count=1, delay_fractions=(0.5,), jobs=4,
        workers_from=f"queue:{tmp_path / 'q'}",
    )
    engine = DelayAVFEngine.from_spec(_fibcall_spec(config))
    try:
        executor = engine.default_executor()
        assert isinstance(executor, RemoteExecutor)
        assert executor is engine.default_executor()
    finally:
        engine.close()
        shutdown_shared_executors()


# ----------------------------------------------------------------------
# Local fleets: ParallelExecutor(jobs=2) drives the same coordinator
# ----------------------------------------------------------------------
def _arm_fault_once(monkeypatch, tmp_path, directive, **env):
    monkeypatch.setenv("REPRO_FAULT_WORKER", directive)
    monkeypatch.setenv("REPRO_FAULT_ONCE_FILE", str(tmp_path / "fault.marker"))
    for name, value in env.items():
        monkeypatch.setenv(name, value)


def _assert_no_worker_survives():
    assert multiprocessing.active_children() == []


def _assert_dead(pid):
    with pytest.raises(ProcessLookupError):
        os.kill(pid, 0)


def test_local_fleet_worker_crash_evicts_and_recovers(
    monkeypatch, tmp_path, fib_engine, clean_result
):
    _arm_fault_once(monkeypatch, tmp_path, "crash:1")
    with ParallelExecutor(jobs=2) as pool:
        recovered = fib_engine.run_structure("alu", executor=pool)
    _assert_no_worker_survives()
    assert recovered == clean_result
    _assert_identical(recovered, clean_result)
    assert recovered.telemetry.count("remote_workers_evicted") == 1
    assert recovered.telemetry.count("serial_fallbacks") == 0
    assert recovered.degraded
    assert not clean_result.degraded


def test_local_fleet_worker_exception_retried(
    monkeypatch, tmp_path, fib_engine, clean_result
):
    _arm_fault_once(monkeypatch, tmp_path, "raise:0")
    with ParallelExecutor(jobs=2) as pool:
        recovered = fib_engine.run_structure("alu", executor=pool)
    _assert_no_worker_survives()
    _assert_identical(recovered, clean_result)
    assert recovered.telemetry.count("shard_retries") >= 1
    assert recovered.telemetry.count("remote_workers_evicted") == 0
    # A retried-and-recovered shard is routine, not a degraded campaign.
    assert not recovered.degraded


def test_local_fleet_exception_exhausts_retry_budget(monkeypatch, fib_engine):
    # Fault every attempt (no once-marker): the retry budget must bound it.
    monkeypatch.setenv("REPRO_FAULT_WORKER", "raise:0")
    with ParallelExecutor(jobs=2, max_retries=1, retry_backoff=0.01) as pool:
        with pytest.raises(ShardExecutionError, match="shard 0"):
            fib_engine.run_structure("alu", executor=pool)
    _assert_no_worker_survives()


def test_local_fleet_hung_worker_evicted_and_terminated(
    monkeypatch, tmp_path, fib_engine, clean_result
):
    _arm_fault_once(monkeypatch, tmp_path, "hang:1", REPRO_FAULT_HANG_SECONDS="300")
    evicted = []
    stop_worker = ParallelExecutor._stop_worker

    def spy(self, pid):
        evicted.append(pid)
        stop_worker(self, pid)

    monkeypatch.setattr(ParallelExecutor, "_stop_worker", spy)
    with ParallelExecutor(jobs=2, shard_timeout=15) as pool:
        recovered = fib_engine.run_structure("alu", executor=pool)
        # The executor terminated the hung worker itself, before close().
        assert evicted and all(pid is not None for pid in evicted)
        for pid in evicted:
            _assert_dead(pid)
    _assert_no_worker_survives()
    _assert_identical(recovered, clean_result)
    assert recovered.telemetry.count("shard_timeouts") >= 1
    assert recovered.telemetry.count("remote_workers_evicted") >= 1
    assert recovered.degraded


def test_local_fleet_lost_falls_back_to_serial_at_once(
    monkeypatch, fib_engine, clean_result
):
    # Crash on every attempt: both workers die on shard 1, and the rest of
    # the campaign must finish in-process (the fault seam only fires in
    # workers) without waiting for workers that can never join.
    monkeypatch.setenv("REPRO_FAULT_WORKER", "crash:1")
    with ParallelExecutor(jobs=2) as pool:
        started = time.monotonic()
        recovered = fib_engine.run_structure("alu", executor=pool)
        elapsed = time.monotonic() - started
        _assert_identical(recovered, clean_result)
        assert recovered.telemetry.count("remote_workers_evicted") == 2
        assert recovered.telemetry.count("serial_fallbacks") == 1
        assert recovered.degraded
        assert elapsed < CampaignConfig().worker_wait_seconds
        # The next campaign gets a full fleet again.
        monkeypatch.delenv("REPRO_FAULT_WORKER")
        again = fib_engine.run_structure("alu", executor=pool)
    _assert_no_worker_survives()
    _assert_identical(again, clean_result)
    assert again.telemetry.count("remote_workers_joined") == 2
    assert again.telemetry.count("remote_shards_completed") == 3
    assert not again.degraded


def test_local_fleet_spans_stitched_onto_worker_pids(clean_result):
    engine = DelayAVFEngine.from_spec(
        _fibcall_spec(dataclasses.replace(DISTRIB_CONFIG, trace=True))
    )
    tracing.enable(reset=True)
    try:
        with ParallelExecutor(jobs=2) as pool:
            result = engine.run_structure("alu", executor=pool)
            worker_pids = set(pool._processes)
        _assert_identical(result, clean_result)
        spans = tracing.drain()
        remote_spans = [
            s for s in spans if s.get("pid") not in (None, os.getpid())
        ]
        assert remote_spans, "no worker spans came back with the results"
        assert {s["pid"] for s in remote_spans} <= worker_pids
        roots = [s for s in remote_spans if s.get("parent_pid") == os.getpid()]
        assert roots and all(r["parent"] is not None for r in roots)
    finally:
        tracing.disable()
        tracing.reset()
        engine.close()
    _assert_no_worker_survives()
