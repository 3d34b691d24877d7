"""Pinned reproduction numbers: a change to any of them must be deliberate.

Table I (injected wires per structure) and Table II (cycles per benchmark)
are pinned exactly, one tiny campaign is pinned by the digest of its result
payload under every executor, and one tiny two-workload spanning run (whose
golden runs share a lane-packed word) by the digest of both payloads.  A change that moves a pin must edit
it in the same diff and say why; it is never a side effect.
"""

import hashlib
import json
import threading

import pytest

from repro.core import campaign
from repro.core.campaign import (
    CampaignConfig,
    DelayAVFEngine,
    packed_golden_runs,
    run_structures_spanning,
)
from repro.core.executor import ParallelExecutor, SerialExecutor, SessionSpec
from repro.distrib import transport
from repro.distrib.coordinator import RemoteExecutor
from repro.distrib.worker import serve
from repro.netlist.stats import structure_stats
from repro.soc.system import build_system
from repro.workloads.beebs import BENCHMARK_NAMES, expected_output, load_benchmark

#: Table I: injected wires |E| per structure on IbexMini.
TABLE1_WIRES = {
    "alu": 3618,
    "decoder": 1100,
    "regfile": 4946,
    "regfile_ecc": 7142,
    "lsu": 914,
    "prefetch": 2930,
}

#: Table II: cycles each Beebs kernel runs on IbexMini.
TABLE2_CYCLES = {
    "md5": 3564,
    "bubblesort": 3537,
    "libstrstr": 746,
    "libfibcall": 2021,
    "matmult": 8822,
}

#: sha256 of the ALU x libfibcall campaign below (4 wires x 2 cycles x the
#: default delay sweep), over its result payload without the ``degraded``
#: execution flag.
CAMPAIGN_DIGEST = "ba314fee00d169c44a7c5458e844b6df34ec07d28e7dca0962c93cc1558195b4"
CAMPAIGN_CONFIG = CampaignConfig(cycle_count=2, max_wires=4)

#: sha256 of the ALU campaigns of libfibcall and libstrstr run together by
#: ``run_structures_spanning`` (same config as above): their golden runs go
#: through ``packed_golden_runs`` and their GroupACE queries through
#: ``prefetch_spanning_multi``.
SPANNING_DIGEST = "f58776c78f8e0f254c1e2361c977578d7afcf5b6653fcbf809c8ba17d455719b"


def test_table1_wire_counts(system, ecc_system):
    plain = structure_stats(system.netlist, system.structures)
    ecc = structure_stats(ecc_system.netlist, ecc_system.structures)
    measured = {name: stats.num_wires for name, stats in plain.items()}
    measured["regfile_ecc"] = ecc["regfile"].num_wires
    assert measured == TABLE1_WIRES


def test_table2_cycle_counts(system):
    measured = {}
    for name in BENCHMARK_NAMES:
        run = system.run_program(load_benchmark(name), max_cycles=60_000)
        assert run.halted and run.observables == expected_output(name)
        measured[name] = run.cycles
    assert measured == TABLE2_CYCLES


@pytest.fixture(scope="module")
def fib_engine():
    engine = DelayAVFEngine.from_spec(
        SessionSpec(
            system_factory=build_system,
            program=load_benchmark("libfibcall"),
            config=CAMPAIGN_CONFIG,
            factory_kwargs=(("use_ecc", False),),
        )
    )
    yield engine
    engine.close()


def _payload(result) -> dict:
    payload = result.result_payload()
    payload.pop("degraded")
    return payload


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def test_campaign_digest_serial(fib_engine):
    result = fib_engine.run_structure("alu", executor=SerialExecutor())
    assert _digest(_payload(result)) == CAMPAIGN_DIGEST


@pytest.mark.parametrize("threaded", [False, True], ids=["fork", "spawn"])
def test_campaign_digest_parallel(fib_engine, threaded):
    # Workers are forked from a single-threaded process and spawned from a
    # threaded one; an idle thread selects the spawn path.
    single_threaded = threading.active_count() == 1
    idle = threading.Event()
    if threaded:
        threading.Thread(target=idle.wait, daemon=True).start()
    try:
        with ParallelExecutor(jobs=2) as pool:
            result = fib_engine.run_structure("alu", executor=pool)
            methods = {p._start_method for p in pool._processes.values()}
    finally:
        idle.set()
    if threaded:
        assert methods == {"spawn"}
    elif single_threaded:
        assert methods == {"fork"}
    assert _digest(_payload(result)) == CAMPAIGN_DIGEST


def test_campaign_digest_socket_remote(fib_engine):
    with RemoteExecutor("127.0.0.1:0", worker_wait_seconds=60.0) as remote:
        host, port = remote.address
        for _ in range(2):
            channel = transport.connect(host, port, retry_seconds=10.0)
            threading.Thread(
                target=serve,
                args=(channel,),
                kwargs={"configure_tracing": False},
                daemon=True,
            ).start()
        result = fib_engine.run_structure("alu", executor=remote)
    assert result.telemetry.count("remote_shards_completed") == 2
    assert _digest(_payload(result)) == CAMPAIGN_DIGEST


def test_spanning_digest(system, monkeypatch):
    adopted = []

    def recording_packed_golden_runs(sessions):
        packed_golden_runs(sessions)
        adopted.extend(session._golden is not None for session in sessions)

    monkeypatch.setattr(
        campaign, "packed_golden_runs", recording_packed_golden_runs
    )
    engines = [
        DelayAVFEngine(system, load_benchmark(name), CAMPAIGN_CONFIG)
        for name in ("libfibcall", "libstrstr")
    ]
    results = run_structures_spanning([(engine, ("alu",)) for engine in engines])
    # Both golden runs came from one shared packed word.
    assert adopted == [True, True]
    assert _digest([_payload(r["alu"]) for r in results]) == SPANNING_DIGEST
