"""Durable campaign execution: resume, throttled flushes, fault knobs.

Worker faults (crash, hang, raise) and their recovery are tested where the
one fault-tolerant executor lives, in ``test_distrib.py``.  The acceptance
bar here is the same: a resumed or recovered campaign's records are
byte-identical to a clean serial run — only telemetry and the ``degraded``
flag may differ.
"""

import dataclasses
import json

import pytest

from repro.core.cache import (
    VerdictCache,
    compute_payload_sha256,
    record_key,
    record_to_payload,
    shard_key,
)
from repro.core.campaign import CampaignConfig, DelayAVFEngine
from repro.core.executor import SerialExecutor, SessionSpec, execute_shard
from repro.core.group_ace import Outcome
from repro.core.plan import build_plan
from repro.soc.system import build_system
from repro.workloads.beebs import load_benchmark

#: Small but real: 3 shards x 8 wires x 2 delays on the shortest benchmark.
FAULT_CONFIG = CampaignConfig(
    cycle_count=3, max_wires=8, delay_fractions=(0.5, 0.9), margin_cycles=400
)


def _fibcall_spec(config=FAULT_CONFIG) -> SessionSpec:
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
    """The clean serial reference every recovered run must reproduce."""
    return fib_engine.run_structure("alu", executor=SerialExecutor())


# ----------------------------------------------------------------------
# Resume: interrupted campaigns pick up from the last completed shard
# ----------------------------------------------------------------------
RESUME_CONFIG = CampaignConfig(
    cycle_count=4, max_wires=6, delay_fractions=(0.9,), margin_cycles=600
)


def _cached(config, tmp_path):
    return dataclasses.replace(config, cache_dir=str(tmp_path))


def test_resume_skips_completed_shards(tmp_path, system, strstr_program):
    config = _cached(RESUME_CONFIG, tmp_path)
    interrupted = DelayAVFEngine(system, strstr_program, config)
    plan = build_plan(
        "alu", strstr_program.name, system.structure_wires("alu"),
        interrupted.session.sampled_cycles, config,
    )
    # Simulate an interrupt after two shards: execute them (which puts their
    # records and marks them complete), flush, and abandon the engine.
    for shard in plan.shards[:2]:
        execute_shard(interrupted.session, plan, shard)
    interrupted.verdict_cache.flush()

    resumed = DelayAVFEngine(system, strstr_program, config)
    result = resumed.run_structure("alu", resume=True)
    assert result.telemetry.count("shards_resumed") == 2
    # Resumed shards bypass even the per-record cache machinery.
    assert result.telemetry.count("record_cache_hits") == 0

    clean = DelayAVFEngine(system, strstr_program, RESUME_CONFIG).run_structure("alu")
    assert result == clean
    assert result.by_delay[0.9].records == clean.by_delay[0.9].records
    assert not result.degraded

    # A finished campaign resumes entirely from the store: no simulation.
    rerun = DelayAVFEngine(system, strstr_program, config)
    full = rerun.run_structure("alu", resume=True)
    assert full == clean
    assert full.telemetry.count("shards_resumed") == len(plan.shards)
    assert full.telemetry.count("waveforms_built") == 0


def test_resume_requires_complete_records(tmp_path, system, strstr_program):
    """A completion mark whose records were lost silently re-executes."""
    config = _cached(RESUME_CONFIG, tmp_path)
    engine = DelayAVFEngine(system, strstr_program, config)
    first = engine.run_structure("alu")
    engine.close()

    # Drop one record straight from the store file (flush() would merge the
    # on-disk state back under and resurrect it).
    cache = VerdictCache.open(tmp_path, system.netlist, strstr_program, config)
    victim = first.by_delay[0.9].records[0]
    key = record_key(
        "alu", victim.cycle, victim.wire_index, 0.9, True, system.clock_period
    )
    payload = json.loads(cache.path.read_text())
    assert payload["records"].pop(key) is not None
    # Re-sign the edited payload: this simulates a record that was genuinely
    # lost (never written), not file corruption — which would be quarantined.
    payload["payload_sha256"] = compute_payload_sha256(payload)
    cache.path.write_text(json.dumps(payload))

    resumed = DelayAVFEngine(system, strstr_program, config)
    result = resumed.run_structure("alu", resume=True)
    assert result == first
    # Every shard but the damaged one resumed; the damaged one re-ran.
    assert result.telemetry.count("shards_resumed") == RESUME_CONFIG.cycle_count - 1


def test_resume_off_by_default(tmp_path, system, strstr_program):
    config = _cached(RESUME_CONFIG, tmp_path)
    DelayAVFEngine(system, strstr_program, config).run_structure("alu")
    warm = DelayAVFEngine(system, strstr_program, config)
    result = warm.run_structure("alu")
    assert result.telemetry.count("shards_resumed") == 0
    # The record cache still serves everything — resume is an optimization
    # on top, not a correctness requirement.
    assert result.telemetry.count("record_cache_hits") == sum(
        r.samples for r in result.by_delay.values()
    )


def test_truncated_cache_file_recovers_cold(tmp_path, system, strstr_program):
    """A torn write (crash mid-flush) must load as a cold scope, not error."""
    config = _cached(RESUME_CONFIG, tmp_path)
    engine = DelayAVFEngine(system, strstr_program, config)
    reference = engine.run_structure("alu")
    path = engine.verdict_cache.path
    engine.close()

    data = path.read_text()
    path.write_text(data[: len(data) // 2])

    recovered = DelayAVFEngine(system, strstr_program, config)
    result = recovered.run_structure("alu", resume=True)
    assert result == reference
    assert result.telemetry.count("shards_resumed") == 0


# ----------------------------------------------------------------------
# Throttled incremental flushes
# ----------------------------------------------------------------------
def test_flush_throttled_by_count_and_age(tmp_path):
    cache = VerdictCache(tmp_path, "scope")
    cache.put_verdict("1|1|0:1", Outcome.SDC)
    assert not cache.flush_throttled(every_n=3, max_seconds=3600)
    assert not cache.flush_throttled(every_n=3, max_seconds=3600)
    assert not cache.path.exists()
    assert cache.flush_throttled(every_n=3, max_seconds=3600)
    assert cache.path.exists()
    # Clean cache: nothing to do however often it is called.
    assert not cache.flush_throttled(every_n=1, max_seconds=0.0)
    # Age trigger: a dirty cache past max_seconds flushes immediately.
    cache.put_verdict("2|1|0:1", Outcome.MASKED)
    assert cache.flush_throttled(every_n=100, max_seconds=0.0)
    reread = VerdictCache(tmp_path, "scope")
    assert reread.get_verdict("2|1|0:1") is Outcome.MASKED


def test_throttled_workers_lose_no_records(tmp_path):
    """Even with mid-run flushes throttled off, the store ends complete."""
    config = dataclasses.replace(
        FAULT_CONFIG, jobs=2, cache_dir=str(tmp_path),
        flush_every_shards=10_000, flush_max_seconds=3600.0,
    )
    engine = DelayAVFEngine.from_spec(_fibcall_spec(config))
    result = engine.run_structure("alu")
    engine.close()

    cache = VerdictCache.open(
        tmp_path, engine.system.netlist, engine.program, config
    )
    clock = engine.system.clock_period
    for delay, delay_result in result.by_delay.items():
        for record in delay_result.records:
            key = record_key("alu", record.cycle, record.wire_index, delay,
                             True, clock)
            assert cache.get_record(key) == record_to_payload(record)
    for cycle in result.sampled_cycles:
        shard = next(
            s for s in build_plan(
                "alu", engine.program.name,
                engine.system.structure_wires("alu"),
                engine.session.sampled_cycles, config,
            ).shards
            if s.cycle == cycle
        )
        assert cache.shard_complete(
            shard_key("alu", shard.cycle, shard.wire_indices,
                      shard.delay_fractions, True, clock)
        )


# ----------------------------------------------------------------------
# Config plumbing for the fault-tolerance knobs
# ----------------------------------------------------------------------
def test_config_validates_fault_knobs():
    with pytest.raises(ValueError, match="shard_timeout"):
        CampaignConfig(shard_timeout=0)
    with pytest.raises(ValueError, match="max_retries"):
        CampaignConfig(max_retries=-1)
    with pytest.raises(ValueError, match="retry_backoff"):
        CampaignConfig(retry_backoff=-0.1)
    with pytest.raises(ValueError, match="flush_every_shards"):
        CampaignConfig(flush_every_shards=0)
    with pytest.raises(ValueError, match="flush_max_seconds"):
        CampaignConfig(flush_max_seconds=-1.0)


def test_config_from_cli_args_fault_knobs():
    import argparse

    args = argparse.Namespace(shard_timeout=12.5, max_retries=5, resume=True)
    config = CampaignConfig.from_cli_args(args)
    assert config.shard_timeout == 12.5
    assert config.max_retries == 5
    assert config.resume is True
    # Absent flags fall back to defaults.
    bare = CampaignConfig.from_cli_args(argparse.Namespace())
    assert bare == CampaignConfig()


def test_cli_parser_accepts_fault_flags():
    from repro.cli import build_parser

    args = build_parser().parse_args([
        "delayavf", "md5", "alu",
        "--resume", "--shard-timeout", "30", "--max-retries", "4",
    ])
    assert args.resume is True
    assert args.shard_timeout == 30.0
    assert args.max_retries == 4


def test_cli_resume_round_trip(tmp_path, capsys):
    from repro.cli import main

    base = [
        "delayavf", "libstrstr", "lsu",
        "--delays", "0.9", "--wires", "3", "--cycles", "2",
        "--cache-dir", str(tmp_path), "--format", "json",
    ]
    assert main(base) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["result"]["degraded"] is False
    assert main(base + ["--resume"]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second == first


# ----------------------------------------------------------------------
# Degraded flag round-trips through the JSON payload
# ----------------------------------------------------------------------
def test_degraded_flag_round_trips(clean_result):
    from repro.core.results import StructureCampaignResult

    flagged = dataclasses.replace(clean_result, degraded=True)
    assert flagged == clean_result  # execution metadata: never in equality
    payload = flagged.to_payload()
    assert payload["schema"] == "repro/v1"
    assert payload["result"]["degraded"] is True
    rebuilt = StructureCampaignResult.from_payload(payload)
    assert rebuilt.degraded is True
    assert rebuilt.to_payload() == payload
