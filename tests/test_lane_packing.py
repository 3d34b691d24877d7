"""Word-packed cone passes: bit-exact with the scalar event simulator.

The packed cone pass (``EventSimulator._cone_pass``) evaluates every cell
where two or more lanes are dirty once per merged event word instead of once
per lane.  These tests pin the exactness contract: at every lane width the
batched path must reproduce the scalar ``resimulate`` errors dicts —
including transport-delay glitch cases — and lone-lane scalar fallbacks must
be counted in telemetry without changing any verdict.
"""

import random

import numpy as np
import pytest

from helpers import ScriptedEnv, random_circuit
from repro.core.campaign import CampaignConfig, DelayAVFEngine
from repro.sim.cyclesim import CycleSimulator
from repro.sim.eventsim import MAX_LANES, EventSimulator
from repro.sim.levelize import PROGRAM_CACHE_CAP, levelize
from repro.timing.liberty import NANGATE45ISH
from repro.timing.sta import StaticTiming


def _setup(seed):
    nl = random_circuit(seed)
    sta = StaticTiming(nl, NANGATE45ISH)
    return nl, sta, EventSimulator(nl, sta), CycleSimulator(nl)


def _cycle_waves(nl, ev, sim, seed, cycles=3):
    """Run a few cycles and return the checkpoint waveforms of the last."""
    env = ScriptedEnv([{"in": (i * 13 + seed) & 0x3F} for i in range(cycles + 2)])
    sim.reset(env)
    for _ in range(cycles):
        sim.step()
    ckpt = sim.checkpoint()
    return ev.simulate_cycle(ckpt.prev_settled, ckpt.dff_values, ckpt.input_values)


def _all_injections(nl, sta, waves, fractions=(0.1, 0.3, 0.5, 0.7, 0.9)):
    period = sta.clock_period
    return [
        (wire, fraction * period)
        for wire in nl.all_wires()
        if wire.net in waves.changes
        for fraction in fractions
    ]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("lanes", (1, 8, 63, 64))
def test_packed_batch_matches_scalar_at_every_width(seed, lanes):
    """errors dicts are bit-identical to scalar resimulate at any width."""
    nl, sta, ev, sim = _setup(seed)
    waves = _cycle_waves(nl, ev, sim, seed)
    injections = _all_injections(nl, sta, waves)
    assert injections, "fixture circuit produced no toggling wires"
    batched = ev.resimulate_batch(waves, injections, lanes=lanes)
    oracle = EventSimulator(nl, sta)
    for (wire, extra), errors in zip(injections, batched):
        assert errors == oracle.resimulate(waves, wire, extra), (
            seed, lanes, wire, extra,
        )
    if lanes == 1:
        # Width 1 never packs: every cone-pass lane takes the scalar kernel.
        assert ev.packed_cone_words == 0
        assert ev.packed_scalar_lanes > 0
    else:
        assert ev.packed_cone_words > 0
        assert ev.packed_cone_lanes >= 2 * ev.packed_cone_words
        assert ev.packed_cone_lane_slots >= ev.packed_cone_lanes


@pytest.mark.parametrize("seed", range(3))
def test_random_lane_subsets_match_scalar(seed):
    """Random injection subsets (random lane masks / group shapes) stay exact."""
    nl, sta, ev, sim = _setup(seed + 10)
    waves = _cycle_waves(nl, ev, sim, seed + 10)
    pool = _all_injections(nl, sta, waves)
    rng = random.Random(seed)
    oracle = EventSimulator(nl, sta)
    for trial in range(5):
        sample = rng.sample(pool, rng.randint(1, min(40, len(pool))))
        rng.shuffle(sample)
        width = rng.choice((2, 3, 8, 17, 64))
        batched = ev.resimulate_batch(waves, sample, lanes=width)
        for (wire, extra), errors in zip(sample, batched):
            assert errors == oracle.resimulate(waves, wire, extra), (
                seed, trial, width, wire, extra,
            )


@pytest.mark.parametrize("seed", range(2))
def test_scalar_fallback_lanes_are_counted_and_exact(seed):
    """A lone injection packs nothing, is counted, and is still bit-exact."""
    nl, sta, ev, sim = _setup(seed + 20)
    waves = _cycle_waves(nl, ev, sim, seed + 20)
    injections = _all_injections(nl, sta, waves, fractions=(0.9,))
    wire, extra = injections[len(injections) // 2]
    before = ev.packed_scalar_lanes
    [errors] = ev.resimulate_batch(waves, [(wire, extra)])
    # A single-lane group can never pack a word; every dirty cell goes
    # through the (counted) scalar kernel.
    assert ev.packed_cone_words == 0
    assert ev.packed_scalar_lanes > before
    assert errors == EventSimulator(nl, sta).resimulate(waves, wire, extra)


def test_resimulate_batch_rejects_bad_widths():
    nl, sta, ev, sim = _setup(0)
    waves = _cycle_waves(nl, ev, sim, 0)
    for bad in (0, -1, MAX_LANES + 1):
        with pytest.raises(ValueError, match="lanes"):
            ev.resimulate_batch(waves, [], lanes=bad)


def test_group_ace_prefetch_rejects_bad_widths(system, strstr_program):
    from repro.core.group_ace import GroupAceAnalyzer

    golden = system.run_program(
        strstr_program, max_cycles=500, checkpoint_cycles=[10],
        record_fingerprints=True,
    )
    analyzer = GroupAceAnalyzer(system, strstr_program, golden, 100)
    checkpoint = golden.checkpoints[10]
    for bad in (0, -3, 65):
        with pytest.raises(ValueError, match="lanes"):
            analyzer.prefetch(checkpoint, [{0: 1}], lanes=bad)


def test_program_cache_is_bounded_and_dtype_keyed():
    """(dtype, mask) keying + LRU bound on the fused step program cache."""
    nl = random_circuit(3)
    plan = levelize(nl)
    values8 = np.zeros(nl.num_nets, dtype=np.uint8)
    values64 = np.zeros(nl.num_nets, dtype=np.uint64)
    plan.evaluate(values8, mask=1)
    plan.evaluate(values64, mask=1)
    # Same mask, different dtype: two distinct compiled programs.
    assert plan.program_cache_size == 2
    # Evaluation through a widened program stays bit-exact per plane.
    ref8 = np.zeros(nl.num_nets, dtype=np.uint8)
    plan.evaluate_reference(ref8, mask=1)
    assert np.array_equal(values8, ref8)
    assert np.array_equal(values64.astype(np.uint8), ref8)
    # Mask diversity beyond the cap evicts LRU entries instead of leaking.
    for lanes in range(1, PROGRAM_CACHE_CAP + 10):
        plan.evaluate(values64, mask=(1 << lanes) - 1)
    assert plan.program_cache_size <= PROGRAM_CACHE_CAP
    assert plan.program_cache_evictions > 0


def test_packed_uint64_settle_matches_reference():
    """64-lane fused evaluation equals the per-kind oracle on every plane."""
    rng = np.random.default_rng(7)
    nl = random_circuit(11)
    plan = levelize(nl)
    mask = (1 << 64) - 1
    values = rng.integers(0, 1 << 63, size=nl.num_nets, dtype=np.uint64)
    values |= values << 1  # spread entropy into high planes too
    values[0] = 0
    values[1] = mask
    ref = values.copy()
    plan.evaluate(values, mask=mask)
    plan.evaluate_reference(ref, mask=mask)
    assert np.array_equal(values, ref)


def test_campaign_records_identical_across_lane_widths(system, strstr_program):
    """End-to-end acceptance: verdicts bit-identical at widths 1 / 8 / 64."""
    base = dict(
        cycle_count=3, max_wires=10, delay_fractions=(0.7, 0.9),
        margin_cycles=400, seed=5, stats=True,
    )
    results = {}
    for lanes in (1, 8, 64):
        engine = DelayAVFEngine(
            system, strstr_program, CampaignConfig(lanes=lanes, **base)
        )
        results[lanes] = engine.run_structure("alu")
    for delay in (0.7, 0.9):
        assert (
            results[1].by_delay[delay].records
            == results[8].by_delay[delay].records
            == results[64].by_delay[delay].records
        ), delay
    # The packed width actually engaged and its occupancy is observable.
    telemetry = results[64].telemetry
    assert telemetry.count("packed_cone_lanes") > 0
    occupancy = telemetry.ratios()["packed_lane_occupancy"]
    assert 0.0 < occupancy <= 1.0
    assert results[1].telemetry.count("packed_cone_words") == 0


def test_run_structures_matches_sequential_campaigns(system, strstr_program):
    """Cross-structure spanning produces byte-identical per-campaign records.

    ``run_structures`` shares one packed prefetch across every structure of
    the benchmark; the records must match sequential ``run_structure`` calls
    exactly, and with packing disabled the group call must transparently
    fall back to the sequential path.
    """
    base = dict(
        cycle_count=3, max_wires=8, delay_fractions=(0.7, 0.9),
        margin_cycles=400, seed=5,
    )
    structures = ("alu", "decoder", "regfile")
    sequential = {}
    engine_seq = DelayAVFEngine(
        system, strstr_program, CampaignConfig(lanes=64, **base)
    )
    for structure in structures:
        sequential[structure] = engine_seq.run_structure(structure)
    engine_grp = DelayAVFEngine(
        system, strstr_program, CampaignConfig(lanes=64, **base)
    )
    grouped = engine_grp.run_structures(structures)
    engine_scalar = DelayAVFEngine(
        system, strstr_program, CampaignConfig(lanes=1, **base)
    )
    scalar = engine_scalar.run_structures(structures)
    assert set(grouped) == set(structures) == set(scalar)
    for structure in structures:
        for delay in (0.7, 0.9):
            assert (
                grouped[structure].by_delay[delay].records
                == sequential[structure].by_delay[delay].records
                == scalar[structure].by_delay[delay].records
            ), (structure, delay)


def test_packed_golden_runs_match_scalar(system, strstr_program):
    """Packed golden runs are bit-identical to one-lane instrumented runs.

    Two workloads' golden runs ride one packed word; each lane's RunResult
    (fingerprints every cycle, checkpoints including ``prev_settled``,
    observables) must equal the one-lane ``session.golden``.
    """
    from repro.core.campaign import packed_golden_runs
    from repro.workloads.beebs import load_benchmark

    fib_program = load_benchmark("libfibcall")
    programs = (("strstr", strstr_program), ("fib", fib_program))
    base = dict(cycle_count=3, margin_cycles=400, seed=1)
    scalar_runs = {}
    for name, program in programs:
        engine = DelayAVFEngine(system, program, CampaignConfig(**base))
        scalar_runs[name] = engine.session.golden  # memoizes the length
    packed_engines = {
        name: DelayAVFEngine(system, program, CampaignConfig(**base))
        for name, program in programs
    }
    packed_golden_runs([e.session for e in packed_engines.values()])
    for name, engine in packed_engines.items():
        packed = engine.session._golden
        assert packed is not None, name  # adopted, not lazily recomputed
        ref = scalar_runs[name]
        assert packed.cycles == ref.cycles
        assert packed.halted and ref.halted
        assert packed.observables == ref.observables
        assert packed.fingerprints == ref.fingerprints
        assert set(packed.checkpoints) == set(ref.checkpoints)
        for cycle, want in ref.checkpoints.items():
            got = packed.checkpoints[cycle]
            assert got.cycle == want.cycle
            assert np.array_equal(got.dff_values, want.dff_values)
            assert got.input_values == want.input_values
            assert np.array_equal(got.prev_settled, want.prev_settled)


def test_run_structures_spanning_across_workloads(system, strstr_program):
    """Lanes from different *workloads* pack together, records unchanged.

    Two engines for different programs share one netlist; the spanning
    runner resolves both engines' campaigns through shared packed words.
    Every record must match the engines' own sequential campaigns.
    """
    from repro.core.campaign import run_structures_spanning
    from repro.workloads.beebs import load_benchmark

    fib_program = load_benchmark("libfibcall")
    base = dict(
        cycle_count=2, max_wires=6, delay_fractions=(0.9,),
        margin_cycles=400, seed=3,
    )
    structures = ("alu", "decoder")
    expected = {}
    for name, program in (("strstr", strstr_program), ("fib", fib_program)):
        eng = DelayAVFEngine(
            system, program, CampaignConfig(lanes=64, **base)
        )
        expected[name] = {s: eng.run_structure(s) for s in structures}
    engines = {
        "strstr": DelayAVFEngine(
            system, strstr_program, CampaignConfig(lanes=64, **base)
        ),
        "fib": DelayAVFEngine(
            system, fib_program, CampaignConfig(lanes=64, **base)
        ),
    }
    spanned = run_structures_spanning(
        [(engines["strstr"], structures), (engines["fib"], structures)]
    )
    for name, by_structure in zip(("strstr", "fib"), spanned):
        for structure in structures:
            assert (
                by_structure[structure].by_delay[0.9].records
                == expected[name][structure].by_delay[0.9].records
            ), (name, structure)


def test_merged_spanning_telemetry_renders_occupancy_from_counters(
    system, strstr_program
):
    """Lane occupancy is derived from the merged counters, never stored.

    The telemetry of every campaign of a two-engine spanning run is merged
    (as ``--stats`` does across a figure's campaigns); both occupancy
    ratios in the rendered block and the metrics payload must equal their
    numerator counter over their denominator counter.
    """
    from repro.analysis.report import render_telemetry
    from repro.core.campaign import run_structures_spanning
    from repro.core.metrics import metrics_payload
    from repro.core.telemetry import CampaignTelemetry
    from repro.workloads.beebs import load_benchmark

    base = dict(
        cycle_count=5, max_wires=16, delay_fractions=(0.7, 0.9),
        margin_cycles=400, seed=3, lanes=64,
    )
    engines = [
        DelayAVFEngine(system, program, CampaignConfig(**base))
        for program in (strstr_program, load_benchmark("libfibcall"))
    ]
    spanned = run_structures_spanning(
        [(engine, ("alu", "regfile", "lsu")) for engine in engines]
    )
    merged = CampaignTelemetry()
    for by_structure in spanned:
        for result in by_structure.values():
            merged.merge(result.telemetry)
    expected = {
        "group_ace_lane_occupancy": (
            merged.count("lanes_filled") / merged.count("lane_slots")
        ),
        "packed_lane_occupancy": (
            merged.count("packed_cone_lanes")
            / merged.count("packed_cone_lane_slots")
        ),
    }
    assert not set(expected) & set(merged.gauges)
    assert merged.ratios() == expected
    assert metrics_payload(merged)["ratios"] == expected
    rendered = dict(
        line.split() for line in render_telemetry(merged).splitlines()
        if line.split()[0] in expected
    )
    assert {name: float(text) for name, text in rendered.items()} == (
        pytest.approx(expected, rel=1e-5)
    )
