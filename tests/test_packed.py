"""Lane-parallel (packed) simulation: lane k of an N-lane word equals a
one-lane run of the same simulator, and packed GroupACE equals its oracle."""

import random

import numpy as np
import pytest

from helpers import ScriptedEnv, naive_settle, random_circuit
from repro.core.campaign import CampaignConfig, DelayAVFEngine
from repro.core.group_ace import GroupAceAnalyzer
from repro.netlist.cells import CellKind, cell_input_count, eval_cell, eval_cell_array
from repro.netlist.netlist import Netlist
from repro.netlist.validate import validate
from repro.sim.cyclesim import MAX_LANES, CycleSimulator


@pytest.mark.parametrize("kind", list(CellKind))
def test_masked_eval_is_per_plane(kind):
    """Every bit-plane of the masked evaluation equals a scalar evaluation."""
    rng = np.random.default_rng(42)
    arity = cell_input_count(kind)
    inputs = [rng.integers(0, 256, size=32, dtype=np.uint8) for _ in range(arity)]
    packed = eval_cell_array(kind, *inputs, mask=0xFF)
    for lane in range(8):
        lane_inputs = [(arr >> lane) & 1 for arr in inputs]
        scalar = eval_cell_array(kind, *lane_inputs)
        assert np.array_equal((packed >> lane) & 1, scalar), (kind, lane)


@pytest.mark.parametrize("lanes", [1, 3, 11, MAX_LANES])
def test_port_packing_matches_per_bit_reference(lanes):
    """Every lane's input words go in, and its output words come out, bit
    by bit as the naive fixed-point evaluator settles that lane alone —
    with lanes disagreeing on every input port."""
    rng = random.Random(lanes)
    nl = Netlist()
    inputs = {"a": nl.add_input("a", 5), "b": nl.add_input("b", 1),
              "c": nl.add_input("c", 3)}
    pool = [net for nets in inputs.values() for net in nets]
    kinds = [CellKind.AND2, CellKind.OR2, CellKind.XOR2, CellKind.NOT,
             CellKind.MUX2]
    for _ in range(30):
        kind = rng.choice(kinds)
        ins = [rng.choice(pool) for _ in range(cell_input_count(kind))]
        pool.append(nl.add_cell(kind, ins))
    nl.add_output("x", [rng.choice(pool) for _ in range(7)])
    nl.add_output("y", [rng.choice(pool)])
    validate(nl)
    nl.freeze()
    words = [
        {name: rng.randrange(1 << len(nets)) for name, nets in inputs.items()}
        for _ in range(lanes)
    ]
    envs = [ScriptedEnv([lane_words]) for lane_words in words]
    sim = CycleSimulator(nl)
    sim.load_reset(envs)
    sim.step()
    for lane_words, env in zip(words, envs):
        state = {
            net: (lane_words[name] >> bit) & 1
            for name, nets in inputs.items()
            for bit, net in enumerate(nets)
        }
        settled = naive_settle(nl, state)
        expected = {
            name: sum(settled[net] << bit for bit, net in enumerate(nets))
            for name, nets in nl.output_ports.items()
        }
        assert env.seen_outputs == [expected]


def _run_scalar(nl, script, cycles, overrides=None, override_at=None):
    sim = CycleSimulator(nl)
    env = ScriptedEnv(script)
    sim.reset(env)
    states = []
    for cycle in range(cycles):
        if override_at is not None and cycle == override_at:
            sim.override_dffs(overrides)
        states.append(sim.dff_values.copy())
        sim.step()
    return states


@pytest.mark.parametrize("seed", range(4))
def test_packed_lanes_match_scalar_runs(seed):
    """Each lane, with its own injected flips, tracks its one-lane run."""
    nl = random_circuit(seed, num_inputs=5, num_gates=60, num_dffs=8)
    script = [{"in": (i * 11 + seed) & 0x1F} for i in range(15)]
    lane_overrides = [
        {k % 8: (k + seed) & 1 for k in range(lane + 1)}
        for lane in range(MAX_LANES)
    ]
    # One-lane reference runs.
    scalar_states = [
        _run_scalar(nl, script, 12, overrides, override_at=0)
        for overrides in lane_overrides
    ]
    # Packed run with all lanes at once.
    sim = CycleSimulator(nl)
    env = ScriptedEnv(script)
    sim.reset(env)
    checkpoint = sim.checkpoint()
    psim = CycleSimulator(nl)
    psim.load_lanes([(checkpoint, ScriptedEnv(script)) for _ in range(MAX_LANES)])
    for lane, overrides in enumerate(lane_overrides):
        psim.override_dffs(overrides, lane)
    for cycle in range(12):
        for lane in range(MAX_LANES):
            assert np.array_equal(
                psim.lane_dff_values(lane), scalar_states[lane][cycle]
            ), (seed, lane, cycle)
        psim.step()


def test_lane_fingerprint_matches_scalar(system, strstr_program):
    golden = system.run_program(
        strstr_program, max_cycles=2000, checkpoint_cycles=[40],
        record_fingerprints=True,
    )
    checkpoint = golden.checkpoints[40]
    # A clean (no-override) lane must reproduce the golden fingerprints.
    psim = system.simulator()
    psim.load_lanes(
        [(checkpoint, system.make_env(strstr_program)) for _ in range(3)]
    )
    for cycle in range(40, 60):
        for lane in range(3):
            assert psim.fingerprint(lane) == golden.fingerprints[cycle]
        psim.step()


def test_lane_count_validation(system, strstr_program):
    golden = system.run_program(
        strstr_program, max_cycles=500, checkpoint_cycles=[10],
    )
    psim = system.simulator()
    checkpoint = golden.checkpoints[10]
    with pytest.raises(ValueError, match="lanes"):
        psim.load_lanes([])
    with pytest.raises(ValueError, match="lanes"):
        psim.load_lanes(
            [(checkpoint, system.make_env(strstr_program))] * (MAX_LANES + 1)
        )


def test_batched_group_ace_matches_scalar(system, strstr_program):
    """prefetch() must fill the cache with exactly the scalar outcomes."""
    golden = system.run_program(
        strstr_program, max_cycles=2000, checkpoint_cycles=[60, 200],
        record_fingerprints=True,
    )
    live = [
        d.index for d in system.netlist.dffs
        if d.name.startswith(("core.regfile.x9[", "core.regfile.x10[",
                              "core.prefetch.e0_instr[", "core.lsu.addr_q["))
    ]
    for cycle in (60, 200):
        checkpoint = golden.checkpoints[cycle]
        sets = []
        for k in range(11):
            bits = live[k * 3 : k * 3 + (1 + k % 3)]
            sets.append(
                {b: int(checkpoint.dff_values[b]) ^ 1 for b in bits}
            )
        scalar = GroupAceAnalyzer(system, strstr_program, golden, 500)
        batched = GroupAceAnalyzer(system, strstr_program, golden, 500)
        batched.prefetch(checkpoint, sets, at_next_boundary=True, lanes=8)
        for overrides in sets:
            expected = scalar.outcome_of_state_errors(checkpoint, overrides)
            # The batched analyzer must answer from cache with the same value.
            runs_before = batched.stats.runs
            actual = batched.outcome_of_state_errors(checkpoint, overrides)
            assert batched.stats.runs == runs_before, "cache miss after prefetch"
            assert actual is expected, overrides


def test_savf_batched_equals_scalar(system, strstr_program):
    """sAVF with lane-parallel prefetching equals the scalar estimate."""
    from repro.core.savf import SAVFEngine

    base = dict(cycle_count=3, margin_cycles=400, seed=2)
    results = []
    for lanes in (1, 8):
        engine = DelayAVFEngine(
            system, strstr_program, CampaignConfig(lanes=lanes, **base)
        )
        results.append(
            SAVFEngine(engine.session).run_structure("lsu", max_bits=20, seed=2)
        )
    scalar, batched = results
    assert scalar == batched


def test_campaign_batched_equals_scalar(system, strstr_program):
    """End-to-end: batched and scalar campaigns produce identical records."""
    base = dict(
        cycle_count=3, max_wires=10, delay_fractions=(0.7, 0.9),
        margin_cycles=400, seed=5,
    )
    scalar_engine = DelayAVFEngine(
        system, strstr_program, CampaignConfig(lanes=1, **base)
    )
    batched_engine = DelayAVFEngine(
        system, strstr_program, CampaignConfig(lanes=8, **base)
    )
    for structure in ("alu", "lsu"):
        scalar_result = scalar_engine.run_structure(structure)
        batched_result = batched_engine.run_structure(structure)
        for delay in (0.7, 0.9):
            assert (
                scalar_result.by_delay[delay].records
                == batched_result.by_delay[delay].records
            ), (structure, delay)
