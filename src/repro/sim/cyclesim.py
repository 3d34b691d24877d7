"""Timing-agnostic (zero-delay) cycle simulator.

This is the repo's stand-in for the Verilator stage of the paper's flow: a
2-state, cycle-accurate simulator used for

- the fault-free *golden* run of a workload (recording per-cycle state
  fingerprints, checkpoints at sampled cycles, and the program-visible
  output), and
- *GroupACE* runs, which resume from a checkpoint, overwrite the state
  elements in a dynamically reachable set with their erroneous latched
  values, and compare the resulting program-visible behaviour against the
  golden run.

The circuit interacts with behavioural components (memories, the halt/output
protocol) through an :class:`Environment`: output ports are sampled after the
combinational logic settles and the environment produces the values driven
into the input ports for the *next* cycle — i.e. every external interface is
register-latched, so a delay fault can only ever corrupt DFFs (the paper's
state-element error model).

Runs are *lane-packed* (classic parallel fault simulation): golden runs of
different workloads and GroupACE re-runs share one netlist and differ only
in state and environment, so up to :data:`MAX_LANES` of them ride the
bit-planes of the value arrays and one :meth:`EvalPlan.evaluate` pass
settles them all (inversions become XOR-with-mask, everything else is
already bitwise).  The word width follows the lane count: up to 8 lanes in
uint8 arrays, anything wider in uint64.  Each lane keeps its own
environment, input-port values, cycle counter and fingerprint.  One lane is
the scalar case, and lane *k* of an N-lane word is bit-exact with a
one-lane run of the same inputs — the equivalence the test suite asserts.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netlist.netlist import Netlist
from repro.sim.levelize import EvalPlan, levelize

#: Bit-planes available in a uint64 value array.
MAX_LANES = 64


class Environment(abc.ABC):
    """Behavioural components surrounding the netlist (memories, MMIO).

    The simulator calls :meth:`step` once per cycle with the sampled output
    port values; the returned dict provides the input-port values for the
    next cycle.  Implementations must support snapshot/restore (for
    checkpointing) and expose an incremental *fingerprint* so that state
    convergence between an injected run and the golden run can be detected
    cheaply.
    """

    @abc.abstractmethod
    def reset(self) -> Dict[str, int]:
        """Reset internal state; return initial input-port values."""

    @abc.abstractmethod
    def step(self, outputs: Dict[str, int], cycle: int) -> Dict[str, int]:
        """React to this cycle's sampled outputs; return next inputs."""

    @abc.abstractmethod
    def snapshot(self) -> Any:
        """Return an opaque deep snapshot of the environment state."""

    @abc.abstractmethod
    def restore(self, snap: Any) -> None:
        """Restore a snapshot previously produced by :meth:`snapshot`."""

    @abc.abstractmethod
    def fingerprint(self) -> int:
        """A value that is equal iff the environment state is equal (w.h.p.)."""

    @abc.abstractmethod
    def observables(self) -> Tuple[Any, ...]:
        """The program-visible output produced so far (stores, halt, traps)."""

    @abc.abstractmethod
    def halted(self) -> bool:
        """Whether the program has signalled completion (or a trap)."""


@dataclass
class Checkpoint:
    """Everything needed to resume at — and event-simulate — cycle ``cycle``."""

    cycle: int
    dff_values: np.ndarray  #: Q values at the start of the cycle
    input_values: Dict[str, int]  #: input-port values during the cycle
    env_snapshot: Any
    prev_settled: np.ndarray  #: settled net values of the previous cycle


@dataclass
class RunResult:
    """Outcome of a (golden or injected) simulation run."""

    cycles: int
    halted: bool
    observables: Tuple[Any, ...]
    fingerprints: List[int] = field(default_factory=list)
    checkpoints: Dict[int, Checkpoint] = field(default_factory=dict)


def _flatten_ports(
    ports: Dict[str, Sequence[int]]
) -> Tuple[List[str], np.ndarray, np.ndarray, np.ndarray]:
    """Port names plus, per port net: net id, owning port index, bit index."""
    names = list(ports)
    nets = [net for name in names for net in ports[name]]
    owner = [index for index, name in enumerate(names) for _ in ports[name]]
    bit = [position for name in names for position in range(len(ports[name]))]
    return (
        names,
        np.array(nets, dtype=np.int64),
        np.array(owner, dtype=np.int64),
        np.array(bit, dtype=np.uint64),
    )


class CycleSimulator:
    """Zero-delay cycle-accurate simulator over a frozen netlist.

    Simulates 1..:data:`MAX_LANES` runs at once, one per bit-plane of the
    value arrays.  One lane is the plain scalar case (0/1 uint8 values);
    :meth:`reset`, :meth:`restore`, :meth:`run` and the other conveniences
    drive lane 0 only.
    """

    def __init__(self, netlist: Netlist, plan: Optional[EvalPlan] = None):
        if not netlist.frozen:
            netlist.freeze()
        self.netlist = netlist
        self.plan = plan if plan is not None else levelize(netlist)
        self._q_nets = np.array([d.q for d in netlist.dffs], dtype=np.int64)
        self._d_nets = np.array([d.d for d in netlist.dffs], dtype=np.int64)
        self._init_values = np.array(
            [d.init for d in netlist.dffs], dtype=np.uint8
        )
        self._in_names, self._in_nets, in_owner, in_bit = _flatten_ports(
            netlist.input_ports
        )
        #: per input net: (port column, bit position) in the lane word matrix
        self._in_owner = in_owner
        self._in_shifts = in_bit
        self._out_names, self._out_nets, out_owner, out_bit = _flatten_ports(
            netlist.output_ports
        )
        #: (output net × port) weights: one matmul packs every port's word
        self._out_weights = np.zeros(
            (len(self._out_nets), len(self._out_names)), dtype=np.uint64
        )
        self._out_weights[np.arange(len(self._out_nets)), out_owner] = (
            np.uint64(1) << out_bit
        )
        self._set_lanes(1)
        self.values = np.zeros(netlist.num_nets, dtype=self.dtype)
        self.dff_values = self._init_values.copy()
        self.envs: List[Environment] = []
        self.lane_inputs: List[Dict[str, int]] = [{}]
        #: per-lane cycle counters — lanes loaded from different checkpoints
        #: (see :meth:`load_lanes`) advance in lock-step but live at
        #: different absolute cycles
        self.lane_cycles: List[int] = [0]

    def _set_lanes(self, lanes: int) -> None:
        if not 1 <= lanes <= MAX_LANES:
            raise ValueError(f"1..{MAX_LANES} lanes supported, got {lanes}")
        self.lanes = lanes
        self.mask = (1 << lanes) - 1
        # the narrowest word holding every plane: uint8 up to 8 lanes
        self.dtype = np.dtype(np.uint8 if lanes <= 8 else np.uint64)
        self._lane_shifts = np.arange(lanes, dtype=np.uint64)
        self._active = list(range(lanes))

    def _pack(self, planes: Sequence[np.ndarray]) -> np.ndarray:
        """Pack per-lane 0/1 arrays into one word array (lane k in bit k)."""
        first = planes[0]
        if all(plane is first for plane in planes):
            # All lanes share one array (the common case): broadcast it.
            return first.astype(self.dtype) * self.mask
        packed = np.zeros(len(first), dtype=np.uint64)
        for lane, plane in enumerate(planes):
            packed |= plane.astype(np.uint64) << np.uint64(lane)
        return packed.astype(self.dtype)

    # ------------------------------------------------------------------
    # Lane loading
    # ------------------------------------------------------------------
    def load_lanes(
        self, lanes: Sequence[Tuple[Checkpoint, Environment]]
    ) -> None:
        """Load one ``(checkpoint, environment)`` pair per lane.

        Lanes may come from *different* checkpoints — and even different
        *programs*, as long as they run on the same netlist: the zero-delay
        cycle simulation is Markovian (next state depends only on current
        state and inputs), and everything program-specific lives in the
        per-lane environment.  Each lane keeps its own environment, input
        values, and cycle counter; :meth:`step` advances them all by one
        cycle of *their own* timeline.
        """
        self._set_lanes(len(lanes))
        self.envs = [env for _, env in lanes]
        for checkpoint, env in lanes:
            env.restore(checkpoint.env_snapshot)
        checkpoints = [checkpoint for checkpoint, _ in lanes]
        self.dff_values = self._pack([c.dff_values for c in checkpoints])
        self.values = self._pack([c.prev_settled for c in checkpoints])
        self.lane_inputs = [dict(c.input_values) for c in checkpoints]
        self.lane_cycles = [c.cycle for c in checkpoints]

    def load_reset(self, envs: Sequence[Environment]) -> None:
        """Start one lane per environment from the circuit's reset state.

        Every lane begins at cycle 0 with the netlist's DFF init values and
        the input-port values its own environment's ``reset()`` returns.
        The reset state is settled, so before the first cycle each lane's
        "previous" settled values (:meth:`lane_settled_values`) are the
        reset-state settled values.
        """
        self._set_lanes(len(envs))
        self.envs = list(envs)
        self.dff_values = self._init_values.astype(self.dtype) * self.mask
        self.values = np.zeros(self.netlist.num_nets, dtype=self.dtype)
        self.lane_inputs = [dict(env.reset()) for env in self.envs]
        self.lane_cycles = [0] * self.lanes
        self._settle()

    def retire_lane(self, lane: int) -> None:
        """Stop stepping one lane's environment (its outcome is decided).

        The lane's bit-plane keeps riding along in the packed word (masking
        it out of every value array would cost more than it saves), but its
        environment is no longer stepped and its ports are no longer packed
        or unpacked — the plane's contents become don't-care garbage that no
        active lane can observe (planes are independent by construction).
        """
        if lane in self._active:
            self._active.remove(lane)

    # ------------------------------------------------------------------
    # One-lane conveniences (lane 0)
    # ------------------------------------------------------------------
    @property
    def cycle(self) -> int:
        """Absolute cycle of lane 0 (every lane, for a single-checkpoint load)."""
        return self.lane_cycles[0]

    @property
    def input_values(self) -> Dict[str, int]:
        return self.lane_inputs[0]

    @input_values.setter
    def input_values(self, values: Dict[str, int]) -> None:
        self.lane_inputs[0] = dict(values)

    @property
    def prev_settled(self) -> np.ndarray:
        """Lane 0's settled net values of the cycle before the boundary."""
        return self.lane_settled_values(0)

    def reset(self, env: Environment) -> None:
        """Reset the circuit and attach *env* as the behavioural environment."""
        self.load_reset([env])

    def restore(self, checkpoint: Checkpoint, env: Environment) -> None:
        """Resume simulation from *checkpoint* using *env*."""
        self.load_lanes([(checkpoint, env)])

    # ------------------------------------------------------------------
    # Per-lane state
    # ------------------------------------------------------------------
    def lane_dff_values(self, lane: int) -> np.ndarray:
        """One lane's DFF state as a 0/1 uint8 array."""
        return ((self.dff_values >> lane) & 1).astype(np.uint8)

    def lane_settled_values(self, lane: int) -> np.ndarray:
        """One lane's last settled net values as a 0/1 uint8 array."""
        return ((self.values >> lane) & 1).astype(np.uint8)

    def checkpoint(self, lane: int = 0) -> Checkpoint:
        """Capture a checkpoint of one lane at the start of its current cycle."""
        assert self.envs, "reset() the simulator first"
        return Checkpoint(
            cycle=self.lane_cycles[lane],
            dff_values=self.lane_dff_values(lane),
            input_values=dict(self.lane_inputs[lane]),
            env_snapshot=self.envs[lane].snapshot(),
            prev_settled=self.lane_settled_values(lane),
        )

    def override_dffs(self, overrides: Dict[int, int], lane: int = 0) -> None:
        """Overwrite one lane's DFF state bits (by DFF index) at the boundary.

        This is how GroupACE injects a dynamically reachable set: the
        overrides are the erroneous values latched at the preceding clock
        edge.
        """
        bit = 1 << lane
        keep = int(np.iinfo(self.dtype).max) ^ bit
        for index, value in overrides.items():
            if value & 1:
                self.dff_values[index] |= bit
            else:
                self.dff_values[index] &= keep

    def fingerprint(self, lane: int = 0) -> int:
        """Fingerprint of one lane's full system state at the boundary."""
        # One lane's words are its 0/1 bits already (the golden run's path).
        dffs = self.dff_values if self.lanes == 1 else self.lane_dff_values(lane)
        inputs_key = tuple(sorted(self.lane_inputs[lane].items()))
        return hash((dffs.tobytes(), inputs_key, self.envs[lane].fingerprint()))

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _settle(self) -> None:
        values = self.values
        values[0] = 0
        values[1] = self.mask
        values[self._q_nets] = self.dff_values
        # One (active lane × input port) word matrix, unpacked to bits and
        # shifted into each lane's plane in a few whole-array passes.
        words = np.array(
            [
                [self.lane_inputs[lane].get(name, 0) for name in self._in_names]
                for lane in self._active
            ],
            dtype=np.uint64,
        )
        bits = (words[:, self._in_owner] >> self._in_shifts) & 1
        lane_col = self._lane_shifts[self._active, None]
        values[self._in_nets] = np.bitwise_or.reduce(bits << lane_col, axis=0)
        self.plan.evaluate(values, mask=self.mask)

    def _active_outputs(self) -> Dict[int, Dict[str, int]]:
        """Output-port words of every active lane."""
        lane_col = self._lane_shifts[self._active, None]
        bits = (self.values[self._out_nets] >> lane_col) & 1
        rows = (bits @ self._out_weights).tolist()
        return {
            lane: dict(zip(self._out_names, row))
            for lane, row in zip(self._active, rows)
        }

    def evaluate_combinational(
        self,
        input_values: Dict[str, int],
        dff_values: Optional[np.ndarray] = None,
    ) -> Dict[str, int]:
        """Settle the logic for given inputs/state and return the outputs.

        A convenience for unit-testing combinational blocks: one lane, no
        environment or clocking involved.  ``dff_values`` defaults to the
        reset state.
        """
        self._set_lanes(1)
        self.values = np.zeros(self.netlist.num_nets, dtype=self.dtype)
        if dff_values is not None:
            self.dff_values = np.asarray(dff_values, dtype=np.uint8).copy()
        else:
            self.dff_values = self._init_values.copy()
        self.lane_inputs = [dict(input_values)]
        self._settle()
        return self._active_outputs()[0]

    def step(self) -> Dict[str, int]:
        """Advance every active lane by one cycle, each stepping its own env.

        Returns lane 0's sampled output-port values (empty once lane 0 is
        retired).  Afterwards :attr:`values` holds the settled values of the
        cycle just simulated.
        """
        assert self.envs, "reset() the simulator first"
        self._settle()
        next_dff = self.values[self._d_nets]
        outputs = self._active_outputs()
        for lane, lane_outputs in outputs.items():
            self.lane_inputs[lane] = dict(
                self.envs[lane].step(lane_outputs, self.lane_cycles[lane])
            )
            self.lane_cycles[lane] += 1
        self.dff_values = next_dff
        return outputs.get(0, {})

    # ------------------------------------------------------------------
    # Whole-program runs
    # ------------------------------------------------------------------
    def run(
        self,
        env: Environment,
        max_cycles: int,
        checkpoint_cycles: Sequence[int] = (),
        record_fingerprints: bool = False,
    ) -> RunResult:
        """Run from reset until the environment halts or *max_cycles* pass.

        *checkpoint_cycles* selects boundaries at which full checkpoints are
        captured (used by the campaign engine for its sampled injection
        cycles).  Fingerprints, when recorded, are indexed so that
        ``fingerprints[i]`` is the system state at the start of cycle ``i``.
        """
        return self.run_lanes(
            [env], [max_cycles], [checkpoint_cycles], record_fingerprints
        )[0]

    def run_lanes(
        self,
        envs: Sequence[Environment],
        max_cycles: Sequence[int],
        checkpoint_cycles: Sequence[Sequence[int]],
        record_fingerprints: bool = False,
    ) -> List[RunResult]:
        """:meth:`run` for one workload per lane, all from reset at once.

        Each lane gets its own cycle cap and checkpoint cycles; a lane whose
        environment halts (or that reaches its cap) is finished and retired
        while the word keeps stepping for the rest.  Each result equals what
        a one-lane :meth:`run` of the same environment returns.
        """
        self.load_reset(envs)
        wanted = [set(int(c) for c in cycles) for cycles in checkpoint_cycles]
        results = [RunResult(cycles=0, halted=False, observables=()) for _ in envs]

        def finish(lane: int) -> None:
            results[lane].cycles = self.lane_cycles[lane]
            results[lane].halted = envs[lane].halted()
            results[lane].observables = envs[lane].observables()
            self.retire_lane(lane)

        for lane, cap in enumerate(max_cycles):
            if cap <= 0:
                finish(lane)
        while self._active:
            for lane in self._active:
                cycle = self.lane_cycles[lane]
                if record_fingerprints:
                    results[lane].fingerprints.append(self.fingerprint(lane))
                if cycle in wanted[lane]:
                    results[lane].checkpoints[cycle] = self.checkpoint(lane)
            self.step()
            for lane in list(self._active):
                if (
                    envs[lane].halted()
                    or self.lane_cycles[lane] >= max_cycles[lane]
                ):
                    finish(lane)
        return results
