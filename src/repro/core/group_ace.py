"""GroupACE (Definition 4) — the timing-agnostic step.

A set of state elements S is *GroupACE* in cycle i+1 if simultaneously
erroneous values in all of them produce a program-visible failure.  This is
decided by resuming a zero-delay simulation from a checkpoint, overwriting
the erroneous latches, running to completion, and comparing program-visible
output against the golden run.

Program-visible failures are classified as in the paper:

- **SDC** — the program produces different output (or a different exit code),
- **DUE** — the program traps or fails to halt within the cycle budget,
- **MASKED** — identical program-visible output (architecturally correct
  execution; differing *timing* alone is not a failure).

Runs exit early when the full system state (DFFs, in-flight interface
values, memory) reconverges with the golden run's per-cycle fingerprints —
the future is then provably identical, so only the output produced *so far*
needs comparing.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.telemetry import CampaignTelemetry
from repro.isa.assembler import Program
from repro.sim.cyclesim import MAX_LANES, Checkpoint, CycleSimulator, RunResult


class Outcome(enum.Enum):
    """Program-level outcome of one injection."""

    MASKED = "masked"
    SDC = "sdc"
    DUE = "due"

    @property
    def is_failure(self) -> bool:
        """Whether this outcome is a program-visible failure."""
        return self is not Outcome.MASKED


@dataclass
class InjectionStats:
    """Bookkeeping for how injected runs terminate (performance insight)."""

    runs: int = 0
    converged: int = 0
    ran_to_halt: int = 0
    timed_out: int = 0
    cycles_simulated: int = 0


class GroupAceAnalyzer:
    """Decides GroupACE-ness of state-element error sets for one workload."""

    def __init__(
        self,
        system,
        program: Program,
        golden: RunResult,
        margin_cycles: int = 3000,
        verdict_cache=None,
        telemetry: Optional[CampaignTelemetry] = None,
    ):
        if not golden.fingerprints:
            raise ValueError("golden run must be recorded with fingerprints")
        self.system = system
        self.program = program
        self.golden = golden
        self.margin_cycles = margin_cycles
        self.sim: CycleSimulator = system.simulator()
        self.stats = InjectionStats()
        #: optional persistent store (:class:`repro.core.cache.VerdictCache`)
        self.verdict_cache = verdict_cache
        self.telemetry = telemetry if telemetry is not None else CampaignTelemetry()
        self._cache: Dict[Tuple, Outcome] = {}

    # ------------------------------------------------------------------
    def outcome_of_state_errors(
        self,
        checkpoint: Checkpoint,
        overrides: Dict[int, int],
        at_next_boundary: bool = True,
    ) -> Outcome:
        """Outcome of forcing *overrides* (DFF index → value) into the state.

        With ``at_next_boundary=True`` (the delay-fault case) the checkpoint
        cycle is first re-simulated fault-free and the erroneous values are
        applied at the following clock edge — where an SDF in that cycle
        would deposit them.  With ``False`` (the particle-strike case) the
        overrides are applied directly at the checkpoint boundary.

        Resolution order: in-memory cache, then the persistent verdict cache
        (if configured), then an actual injected run — whose verdict is
        written back to both.
        """
        if not overrides:
            return Outcome.MASKED
        items = tuple(sorted(overrides.items()))
        key = (checkpoint.cycle, at_next_boundary, items)
        cached = self._cache.get(key)
        if cached is not None:
            self.telemetry.incr("group_ace_cache_hits")
            return cached
        if self.verdict_cache is not None:
            persisted = self.verdict_cache.lookup(
                checkpoint.cycle, at_next_boundary, items
            )
            if persisted is not None:
                self.telemetry.incr("verdict_cache_hits")
                self._cache[key] = persisted
                return persisted
        outcome = self._run_injected(checkpoint, overrides, at_next_boundary)
        self.telemetry.incr("group_ace_runs")
        self._cache[key] = outcome
        if self.verdict_cache is not None:
            self.verdict_cache.store(
                checkpoint.cycle, at_next_boundary, items, outcome
            )
        return outcome

    def is_group_ace(
        self, checkpoint: Checkpoint, overrides: Dict[int, int]
    ) -> bool:
        """GroupACE(S, i+1) for the dynamically reachable set *overrides*."""
        return self.outcome_of_state_errors(checkpoint, overrides).is_failure

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------
    def prefetch(
        self,
        checkpoint: Checkpoint,
        sets: Sequence[Dict[int, int]],
        at_next_boundary: bool = True,
        lanes: int = MAX_LANES,
    ) -> None:
        """Batch-resolve many error sets into the cache (lane-parallel).

        Deduplicates against the cache and within *sets*, then runs the
        remaining unique injections in groups of up to *lanes* bit-planes of
        the cycle simulator.  Subsequent :meth:`outcome_of_state_errors`
        calls for these sets are cache hits, so callers can keep using the
        scalar API unchanged.

        Raises ``ValueError`` for a lane width outside ``1..MAX_LANES`` —
        :class:`repro.core.campaign.CampaignConfig` validates user input
        before it gets here, so an out-of-range value is a programming
        error, not something to silently clamp.
        """
        self.prefetch_spanning(
            [(checkpoint, overrides) for overrides in sets],
            at_next_boundary=at_next_boundary,
            lanes=lanes,
        )

    def prefetch_spanning(
        self,
        items: Sequence[Tuple[Checkpoint, Dict[int, int]]],
        at_next_boundary: bool = True,
        lanes: int = MAX_LANES,
    ) -> None:
        """Batch-resolve error sets spanning *different* checkpoints.

        The lane dimension packs across the whole campaign, not just within
        one cycle: zero-delay simulation is Markovian, so lanes starting at
        different checkpoints (each with its own environment, inputs, and
        cycle counter) share one packed word.  This is what fills 64-wide
        words when any single cycle only contributes a handful of unique
        error sets.  Deduplication, verdict-cache flow, and outcomes are
        identical to per-checkpoint :meth:`prefetch`.  (For packing across
        *different analyzers* — several workloads sharing one netlist — see
        :func:`prefetch_spanning_multi`.)
        """
        prefetch_spanning_multi(
            [(self, items)], at_next_boundary=at_next_boundary, lanes=lanes
        )

    def _dedup_items(
        self,
        items: Sequence[Tuple[Checkpoint, Dict[int, int]]],
        at_next_boundary: bool,
    ) -> List["_LaneTask"]:
        """Filter *items* against the caches; return unresolved lane tasks."""
        unique: List[_LaneTask] = []
        seen = set()
        for checkpoint, overrides in items:
            if not overrides:
                continue
            key_items = tuple(sorted(overrides.items()))
            key = (checkpoint.cycle, at_next_boundary, key_items)
            if key in self._cache or key in seen:
                continue
            if self.verdict_cache is not None:
                persisted = self.verdict_cache.lookup(
                    checkpoint.cycle, at_next_boundary, key_items
                )
                if persisted is not None:
                    self.telemetry.incr("verdict_cache_hits")
                    self._cache[key] = persisted
                    continue
            seen.add(key)
            unique.append(_LaneTask(self, key, checkpoint, dict(overrides)))
        return unique

    def _store_outcome(
        self, task: "_LaneTask", outcome: Outcome, at_next_boundary: bool
    ) -> None:
        self._cache[task.key] = outcome
        if self.verdict_cache is not None:
            self.verdict_cache.store(
                task.key[0], at_next_boundary, task.key[2], outcome
            )

    # ------------------------------------------------------------------
    def _run_injected(
        self,
        checkpoint: Checkpoint,
        overrides: Dict[int, int],
        at_next_boundary: bool,
    ) -> Outcome:
        """Brute-force GroupACE oracle: one injection on one lane.

        Resolves cache misses of :meth:`outcome_of_state_errors`, and is the
        reference the lane-packed :func:`_run_lane_tasks` is checked against.
        """
        sim = self.sim
        env = self.system.make_env(self.program)
        sim.restore(checkpoint, env)
        if at_next_boundary:
            sim.step()
        sim.override_dffs(overrides)
        # If the forced values all equal the current latched state, the
        # "error" is not an error at all (can happen for particle-strike
        # style injections given as absolute values).
        budget = self.golden.cycles + self.margin_cycles
        golden_fps = self.golden.fingerprints
        golden_obs = self.golden.observables
        self.stats.runs += 1
        start_cycle = sim.cycle
        while True:
            cycle = sim.cycle
            if cycle < len(golden_fps) and sim.fingerprint() == golden_fps[cycle]:
                self.stats.converged += 1
                self.stats.cycles_simulated += sim.cycle - start_cycle
                produced = env.observables()
                if produced == golden_obs[: len(produced)]:
                    return Outcome.MASKED
                return Outcome.SDC
            if cycle >= budget:
                self.stats.timed_out += 1
                self.stats.cycles_simulated += sim.cycle - start_cycle
                return Outcome.DUE
            sim.step()
            if env.halted():
                break
        self.stats.ran_to_halt += 1
        self.stats.cycles_simulated += sim.cycle - start_cycle
        produced = env.observables()
        if produced == golden_obs:
            return Outcome.MASKED
        if any(event and event[0] == "trap" for event in produced):
            return Outcome.DUE
        return Outcome.SDC


@dataclass
class _LaneTask:
    """One unresolved injection: its analyzer, cache key, and inputs."""

    analyzer: GroupAceAnalyzer
    key: Optional[Tuple]
    checkpoint: Checkpoint
    overrides: Dict[int, int]


def prefetch_spanning_multi(
    groups: Sequence[
        Tuple[GroupAceAnalyzer, Sequence[Tuple[Checkpoint, Dict[int, int]]]]
    ],
    at_next_boundary: bool = True,
    lanes: int = MAX_LANES,
) -> None:
    """Batch-resolve error sets spanning different *analyzers*.

    The widest packing: analyzers for different workloads (programs) share
    one netlist — everything program-specific lives in the per-lane
    environment — so their injected runs pack into the same 64-lane words.
    Each lane converges against the golden fingerprints, budget, and
    observables of *its own* workload; deduplication, verdict-cache flow,
    and outcomes per analyzer are identical to :meth:`prefetch_spanning`.

    Analyzers whose netlist differs from the first group's (e.g. an ECC
    variant among plain ones) are resolved in their own batches rather than
    rejected.  Batch-level telemetry (``lane_batches``/``lane_slots``) is
    attributed to the first analyzer of each batch; per-lane counters go to
    each lane's own analyzer.
    """
    lanes = int(lanes)
    if not 1 <= lanes <= MAX_LANES:
        raise ValueError(f"lanes must be in 1..{MAX_LANES}, got {lanes}")
    tasks: List[_LaneTask] = []
    for analyzer, items in groups:
        tasks.extend(analyzer._dedup_items(items, at_next_boundary))
    # Partition by netlist identity: lanes can only share a packed word when
    # they share the value-array geometry.
    by_netlist: Dict[int, List[_LaneTask]] = {}
    for task in tasks:
        by_netlist.setdefault(id(task.analyzer.sim.netlist), []).append(task)
    for netlist_tasks in by_netlist.values():
        for start in range(0, len(netlist_tasks), lanes):
            chunk = netlist_tasks[start : start + lanes]
            outcomes = _run_lane_tasks(chunk, at_next_boundary)
            owner = chunk[0].analyzer.telemetry
            owner.incr("lane_batches")
            owner.incr("lane_slots", lanes)
            for task, outcome in zip(chunk, outcomes):
                task.analyzer.telemetry.incr("lanes_filled")
                task.analyzer.telemetry.incr("group_ace_runs")
                task.analyzer._store_outcome(task, outcome, at_next_boundary)


def _run_lane_tasks(
    tasks: Sequence[_LaneTask], at_next_boundary: bool
) -> List[Outcome]:
    """Run up to :data:`MAX_LANES` injections simultaneously, one per lane.

    Each lane's outcome equals the one-lane oracle
    :meth:`GroupAceAnalyzer._run_injected`: the same fingerprint convergence
    checks, halt handling, and DUE budget are applied at the same (per-lane
    absolute) cycle boundaries — each lane compares against the golden
    fingerprints and observables of its own analyzer's workload and burns
    that analyzer's DUE budget from its own start cycle.  On top, a lane
    that repeats a full state past the golden run's end is resolved as DUE
    at once (see below).
    """
    count = len(tasks)
    psim = tasks[0].analyzer.sim
    envs = [
        task.analyzer.system.make_env(task.analyzer.program) for task in tasks
    ]
    psim.load_lanes(
        [(task.checkpoint, env) for task, env in zip(tasks, envs)]
    )
    if at_next_boundary:
        psim.step()
    for lane, task in enumerate(tasks):
        psim.override_dffs(task.overrides, lane)
    # Per-lane convergence context: each lane resolves against its own
    # workload's golden run.
    golden_fps = [task.analyzer.golden.fingerprints for task in tasks]
    golden_obs = [task.analyzer.golden.observables for task in tasks]
    budgets = [
        task.analyzer.golden.cycles + task.analyzer.margin_cycles
        for task in tasks
    ]
    stats = [task.analyzer.stats for task in tasks]
    for s in stats:
        s.runs += 1
    steps_taken = 0
    outcomes: List[Outcome] = [Outcome.MASKED] * count
    unresolved = set(range(count))
    # Loop detection for the post-golden margin tail: past the golden
    # run's end a lane can only halt or burn the DUE budget.  The system
    # (DFFs + inputs + environment) is deterministic and closed, so a
    # lane that revisits a full state it has already been in can never
    # halt — it is provably DUE right now, no need to simulate the rest
    # of the margin.  Hashes gate an exact full-state comparison, so a
    # hash collision can never misclassify a lane.
    seen_states: Dict[int, Dict[int, Tuple]] = {}

    def resolve(lane: int, outcome: Outcome) -> None:
        outcomes[lane] = outcome
        unresolved.discard(lane)
        psim.retire_lane(lane)
        seen_states.pop(lane, None)

    while unresolved:
        for lane in sorted(unresolved):
            cycle = psim.lane_cycles[lane]
            fps = golden_fps[lane]
            if cycle < len(fps):
                if psim.fingerprint(lane) == fps[cycle]:
                    produced = envs[lane].observables()
                    stats[lane].converged += 1
                    resolve(
                        lane,
                        Outcome.MASKED
                        if produced == golden_obs[lane][: len(produced)]
                        else Outcome.SDC,
                    )
            elif cycle >= budgets[lane]:
                stats[lane].timed_out += 1
                resolve(lane, Outcome.DUE)
            else:
                state = (
                    psim.lane_dff_values(lane).tobytes(),
                    tuple(sorted(psim.lane_inputs[lane].items())),
                    envs[lane].fingerprint(),
                )
                lane_seen = seen_states.setdefault(lane, {})
                previous = lane_seen.setdefault(hash(state), state)
                if previous is not state and previous == state:
                    stats[lane].timed_out += 1
                    resolve(lane, Outcome.DUE)
        if not unresolved:
            break
        psim.step()
        steps_taken += 1
        for lane in sorted(unresolved):
            if envs[lane].halted():
                produced = envs[lane].observables()
                if produced == golden_obs[lane]:
                    outcome = Outcome.MASKED
                elif any(e and e[0] == "trap" for e in produced):
                    outcome = Outcome.DUE
                else:
                    outcome = Outcome.SDC
                stats[lane].ran_to_halt += 1
                resolve(lane, outcome)
    tasks[0].analyzer.stats.cycles_simulated += steps_taken
    return outcomes
