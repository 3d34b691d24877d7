"""Correctness checks run outside the timed region.

Records are re-derived with the brute-force oracle of
``benchmarks/bench_ablation_optimizations.py``: a full-circuit faulty event
simulation of the injected cycle, then an uncached scalar GroupACE run on
the resulting error set.  Which records are checked depends only on the
seed and the campaign, never on timing.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Tuple


def record_rows(results: Dict[Tuple[str, str], object]) -> List[list]:
    """Every record of *results* as canonical, sortable rows."""
    rows = []
    for (structure, program), result in sorted(results.items()):
        for delay, by_delay in sorted(result.by_delay.items()):
            for r in by_delay.records:
                rows.append([
                    structure, program, delay, r.wire_index, r.cycle,
                    r.statically_reachable, r.num_statically_reachable,
                    r.num_errors, r.outcome.name, r.or_ace,
                ])
    rows.sort(key=lambda row: tuple(str(v) for v in row))
    return rows


def digest(results: Dict[Tuple[str, str], object]) -> str:
    """sha256 of the canonical record rows of *results*."""
    text = json.dumps(record_rows(results), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def pick(records, seed: int, label: str) -> list:
    """The fixed subsample: up to one record with errors and one without."""
    rng = random.Random(f"{seed}:{label}")
    with_errors = [r for r in records if r.num_errors > 0]
    without = [r for r in records if r.num_errors == 0 and r.statically_reachable]
    without = without or [r for r in records if r.num_errors == 0]
    return [rng.choice(group) for group in (with_errors, without) if group]


def check(engine, structure: str, result, seed: int) -> List[str]:
    """Re-derive the subsample of one campaign; returns mismatch messages."""
    from repro.core.group_ace import GroupAceAnalyzer

    session = engine.session
    system = session.system
    wires = system.structure_wires(structure)
    records = [r for d in result.by_delay.values() for r in d.records]
    label = f"{structure}/{result.benchmark}"
    problems = []
    for record in pick(records, seed, label):
        checkpoint = session.checkpoint(record.cycle)
        errors = system.event_sim.simulate_cycle_with_fault(
            checkpoint.prev_settled,
            checkpoint.dff_values,
            checkpoint.input_values,
            wires[record.wire_index],
            record.delay_fraction * system.clock_period,
        )
        uncached = GroupAceAnalyzer(
            system, session.program, session.golden,
            margin_cycles=session.config.margin_cycles,
        )
        outcome = uncached.outcome_of_state_errors(checkpoint, errors)
        if (len(errors), outcome) != (record.num_errors, record.outcome):
            problems.append(
                f"{label} wire {record.wire_index} cycle {record.cycle} "
                f"d={record.delay_fraction}: campaign "
                f"({record.num_errors}, {record.outcome.name}) != oracle "
                f"({len(errors)}, {outcome.name})"
            )
    return problems
