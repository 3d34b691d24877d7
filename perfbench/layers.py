"""Per-layer tracing for the benchmark, done entirely from the outside.

The benchmark times the calls into each layer's public functions by
wrapping them (class attributes and module globals are swapped for timing
wrappers while a traced pass runs, then restored).  Nothing in ``src/`` is
changed.  Each wrapped call becomes one span: name, layer, start, end,
parent span and the id of the user-level call (one ``api.analyze`` or
``api.sweep``) it belongs to.  A layer's *self time* is its spans' duration
minus the part covered by their child spans.

Spans are kept in memory and exported at the end as Chrome trace-event JSON
through :func:`repro.core.tracing.write_chrome_trace`, so
``python -m repro trace summarize FILE`` reads them.

Worker processes of a ``jobs=2`` pool inherit the wrappers when forked, but
their spans stay in the worker; the parent sees the executor's own time.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

#: (name, layer, start, end, span id, parent id, call id, detail)
Span = Tuple[str, str, float, float, int, Optional[int], int, object]

#: Name of the root span that brackets one user-level call.
CALL_SPAN = "bench.call"


def _mask_lanes(args, kwargs, result) -> int:
    mask = kwargs.get("mask", args[2] if len(args) > 2 else 1)
    return int(mask).bit_length()


class Recorder:
    """Collects spans and lane counts while installed and enabled."""

    def __init__(self):
        self.spans: List[Span] = []
        self.enabled = False
        self.call_id = 0
        self._stack: List[int] = []
        self._next_id = 1
        self._restore: List[Tuple[object, str, object]] = []
        #: id(packed simulator) -> [loaded lanes, live lane set]
        self._lanes: Dict[int, list] = {}
        self.loaded_lane_steps = 0
        self.live_lane_steps = 0

    # -- wrapping --------------------------------------------------------
    def _wrap(
        self,
        owner,
        attr: str,
        name: str,
        layer: str,
        detail: Optional[Callable] = None,
        span: bool = True,
    ) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                return func(*args, **kwargs)
            if not span:
                result = func(*args, **kwargs)
                detail(args, kwargs, result)
                return result
            span_id = recorder._next_id
            recorder._next_id += 1
            parent = recorder._stack[-1] if recorder._stack else None
            recorder._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                recorder._stack.pop()
            extra = detail(args, kwargs, result) if detail else None
            recorder.spans.append(
                (name, layer, start, end, span_id, parent, recorder.call_id, extra)
            )
            return result

        self._restore.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod else wrapper)

    def install(self) -> None:
        """Swap every layer entry point for its timing wrapper."""
        import repro.api as api
        import repro.core.campaign as campaign
        import repro.soc.system as system
        from repro.core.cache import VerdictCache
        from repro.core.dynamic_reach import DynamicReachability
        from repro.core.executor import ParallelExecutor, SerialExecutor
        from repro.core.group_ace import GroupAceAnalyzer
        from repro.sim.eventsim import EventSimulator
        from repro.sim.levelize import EvalPlan
        from repro.sim.packed import PackedCycleSimulator
        from repro.timing.sta import StaticTiming

        wrap = self._wrap
        # build_system is swapped in both modules with one wrapper: the
        # engine's SessionSpec pickles it by its import path, so the object
        # found there must be the wrapper itself.
        wrap(system, "build_system", "soc.build_system", "soc")
        api.build_system = system.build_system
        self._restore.append((api, "build_system", self._restore[-1][2]))
        wrap(StaticTiming, "__init__", "timing.sta", "timing")
        wrap(EvalPlan, "evaluate", "sim.levelize.evaluate", "sim.levelize",
             detail=_mask_lanes)
        wrap(system.IbexMiniSystem, "run_program", "sim.cyclesim.run_program",
             "sim.cyclesim", detail=lambda a, k, r: r.cycles)
        wrap(PackedCycleSimulator, "step", "sim.packed.step", "sim.packed",
             detail=self._on_step)
        wrap(PackedCycleSimulator, "load_lanes", "", "", span=False,
             detail=self._on_load)
        wrap(PackedCycleSimulator, "load_reset", "", "", span=False,
             detail=self._on_load)
        wrap(PackedCycleSimulator, "retire_lane", "", "", span=False,
             detail=self._on_retire)
        wrap(EventSimulator, "simulate_cycle", "sim.eventsim.simulate_cycle",
             "sim.eventsim")
        wrap(EventSimulator, "resimulate_batch", "sim.eventsim.resimulate_batch",
             "sim.eventsim", detail=lambda a, k, r: len(r))
        for method in ("reachable_set", "reachable_set_batch"):
            wrap(DynamicReachability, method, f"core.dynamic_reach.{method}",
                 "core.dynamic_reach")
        for method in ("prefetch", "prefetch_spanning"):
            wrap(GroupAceAnalyzer, method, f"core.group_ace.{method}",
                 "core.group_ace")
        wrap(campaign, "prefetch_spanning_multi",
             "core.group_ace.prefetch_spanning_multi", "core.group_ace")
        wrap(VerdictCache, "open", "core.cache.open", "core.cache")
        wrap(VerdictCache, "flush", "core.cache.flush", "core.cache")
        wrap(campaign, "preflight_campaign", "core.guards.preflight_campaign",
             "core.guards")
        wrap(campaign, "packed_golden_runs", "core.campaign.packed_golden_runs",
             "core.campaign")
        shards = lambda a, k, r: len(a[1].shards)  # noqa: E731
        for executor in (SerialExecutor, ParallelExecutor):
            wrap(executor, "execute", "core.executor.execute", "core.executor",
                 detail=shards)
        wrap(campaign, "prepare_plan_shards", "core.executor.prepare_plan_shards",
             "core.executor", detail=shards)
        wrap(campaign, "evaluate_prepared_shards",
             "core.executor.evaluate_prepared_shards", "core.executor")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    # -- lane bookkeeping from the public packed-simulator calls ---------
    def _on_load(self, args, kwargs, result) -> None:
        lanes = len(args[1])
        self._lanes[id(args[0])] = [lanes, set(range(lanes))]

    def _on_retire(self, args, kwargs, result) -> None:
        state = self._lanes.get(id(args[0]))
        if state is not None:
            state[1].discard(args[1])

    def _on_step(self, args, kwargs, result) -> None:
        state = self._lanes.get(id(args[0]))
        if state is not None:
            self.loaded_lane_steps += state[0]
            self.live_lane_steps += len(state[1])

    # -- user-level calls ------------------------------------------------
    def call(self, fn: Callable):
        """Run *fn* as one traced user-level call under a root span."""
        self.call_id += 1
        span_id = self._next_id
        self._next_id += 1
        self._stack = [span_id]
        self.enabled = True
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self.enabled = False
            self._stack = []
            self.spans.append(
                (CALL_SPAN, "bench", start, end, span_id, None, self.call_id, None)
            )


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its direct children."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, _, start, end, _, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for _, _, start, end, span_id, _, _, _ in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start = max(child_start, cursor)
            if child_end > child_start:
                covered += child_end - child_start
                cursor = child_end
        result[span_id] = (end - start) - covered
    return result


def layer_metrics(
    recorder: Recorder,
    calls: int,
    untraced_wall: float,
    telemetry: Dict[str, int],
) -> Dict[str, float]:
    """Every per-layer value for one traced pass of *calls* calls.

    ``BENCHMARK.json`` names the ones a run reports in its JSON line; the
    rest (``sim.levelize.settle_us_lanes64``, ``core.executor.retries``),
    which read 0 on the workloads it lists, are printed and go to the
    report file.

    Totals (seconds and counts) are per user-level call, so runs that fit a
    different number of calls in their time budget stay comparable.
    *telemetry* holds the engines' counters summed over the traced calls.
    """
    spans = recorder.spans
    own = self_times(spans)
    per_call = 1.0 / max(1, calls)

    def named(name):
        return [s for s in spans if s[0] == name]

    def total(name):
        return sum(s[3] - s[2] for s in named(name))

    def layer_self(layer, names=None):
        return sum(
            own[s[4]] for s in spans
            if s[1] == layer and (names is None or s[0] in names)
        )

    def top_level(layer):
        # inclusive time of the layer's outermost spans (no double count
        # when one wrapped entry point calls another of the same layer)
        layer_ids = {s[4] for s in spans if s[1] == layer}
        return sum(
            s[3] - s[2] for s in spans
            if s[1] == layer and s[5] not in layer_ids
        )

    settles = named("sim.levelize.evaluate")
    lanes1 = [s[3] - s[2] for s in settles if s[7] == 1]
    # 9 to 64 lanes all settle on the same uint64 word kernel
    lanes64 = [s[3] - s[2] for s in settles if 8 < s[7] <= 64]
    runs = named("sim.cyclesim.run_program")
    run_cycles = sum(s[7] for s in runs)
    steps = named("sim.packed.step")
    waveforms = named("sim.eventsim.simulate_cycle")
    resims = named("sim.eventsim.resimulate_batch")
    resim_injections = sum(s[7] for s in resims)
    executes = [s for s in spans if s[1] == "core.executor" and s[7] is not None]
    call_walls = [s[3] - s[2] for s in spans if s[0] == CALL_SPAN]
    traced_wall = sum(call_walls)
    attributed = sum(own[s[4]] for s in spans if s[0] != CALL_SPAN)
    slots = telemetry.get("lane_slots", 0)
    injections = telemetry.get("injections", 0)
    record_hits = telemetry.get("record_cache_hits", 0)

    def median_us(values):
        return statistics.median(values) * 1e6 if values else 0.0

    return {
        "soc.build_system_s": total("soc.build_system") * per_call,
        "soc.build_system_calls": len(named("soc.build_system")) * per_call,
        "timing.sta_s": total("timing.sta") * per_call,
        "sim.levelize.settle_us_lanes1": median_us(lanes1),
        "sim.levelize.settle_us_lanes64": median_us(lanes64),
        "sim.levelize.settle_calls": len(settles) * per_call,
        "sim.levelize.self_s": layer_self("sim.levelize") * per_call,
        "sim.cyclesim.golden_us_per_cycle": (
            sum(s[3] - s[2] for s in runs) / run_cycles * 1e6 if run_cycles else 0.0
        ),
        "sim.cyclesim.golden_cycles": run_cycles * per_call,
        "sim.packed.step_us": median_us([s[3] - s[2] for s in steps]),
        "sim.packed.steps": len(steps) * per_call,
        "sim.packed.live_lane_ratio": (
            recorder.live_lane_steps / recorder.loaded_lane_steps
            if recorder.loaded_lane_steps else 0.0
        ),
        "sim.eventsim.waveform_ms_per_cycle": (
            total("sim.eventsim.simulate_cycle") / len(waveforms) * 1e3
            if waveforms else 0.0
        ),
        "sim.eventsim.resim_us_per_injection": (
            total("sim.eventsim.resimulate_batch") / resim_injections * 1e6
            if resim_injections else 0.0
        ),
        "core.dynamic_reach.self_s": layer_self("core.dynamic_reach") * per_call,
        "core.group_ace.prefetch_self_s": layer_self("core.group_ace") * per_call,
        "core.group_ace.lane_fill": (
            telemetry.get("lanes_filled", 0) / slots if slots else 0.0
        ),
        "core.group_ace.runs": telemetry.get("group_ace_runs", 0) * per_call,
        "core.cache.load_s": total("core.cache.open") * per_call,
        "core.cache.flush_s": total("core.cache.flush") * per_call,
        "core.cache.flushes": len(named("core.cache.flush")) * per_call,
        "core.cache.record_hit_ratio": (
            record_hits / (record_hits + injections)
            if record_hits + injections else 0.0
        ),
        "core.guards.preflight_s": total("core.guards.preflight_campaign") * per_call,
        "core.campaign.packed_golden_s": (
            total("core.campaign.packed_golden_runs") * per_call
        ),
        "core.executor.execute_s": top_level("core.executor") * per_call,
        "core.executor.shards": sum(s[7] for s in executes) * per_call,
        "core.executor.retries": telemetry.get("shard_retries", 0) * per_call,
        "unattributed_share": (
            1.0 - attributed / traced_wall if traced_wall else 0.0
        ),
        "trace_overhead": traced_wall / untraced_wall if untraced_wall else 0.0,
    }


def chrome_spans(recorder: Recorder) -> List[dict]:
    """The spans in :mod:`repro.core.tracing`'s internal shape."""
    pid = os.getpid()
    epoch = time.time() - time.perf_counter()
    out = []
    for name, layer, start, end, span_id, parent, call_id, detail in recorder.spans:
        args = {"layer": layer, "call_id": call_id}
        if detail is not None:
            args["detail"] = detail
        out.append({
            "name": name,
            "cat": layer,
            "ph": "X",
            "ts": (epoch + start) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": pid,
            "tid": pid,
            "id": span_id,
            "parent": parent,
            "args": args,
        })
    return out
