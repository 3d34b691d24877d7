"""DelayAVF campaign benchmark: one command, four workloads (two are in BENCHMARK.json).

Run from the repository root::

    python3 perfbench/run.py --workload cold_campaign --seed 1 --seconds 45 --trace 0

Every workload drives the public API (``repro.api.analyze`` /
``repro.api.sweep``) from this single process (``parallel_campaign`` adds a
two-worker pool).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced pass (see ``layers.py``).
Outputs are checked outside the timed region (see ``oracle.py``).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller report, stamped with provenance, goes
to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import hostspeed
import layers
import oracle

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

WORKLOADS = ("cold_campaign", "cold_sweep", "warm_sweep", "parallel_campaign")
STRUCTURES = ("alu", "decoder", "regfile")
#: shaped like ``delayavf md5 alu --delays .5 .7 .9 --wires 24 --cycles 6``
CAMPAIGN = dict(delay_fractions=(0.5, 0.7, 0.9), max_wires=24, cycle_count=6)
CAMPAIGN_STRUCTURES = ("alu", "regfile")
FIVE_DELAYS = (0.1, 0.3, 0.5, 0.7, 0.9)
#: ``cold_sweep``: one program under every structure at the fig7 delays,
#: sampled densely enough that GroupACE packs most calls' error sets into a
#: uint64 word (0 to 64 lanes by sample); a call takes 2 to 3 s on a 2-core
#: Xeon host
COLD_SWEEP_PROGRAMS = ("libstrstr",)
COLD_SWEEP = dict(delay_fractions=FIVE_DELAYS, max_wires=48, cycle_count=8)
#: ``warm_sweep``: one program at the fig7 delays, 1080 records
WARM_PROGRAMS = ("libstrstr",)
WARM_SWEEP = dict(delay_fractions=FIVE_DELAYS, max_wires=24, cycle_count=3)
#: calls per pass checked against the oracle (and, for ``jobs=2``, against
#: a serial run); later calls are checked for repeatability only
ORACLE_CALLS = 4
ORACLE_SWEEPS = 2
#: set-up probes per run, spread over the measured pass (see ``measure``)
SETUP_REPEATS = 20
CHILD_TIMEOUT = 150
#: telemetry counters kept as the workload's simulated statistics
COUNTERS = (
    "golden_runs", "probe_runs", "injections", "group_ace_runs",
    "lane_batches", "lane_slots", "lanes_filled", "waveforms_built",
    "record_cache_hits", "batch_resims", "shard_retries",
)


def benchmark_spec() -> dict:
    """``BENCHMARK.json``, which names the metrics a run reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no repro sources under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not from {SRC}")


# ----------------------------------------------------------------------
# Workloads: each is a list of user-level calls, made from the seed alone
# ----------------------------------------------------------------------
def sub_seed(seed: int, index: int) -> int:
    """Config seed of the *index*-th call of a workload whose calls differ."""
    return seed * 1000 + index


def campaign_call(seed: int, index: int) -> Tuple[int, str, str]:
    """``(config seed, structure, program)`` of the *index*-th campaign call.

    libstrstr on alu and regfile, alternating.  Each call samples its own
    wires from a seed derived from the benchmark seed, so a run's median is
    taken over many draws of similar-cost calls.  Why not the other
    programs and structures is in ``perfbench/README.md``.
    """
    return sub_seed(seed, index), CAMPAIGN_STRUCTURES[index % 2], "libstrstr"


def sweep_programs(workload: str) -> Tuple[str, ...]:
    """The programs of one ``cold_sweep`` or ``warm_sweep`` call."""
    return COLD_SWEEP_PROGRAMS if workload == "cold_sweep" else WARM_PROGRAMS


def config_for(workload: str, seed: int, cache_dir: str, jobs: int = 1):
    from repro.api import CampaignConfig

    shape = {"cold_sweep": COLD_SWEEP, "warm_sweep": WARM_SWEEP}.get(
        workload, CAMPAIGN
    )
    return CampaignConfig(seed=seed, cache_dir=cache_dir, jobs=jobs, **shape)


class Call:
    """One user-level call: ``api.analyze`` of a pair or one ``api.sweep``."""

    def __init__(self, workload: str, seed: int, pair=None):
        self.workload = workload
        self.seed = seed
        self.pair = pair
        self.label = f"{pair[1]}/{pair[0]}@{seed}" if pair else f"sweep@{seed}"
        self.jobs = 2 if workload == "parallel_campaign" else 1

    def programs(self) -> Tuple[str, ...]:
        if self.pair:
            return (self.pair[1],)
        return sweep_programs(self.workload)

    def run(self, cache_dir: str) -> Dict[Tuple[str, str], object]:
        from repro import api

        config = config_for(self.workload, self.seed, cache_dir, self.jobs)
        if self.pair is None:
            return api.sweep(STRUCTURES, self.programs(), config=config)
        structure, program = self.pair
        result = api.analyze(structure, program, config=config)
        return {(structure, result.benchmark): result}

    def engines(self, cache_dir: str) -> Dict[str, object]:
        """The engines the call used (still cached until ``api.shutdown``)."""
        from repro import api

        config = config_for(self.workload, self.seed, cache_dir, self.jobs)
        return {p: api.engine_for(p, config=config) for p in self.programs()}


def calls_for(workload: str, seed: int):
    """Endless call sequence: campaign or cold-sweep calls in order, each
    with its own config seed, or the one warm sweep repeated."""
    index = 0
    while True:
        if workload == "warm_sweep":
            yield Call(workload, seed)
        elif workload == "cold_sweep":
            yield Call(workload, sub_seed(seed, index))
        else:
            config_seed, structure, program = campaign_call(seed, index)
            yield Call(workload, config_seed, (structure, program))
        index += 1


# ----------------------------------------------------------------------
# Checks and statistics (all outside the timed region)
# ----------------------------------------------------------------------
def simulated_stats(call: Call, cache_dir: str, results) -> Dict[str, object]:
    """Exact counts of the simulation work one call did, plus its digest."""
    totals = dict.fromkeys(COUNTERS, 0)
    golden_cycles = 0
    for engine in call.engines(cache_dir).values():
        counters = engine.telemetry.counters
        for name in COUNTERS:
            totals[name] += counters.get(name, 0)
        runs = counters.get("golden_runs", 0) + counters.get("probe_runs", 0)
        golden_cycles += runs * engine.session.total_cycles
    totals["golden_cycles"] = golden_cycles
    totals["records"] = len(oracle.record_rows(results))
    totals["digest"] = oracle.digest(results)
    return totals


class Checker:
    """Collects every correctness problem of the run, per call."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.problems: List[str] = []
        self.stats: Dict[str, Dict[str, object]] = {}
        self.reference: Dict[str, str] = {}

    def call(self, call: Call, cache_dir: str, results, index: int):
        """Check one finished call; returns (passed, simulated statistics)."""
        before = len(self.problems)
        for key, result in results.items():
            if result.degraded or result.suspect:
                self.problems.append(
                    f"{call.label} {key}: degraded={result.degraded} "
                    f"suspect={result.suspect} {list(result.suspect_reasons)}"
                )
        stats = simulated_stats(call, cache_dir, results)
        # identical inputs must give identical records and work counts; a
        # pool splits the work between workers as they come free, so only
        # the records themselves repeat exactly under jobs=2
        previous = self.stats.setdefault(call.label, stats)
        fields = ("records", "digest") if call.jobs > 1 else tuple(stats)
        if any(previous[name] != stats[name] for name in fields):
            self.problems.append(f"{call.label}: statistics changed on repeat")
        checked = index < {"warm_sweep": 1, "cold_sweep": ORACLE_SWEEPS}.get(
            call.workload, ORACLE_CALLS
        )
        if checked and call.jobs > 1 and call.label not in self.reference:
            self._serial_reference(call)
        elif checked and call.jobs == 1:
            self.problems.extend(self._oracle(call, cache_dir, results))
        expected = self.reference.get(call.label)
        if expected is not None and stats["digest"] != expected:
            self.problems.append(
                f"{call.label}: records digest {stats['digest'][:12]} != "
                f"reference {expected[:12]}"
            )
        return len(self.problems) == before, stats

    def _serial_reference(self, call: Call) -> None:
        """Run the campaign serially (parallel must equal serial) and
        re-derive its subsample with the oracle."""
        from repro import api

        cache_dir = tempfile.mkdtemp(dir=self.work)
        serial = Call("cold_campaign", call.seed, call.pair)
        api.shutdown()
        results = serial.run(cache_dir)
        self.reference[call.label] = oracle.digest(results)
        self.problems.extend(self._oracle(serial, cache_dir, results))
        api.shutdown()
        shutil.rmtree(cache_dir, ignore_errors=True)

    def _oracle(self, call: Call, cache_dir: str, results) -> List[str]:
        engines = call.engines(cache_dir)
        keys = sorted(results)
        if call.pair is None:
            # a fixed, seed-chosen campaign per structure
            programs = call.programs()
            keys = [
                (structure, programs[(self.seed + offset) % len(programs)])
                for offset, structure in enumerate(STRUCTURES)
            ]
        problems = []
        for structure, program in keys:
            problems.extend(oracle.check(
                engines[program], structure, results[(structure, program)],
                self.seed,
            ))
        return problems


# ----------------------------------------------------------------------
# Set-up time and the warm cache, each in a fresh child process
# ----------------------------------------------------------------------
def child(*args: str) -> str:
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT,
    )
    if completed.returncode != 0:
        fail(f"child {args[0]} failed:\n{completed.stderr[-2000:]}")
    return completed.stdout.strip().splitlines()[-1]


def setup_probe() -> None:
    """Import repro and build the system until a campaign could start."""
    start = time.perf_counter()
    use_checkout_sources()
    from repro.soc.system import build_system

    system = build_system()
    system.plan
    system.sta
    system.event_sim
    print(time.perf_counter() - start)


def prefill(cache_dir: str, seed: int) -> None:
    """Fill *cache_dir* with a cold sweep; print its records digest."""
    use_checkout_sources()
    results = Call("warm_sweep", seed).run(cache_dir)
    from repro import api

    api.shutdown()
    print(oracle.digest(results))


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------
def provenance(args) -> Dict[str, object]:
    import numpy

    sha = None
    if (ROOT / ".git").exists():  # never a sha from an enclosing repository
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode())
        source.update(path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha,
        "source_sha256": source.hexdigest(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "knobs": {
            "campaign": {k: list(v) if isinstance(v, tuple) else v
                         for k, v in CAMPAIGN.items()},
            "cold_sweep": {k: list(v) if isinstance(v, tuple) else v
                           for k, v in COLD_SWEEP.items()},
            "warm_sweep": {k: list(v) if isinstance(v, tuple) else v
                           for k, v in WARM_SWEEP.items()},
            "campaign_calls": "libstrstr on alu/regfile alternating, "
                              "config seed = seed * 1000 + call index",
            "cold_sweep_calls": "config seed = seed * 1000 + call index",
            "sweep_programs": list(sweep_programs(args.workload)),
            "structures": list(STRUCTURES),
            "jobs": 2 if args.workload == "parallel_campaign" else 1,
        },
    }


# ----------------------------------------------------------------------
# The measured loop
# ----------------------------------------------------------------------
class Pass:
    """The calls of one pass and their wall times."""

    def __init__(self):
        self.calls: List[Call] = []
        self.walls: List[float] = []
        self.records = 0
        self.failed = 0
        self.telemetry: Dict[str, int] = {}


def run_pass(
    calls, budget: Optional[float], checker: Checker, work: Path,
    warm_dir: Optional[str], wrap: Callable = lambda fn: fn(),
    between: Callable[[float], None] = lambda spent: None,
) -> Pass:
    """Make calls until *budget* seconds of call time are spent.

    With ``budget=None`` *calls* is a finite list replayed as given.  Every
    call starts from a fresh engine (``api.shutdown`` before it) and, unless
    the workload is warm, an empty verdict-cache directory.  *between* runs
    untimed before each call, with the call time spent so far.
    """
    from repro import api

    done = Pass()
    for index, call in enumerate(calls):
        between(sum(done.walls))
        if budget is not None and done.walls:
            spent = sum(done.walls)
            if spent + statistics.median(done.walls) > budget:
                break
        api.shutdown()
        cache_dir = warm_dir or tempfile.mkdtemp(dir=work)
        start = time.perf_counter()
        try:
            results = wrap(lambda: call.run(cache_dir))
        except Exception as exc:  # a failing call is counted, not fatal
            done.walls.append(time.perf_counter() - start)
            traceback.print_exc(file=sys.stderr)
            done.calls.append(call)
            done.failed += 1
            checker.problems.append(f"{call.label}: raised {exc!r}")
            continue
        done.walls.append(time.perf_counter() - start)
        done.calls.append(call)
        passed, stats = checker.call(call, cache_dir, results, index)
        done.failed += not passed
        done.records += stats["records"]
        for name in COUNTERS:
            done.telemetry[name] = done.telemetry.get(name, 0) + stats[name]
        if warm_dir is None:
            api.shutdown()
            shutil.rmtree(cache_dir, ignore_errors=True)
    api.shutdown()
    return done


def percentile_line(walls: List[float]) -> str:
    """Median and the highest percentile with ten samples beyond it."""
    ordered = sorted(walls)
    line = f"run_p50_s {statistics.median(ordered):.4f} s (n={len(ordered)})"
    if len(ordered) > 10:
        k = len(ordered) - 10
        line += f", p{100 * k // len(ordered)} {ordered[k - 1]:.4f} s"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--prefill", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe()
        return 0
    if args.prefill:
        prefill(args.prefill, args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    use_checkout_sources()
    OUT.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return measure(args, work)
    finally:
        from repro import api

        api.shutdown()
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    checker = Checker(args.seed, work)
    setup: List[float] = []
    interval = args.seconds / SETUP_REPEATS
    references: List[float] = []

    def probe_setup(spent: float) -> None:
        # one probe per *interval* seconds of call time, so the median
        # spans the host's slow and fast phases across the whole run
        while (not args.trace and len(setup) < SETUP_REPEATS
               and len(setup) <= spent / interval):
            setup.append(float(child("--setup-probe")))

    def between_calls(spent: float) -> None:
        probe_setup(spent)
        if not args.trace:
            references.append(hostspeed.reference_s())

    warm_dir = None
    if args.workload == "warm_sweep":
        # untimed: the code under test fills the cache in another process
        warm_dir = str(work / "warm-cache")
        start = time.perf_counter()
        checker.reference[Call("warm_sweep", args.seed).label] = child(
            "--prefill", warm_dir, "--seed", str(args.seed)
        )
        prefill_s = time.perf_counter() - start

    calls = calls_for(args.workload, args.seed)
    budget = args.seconds / 2 if args.trace else args.seconds
    plain = run_pass(calls, budget, checker, work, warm_dir, between=between_calls)
    attempted, failed = len(plain.walls), plain.failed
    probe_setup(float("inf"))  # the rest, when the calls ended early

    report = {"provenance": provenance(args), "calls": [c.label for c in plain.calls],
              "walls_s": plain.walls, "simulated": checker.stats}
    if warm_dir:
        # informational, not a metric: the cold sweep that filled the cache,
        # timed from outside its process (interpreter start included)
        report["prefill_s"] = prefill_s
    if args.trace:
        recorder = layers.Recorder()
        recorder.install()
        try:
            traced = run_pass(plain.calls, None, checker, work, warm_dir,
                              wrap=recorder.call)
        finally:
            recorder.uninstall()
        attempted += len(traced.walls)
        failed += traced.failed
        values = layers.layer_metrics(
            recorder, len(traced.walls), sum(plain.walls), traced.telemetry
        )
        metrics = {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in benchmark_spec()["per_layer"]
        }
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        from repro.core import tracing

        tracing.write_chrome_trace(str(trace_path), layers.chrome_spans(recorder))
        report["trace_file"] = str(trace_path.relative_to(ROOT))
        report["layer_values"] = values
        report["traced_walls_s"] = traced.walls
        report["lane_slots"] = traced.telemetry.get("lane_slots", 0)
        report["packed_lane_steps"] = {
            "live": recorder.live_lane_steps, "loaded": recorder.loaded_lane_steps,
        }
    else:
        # each call's time over that of the reference pass just before it,
        # so the host's speed at that moment divides out (see hostspeed.py)
        costs = [wall / ref for wall, ref in zip(plain.walls, references)]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "run_cost_ref": {"value": statistics.median(costs), "unit": "ref"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        report["setup_s"] = setup
        report["reference_s"] = references

    report["metrics"] = metrics
    report["problems"] = checker.problems
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"calls {attempted}")
    if not args.trace:
        print(percentile_line(plain.walls))
        print(f"reference_p50_s {statistics.median(references):.4f} s "
              f"(n={len(references)})")
        print(f"injections_per_s {plain.records / sum(plain.walls):.1f} 1/s")
    if warm_dir:
        print(f"prefill (cold sweep in a child process) {prefill_s:.2f} s")
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    if args.trace:
        for name in sorted(set(values) - set(metrics)):
            print(f"{name:40s} {values[name]:.6g} (not in BENCHMARK.json)")
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for label, stats in sorted(checker.stats.items()):
        print(f"simulated {label}: " + " ".join(
            f"{k}={v if k != 'digest' else str(v)[:16]}" for k, v in stats.items()
        ))
    for problem in checker.problems:
        print(f"PROBLEM {problem}")
    print(f"report {report_path.relative_to(ROOT)}")
    correct = failed == 0 and not checker.problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
