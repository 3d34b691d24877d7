"""Assembling the measured-results report (EXPERIMENTS.md §Measured results).

Each bench archives its rendered table/figure under ``benchmarks/results/``;
this module stitches them into one markdown section and can splice it into
EXPERIMENTS.md below the marker line, so the document always reflects the
latest bench run.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional

from repro.core.telemetry import (
    COUNTER_ORDER,
    GAUGE_ORDER,
    PHASE_ORDER,
    CampaignTelemetry,
)

#: EXPERIMENTS.md content below this marker is machine-generated.
MARKER = "## Measured results"

#: Presentation order (anything else is appended alphabetically).
PREFERRED_ORDER = [
    "table1_structures",
    "table2_cycles",
    "fig6_path_distributions",
    "fig7_structure_delayavf",
    "fig8_components",
    "fig9_alu_benchmarks",
    "fig10_savf_vs_delayavf",
    "table3_orace",
    "ablation_optimizations",
    "macro_substructures",
]


def render_telemetry(
    telemetry: Optional[CampaignTelemetry], title: str = "campaign telemetry"
) -> str:
    """Render campaign counters, gauges, counter ratios, and phase timers."""
    if telemetry is None:
        return f"{title}: (none recorded)"
    known = {name: position for position, name in enumerate(COUNTER_ORDER)}
    counters = sorted(
        telemetry.counters.items(),
        key=lambda item: (known.get(item[0], len(known)), item[0]),
    )
    known_gauges = {name: position for position, name in enumerate(GAUGE_ORDER)}
    gauges = sorted(
        telemetry.gauges.items(),
        key=lambda item: (known_gauges.get(item[0], len(known_gauges)), item[0]),
    )
    levels = gauges + list(telemetry.ratios().items())
    known_phases = {name: position for position, name in enumerate(PHASE_ORDER)}
    phases = sorted(
        telemetry.phase_seconds.items(),
        key=lambda item: (known_phases.get(item[0], len(known_phases)), item[0]),
    )
    # Two phase columns: "wall" is what a clock on the coordinator measured;
    # "cpu·workers" sums every process's spans, so a parallel campaign's cpu
    # column legitimately exceeds wall by roughly the parallelism.  A phase
    # timed only inside workers (no coordinator span) shows wall as "—".
    wall_seconds = getattr(telemetry, "phase_wall_seconds", {}) or {}
    width = max(
        (len(name) for name, _ in counters + levels + phases), default=0
    )
    lines = [title]
    for name, value in counters:
        lines.append(f"  {name:<{width}}  {value}")
    for name, value in levels:
        lines.append(f"  {name:<{width}}  {value:.6g}")
    if phases:
        wall_col = 12
        lines.append(
            f"  {'phase':<{width}}  {'wall':>{wall_col}}  {'cpu·workers':>12}"
        )
    for name, seconds in phases:
        wall = wall_seconds.get(name)
        wall_text = f"{wall * 1000.0:.1f} ms" if wall is not None else "—"
        lines.append(
            f"  {name:<{width}}  {wall_text:>12}  {seconds * 1000.0:.1f} ms"
        )
    return "\n".join(lines)


def collect_result_files(results_dir: Path) -> List[Path]:
    """Result files in presentation order."""
    files = {path.stem: path for path in sorted(results_dir.glob("*.txt"))}
    ordered = [files.pop(stem) for stem in PREFERRED_ORDER if stem in files]
    return ordered + [files[stem] for stem in sorted(files)]


def build_measured_section(results_dir: Path) -> str:
    """Render all archived bench reports as one markdown section."""
    lines = [
        MARKER,
        "",
        "*Machine-generated from `benchmarks/results/` — regenerate with "
        "`python benchmarks/update_experiments.py` after a bench run.*",
        "",
    ]
    files = collect_result_files(results_dir)
    if not files:
        lines.append("*(no bench results archived yet)*")
    for path in files:
        lines.append(f"### {path.stem}")
        lines.append("")
        lines.append("```")
        lines.append(path.read_text().rstrip())
        lines.append("```")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def splice_into_document(document: str, section: str) -> str:
    """Replace everything from :data:`MARKER` onward with *section*."""
    index = document.find(MARKER)
    if index == -1:
        return document.rstrip() + "\n\n" + section
    return document[:index] + section


def update_experiments_md(experiments_md: Path, results_dir: Path) -> None:
    """Rewrite the measured-results section of *experiments_md* in place."""
    section = build_measured_section(results_dir)
    document = experiments_md.read_text() if experiments_md.exists() else ""
    experiments_md.write_text(splice_into_document(document, section))
