"""Experiment harness: run every (trial, technique) cell of a scenario,
collect per-trial rows, compare techniques, and read or write the CSV report.

The CSV schema is fixed; columns are never added, dropped or reordered
between runs so reports stay diffable and machine-comparable. TrialRow's
fields are the columns, in order, and their types say how each is written
and read back. Floats are written with six decimal places; drain_ms is -1.0
when draining does not apply (the migration never produced a caught-up
serving instance).
"""

from __future__ import annotations

import csv
import dataclasses
import statistics
from dataclasses import dataclass
from pathlib import Path

from .config import ScenarioConfig, effective_params
from .migration import (MigrationRecord, Outcome, Phase, Technique,
                        compute_metrics)
from .sim import Simulation


@dataclass(frozen=True)
class TrialRow:
    schema_version: int
    trial: int
    technique: str
    outcome: str
    total_ms: float
    downtime_strict_ms: float
    downtime_paused_ms: float
    pause_ms: float
    checkpoint_ms: float
    continuation_ms: float
    transfer_ms: float
    restoration_ms: float
    replay_ms: float
    finalize_ms: float
    replayed_count: int
    drain_ms: float


# column -> parser, in CSV order (annotations are strings here)
_PARSERS = {f.name: {"int": int, "float": float, "str": str}[f.type]
            for f in dataclasses.fields(TrialRow)}
CSV_COLUMNS = list(_PARSERS)

_PHASE_COLUMNS = {
    Phase.PAUSE: "pause_ms",
    Phase.CHECKPOINT: "checkpoint_ms",
    Phase.CONTINUATION: "continuation_ms",
    Phase.TRANSFER: "transfer_ms",
    Phase.RESTORATION: "restoration_ms",
    Phase.REPLAY: "replay_ms",
    Phase.FINALIZATION: "finalize_ms",
}


def row_from_record(schema_version: int, trial: int,
                    record: MigrationRecord) -> TrialRow:
    m = compute_metrics(record)
    return TrialRow(
        schema_version=schema_version,
        trial=trial,
        technique=record.technique.value,
        outcome=record.outcome.value,
        total_ms=m.total_ms,
        downtime_strict_ms=m.downtime_strict_ms,
        downtime_paused_ms=m.downtime_paused_ms,
        replayed_count=record.replayed_count,
        drain_ms=record.drain_ms if record.drain_ms is not None else -1.0,
        **{col: m.phase_ms[phase.value]
           for phase, col in _PHASE_COLUMNS.items()},
    )


class MetricsReport:
    """Per-trial rows, in run order; compare() summarizes them."""

    def __init__(self, rows: list[TrialRow]):
        self.rows = list(rows)

    def techniques(self) -> list[str]:
        seen: list[str] = []
        for row in self.rows:
            if row.technique not in seen:
                seen.append(row.technique)
        return seen


def run_experiment(config: ScenarioConfig) -> MetricsReport:
    """Run trials x techniques sequentially, in scenario order. Sequential
    and single-threaded on purpose: run order is part of determinism."""
    rows: list[TrialRow] = []
    for trial in range(config.trials):
        for technique in config.techniques:
            params = effective_params(config, technique, trial)
            result = Simulation(params).run()
            rows.append(row_from_record(config.schema_version, trial,
                                        result.record))
    return MetricsReport(rows)


def export_csv(report: MetricsReport, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in report.rows:
            writer.writerow([f"{getattr(row, col):.6f}" if parse is float
                             else getattr(row, col)
                             for col, parse in _PARSERS.items()])


def load_csv(path: str | Path) -> MetricsReport:
    rows: list[TrialRow] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(
                f"{path}: unexpected CSV header {reader.fieldnames}")
        for raw in reader:
            rows.append(TrialRow(**{col: parse(raw[col])
                                    for col, parse in _PARSERS.items()}))
    return MetricsReport(rows)


@dataclass(frozen=True)
class TechniqueSummary:
    technique: str
    trials: int
    outcomes: dict[str, int]
    mean_total_ms: float
    mean_downtime_paused_ms: float
    mean_downtime_strict_ms: float
    mean_downtime_pct_ms: float
    mean_phase_ms: dict[str, float]


@dataclass(frozen=True)
class ComparisonSummary:
    techniques: dict[str, TechniqueSummary]
    total_delta_pct: float | None
    downtime_reduction_paused_pct: float | None
    downtime_reduction_strict_pct: float | None
    downtime_reduction_pct_reading_pct: float | None

    def format_text(self) -> str:
        lines: list[str] = []
        for name, s in self.techniques.items():
            outcome_txt = ", ".join(f"{k}={v}" for k, v in s.outcomes.items())
            lines.append(f"{name}: {s.trials} trials ({outcome_txt})")
            lines.append(f"  total               {s.mean_total_ms:12.3f} ms")
            lines.append(f"  downtime (paused)   {s.mean_downtime_paused_ms:12.3f} ms")
            lines.append(f"  downtime (strict)   {s.mean_downtime_strict_ms:12.3f} ms")
            lines.append(f"  downtime (p+c+t)    {s.mean_downtime_pct_ms:12.3f} ms")
            for phase, value in s.mean_phase_ms.items():
                if value:
                    lines.append(f"  {phase:<19} {value:12.3f} ms")
        if self.total_delta_pct is not None:
            ms2m = Technique.MS2M.value
            sc = Technique.STOP_AND_COPY.value
            lines.append(f"{ms2m} vs {sc}:")
            lines.append(f"  total migration time  {self.total_delta_pct:+.2f}%")
            lines.append("  downtime reduction:"
                         f" paused {self.downtime_reduction_paused_pct:.2f}%,"
                         f" strict {self.downtime_reduction_strict_pct:.2f}%,"
                         f" p+c+t {self.downtime_reduction_pct_reading_pct:.2f}%")
        return "\n".join(lines)


def compare(report: MetricsReport) -> ComparisonSummary:
    """Summarize per technique and, when both techniques are present, derive
    the MS2M-vs-baseline deltas. Timing means use completed trials when any
    exist (aborted trials end at the abort, which is not comparable)."""
    summaries: dict[str, TechniqueSummary] = {}
    for tech in report.techniques():
        rows = [r for r in report.rows if r.technique == tech]
        outcomes: dict[str, int] = {}
        for r in rows:
            outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1
        timed = [r for r in rows if r.outcome == Outcome.COMPLETED.value]
        if not timed:
            timed = rows
        mean = lambda col: statistics.fmean(getattr(r, col) for r in timed)
        summaries[tech] = TechniqueSummary(
            technique=tech,
            trials=len(rows),
            outcomes=outcomes,
            mean_total_ms=mean("total_ms"),
            mean_downtime_paused_ms=mean("downtime_paused_ms"),
            mean_downtime_strict_ms=mean("downtime_strict_ms"),
            mean_downtime_pct_ms=(mean("pause_ms") + mean("checkpoint_ms")
                                  + mean("transfer_ms")),
            mean_phase_ms={phase.value: mean(col)
                           for phase, col in _PHASE_COLUMNS.items()},
        )

    ms2m = summaries.get(Technique.MS2M.value)
    sc = summaries.get(Technique.STOP_AND_COPY.value)
    total_delta = None
    red_paused = red_strict = red_pct = None
    if ms2m is not None and sc is not None and sc.mean_total_ms > 0:
        baseline_downtime = sc.mean_downtime_paused_ms
        total_delta = (ms2m.mean_total_ms / sc.mean_total_ms - 1.0) * 100.0
        if baseline_downtime > 0:
            red_paused = (1.0 - ms2m.mean_downtime_paused_ms
                          / baseline_downtime) * 100.0
            red_strict = (1.0 - ms2m.mean_downtime_strict_ms
                          / baseline_downtime) * 100.0
            red_pct = (1.0 - ms2m.mean_downtime_pct_ms
                       / baseline_downtime) * 100.0
    return ComparisonSummary(
        techniques=summaries,
        total_delta_pct=total_delta,
        downtime_reduction_paused_pct=red_paused,
        downtime_reduction_strict_pct=red_strict,
        downtime_reduction_pct_reading_pct=red_pct,
    )
