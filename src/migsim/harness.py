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

from .config import SCHEMA_VERSION, ScenarioConfig, effective_params
from .migration import MigrationRecord, Outcome, Phase, Technique
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


def row_from_record(trial: int, record: MigrationRecord) -> TrialRow:
    """The row of one finished record. Its three downtime readings bound
    downtime differently:
      * paused: the source-paused interval, pause + checkpoint +
        continuation. If the service never resumed before the record ended,
        as in every StopAndCopy run, it runs from the pause to the end.
      * strict: the checkpoint span alone.
    compare derives the third, pause + checkpoint + transfer, the reading
    the calibrated reference scenario's reduction figure is stated in."""
    if record.completed_at is None:
        raise ValueError("record is not finished")
    phase_ms = {col: record.phase_ms(phase)
                for phase, col in _PHASE_COLUMNS.items()}
    resumed = any(s.name == Phase.CONTINUATION.value
                  for s in record.phase_timeline)
    if resumed:
        paused = (phase_ms["pause_ms"] + phase_ms["checkpoint_ms"]
                  + phase_ms["continuation_ms"])
    else:
        pause_start = (record.phase_timeline[0].start_ms
                       if record.phase_timeline else record.initiated_at)
        paused = record.completed_at - pause_start
    return TrialRow(
        schema_version=SCHEMA_VERSION,
        trial=trial,
        technique=record.technique.value,
        outcome=record.outcome.value,
        total_ms=record.completed_at - record.initiated_at,
        downtime_strict_ms=phase_ms["checkpoint_ms"],
        downtime_paused_ms=paused,
        replayed_count=record.replayed_count,
        drain_ms=record.drain_ms if record.drain_ms is not None else -1.0,
        **phase_ms,
    )


def run_experiment(config: ScenarioConfig) -> list[TrialRow]:
    """Run trials x techniques sequentially, in scenario order, and return
    one row per cell in run order. Sequential and single-threaded on purpose:
    run order is part of determinism."""
    rows: list[TrialRow] = []
    for trial in range(config.trials):
        for technique in config.techniques:
            params = effective_params(config, technique, trial)
            result = Simulation(params).run()
            rows.append(row_from_record(trial, result.record))
    return rows


def export_csv(rows: list[TrialRow], path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([f"{getattr(row, col):.6f}" if parse is float
                             else getattr(row, col)
                             for col, parse in _PARSERS.items()])


def load_csv(path: str | Path) -> list[TrialRow]:
    """Read a report back. A malformed row raises ValueError naming the
    file, the line and the column: "<path>:<line>: <column>: <problem>"."""
    rows: list[TrialRow] = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_COLUMNS:
            raise ValueError(
                f"{path}: unexpected CSV header {reader.fieldnames}")
        for raw in reader:
            where = f"{path}:{reader.line_num}"
            if None in raw:
                raise ValueError(f"{where}: more fields than the header has")
            values = {}
            for col, parse in _PARSERS.items():
                if raw[col] is None:
                    raise ValueError(f"{where}: {col}: missing")
                try:
                    values[col] = parse(raw[col])
                except ValueError as exc:
                    raise ValueError(f"{where}: {col}: {exc}") from None
            rows.append(TrialRow(**values))
    return rows


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
            lines.append(f"{Technique.MS2M.value} vs "
                         f"{Technique.STOP_AND_COPY.value}:")
            lines.append(f"  total migration time  {self.total_delta_pct:+.2f}%")
            # a baseline with no downtime leaves the reductions undefined
            pct = lambda v: "n/a" if v is None else f"{v:.2f}%"
            lines.append("  downtime reduction:"
                         f" paused {pct(self.downtime_reduction_paused_pct)},"
                         f" strict {pct(self.downtime_reduction_strict_pct)},"
                         f" p+c+t {pct(self.downtime_reduction_pct_reading_pct)}")
        return "\n".join(lines)


def compare(rows: list[TrialRow]) -> ComparisonSummary:
    """Summarize per technique, in order of first appearance, and, when both
    techniques are present, derive the MS2M-vs-baseline deltas. Timing means
    use completed trials when any exist (aborted trials end at the abort,
    which is not comparable)."""
    summaries: dict[str, TechniqueSummary] = {}
    for tech in dict.fromkeys(r.technique for r in rows):
        cells = [r for r in rows if r.technique == tech]
        outcomes: dict[str, int] = {}
        for r in cells:
            outcomes[r.outcome] = outcomes.get(r.outcome, 0) + 1
        timed = [r for r in cells if r.outcome == Outcome.COMPLETED.value]
        if not timed:
            timed = cells
        mean = lambda col: statistics.fmean(getattr(r, col) for r in timed)
        summaries[tech] = TechniqueSummary(
            technique=tech,
            trials=len(cells),
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
