"""The benchmark's three workloads and the cell log that times them.

Every workload is a closed batch: a batch is a fixed list of (trial,
technique) cells run back to back, and the next batch starts when the
previous one ends. A batch is deterministic for its seed slot, so each one is
checked against the committed golden digest and must repeat its exact counts.

    calibrated_sweep  scenarios/calibrated.json as shipped (25 trials x 2
                      techniques) through run_experiment and export_csv.
    overload_backlog  stress_overload.json with Poisson arrivals at the same
                      150/s (1.5x service capacity), MS2M only, 20 trials,
                      through run_experiment and export_csv.
    keyed_state       a seeded keyed stream fed through SimParams.stream:
                      10^4 distinct counters, then 5000 random increments,
                      migrated mid-stream with MS2M and with StopAndCopy.

The benchmark calls migsim through module attributes (harness.run_experiment,
config.load_scenario, ...) so that the tracer's patches see every call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from dataclasses import dataclass
from pathlib import Path

from migsim import config, harness
from migsim import sim as simmod
from migsim.migration import Outcome, Technique
from migsim.simnet import Host, Link

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"
OUT_DIR = ROOT / ".perfbench_out"

# --seed n selects input set n % SEED_SLOTS; golden.json holds one digest
# per slot, so every run is checked against bytes recorded from main.
SEED_SLOTS = 32

# exact per-batch counts read from public attributes after each cell
COUNT_NAMES = ("simnet.events", "broker.publish.n", "service.handle.n",
               "migration.ctl.n", "service.checkpoint_bytes",
               "sim.prescheduled", "sim.published_main")


@dataclass
class Cell:
    ms: float
    counts: dict[str, int]
    params: simmod.SimParams | None = None
    result: simmod.SimResult | None = None


def cell_counts(s: simmod.Simulation, res: simmod.SimResult,
                prescheduled: int) -> dict[str, int]:
    broker = s.broker
    ctl = 0
    if s.manager is not None:
        m = s.manager
        ctl = sum(broker.queue(q).published_total
                  for q in (m.q_mgr, m.q_src, m.q_tgt) if broker.has_queue(q))
    instances = [res.source] + ([res.target] if res.target is not None else [])
    record = res.record
    return {
        "simnet.events": s.clock.events_processed,
        # mirrored copies land only on the secondary queue, so these
        # published_total counters count Broker.publish calls exactly
        "broker.publish.n": (broker.queue(simmod.MAIN_QUEUE).published_total
                             + broker.queue(simmod.OUTPUT_QUEUE).published_total
                             + ctl),
        "service.handle.n": sum(i.applied_count + i.rejected_count
                                for i in instances),
        "migration.ctl.n": ctl,
        "service.checkpoint_bytes": (record.checkpoint_size_bytes or 0
                                     if record is not None else 0),
        "sim.prescheduled": prescheduled,
        "sim.published_main": res.published_main,
    }


class CellLog:
    """Times each cell around Simulation(...).run() and reads its counts.

    as_simulation() returns a stand-in for harness.Simulation, so cells that
    run_experiment builds are timed the same way as cells the benchmark runs
    itself. keep=True also retains params and result for the oracle.
    """

    def __init__(self) -> None:
        self.cells: list[Cell] = []
        self.keep = False

    def run(self, params: simmod.SimParams) -> simmod.SimResult:
        t0 = time.perf_counter()
        s = simmod.Simulation(params)
        t1 = time.perf_counter()
        prescheduled = s.clock.pending()
        t2 = time.perf_counter()
        res = s.run()
        t3 = time.perf_counter()
        self.cells.append(Cell(
            (t1 - t0 + t3 - t2) * 1e3, cell_counts(s, res, prescheduled),
            params if self.keep else None, res if self.keep else None))
        return res

    def as_simulation(self):
        log = self

        class TimedSimulation:
            def __init__(self, params):
                self.params = params

            def run(self):
                return log.run(self.params)

        return TimedSimulation


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class CsvWorkload:
    """A scenario run through run_experiment and export_csv; the digest is
    that of the CSV bytes."""

    def __init__(self, name: str, slot: int, scenario: str, adjust) -> None:
        self.name = name
        self.slot = slot
        self.scenario = SCENARIOS / scenario
        self.adjust = adjust
        self.csv_path = OUT_DIR / f"{name}.csv"
        self.config = self.load()
        self.cells_per_batch = self.config.trials * len(self.config.techniques)

    def load(self) -> config.ScenarioConfig:
        return self.adjust(config.load_scenario(self.scenario), self.slot)

    def setup(self) -> None:
        """What a user pays before the first cell: scenario load and parse,
        and the first cell's input stream."""
        params = config.effective_params(self.config, self.config.techniques[0], 0)
        simmod.generate(params.workload)

    def batch(self, log: CellLog) -> Path:
        # cells reach log through the harness.Simulation stand-in
        report = harness.run_experiment(self.load())
        harness.export_csv(report, self.csv_path)
        return self.csv_path

    def digest(self, out: Path):
        return sha256(out.read_bytes())


def _calibrated(cfg: config.ScenarioConfig, slot: int) -> config.ScenarioConfig:
    # GameSession arrivals are constant-rate and the link has no jitter, so
    # the seed moves none of this workload's inputs
    return dataclasses.replace(cfg, seed=slot)


def _overload(cfg: config.ScenarioConfig, slot: int) -> config.ScenarioConfig:
    return dataclasses.replace(
        cfg, seed=1000 * slot, trials=20,
        workload=dataclasses.replace(cfg.workload, kind="Poisson"))


KEYS = 10_000
UPDATES = 5_000
ARRIVALS_PER_S = 200.0


def keyed_stream(seed: int) -> list[tuple[float, bytes]]:
    """Touch KEYS distinct counters in a seeded order, then make UPDATES
    random increments; Poisson arrivals at ARRIVALS_PER_S."""
    rng = random.Random(seed)
    keys = [b"k%05d" % i for i in range(KEYS)]
    rng.shuffle(keys)
    payloads = [b"add %s 1" % k for k in keys]
    payloads += [b"add %s %d" % (rng.choice(keys), rng.randint(1, 9))
                 for _ in range(UPDATES)]
    stream = []
    t = 0.0
    for p in payloads:
        t += rng.expovariate(ARRIVALS_PER_S) * 1000.0
        stream.append((t, p))
    return stream


class KeyedWorkload:
    """Two migrated cells over one keyed stream; the digest covers outputs
    and final state of each cell."""

    name = "keyed_state"
    techniques = (Technique.MS2M, Technique.STOP_AND_COPY)
    cells_per_batch = len(techniques)

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.params: list[simmod.SimParams] = []

    def setup(self) -> None:
        stream = keyed_stream(self.slot)
        # trigger after every key exists, half way through the updates, so
        # the checkpoint carries the whole ~225 KiB state
        trigger = stream[KEYS + UPDATES // 2][0]
        self.params = [simmod.SimParams(
            source_host=Host("a", checkpoint_fixed_ms=20.0,
                             checkpoint_ms_per_kib=1.0),
            target_host=Host("b", restore_fixed_ms=15.0,
                             restore_ms_per_kib=1.0),
            link=Link("a", "b", latency_ms=10.0, bandwidth_kib_per_s=4096.0),
            stream=stream, processing_ms=1.0, pause_ms=5.0,
            continuation_ms=5.0, technique=t, trigger_ms=trigger,
            seed=self.slot) for t in self.techniques]

    def batch(self, log: CellLog) -> list[simmod.SimResult]:
        return [log.run(p) for p in self.params]

    def digest(self, out: list[simmod.SimResult]):
        return {t.value: {"outputs": sha256(b"\n".join(r.outputs)),
                          "final_state": sha256(r.final_state or b"")}
                for t, r in zip(self.techniques, out)}


def make(name: str, seed: int):
    """Build and set up the named workload for --seed seed."""
    slot = seed % SEED_SLOTS
    if name == "calibrated_sweep":
        w = CsvWorkload(name, slot, "calibrated.json", _calibrated)
    elif name == "overload_backlog":
        w = CsvWorkload(name, slot, "stress_overload.json", _overload)
    elif name == "keyed_state":
        w = KeyedWorkload(slot)
    else:
        raise ValueError(f"unknown workload {name!r}")
    w.setup()
    return w


# -- exactly-once oracle -------------------------------------------------------

ORACLE_CELLS = 2


def oracle(cells: list[Cell]) -> tuple[int, list[str]]:
    """Check up to ORACLE_CELLS kept cells that finished Completed or
    AbortedDivergence: their outputs and final state must equal those of the
    same inputs run without a migration. Returns (cells checked, problems)."""
    checked, problems = 0, []
    control_params = control = None
    for cell in cells:
        if checked == ORACLE_CELLS:
            break
        p, res = cell.params, cell.result
        if res.record.outcome not in (Outcome.COMPLETED,
                                      Outcome.ABORTED_DIVERGENCE):
            continue
        unmigrated = dataclasses.replace(p, technique=None, trigger_ms=None)
        if unmigrated != control_params:
            control_params = unmigrated
            control = simmod.Simulation(unmigrated).run()
        checked += 1
        if (res.outputs != control.outputs
                or res.final_state != control.final_state):
            problems.append(f"{p.technique.value} seed {p.seed}: "
                            f"{res.record.outcome.value} run differs from the "
                            "no-migration control")
    return checked, problems
