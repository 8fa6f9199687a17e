"""Checks on the benchmark itself: span arithmetic, tracer coverage against
the program's own counters, and exact counts that repeat."""

import json
from pathlib import Path

import tracer
import workloads
from migsim import harness, migration, service, sim
from migsim.migration import HandoffPolicy, Technique
from migsim.sim import SimParams
from migsim.simnet import Host, Link
from migsim.workload import WorkloadSpec

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])  # start/end pairs, nested
    t = tracer.Tracer(clock=lambda: next(ticks))
    leaf = t.span("leaf", lambda: None)

    def root():
        leaf()  # 1.0 -> 3.0
        leaf()  # 4.0 -> 4.5

    t.span("root", root)()  # 0.0 -> 10.0
    assert t.calls == {"leaf": 2, "root": 1}
    assert t.total_s["root"] == 10.0
    assert t.total_s["leaf"] == 2.5
    assert t.self_s("root") == 7.5
    assert t.self_s("leaf") == 2.5


def _params(technique):
    return SimParams(
        source_host=Host("a", checkpoint_fixed_ms=20.0, checkpoint_ms_per_kib=8.0),
        target_host=Host("b", restore_fixed_ms=10.0, restore_ms_per_kib=8.0),
        link=Link("a", "b", latency_ms=5.0, bandwidth_kib_per_s=1024.0),
        workload=WorkloadSpec("Poisson", 80, 3000, seed=3),
        processing_ms=5.0, pause_ms=2.0, continuation_ms=2.0,
        technique=technique, trigger_ms=1000.0, policy=HandoffPolicy(), seed=3)


def test_wrapped_calls_equal_program_counters():
    originals = (service.handle, sim.serialize_state, migration.decide_handoff)
    t = tracer.Tracer()
    patches = tracer.install(t)
    try:
        for module, names in (("migsim.service", {"handle", "serialize_state",
                                                  "deserialize_state"}),
                              ("migsim.sim", {"serialize_state", "generate"}),
                              ("migsim.migration", {"decide_handoff"}),
                              ("migsim.harness", {"effective_params"})):
            assert names <= set(patches.sites[module]), module
        log = workloads.CellLog()
        for technique in (Technique.MS2M, Technique.STOP_AND_COPY):
            log.run(_params(technique))
    finally:
        patches.undo()
    assert (service.handle, sim.serialize_state,
            migration.decide_handoff) == originals

    total = {k: sum(c.counts[k] for c in log.cells)
             for k in workloads.COUNT_NAMES}
    assert t.calls["service.handle"] == total["service.handle.n"] > 0
    assert t.calls["simnet.event"] == total["simnet.events"] > 0
    assert t.calls["broker.publish"] == total["broker.publish.n"]
    assert t.calls["migration.ctl"] == total["migration.ctl.n"] > 0
    # per migrated cell: checkpoint sizing (state_size_bytes, called from
    # migration), the checkpoint itself, and the final state
    assert t.calls["service.serialize"] == 3 * len(log.cells)
    assert t.calls["migration.decisions"] > 0
    assert t.self_s("simnet.run_until") > 0


def test_batches_repeat_counts_and_match_golden():
    w = workloads.make("calibrated_sweep", 5)
    w.csv_path = workloads.OUT_DIR / "test_calibrated_sweep.csv"
    workloads.OUT_DIR.mkdir(exist_ok=True)
    log = workloads.CellLog()
    patches = tracer.Patches()
    patches.set(harness, "Simulation", log.as_simulation())
    counts = []
    try:
        log.keep = True
        for _ in range(2):
            first = len(log.cells)
            assert w.digest(w.batch(log)) == GOLDEN["calibrated_sweep"]["5"]
            counts.append({k: sum(c.counts[k] for c in log.cells[first:])
                           for k in workloads.COUNT_NAMES})
    finally:
        patches.undo()
        w.csv_path.unlink(missing_ok=True)
    assert counts[0] == counts[1]
    assert len(log.cells) == 2 * w.cells_per_batch
    checked, problems = workloads.oracle(log.cells)
    assert checked == workloads.ORACLE_CELLS and problems == []
