"""Acceptance gate: seven end-to-end criteria, one verdict line each.

Each test prints ACCEPTANCE <n> <label>: PASS|FAIL before asserting, so the
gate's state is readable straight from the pytest output.
"""

import random
import time
from pathlib import Path

from migsim.broker import Broker
from migsim.cli import main
from migsim.config import load_scenario
from migsim.harness import compare, export_csv, row_from_record, run_experiment
from migsim.migration import HandoffPolicy, Outcome, Phase, Technique
from migsim.sim import FaultSpec, SimParams, Simulation
from migsim.simnet import Host, Link, SimClock
from migsim.workload import WorkloadSpec, replay_stress_spec, settings_payload

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def _verdict(n: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {n} {label}: {'PASS' if ok else 'FAIL'}")


def _ids(outputs):
    return [int(o.split()[1]) for o in outputs]


def test_acceptance_1_calibrated_reference():
    started = time.perf_counter()
    report = run_experiment(load_scenario(SCENARIO_DIR / "calibrated.json"))
    wall_s = time.perf_counter() - started
    summary = compare(report)
    ms2m = summary.techniques["MS2M"]
    sc = summary.techniques["StopAndCopy"]

    checks = {
        "ms2m total within 2% of 4852.86":
            abs(ms2m.mean_total_ms / 4852.86 - 1.0) <= 0.02,
        "baseline total within 2% of 4472.72":
            abs(sc.mean_total_ms / 4472.72 - 1.0) <= 0.02,
        "total delta in 8.50 +/- 1 points":
            abs(summary.total_delta_pct - 8.50) <= 1.0,
        "p+c+t downtime within 2% of 3581.84":
            abs(ms2m.mean_downtime_pct_ms / 3581.84 - 1.0) <= 0.02,
        "downtime reduction in 19.92 +/- 1 points":
            abs(summary.downtime_reduction_pct_reading_pct - 19.92) <= 1.0,
        "wall clock under 10 s": wall_s < 10.0,
    }

    five = (Phase.PAUSE, Phase.CHECKPOINT, Phase.CONTINUATION,
            Phase.TRANSFER, Phase.RESTORATION)
    denom = sum(ms2m.mean_phase_ms[p.value] for p in five)
    for phase, target in zip(five, (1.23, 63.04, 1.23, 9.54, 24.97)):
        share = ms2m.mean_phase_ms[phase.value] / denom * 100.0
        checks[f"{phase.value} share {target} +/- 1 points"] = \
            abs(share - target) <= 1.0

    ok = all(checks.values())
    _verdict(1, "calibrated reference reproduction", ok)
    detail = "; ".join(name for name, passed in checks.items() if not passed)
    assert ok, f"failed: {detail} (ms2m={ms2m.mean_total_ms:.2f}, " \
               f"sc={sc.mean_total_ms:.2f}, wall={wall_s:.2f}s)"


def test_acceptance_2_exactly_once_oracle():
    src = Host("hs", checkpoint_fixed_ms=20.0, checkpoint_ms_per_kib=32.0)
    tgt = Host("ht", restore_fixed_ms=15.0, restore_ms_per_kib=32.0)
    link = Link("hs", "ht", latency_ms=10.0, bandwidth_kib_per_s=2048.0)

    def params(seed, technique=None, trigger=None):
        return SimParams(
            source_host=src, target_host=tgt, link=link,
            workload=WorkloadSpec("Poisson", 50, 10_000, seed=seed),
            processing_ms=1.0, pause_ms=5.0, continuation_ms=5.0,
            technique=technique, trigger_ms=trigger, seed=seed)

    rng = random.Random(20260821)
    pairs = 0
    failures = []
    for seed in range(100):
        control = Simulation(params(seed)).run()
        for technique in (Technique.MS2M, Technique.STOP_AND_COPY):
            trigger = rng.uniform(1.0, 9500.0)
            res = Simulation(params(seed, technique, trigger)).run()
            pairs += 1
            if (res.outputs != control.outputs
                    or res.final_state != control.final_state
                    or res.record.outcome is not Outcome.COMPLETED):
                failures.append((seed, technique.value, trigger))

    ok = pairs >= 200 and not failures
    _verdict(2, "exactly-once effect across 200 randomized migrations", ok)
    assert ok, f"pairs={pairs}, mismatches={failures[:5]}"


def test_acceptance_3_downtime_ordering():
    rng = random.Random(31337)
    failures = []
    zero_cases = 0
    for i in range(100):
        zero = i % 10 == 0
        if zero:
            latency, restore_fixed, restore_kib = 0.0, 0.0, 0.0
            zero_cases += 1
        else:
            latency = rng.uniform(0.5, 120.0)
            restore_fixed = rng.uniform(0.5, 150.0)
            restore_kib = rng.uniform(0.0, 64.0)
        src = Host("hs", checkpoint_fixed_ms=rng.uniform(1, 150),
                   checkpoint_ms_per_kib=rng.uniform(0, 64))
        tgt = Host("ht", restore_fixed_ms=restore_fixed,
                   restore_ms_per_kib=restore_kib)
        link = Link("hs", "ht", latency_ms=latency, bandwidth_kib_per_s=None)
        common = dict(
            source_host=src, target_host=tgt, link=link,
            workload=WorkloadSpec("ConstantRate", 50, 3000),
            processing_ms=1.0, pause_ms=rng.uniform(0, 40),
            continuation_ms=rng.uniform(0, 40), trigger_ms=800.0)
        ms = Simulation(SimParams(technique=Technique.MS2M, **common)).run()
        sc = Simulation(SimParams(technique=Technique.STOP_AND_COPY,
                                  **common)).run()
        m = row_from_record(0, ms.record)
        s = row_from_record(0, sc.record)
        overlap = m.transfer_ms + m.restoration_ms
        diff = s.downtime_paused_ms - m.downtime_paused_ms
        good = m.downtime_paused_ms <= s.downtime_paused_ms
        good &= abs(diff - overlap) <= 1e-6
        good &= (diff == 0.0) if zero else (diff > 0.0)
        if not good:
            failures.append(i)

    ok = not failures and zero_cases >= 10
    _verdict(3, "downtime ordering with equality only at zero overlap", ok)
    assert ok, f"failing configs: {failures}, zero cases: {zero_cases}"


def test_acceptance_4_mirror_completeness():
    rng = random.Random(424242)
    failures = []
    for case in range(300):
        broker = Broker(SimClock())
        broker.create_queue("main")
        broker.create_queue("sec")
        broker.subscribe("main", "c")
        published = 0
        acked: set[int] = set()
        for _ in range(rng.randrange(0, 25)):
            if rng.random() < 0.6:
                published += 1
                broker.publish("main", b"x%d" % published)
            else:
                msg = broker.poll("main", "c")
                if msg is not None:
                    broker.ack("main", "c", msg.id)
                    acked.add(msg.id)
        start = rng.randrange(1, published + 2)
        # independent bookkeeping: ids still buffered at mirror creation,
        # at or past the start id, then everything published afterwards
        expected = [i for i in range(1, published + 1)
                    if i not in acked and i >= start]
        broker.start_mirror("main", "sec", start)
        for _ in range(rng.randrange(0, 15)):
            published += 1
            broker.publish("main", b"x%d" % published)
            if published >= start:
                expected.append(published)
        if broker.queue("sec").ids() != expected:
            failures.append(case)

    ok = not failures
    _verdict(4, "mirror holds exactly the id->start tail in order", ok)
    assert ok, f"failing cases: {failures[:5]}"


def test_acceptance_5_divergence_behavior():
    def params(ratio, seed, fault=None, policy=None):
        src = Host("hs", checkpoint_fixed_ms=20.0, checkpoint_ms_per_kib=32.0)
        tgt = Host("ht", restore_fixed_ms=15.0, restore_ms_per_kib=32.0)
        link = Link("hs", "ht", latency_ms=20.0, bandwidth_kib_per_s=2048.0,
                    jitter_frac=0.3)
        return SimParams(
            source_host=src, target_host=tgt, link=link,
            workload=replay_stress_spec(ratio, 100.0, duration_ms=8000.0),
            processing_ms=10.0, pause_ms=5.0, continuation_ms=5.0,
            technique=Technique.MS2M, trigger_ms=1000.0, seed=seed,
            policy=policy or HandoffPolicy(), fault=fault)

    problems = []

    for seed in range(10):
        res = Simulation(params(0.5, seed)).run()
        if not (res.record.outcome is Outcome.COMPLETED
                and res.record.replayed_count >= 1):
            problems.append(("drain", seed, res.record.outcome))

    policy = HandoffPolicy()
    budget = (policy.divergence_window + 2) * policy.check_interval_ms
    for seed in range(10):
        p = params(1.5, seed)
        res = Simulation(p).run()
        control = Simulation(SimParams(
            **{**p.__dict__, "technique": None, "trigger_ms": None})).run()
        rec = res.record
        if not (rec.outcome is Outcome.ABORTED_DIVERGENCE
                and rec.phase_ms(Phase.REPLAY) <= budget
                and res.outputs == control.outputs
                and res.final_state == control.final_state):
            problems.append(("diverge", seed, rec.outcome))

    crash = FaultSpec(phase="MessageReplay", offset_ms=0.5)
    for seed in range(10):
        res = Simulation(params(1.5, seed, fault=crash)).run()
        rec = res.record
        last = res.source.state.last_processed_id
        if not (rec.outcome is Outcome.ABORTED_SOURCE_CRASH
                and res.source.crashed
                and res.final_state is None
                and _ids(res.outputs) == list(range(1, last + 1))):
            problems.append(("crash", seed, rec.outcome))

    ok = not problems
    _verdict(5, "replay drain, divergence abort and crash abort", ok)
    assert ok, f"problems: {problems[:5]}"


def test_acceptance_6_deterministic_reports(tmp_path):
    paths = sorted(SCENARIO_DIR.glob("*.json"))
    assert paths, "no shipped scenarios found"
    mismatched = []
    for path in paths:
        config = load_scenario(path)
        a, b = tmp_path / f"{path.stem}.a.csv", tmp_path / f"{path.stem}.b.csv"
        export_csv(run_experiment(config), a)
        export_csv(run_experiment(config), b)
        if a.read_bytes() != b.read_bytes():
            mismatched.append(path.name)

    # the same must hold through the command line front end
    cli_scenario = SCENARIO_DIR / "stress_drain.json"
    out1, out2 = tmp_path / "cli1", tmp_path / "cli2"
    main(["run", str(cli_scenario), "--out", str(out1)])
    main(["run", str(cli_scenario), "--out", str(out2)])
    cli_same = ((out1 / "stress_drain.csv").read_bytes()
                == (out2 / "stress_drain.csv").read_bytes())

    ok = not mismatched and cli_same
    _verdict(6, "byte-identical reports for every shipped scenario", ok)
    assert ok, f"mismatched: {mismatched}, cli_same: {cli_same}"


def test_acceptance_7_linear_checkpoint_cost():
    src = Host("hs", checkpoint_fixed_ms=300.0, checkpoint_ms_per_kib=800.0)
    tgt = Host("ht")
    link = Link("hs", "ht", latency_ms=0.0, bandwidth_kib_per_s=500.0)

    def run(payload_bytes):
        params = SimParams(
            source_host=src, target_host=tgt, link=link,
            stream=[(1.0, settings_payload(payload_bytes))],
            processing_ms=1.0, technique=Technique.MS2M, trigger_ms=10.0)
        return Simulation(params).run().record

    small = run(112)   # state serializes to exactly 128 bytes
    large = run(240)   # exactly 256 bytes: double the size

    cp_small = small.phase_ms(Phase.CHECKPOINT)
    cp_large = large.phase_ms(Phase.CHECKPOINT)
    tr_small = small.phase_ms(Phase.TRANSFER)
    tr_large = large.phase_ms(Phase.TRANSFER)

    checks = {
        "small checkpoint is 128 bytes": small.checkpoint_size_bytes == 128,
        "large checkpoint is 256 bytes": large.checkpoint_size_bytes == 256,
        "small checkpoint span 400 ms": cp_small == 400.0,
        "large checkpoint span 500 ms": cp_large == 500.0,
        "variable checkpoint cost doubles exactly":
            cp_large - 300.0 == 2.0 * (cp_small - 300.0),
        "transfer doubles exactly": tr_large == 2.0 * tr_small,
        "small transfer span 0.25 ms": tr_small == 0.25,
    }
    ok = all(checks.values())
    _verdict(7, "linear state-size cost, exact doubling", ok)
    detail = "; ".join(name for name, passed in checks.items() if not passed)
    assert ok, f"failed: {detail} ({cp_small=}, {cp_large=}, " \
               f"{tr_small=}, {tr_large=})"
