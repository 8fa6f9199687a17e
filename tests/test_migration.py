import dataclasses
import random

import pytest

from migsim.migration import (Decision, HandoffPolicy, MigrationRecord,
                              Outcome, Phase, PhaseSpan, Technique,
                              compute_metrics, decide_handoff)
from migsim.service import Mode, ProtocolError, UnknownCommand
from migsim.sim import FaultSpec, SimParams, Simulation
from migsim.simnet import Host, Link, SimError
from migsim.workload import WorkloadSpec, replay_stress_spec

# -- handoff decision ----------------------------------------------------------


def test_drained_backlog_wins_even_past_timeout():
    policy = HandoffPolicy()
    d = decide_handoff(0, elapsed_replay_ms=1e9, policy=policy,
                       overload_streak=999)
    assert d is Decision.HANDOFF


def test_handoff_threshold_is_inclusive():
    policy = HandoffPolicy(handoff_threshold=5)
    assert decide_handoff(5, 0, policy) is Decision.HANDOFF
    assert decide_handoff(6, 0, policy) is Decision.CONTINUE


def test_timeout_aborts_strictly_after_deadline():
    policy = HandoffPolicy(replay_timeout_ms=60_000.0)
    assert decide_handoff(10, 60_000.0, policy) is Decision.CONTINUE
    assert decide_handoff(10, 60_000.1, policy) is Decision.ABORT


def test_timeout_none_disables_deadline():
    policy = HandoffPolicy(replay_timeout_ms=None)
    assert decide_handoff(10, 1e12, policy) is Decision.CONTINUE


def test_sustained_overload_aborts_at_window():
    policy = HandoffPolicy(divergence_window=5)
    assert decide_handoff(10, 0, policy, overload_streak=4) \
        is Decision.CONTINUE
    assert decide_handoff(10, 0, policy, overload_streak=5) \
        is Decision.ABORT


def test_policy_validation():
    with pytest.raises(ValueError):
        HandoffPolicy(handoff_threshold=-1)
    with pytest.raises(ValueError):
        HandoffPolicy(replay_timeout_ms=0)
    with pytest.raises(ValueError):
        HandoffPolicy(divergence_window=0)
    with pytest.raises(ValueError):
        HandoffPolicy(check_interval_ms=0)
    HandoffPolicy(replay_timeout_ms=None)


# -- records and metrics --------------------------------------------------------


def _span(phase: Phase, a: float, b: float) -> PhaseSpan:
    return PhaseSpan(phase.value, a, b)


def test_phase_span_validation():
    with pytest.raises(ValueError):
        PhaseSpan("x", 5.0, 4.0)
    assert PhaseSpan("x", 5.0, 5.0).duration_ms == 0.0
    assert PhaseSpan("x", 2.0, 7.5).duration_ms == 5.5


def test_validate_timeline_rejects_gaps():
    rec = MigrationRecord(Technique.MS2M, "m", 0.0, phase_timeline=[
        _span(Phase.PAUSE, 0, 10), _span(Phase.CHECKPOINT, 10, 30)])
    rec.validate_timeline()
    rec.phase_timeline.append(_span(Phase.TRANSFER, 31, 40))
    with pytest.raises(ProtocolError):
        rec.validate_timeline()


def test_metrics_oracle_live_migration():
    rec = MigrationRecord(
        Technique.MS2M, "m", initiated_at=0.0, outcome=Outcome.COMPLETED,
        completed_at=80.0, phase_timeline=[
            _span(Phase.PAUSE, 0, 10),
            _span(Phase.CHECKPOINT, 10, 30),
            _span(Phase.CONTINUATION, 30, 35),
            _span(Phase.TRANSFER, 35, 55),
            _span(Phase.RESTORATION, 55, 75),
            _span(Phase.REPLAY, 75, 80),
            _span(Phase.FINALIZATION, 80, 80),
        ])
    m = compute_metrics(rec)
    assert m.total_ms == 80.0
    assert m.downtime_paused_ms == 35.0       # pause + checkpoint + continuation
    assert m.downtime_strict_ms == 20.0       # checkpoint alone
    assert m.downtime_pause_checkpoint_transfer_ms == 50.0
    assert m.phase_ms[Phase.REPLAY.value] == 5.0


def test_metrics_oracle_stop_and_copy():
    rec = MigrationRecord(
        Technique.STOP_AND_COPY, "m", initiated_at=0.0,
        outcome=Outcome.COMPLETED, completed_at=80.0, phase_timeline=[
            _span(Phase.PAUSE, 0, 10),
            _span(Phase.CHECKPOINT, 10, 30),
            _span(Phase.TRANSFER, 30, 55),
            _span(Phase.RESTORATION, 55, 78),
            _span(Phase.FINALIZATION, 78, 80),
        ])
    m = compute_metrics(rec)
    # the service never resumed, so it was down for the whole migration
    assert m.downtime_paused_ms == 80.0
    assert m.downtime_strict_ms == 20.0
    assert m.downtime_pause_checkpoint_transfer_ms == 55.0


def test_metrics_never_resumed_live_migration():
    # aborted before the continuation: down from pause start to the abort
    rec = MigrationRecord(
        Technique.MS2M, "m", initiated_at=0.0,
        outcome=Outcome.ABORTED_SOURCE_CRASH, completed_at=12.0,
        phase_timeline=[_span(Phase.PAUSE, 0, 10),
                        _span(Phase.CHECKPOINT, 10, 12)])
    assert compute_metrics(rec).downtime_paused_ms == 12.0


def test_metrics_require_finished_record():
    rec = MigrationRecord(Technique.MS2M, "m", 0.0)
    with pytest.raises(ValueError):
        compute_metrics(rec)


# -- end-to-end runs -------------------------------------------------------------


def _mk(arrival=100.0, duration=4000.0, processing=2.0, latency=50.0, **kw):
    src = Host("hs", checkpoint_fixed_ms=20.0, checkpoint_ms_per_kib=32.0)
    tgt = Host("ht", restore_fixed_ms=15.0, restore_ms_per_kib=32.0)
    link = Link("hs", "ht", latency_ms=latency, bandwidth_kib_per_s=2048.0)
    params = dict(
        source_host=src, target_host=tgt, link=link,
        workload=WorkloadSpec("ConstantRate", arrival, duration),
        processing_ms=processing, pause_ms=5.0, continuation_ms=5.0,
        technique=Technique.MS2M, trigger_ms=1000.0)
    params.update(kw)
    return SimParams(**params)


def _run(params) -> "SimResult":
    return Simulation(params).run()


def _control_of(params):
    """The same inputs with no migration at all."""
    return _run(dataclasses.replace(params, technique=None, trigger_ms=None,
                                    fault=None))


def _ids(outputs):
    return [int(o.split()[1]) for o in outputs]


def test_simulation_guards():
    with pytest.raises(ValueError):
        Simulation(_mk(trigger_ms=None))
    with pytest.raises(ValueError):
        Simulation(_mk(stream=[(1.0, b"add score 1 xxxx")]))
    sim = Simulation(_mk())
    sim.run()
    with pytest.raises(SimError):
        sim.run()
    # a control event the migration protocol does not know is refused
    sim.broker.publish(sim.manager.q_mgr, b"teleport")
    with pytest.raises(ProtocolError, match="teleport"):
        sim.clock.run_until()


def test_unknown_command_reports_where_it_was_met():
    # picked up at 1 ms, it fails when processing completes at 3 ms
    sim = Simulation(_mk(workload=None, stream=[(1.0, b"frob x")]))
    with pytest.raises(UnknownCommand, match=(
            r"^svc@hs at t=3\.0 ms: message 1 on queue 'svc\.in': "
            r"unknown op b'frob'$")):
        sim.run()
    sim = Simulation(_mk(workload=None, stream=[(1.0, b"add \xff 1")]))
    with pytest.raises(UnknownCommand, match=(
            r"^svc@hs at t=3\.0 ms: message 1 on queue 'svc\.in': "
            r"non-ASCII key: b'\\xff'$")):
        sim.run()


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(kind="meteor", at_ms=1.0)
    with pytest.raises(ValueError):
        FaultSpec()                                  # neither time nor phase
    with pytest.raises(ValueError):
        FaultSpec(at_ms=1.0, phase="MessageReplay")  # both
    with pytest.raises(ValueError):
        FaultSpec(phase="NoSuchPhase")
    with pytest.raises(ValueError):
        FaultSpec(phase="MessageReplay", offset_ms=-1)
    FaultSpec(at_ms=5.0)
    FaultSpec(phase="ServicePause", offset_ms=0.5)


def test_completed_live_migration_shape():
    res = _run(_mk())
    rec = res.record
    assert rec.outcome is Outcome.COMPLETED
    assert [s.name for s in rec.phase_timeline] == [
        "ServicePause", "ServiceCheckpoint", "ServiceContinuation",
        "CheckpointTransfer", "ServiceRestoration", "MessageReplay",
        "Finalization"]
    rec.validate_timeline()
    assert rec.phase_timeline[0].start_ms == rec.initiated_at == 1000.0
    assert rec.phase_timeline[-1].end_ms == rec.completed_at
    total = sum(s.duration_ms for s in rec.phase_timeline)
    assert total == pytest.approx(rec.completed_at - rec.initiated_at, abs=1e-9)
    # ConstantRate state is a single counter: 12 header + 9 key + 13 value
    assert rec.checkpoint_size_bytes == 34
    assert rec.watermark == res.source.state.last_processed_id
    assert rec.replayed_count > 0
    assert rec.drain_ms is not None and rec.drain_ms >= 0
    assert res.remaining_main == 0
    assert res.source.mode is Mode.STOPPED
    assert res.target.mode is Mode.SERVING


def test_completed_stop_and_copy_shape():
    res = _run(_mk(technique=Technique.STOP_AND_COPY))
    rec = res.record
    assert rec.outcome is Outcome.COMPLETED
    assert [s.name for s in rec.phase_timeline] == [
        "ServicePause", "ServiceCheckpoint", "CheckpointTransfer",
        "ServiceRestoration", "Finalization"]
    rec.validate_timeline()
    assert rec.phase_timeline[-1].end_ms == rec.completed_at
    assert rec.replayed_count == 0
    assert rec.watermark is None
    assert res.target.applied_count > 0   # worked through the buffered backlog
    assert res.remaining_main == 0


@pytest.mark.parametrize("technique",
                         [Technique.MS2M, Technique.STOP_AND_COPY])
def test_exactly_once_matches_control(technique):
    params = _mk(technique=technique)
    control = _control_of(params)
    res = _run(params)
    assert res.outputs == control.outputs
    assert res.final_state == control.final_state
    assert _ids(res.outputs) == list(range(1, res.published_main + 1))


def test_zero_traffic_watermark_is_checkpoint_id():
    params = _mk(workload=None, stream=[], trigger_ms=10.0)
    res = _run(params)
    assert res.record.outcome is Outcome.COMPLETED
    assert res.record.watermark == 0
    assert res.record.replayed_count == 0
    assert res.outputs == []


def test_quiet_after_burst_watermark_is_checkpoint_id():
    burst = [(float(i), b"add score 1 " + b"x" * 20) for i in (1, 2, 3)]
    params = _mk(workload=None, stream=burst, trigger_ms=100.0,
                 processing=1.0)
    res = _run(params)
    assert res.record.outcome is Outcome.COMPLETED
    assert res.record.watermark == 3
    assert res.record.replayed_count == 0
    assert _ids(res.outputs) == [1, 2, 3]


def test_shadow_replay_reproduces_source_outputs():
    """The target's suppressed replay must regenerate, byte for byte, the
    outputs the source already emitted for the replayed ids: replaying the
    mirrored stream against the restored checkpoint is state-equivalent to
    the source's own execution."""
    res = _run(_mk(shadow=True))
    rec = res.record
    assert rec.replayed_count > 0
    w = rec.watermark
    lo = w - rec.replayed_count + 1
    expected = [o for o in res.outputs if lo <= int(o.split()[1]) <= w]
    assert res.shadow_outputs == expected


def test_source_serves_while_checkpoint_transfers():
    res = _run(_mk())
    rec = res.record
    transfer = next(s for s in rec.phase_timeline
                    if s.name == Phase.TRANSFER.value)
    src = res.source.instance_id
    serving = [m.time_ms for m in res.mode_log
               if m.instance_id == src and m.new == "Serving"]
    stopped = [m.time_ms for m in res.mode_log
               if m.instance_id == src and m.new == "Stopped"]
    # resumed at the continuation boundary, before the transfer began
    assert len(serving) == 2 and serving[1] <= transfer.start_ms
    # and not stopped until the handoff, after the transfer ended
    assert len(stopped) == 1 and stopped[0] >= transfer.end_ms
    # the replayed ids are exactly the ones the source handled after the
    # checkpoint, which is what makes the overlap safe
    assert rec.replayed_count > 0


def test_stop_and_copy_source_stops_at_transfer_start():
    res = _run(_mk(technique=Technique.STOP_AND_COPY))
    rec = res.record
    transfer = next(s for s in rec.phase_timeline
                    if s.name == Phase.TRANSFER.value)
    src = res.source.instance_id
    stopped = [m.time_ms for m in res.mode_log
               if m.instance_id == src and m.new == "Stopped"]
    assert stopped == [transfer.start_ms]
    tgt_serving = [m.time_ms for m in res.mode_log
                   if m.instance_id == res.target.instance_id
                   and m.new == "Serving"]
    assert tgt_serving == [rec.completed_at]
    # nobody serves in between: every input in that window just buffers
    gap = [m for m in res.mode_log
           if m.new == "Serving" and stopped[0] < m.time_ms < rec.completed_at]
    assert gap == []


def test_downtime_orderings_and_difference_identity():
    rng = random.Random(99)
    for _ in range(6):
        src = Host("hs", checkpoint_fixed_ms=rng.uniform(5, 200),
                   checkpoint_ms_per_kib=rng.uniform(0, 64))
        tgt = Host("ht", restore_fixed_ms=rng.uniform(5, 200),
                   restore_ms_per_kib=rng.uniform(0, 64))
        link = Link("hs", "ht", latency_ms=rng.uniform(1, 100),
                    bandwidth_kib_per_s=rng.choice([None, 512.0, 8192.0]))
        common = dict(source_host=src, target_host=tgt, link=link,
                      workload=WorkloadSpec("ConstantRate", 50, 3000),
                      processing_ms=1.0, pause_ms=rng.uniform(0, 50),
                      continuation_ms=rng.uniform(0, 50), trigger_ms=800.0)
        ms = _run(SimParams(technique=Technique.MS2M, **common))
        sc = _run(SimParams(technique=Technique.STOP_AND_COPY, **common))
        m, s = compute_metrics(ms.record), compute_metrics(sc.record)
        assert m.downtime_strict_ms <= m.downtime_paused_ms
        assert m.downtime_strict_ms <= m.downtime_pause_checkpoint_transfer_ms
        assert s.downtime_paused_ms == s.total_ms
        assert s.downtime_paused_ms >= m.downtime_pause_checkpoint_transfer_ms
        # the entire saving is overlapping transfer + restore with service
        diff = s.downtime_paused_ms - m.downtime_paused_ms
        overlap = (m.phase_ms[Phase.TRANSFER.value]
                   + m.phase_ms[Phase.RESTORATION.value])
        assert diff == pytest.approx(overlap, abs=1e-6)


def test_divergence_abort_rolls_back_cleanly():
    params = _mk(workload=replay_stress_spec(1.5, 100), processing=10.0,
                 latency=20.0)
    control = _control_of(params)
    res = _run(params)
    rec = res.record
    assert rec.outcome is Outcome.ABORTED_DIVERGENCE
    assert rec.abort_reason == "overload"
    assert res.source.mode is Mode.STOPPED or res.source.mode is Mode.SERVING
    # the source served throughout, so the client-visible run is untouched
    assert res.outputs == control.outputs
    assert res.final_state == control.final_state
    assert res.target.mode is Mode.STOPPED
    # overload is declared after divergence_window consecutive checks
    replay = rec.phase_ms(Phase.REPLAY)
    policy = params.policy
    assert replay <= (policy.divergence_window + 2) * policy.check_interval_ms


def test_replay_timeout_abort():
    policy = HandoffPolicy(replay_timeout_ms=50.0, check_interval_ms=20.0,
                           divergence_window=10_000)
    params = _mk(workload=replay_stress_spec(1.5, 100), processing=10.0,
                 latency=20.0, policy=policy)
    res = _run(params)
    rec = res.record
    assert rec.outcome is Outcome.ABORTED_DIVERGENCE
    assert rec.abort_reason == "timeout"
    assert rec.phase_ms(Phase.REPLAY) <= 50.0 + 20.0 + 1e-6


def test_heavy_but_stable_replay_completes():
    policy = HandoffPolicy(replay_timeout_ms=None)
    params = _mk(workload=replay_stress_spec(0.9, 100, duration_ms=10_000),
                 processing=10.0, latency=20.0, policy=policy)
    control = _control_of(params)
    res = _run(params)
    assert res.record.outcome is Outcome.COMPLETED
    assert res.record.replayed_count >= 1
    assert res.outputs == control.outputs
    assert res.final_state == control.final_state


@pytest.mark.parametrize("phase", [
    "ServicePause", "ServiceCheckpoint", "ServiceContinuation",
    "CheckpointTransfer", "ServiceRestoration", "MessageReplay"])
def test_source_crash_aborts_without_duplicates(phase):
    params = _mk(fault=FaultSpec(phase=phase, offset_ms=0.5))
    res = _run(params)
    rec = res.record
    assert rec.outcome is Outcome.ABORTED_SOURCE_CRASH
    assert res.final_state is None
    assert res.source.mode is Mode.STOPPED and res.source.crashed
    if res.target is not None:
        assert res.target.mode is Mode.STOPPED
    # outputs are an exact prefix of the input stream: nothing duplicated,
    # nothing beyond the crash point
    last = res.source.state.last_processed_id
    assert _ids(res.outputs) == list(range(1, last + 1))
    info = rec.crash_info
    assert info["source_last_processed"] == last
    assert info["unemitted_count"] == info["published_total"] - last
    # unconsumed inputs stay buffered for a later recovery
    assert res.published_main - last == res.remaining_main


def test_stop_and_copy_crash_during_transfer_aborts():
    params = _mk(technique=Technique.STOP_AND_COPY,
                 fault=FaultSpec(phase="CheckpointTransfer", offset_ms=0.5))
    res = _run(params)
    assert res.record.outcome is Outcome.ABORTED_SOURCE_CRASH
    # the source had already stopped at the checkpoint boundary; the crash
    # just makes that permanent
    last = res.source.state.last_processed_id
    assert _ids(res.outputs) == list(range(1, last + 1))
    assert res.final_state is None


def test_stop_and_copy_crash_after_transfer_still_completes():
    """Once the checkpoint is fully copied the source is no longer needed;
    losing it during restoration must not hurt the migration."""
    params = _mk(technique=Technique.STOP_AND_COPY,
                 fault=FaultSpec(phase="ServiceRestoration", offset_ms=1.0))
    control = _control_of(params)
    res = _run(params)
    assert res.record.outcome is Outcome.COMPLETED
    assert res.source.crashed
    assert res.target.mode is Mode.SERVING
    assert res.outputs == control.outputs
    assert res.final_state == control.final_state


def test_source_crash_before_trigger():
    params = _mk(fault=FaultSpec(at_ms=500.0))
    res = _run(params)
    rec = res.record
    assert rec.outcome is Outcome.ABORTED_SOURCE_CRASH
    assert rec.phase_timeline == []
    assert rec.initiated_at == rec.completed_at == 1000.0
    last = res.source.state.last_processed_id
    assert _ids(res.outputs) == list(range(1, last + 1))
    assert res.published_main - last == res.remaining_main


@pytest.mark.parametrize("technique",
                         [Technique.MS2M, Technique.STOP_AND_COPY])
def test_identical_inputs_identical_runs(technique):
    def build():
        return _mk(
            technique=technique, workload=WorkloadSpec("Poisson", 80, 4000,
                                                       seed=5),
            link=Link("hs", "ht", latency_ms=30.0, bandwidth_kib_per_s=1024.0,
                      jitter_frac=0.2),
            seed=12)

    a = _run(build())
    b = _run(build())
    assert a.outputs == b.outputs
    assert a.final_state == b.final_state
    assert a.record.watermark == b.record.watermark
    assert a.record.drain_ms == b.record.drain_ms
    ta = [(s.name, s.start_ms, s.end_ms) for s in a.record.phase_timeline]
    tb = [(s.name, s.start_ms, s.end_ms) for s in b.record.phase_timeline]
    assert ta == tb
    assert a.mode_log == b.mode_log
