import dataclasses
import functools
import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from migsim import service
from migsim.harness import row_from_record
from migsim.migration import (MAIN_QUEUE, OUTPUT_QUEUE, Decision,
                              HandoffPolicy, MigrationManager,
                              MigrationRecord, Outcome, Phase, PhaseSpan,
                              State, Technique, decide_handoff)
from migsim.service import (Mode, ProtocolError, ServiceInstance,
                            ServiceState, UnknownCommand)
from migsim.sim import FaultSpec, SimParams, Simulation
from migsim.simnet import Host, Link, SimClock, SimError
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
    assert decide_handoff(10, 60_000.1, policy) is Decision.TIMEOUT


def test_timeout_none_disables_deadline():
    policy = HandoffPolicy(replay_timeout_ms=None)
    assert decide_handoff(10, 1e12, policy) is Decision.CONTINUE


def test_sustained_overload_aborts_at_window():
    policy = HandoffPolicy(divergence_window=5)
    assert decide_handoff(10, 0, policy, overload_streak=4) \
        is Decision.CONTINUE
    assert decide_handoff(10, 0, policy, overload_streak=5) \
        is Decision.OVERLOAD


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
    # spans close and open at the clock's same instant, so any gap is a fault
    rec.phase_timeline[-1] = _span(Phase.TRANSFER, 30 + 1e-9, 40)
    with pytest.raises(ProtocolError, match="does not start where"):
        rec.validate_timeline()


def test_validate_timeline_rejects_a_phase_entered_twice():
    # contiguous, so only the repeated name is wrong
    rec = MigrationRecord(Technique.MS2M, "m", 0.0, phase_timeline=[
        _span(Phase.PAUSE, 0, 10), _span(Phase.CHECKPOINT, 10, 30),
        _span(Phase.PAUSE, 30, 40)])
    with pytest.raises(ProtocolError, match="ServicePause entered twice"):
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
    m = row_from_record(0, rec)
    assert m.total_ms == 80.0
    assert m.downtime_paused_ms == 35.0       # pause + checkpoint + continuation
    assert m.downtime_strict_ms == 20.0       # checkpoint alone
    assert m.pause_ms + m.checkpoint_ms + m.transfer_ms == 50.0
    assert m.replay_ms == 5.0


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
    m = row_from_record(0, rec)
    # the service never resumed, so it was down for the whole migration
    assert m.downtime_paused_ms == 80.0
    assert m.downtime_strict_ms == 20.0
    assert m.pause_ms + m.checkpoint_ms + m.transfer_ms == 55.0


def test_metrics_never_resumed_live_migration():
    # aborted before the continuation: down from pause start to the abort
    rec = MigrationRecord(
        Technique.MS2M, "m", initiated_at=0.0,
        outcome=Outcome.ABORTED_SOURCE_CRASH, completed_at=12.0,
        phase_timeline=[_span(Phase.PAUSE, 0, 10),
                        _span(Phase.CHECKPOINT, 10, 12)])
    assert row_from_record(0, rec).downtime_paused_ms == 12.0


def test_metrics_require_finished_record():
    rec = MigrationRecord(Technique.MS2M, "m", 0.0)
    with pytest.raises(ValueError):
        row_from_record(0, rec)


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
    # a NaN arrival is refused when the params are built, not mid-run
    with pytest.raises(ValueError, match=r"^SimParams\.stream\[1\]: time "
                                         r"must be finite, got nan$"):
        Simulation(_mk(workload=None, stream=[(1.0, b"add score 1"),
                                              (float("nan"), b"add score 1")]))
    sim = Simulation(_mk())
    sim.run()
    with pytest.raises(SimError):
        sim.run()
    # a control event the migration protocol does not know is refused; the
    # control queues exist from the trigger on, and a finished run has its
    # endpoints detached, so the stray event is sent mid-run
    sim = Simulation(_mk())
    sim.clock.schedule_at(sim.params.trigger_ms, functools.partial(
        sim.broker.publish, sim.manager.q_mgr, b"teleport"))
    with pytest.raises(ProtocolError, match="teleport"):
        sim.run()


def test_params_refuse_what_a_run_would_trip_over():
    with pytest.raises(ValueError, match="^a technique needs a trigger_ms$"):
        _mk(trigger_ms=None)
    with pytest.raises(ValueError, match="^give either a workload spec or "
                                         "a stream, not both$"):
        _mk(stream=[(1.0, b"add score 1")])
    # an int was published as that many zero bytes and a str raised a bare
    # TypeError, both mid-run
    for payload, kind in ((5, "int"), ("add score 1", "str")):
        with pytest.raises(ValueError) as err:
            _mk(workload=None, stream=[(1.0, b"add score 1"), (2.0, payload)])
        assert str(err.value) == (
            f"SimParams.stream[1]: payload must be bytes, got {kind}")


def test_params_refuse_a_stream_entry_that_is_not_a_timed_pair():
    # a str time raised a bare TypeError in SimClock.feed, and a short entry
    # a ValueError about unpacking that named no field
    cases = [
        (("5", b"add a 1"), "time must be a number, got '5'"),
        ((True, b"add a 1"), "time must be a number, got True"),
        ((-1.0, b"add a 1"), "time must be >= 0.0, got -1.0"),
        ((float("inf"), b"add a 1"), "time must be finite, got inf"),
        ((1.0,), "must be a (time_ms, payload) pair, got (1.0,)"),
        ((1.0, b"add a 1", 2), "must be a (time_ms, payload) pair, got "
                               "(1.0, b'add a 1', 2)"),
        (b"ab", "must be a (time_ms, payload) pair, got b'ab'"),
        (7, "must be a (time_ms, payload) pair, got 7"),
    ]
    for entry, text in cases:
        with pytest.raises(ValueError) as err:
            _mk(workload=None, stream=[(1.0, b"add a 1"), entry])
        assert str(err.value) == f"SimParams.stream[1]: {text}"
    # an int time and a list pair are still accepted, and run like the
    # usual (float, bytes) tuple
    plain = _run(_mk(workload=None, technique=None, trigger_ms=None,
                     stream=[(1.0, b"add a 1"), (2.0, b"add a 2")]))
    mixed = _run(_mk(workload=None, technique=None, trigger_ms=None,
                     stream=[[1, b"add a 1"], (2, b"add a 2")]))
    assert mixed.outputs == plain.outputs == [b"ok 1 a=1", b"ok 2 a=3"]


def test_technique_must_be_a_technique():
    # a bare name would take the MS2M branch in some steps and StopAndCopy
    # states in others, and end with an unfinished record
    with pytest.raises(ValueError) as err:
        _mk(technique="StopAndCopy")
    assert str(err.value) == ("SimParams.technique: must be a Technique or "
                              "None, got 'StopAndCopy'")
    for technique in (None, Technique.STOP_AND_COPY):
        assert _mk(technique=technique).technique is technique


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
        FaultSpec(phase={"name": "MessageReplay"})   # unhashable
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


def test_a_second_start_is_refused():
    sim = Simulation(_mk())
    sim.run()
    with pytest.raises(ProtocolError, match="^migration already started$"):
        sim.manager.start()
    assert sim.manager.record.outcome is Outcome.COMPLETED


def test_drain_waits_for_a_message_published_after_the_switch():
    # the target switches at 24.0 and the manager completes at 25.0; the
    # arrival at 24.5 is delivered at 25.5 and applied at 26.5
    def drain_ms(extra):
        stream = [(float(t), b"add n 1") for t in range(10)] + extra
        rec = _run(SimParams(
            source_host=Host("a"), target_host=Host("b"),
            link=Link("a", "b", latency_ms=5.0), stream=stream,
            processing_ms=1.0, technique=Technique.MS2M, trigger_ms=10.0,
            delivery_latency_ms=1.0)).record
        assert (rec.outcome, rec.completed_at) == (Outcome.COMPLETED, 25.0)
        return rec.drain_ms

    assert drain_ms([]) == 0.0
    assert drain_ms([(24.5, b"add n 1")]) == 1.5


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


@pytest.mark.parametrize("technique",
                         [None, Technique.MS2M, Technique.STOP_AND_COPY])
def test_run_moves_the_outputs_into_the_result(technique):
    # the output queue's Messages are dropped, but its count stays
    sim = Simulation(_mk(technique=technique,
                         trigger_ms=None if technique is None else 1000.0))
    res = sim.run()
    out = sim.broker.queue(OUTPUT_QUEUE)
    assert len(out) == 0
    assert out.published_total == len(res.outputs) == res.published_main


def test_a_second_serving_instance_fails_the_run_at_once():
    sim = Simulation(_mk(technique=None, trigger_ms=None))
    twin = ServiceInstance("twin", ServiceState(), sim.clock, sim.broker,
                           1.0, OUTPUT_QUEUE)
    twin.on_mode_change = sim.source.on_mode_change
    sim.broker.create_queue("twin.in")
    sim.clock.schedule_at(5.0, lambda: twin.start_serving("twin.in"))
    with pytest.raises(SimError, match=r"^two instances serving at 5\.0: "
                                       r"\['svc@hs', 'twin'\]$"):
        sim.run()


def test_a_second_serving_instance_with_the_same_id_fails_the_run():
    # equal source and target hosts give both instances one instance_id
    sim = Simulation(_mk(technique=None, trigger_ms=None))
    twin = ServiceInstance(sim.source.instance_id, ServiceState(), sim.clock,
                           sim.broker, 1.0, OUTPUT_QUEUE)
    twin.on_mode_change = sim.source.on_mode_change
    sim.broker.create_queue("twin.in")
    sim.clock.schedule_at(5.0, lambda: twin.start_serving("twin.in"))
    with pytest.raises(SimError, match=r"^two instances serving at 5\.0: "
                                       r"\['svc@hs', 'svc@hs'\]$"):
        sim.run()


def test_migration_between_equal_host_ids_hands_over_serving():
    host = Host("hs")
    params = _mk(source_host=host, target_host=host, link=Link("hs", "hs"))
    res = _run(params)
    assert res.record.outcome is Outcome.COMPLETED
    assert res.source.instance_id == res.target.instance_id
    assert res.source.mode is not Mode.SERVING
    assert res.target.mode is Mode.SERVING
    assert res.final_state == _control_of(params).final_state


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


@pytest.mark.parametrize("kw", [
    {},
    # the handoff can start with messages still queued on the secondary
    dict(policy=HandoffPolicy(handoff_threshold=3, replay_timeout_ms=400.0),
         delivery_latency_ms=0.7, processing=7.0),
], ids=["default", "backlog_at_handoff"])
def test_replay_reproduces_source_outputs(monkeypatch, kw):
    """The target's suppressed replay must regenerate, byte for byte, the
    outputs the source already emitted for the replayed ids: replaying the
    mirrored stream against the restored checkpoint is state-equivalent to
    the source's own execution."""
    handled = {}  # message id -> [(state, output)] in handling order

    def spy(state, msg, real=service.handle):
        output = real(state, msg)
        handled.setdefault(msg.id, []).append((state, output))
        return output

    monkeypatch.setattr(service, "handle", spy)
    res = _run(_mk(**kw))
    rec = res.record
    assert rec.outcome is Outcome.COMPLETED and rec.replayed_count > 0
    twice = {i: h for i, h in handled.items() if len(h) > 1}
    w = rec.watermark
    assert sorted(twice) == list(range(w - rec.replayed_count + 1, w + 1))
    for (first, out1), (second, out2) in twice.values():
        assert first is res.source.state and second is res.target.state
        assert out1 == out2


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
        m, s = row_from_record(0, ms.record), row_from_record(0, sc.record)
        pct = m.pause_ms + m.checkpoint_ms + m.transfer_ms
        assert m.downtime_strict_ms <= m.downtime_paused_ms
        assert m.downtime_strict_ms <= pct
        assert s.downtime_paused_ms == s.total_ms
        assert s.downtime_paused_ms >= pct
        # the entire saving is overlapping transfer + restore with service
        diff = s.downtime_paused_ms - m.downtime_paused_ms
        overlap = m.transfer_ms + m.restoration_ms
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


def test_source_crash_without_migration():
    params = _mk(technique=None, trigger_ms=None,
                 fault=FaultSpec(at_ms=1500.0))
    control = _control_of(params)
    res = _run(params)
    assert res.record is None
    assert res.source.mode is Mode.STOPPED and res.source.crashed
    assert res.final_state is None
    assert 0 < len(res.outputs) < len(control.outputs)
    assert res.outputs == control.outputs[:len(res.outputs)]


# -- a phase fault lives only while its phase is open ---------------------------


def test_a_replay_fault_past_a_divergence_abort_does_not_fire():
    # the replay span ends at the abort, 500 ms in; the fault would
    # land 5 s into it, on the rolled-back source
    params = _mk(arrival=150.0, duration=10_000.0, processing=10.0,
                 fault=FaultSpec(phase=Phase.REPLAY.value, offset_ms=5000.0))
    control = _control_of(params)
    res = _run(params)
    assert res.record.outcome is Outcome.ABORTED_DIVERGENCE
    assert res.record.phase_ms(Phase.REPLAY) < 5000.0
    assert res.outputs == control.outputs
    assert res.final_state == control.final_state
    assert res.source.mode is Mode.SERVING and not res.source.crashed


@pytest.mark.parametrize("technique",
                         [Technique.MS2M, Technique.STOP_AND_COPY])
def test_a_pause_fault_past_completion_does_not_fire(technique):
    params = _mk(technique=technique,
                 fault=FaultSpec(phase=Phase.PAUSE.value, offset_ms=10_000.0))
    res = _run(params)
    assert res.record.outcome is Outcome.COMPLETED
    assert res.record.completed_at < params.trigger_ms + 10_000.0
    assert not res.source.crashed
    assert res.outputs == _control_of(params).outputs


def test_a_pause_fault_that_lands_in_the_checkpoint_does_not_abort():
    params = _mk(fault=FaultSpec(phase=Phase.PAUSE.value, offset_ms=7.0))
    res = _run(params)
    spans = {s.name: s for s in res.record.phase_timeline}
    checkpoint = spans[Phase.CHECKPOINT.value]
    assert spans[Phase.PAUSE.value].duration_ms == params.pause_ms == 5.0
    # the fault's instant falls inside the next phase, not its own
    assert checkpoint.start_ms < params.trigger_ms + 7.0 < checkpoint.end_ms
    assert res.record.outcome is Outcome.COMPLETED
    assert not res.source.crashed
    assert res.outputs == _control_of(params).outputs


# the golden grid's two handoff policies
ORACLE_POLICIES = [HandoffPolicy(),
                   HandoffPolicy(handoff_threshold=3, replay_timeout_ms=400.0)]


def _oracle_cell(technique, latency, processing, policy, seed):
    # 120 msg/s: 11 ms processing is overloaded, 7 ms is not
    return _mk(technique=technique, delivery_latency_ms=latency,
               processing=processing, policy=ORACLE_POLICIES[policy],
               workload=WorkloadSpec("Poisson", 120.0, 2500.0, seed=seed),
               trigger_ms=800.0)


@functools.cache
def _oracle_spans(*cell) -> tuple[PhaseSpan, ...]:
    return tuple(_run(_oracle_cell(*cell)).record.phase_timeline)


@functools.cache
def _oracle_control(seed):
    # a run without a migration applies every message in id order whatever
    # its timing, so one control serves every cell of a workload seed
    return _control_of(_oracle_cell(Technique.MS2M, 0.0, 1.0, 0, seed))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(technique=st.sampled_from(list(Technique)),
       latency=st.sampled_from([0.0, 0.7, 3.0]),
       processing=st.sampled_from([1.0, 7.0, 11.0]),
       policy=st.sampled_from(range(len(ORACLE_POLICIES))),
       seed=st.integers(0, 5), data=st.data())
def test_a_phase_fault_keeps_the_contract(technique, latency, processing,
                                          policy, seed, data):
    """A crash drawn anywhere from a phase's start to twice its fault-free
    length: a migration that ends Completed or AbortedDivergence left the
    run as the control's, and a crash abort loses only a suffix."""
    cell = (technique, latency, processing, policy, seed)
    span = data.draw(st.sampled_from(_oracle_spans(*cell)))
    offset = data.draw(st.floats(0.0, 2.0 * span.duration_ms))
    res = _run(dataclasses.replace(_oracle_cell(*cell), fault=FaultSpec(
        phase=span.name, offset_ms=offset)))
    control = _oracle_control(seed)
    rec = res.record
    if rec.outcome is Outcome.ABORTED_SOURCE_CRASH:
        assert res.outputs == control.outputs[:len(res.outputs)]
        info = rec.crash_info
        assert info["source_last_processed"] == len(res.outputs)
        assert info["unemitted_count"] == (info["published_total"]
                                           - info["source_last_processed"])
    else:
        assert res.outputs == control.outputs
        assert res.final_state == control.final_state


# one cell of each kind, with the outcome it must reach ("raises": the run
# itself raises UnknownCommand)
CELL_KINDS = {
    "ms2m": (dict(), Outcome.COMPLETED),
    "stop_and_copy": (dict(technique=Technique.STOP_AND_COPY),
                      Outcome.COMPLETED),
    "divergence": (dict(workload=replay_stress_spec(1.5, 100),
                        processing=10.0, latency=20.0),
                   Outcome.ABORTED_DIVERGENCE),
    "source_crash": (dict(fault=FaultSpec(phase="MessageReplay",
                                          offset_ms=0.5)),
                     Outcome.ABORTED_SOURCE_CRASH),
    "no_technique": (dict(technique=None, trigger_ms=None), None),
    "unknown_command": (dict(workload=None, stream=[(1.0, b"frob x"),
                                                    (5.0, b"add a 1")]),
                        "raises"),
}


def _run_and_drop(params):
    """Run a cell, drop everything it returned, and return weak references
    to its broker and clock together with how it ended."""
    sim = Simulation(params)
    refs = (weakref.ref(sim.broker), weakref.ref(sim.clock))
    try:
        res = sim.run()
    except UnknownCommand:
        ended = "raises"
    else:
        ended = res.record.outcome if res.record is not None else None
        del res
    del sim
    return refs, ended


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_finished_run_is_freed_without_the_cycle_collector(kind):
    # a run detaches every callback it set up, so once its result is
    # dropped, reference counting alone frees it: nothing is left for the
    # cycle collector, and the run's memory comes back at once
    overrides, outcome = CELL_KINDS[kind]
    gc.collect()
    gc.disable()
    try:
        refs, ended = _run_and_drop(_mk(**overrides))
        assert ended == outcome
        assert [ref() for ref in refs] == [None, None]
        assert gc.collect() == 0
    finally:
        gc.enable()


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


# -- the protocol graphs ----------------------------------------------------------

GRAPHS = {Technique.MS2M: MigrationManager._MS2M,
          Technique.STOP_AND_COPY: MigrationManager._STOP_AND_COPY}
OVERLOAD = dict(workload=replay_stress_spec(1.5, 100), processing=10.0,
                latency=20.0)


def _nexts(row) -> tuple:
    """The states a (step, next) row may lead to."""
    _step, nxt = row
    return nxt if type(nxt) is tuple else (nxt,)


def _events(graph) -> set[str]:
    return {event for _state, event in graph}


def _traced_run(params):
    """Run a cell with a spy on MigrationManager._on_event and crash_source.
    Returns the result and the trace: (state before, event, state after) for
    every dispatch, with the event "crash" for each crash_source call."""
    trace = []
    real_on_event = MigrationManager._on_event
    real_crash = MigrationManager.crash_source

    def on_event(self, event):
        before = self.state
        real_on_event(self, event)
        trace.append((before, event, self.state))

    def crash_source(self):
        before = self.state
        real_crash(self)
        trace.append((before, "crash", self.state))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MigrationManager, "_on_event", on_event)
        mp.setattr(MigrationManager, "crash_source", crash_source)
        res = _run(params)
    return res, trace


def _assert_walk(trace, graph) -> None:
    """The trace is a walk of the graph from CHECKPOINT that ends in DONE: a
    declared row lands in one of its next states, a known event with no row
    is dropped, and a crash before HANDOFF ends the migration."""
    state = State.CHECKPOINT
    for before, event, after in trace:
        assert before is state
        if event == "crash":
            harmless = before in (State.HANDOFF, State.DONE)
            assert after is (before if harmless else State.DONE)
        elif (before, event) in graph:
            assert after in _nexts(graph[before, event])
        else:
            assert event in _events(graph) and after is before
        state = after
    assert state is State.DONE


def _crash_while_discard_in_flight():
    """A divergence abort whose discard is overtaken by a source crash: the
    crash lands halfway through the discard's 0.7 ms hop to the target."""
    params = _mk(delivery_latency_ms=0.7, **OVERLOAD)
    replay = _run(params).record.phase_ms(Phase.REPLAY)
    # the replay span ends two hops (discard, discarded) after the decision
    return dataclasses.replace(params, fault=FaultSpec(
        phase=Phase.REPLAY.value, offset_ms=replay - 1.4 + 0.35))


def test_every_declared_row_runs_and_lands_in_a_declared_state():
    cells = [_mk(), _mk(**OVERLOAD), _crash_while_discard_in_flight(),
             _mk(technique=Technique.STOP_AND_COPY)]
    fired = {technique: set() for technique in GRAPHS}
    for params in cells:
        _res, trace = _traced_run(params)
        graph = GRAPHS[params.technique]
        _assert_walk(trace, graph)
        fired[params.technique].update(
            (before, event) for before, event, _after in trace
            if (before, event) in graph)
    for technique, graph in GRAPHS.items():
        assert fired[technique] == set(graph)


def test_a_known_event_with_no_row_is_dropped():
    for technique, graph in GRAPHS.items():
        sim = Simulation(_mk(technique=technique))
        m = sim.manager
        m.start()
        queues = [sim.broker.queue(q) for q in
                  (m.q_mgr, m.q_src, m.q_tgt, MAIN_QUEUE, OUTPUT_QUEUE)]
        before = ([q.published_total for q in queues], sim.clock.pending())
        stale = [(state, event) for state in State
                 for event in sorted(_events(graph))
                 if (state, event) not in graph]
        for state, event in stale:
            m.state = state
            m._on_event(event)
            assert m.state is state
            assert ([q.published_total for q in queues],
                    sim.clock.pending()) == before
        assert m.record.phase_timeline == [] and m.checkpoint is None


def test_an_unknown_event_is_refused_in_every_state():
    for technique, graph in GRAPHS.items():
        m = Simulation(_mk(technique=technique)).manager
        # the other technique's own events are unknown here too
        other = set().union(*map(_events, GRAPHS.values())) - _events(graph)
        assert other
        for state in State:
            for event in ["teleport", *sorted(other)]:
                m.state = state
                with pytest.raises(ProtocolError, match=(
                        f"^unknown control event {event!r}$")):
                    m._on_event(event)
                assert m.state is state


@pytest.mark.parametrize("pick", [State.STOP, State.DONE, None],
                         ids=["stop", "done", "none"])
def test_a_choice_step_may_only_pick_a_declared_state(monkeypatch, pick):
    graph = MigrationManager._MS2M
    choices = [pair for pair, row in graph.items() if type(row[1]) is tuple]
    assert choices == [(State.REPLAY, "replay_idle"),
                       (State.REPLAY, "check_due")]
    for pair in choices:
        step, nxt = graph[pair]

        def undeclared(m, step=step):
            step(m)  # the real step runs, then picks outside its row
            return pick

        monkeypatch.setitem(graph, pair, (undeclared, nxt))
    with pytest.raises(ProtocolError, match=(
            rf"^'(replay_idle|check_due)' in State\.REPLAY picked {pick}, "
            r"which its row does not declare$")):
        _run(_mk())


def _cell(technique, latency, overload):
    return _mk(technique=technique, delivery_latency_ms=latency,
               **(OVERLOAD if overload else {}))


@functools.cache
def _phase_lengths(technique, latency, overload) -> dict[str, float]:
    """Each phase's length in the cell run without a fault."""
    rec = _run(_cell(technique, latency, overload)).record
    return {s.name: s.duration_ms for s in rec.phase_timeline}


def _drawn_cell(technique, latency, overload, fault):
    """_cell, with a crash a share of the way into a phase when fault is
    (phase, share): from the phase's start to past its end in the
    fault-free run. A phase the technique never enters gets offset 0 and
    never fires."""
    params = _cell(technique, latency, overload)
    if fault is None:
        return params
    phase, share = fault
    length = _phase_lengths(technique, latency, overload).get(phase.value, 0.0)
    return dataclasses.replace(params, fault=FaultSpec(
        phase=phase.value, offset_ms=share * length))


DRAWS = given(technique=st.sampled_from(list(Technique)),
              latency=st.sampled_from([0.0, 0.7]),
              overload=st.booleans(),
              fault=st.none() | st.tuples(st.sampled_from(list(Phase)),
                                          st.floats(0.0, 1.25)))


@settings(max_examples=80, deadline=None, derandomize=True)
@DRAWS
def test_dispatch_trace_walks_the_declared_graph(technique, latency,
                                                 overload, fault):
    res, trace = _traced_run(_drawn_cell(technique, latency, overload, fault))
    _assert_walk(trace, GRAPHS[technique])
    assert res.record.outcome is not None


def _consumable(graph, state) -> set[str]:
    """The events with a row in state or in a state the graph leads to from
    it: what a control message published in state can still be taken as."""
    reached, todo = set(), [state]
    while todo:
        at = todo.pop()
        if at not in reached:
            reached.add(at)
            todo += [n for (s, _e), row in graph.items() if s is at
                     for n in _nexts(row)]
    return {event for s, event in graph if s in reached}


def _unconsumable_sends(params) -> list[tuple[State, str]]:
    """Run a cell with a spy on MigrationManager._send. Returns (state,
    event) for every control message published in a state from which the
    graph reaches no row for its event, so that it can only be dropped."""
    graph = GRAPHS[params.technique]
    found = []
    real_send = MigrationManager._send

    def send(self, queue, event):
        if event not in _consumable(graph, self.state):
            found.append((self.state, event))
        real_send(self, queue, event)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MigrationManager, "_send", send)
        _run(params)
    return found


def test_a_discard_a_crash_overtook_is_not_answered():
    # the crash stopped the target already: nothing waits for a discarded
    assert _unconsumable_sends(_crash_while_discard_in_flight()) == []


@settings(max_examples=80, deadline=None, derandomize=True)
@DRAWS
def test_every_control_message_is_sent_where_it_can_be_consumed(
        technique, latency, overload, fault):
    # the replay hook leaves with replay, so no replay_idle trails a handoff
    assert _unconsumable_sends(
        _drawn_cell(technique, latency, overload, fault)) == []


# -- the replay monitor -----------------------------------------------------------


def _monitor_run(params):
    """Run a cell with a spy on MigrationManager._on_event. Returns the
    record and, for every dispatch, (state before, event, state after,
    time, len(secondary), secondary.published_total, target.replayed_count),
    the last three read before a dispatch in REPLAY and None otherwise."""
    seen = []
    real_on_event = MigrationManager._on_event

    def on_event(self, event):
        before = self.state
        counts = (None, None, None)
        if before is State.REPLAY:
            sec = self.broker.queue(self.secondary_queue)
            counts = (len(sec), sec.published_total,
                      self.target_instance.replayed_count)
        real_on_event(self, event)
        seen.append((before, event, self.state, self.clock.now, *counts))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MigrationManager, "_on_event", on_event)
        res = _run(params)
    return res.record, seen


def _decisions(seen):
    return [row for row in seen if row[0] is State.REPLAY
            and row[1] in ("check_due", "replay_idle")]


def test_the_backlog_is_what_was_mirrored_and_not_yet_replayed():
    # the monitor reads len(secondary) as the lag arrivals - replays
    cells = [_mk(), _mk(delivery_latency_ms=0.7), _mk(**OVERLOAD),
             _mk(delivery_latency_ms=0.7, **OVERLOAD),
             _mk(processing=9.0, delivery_latency_ms=0.7,
                 policy=HandoffPolicy(check_interval_ms=7.5))]
    outcomes, backlogs = set(), []
    for params in cells:
        rec, seen = _monitor_run(params)
        outcomes.add(rec.outcome)
        for *_, backlog, published, replayed in _decisions(seen):
            assert backlog == published - replayed
            backlogs.append(backlog)
    assert outcomes == {Outcome.COMPLETED, Outcome.ABORTED_DIVERGENCE}
    assert max(backlogs) > 0


def test_no_check_fires_after_the_monitor_hands_off():
    params = _mk(delivery_latency_ms=0.7,
                 policy=HandoffPolicy(check_interval_ms=28.0))
    rec, seen = _monitor_run(params)
    assert rec.outcome is Outcome.COMPLETED
    restored = next(t for _b, event, _a, t, *_ in seen if event == "restored")
    # replay drains before the first check, which comes due mid-handoff
    [handoff] = _decisions(seen)
    assert handoff[1:3] == ("replay_idle", State.FREEZE)
    assert handoff[3] < restored + 28.0 < rec.completed_at
    assert [row for row in seen if row[1] == "check_due"] == []


def test_a_backlog_that_holds_is_not_divergence():
    # arrivals every 10 ms, replay at 10 ms a message: the backlog left by
    # the checkpoint holds at every check until the stream ends
    params = _mk(processing=10.0, duration=3000.0,
                 policy=HandoffPolicy(replay_timeout_ms=None,
                                      divergence_window=2))
    rec, seen = _monitor_run(params)
    checks = [row[4] for row in _decisions(seen) if row[1] == "check_due"]
    assert len(checks) > 2 * params.policy.divergence_window
    assert min(checks) > params.policy.handoff_threshold
    assert rec.outcome is Outcome.COMPLETED


# -- the pending timer ------------------------------------------------------------


def _timer_cells():
    """A replay_idle handoff with a check pending, a divergence abort on a
    check, a timeout, a mid-phase crash, a Completed StopAndCopy and a pause
    fault disarmed when its phase closes."""
    return [_mk(delivery_latency_ms=0.7,
                policy=HandoffPolicy(check_interval_ms=28.0)),
            _mk(**OVERLOAD),
            _mk(**OVERLOAD, policy=HandoffPolicy(
                replay_timeout_ms=50.0, check_interval_ms=20.0,
                divergence_window=10_000)),
            _mk(fault=FaultSpec(phase=Phase.TRANSFER.value, offset_ms=0.5)),
            _mk(technique=Technique.STOP_AND_COPY),
            _mk(fault=FaultSpec(phase=Phase.PAUSE.value, offset_ms=7.0))]


def test_no_timer_fires_after_the_migration_ends():
    # a crash at a phase's first instant lands while the timer that phase
    # armed is pending; the abort cancels it, so none arrives as stale
    stale, outcomes = [], set()
    for technique, graph in GRAPHS.items():
        for phase in _phase_lengths(technique, 0.0, False):
            rec, seen = _monitor_run(_mk(
                technique=technique,
                fault=FaultSpec(phase=phase, offset_ms=0.0)))
            outcomes.add(rec.outcome)
            stale += [(phase, before, event) for before, event, *_ in seen
                      if (before, event) not in graph
                      and (event.endswith("_elapsed") or event == "check_due")]
    assert outcomes == {Outcome.ABORTED_SOURCE_CRASH, Outcome.COMPLETED}
    assert stale == []


def test_every_cancel_hits_a_live_entry():
    # live: still on the heap with its callback, neither fired nor cancelled
    live = []
    real_cancel = SimClock.cancel

    def cancel(clock, event):
        live.append(event[2] is not None
                    and any(entry is event for entry in clock._heap))
        real_cancel(clock, event)

    outcomes = set()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SimClock, "cancel", cancel)
        for params in _timer_cells():
            outcomes.add(_run(params).record.outcome)
    assert outcomes == set(Outcome)
    assert live and all(live)


def test_the_manager_waits_on_at_most_one_timer():
    pending = []
    real_after = MigrationManager._after

    def after(self, delay_ms, event):
        pending.append((event, self._timer))
        real_after(self, delay_ms, event)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MigrationManager, "_after", after)
        for params in _timer_cells():
            _run(params)
    assert {event for event, _ in pending} >= {
        "pause_elapsed", "transfer_elapsed", "check_due",
        "activation_elapsed"}
    assert [(event, timer) for event, timer in pending
            if timer is not None] == []
