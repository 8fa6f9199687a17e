"""Live migration of a running service instance between hosts.

Two techniques are implemented.

MS2M (live replay migration): pause the source briefly to checkpoint it,
mirror the input queue onto a secondary queue from the first un-checkpointed
id, resume the source, transfer the checkpoint in the background, restore it
on the target, let the target replay the mirrored backlog with outputs
suppressed, then hand off: freeze the target's replay, stop the source, have
the source announce its last processed id as the watermark, finish replaying
up to that watermark, and switch the target onto the main queue with outputs
enabled. Every input id is applied with outputs exactly once: by the source
up to the watermark, by the target after it.

StopAndCopy (baseline): pause the source, checkpoint, transfer, restore at
the target, activate it on the main queue. The service is down for the whole
span; inputs buffer in the main queue meanwhile, so nothing is rejected.

A MigrationManager drives one migration as a single state machine over
(state, event) pairs. An event is a phase timer firing or a control message
on one of three per-migration broker queues, whose payload is the bare ASCII
event name. A control message is delivered like any other, after the
broker's delivery_latency_ms (zero by default), so every control hop adds
that latency to the migration; handling it takes no further simulated time.
Each phase span starts where the previous one ended, so the spans tile the
record exactly either way.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from .broker import Broker
from .service import (Checkpoint, Mode, ProtocolError, ServiceInstance,
                      state_size_bytes)
from .simnet import (Host, Link, SimClock, checkpoint_duration,
                     restore_duration, transfer_duration)


class Technique(str, enum.Enum):
    MS2M = "MS2M"
    STOP_AND_COPY = "StopAndCopy"


class Outcome(str, enum.Enum):
    COMPLETED = "Completed"
    ABORTED_DIVERGENCE = "AbortedDivergence"
    ABORTED_SOURCE_CRASH = "AbortedSourceCrash"


class Phase(str, enum.Enum):
    PAUSE = "ServicePause"
    CHECKPOINT = "ServiceCheckpoint"
    CONTINUATION = "ServiceContinuation"
    TRANSFER = "CheckpointTransfer"
    RESTORATION = "ServiceRestoration"
    REPLAY = "MessageReplay"
    FINALIZATION = "Finalization"


@dataclass(frozen=True)
class PhaseSpan:
    name: str
    start_ms: float
    end_ms: float

    def __post_init__(self):
        if self.end_ms < self.start_ms:
            raise ValueError("phase span ends before it starts")

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass
class MigrationRecord:
    """What one migration did: outcome, watermark, phase spans and counters.

    phase_timeline spans are contiguous and non-overlapping; an aborted
    migration keeps the spans it completed plus the partial span it died in,
    closed at the abort instant.
    """

    technique: Technique
    migration_id: str
    initiated_at: float
    phase_timeline: list[PhaseSpan] = field(default_factory=list)
    outcome: Outcome | None = None
    watermark: int | None = None
    replayed_count: int = 0
    completed_at: float | None = None
    checkpoint_size_bytes: int | None = None
    drain_ms: float | None = None
    abort_reason: str | None = None
    crash_info: dict | None = None

    def phase_ms(self, phase: Phase) -> float:
        return sum(s.duration_ms for s in self.phase_timeline
                   if s.name == phase.value)

    def validate_timeline(self, tolerance_ms: float = 1e-6) -> None:
        prev_end = None
        for span in self.phase_timeline:
            if prev_end is not None and abs(span.start_ms - prev_end) > tolerance_ms:
                raise ProtocolError(
                    f"phase {span.name} does not start where the previous "
                    f"phase ended ({span.start_ms} vs {prev_end})")
            prev_end = span.end_ms


class Decision(enum.Enum):
    HANDOFF = "Handoff"
    CONTINUE = "Continue"
    ABORT = "Abort"


@dataclass(frozen=True)
class HandoffPolicy:
    """When to hand off, keep waiting, or give up during message replay.

    replay_timeout_ms of None disables the timeout. Divergence is declared
    after divergence_window consecutive checks (spaced check_interval_ms
    apart) in which the arrival rate estimate exceeded the processing rate
    estimate.
    """

    handoff_threshold: int = 0
    replay_timeout_ms: float | None = 60_000.0
    divergence_window: int = 5
    check_interval_ms: float = 100.0

    def __post_init__(self):
        if self.handoff_threshold < 0:
            raise ValueError("handoff_threshold must be >= 0")
        if self.replay_timeout_ms is not None and self.replay_timeout_ms <= 0:
            raise ValueError("replay_timeout_ms must be > 0 or None")
        if self.divergence_window < 1:
            raise ValueError("divergence_window must be >= 1")
        if self.check_interval_ms <= 0:
            raise ValueError("check_interval_ms must be > 0")


def decide_handoff(backlog: int, elapsed_replay_ms: float,
                   policy: HandoffPolicy, overload_streak: int = 0) -> Decision:
    """Pure handoff decision, consulted whenever the replay backlog drains
    and at every periodic check.

    overload_streak is the caller-maintained count of consecutive checks,
    including the current one, whose arrival rate estimate exceeded the
    processing rate estimate. Precedence: a drained backlog always wins,
    then the replay timeout, then sustained divergence.
    """
    if backlog <= policy.handoff_threshold:
        return Decision.HANDOFF
    if (policy.replay_timeout_ms is not None
            and elapsed_replay_ms > policy.replay_timeout_ms):
        return Decision.ABORT
    if overload_streak >= policy.divergence_window:
        return Decision.ABORT
    return Decision.CONTINUE


@dataclass(frozen=True)
class MigrationMetrics:
    """Durations derived from one record.

    Three downtime readings are exposed because tracers bound downtime
    differently:
      * paused: the source-paused interval, pause + checkpoint +
        continuation. For StopAndCopy this extends to the instant the target
        serves, which is the whole migration.
      * strict: the checkpoint span alone.
      * pause_checkpoint_transfer: pause + checkpoint + transfer; the
        reading the calibrated reference scenario's reduction figure is
        stated in.
    """

    total_ms: float
    phase_ms: dict[str, float]
    downtime_paused_ms: float
    downtime_strict_ms: float
    downtime_pause_checkpoint_transfer_ms: float


def compute_metrics(record: MigrationRecord) -> MigrationMetrics:
    if record.completed_at is None:
        raise ValueError("record is not finished")
    phase_ms = {p.value: record.phase_ms(p) for p in Phase}
    total = record.completed_at - record.initiated_at
    p = phase_ms[Phase.PAUSE.value]
    c = phase_ms[Phase.CHECKPOINT.value]
    k = phase_ms[Phase.CONTINUATION.value]
    t = phase_ms[Phase.TRANSFER.value]
    resumed = any(s.name == Phase.CONTINUATION.value
                  for s in record.phase_timeline)
    if record.technique is Technique.MS2M and resumed:
        paused = p + c + k
    else:
        # the service never came back before the record ended: down throughout
        pause_start = (record.phase_timeline[0].start_ms
                       if record.phase_timeline else record.initiated_at)
        paused = record.completed_at - pause_start
    return MigrationMetrics(
        total_ms=total,
        phase_ms=phase_ms,
        downtime_paused_ms=paused,
        downtime_strict_ms=c,
        downtime_pause_checkpoint_transfer_ms=p + c + t,
    )


# -- control plane ----------------------------------------------------------


class ControlEndpoint:
    """Consumes one control queue, dispatching each message to a handler the
    instant it is delivered. A payload is a bare ASCII event name, and the
    handler gets it decoded. Delivery waits the broker's delivery_latency_ms,
    as on any queue; the handler itself costs no simulated time."""

    def __init__(self, broker: Broker, queue: str, owner: str, handler):
        self.broker = broker
        self.queue = queue
        self.owner = owner
        self.handler = handler
        broker.create_queue(queue)
        broker.subscribe(queue, owner, on_wake=self._drain)

    def _drain(self, _queue_name=None) -> None:
        while True:
            msg = self.broker.poll(self.queue, self.owner)
            if msg is None:
                return
            self.broker.ack(self.queue, self.owner, msg.id)
            self.handler(msg.payload.decode("ascii"))


class State(enum.Enum):
    """Where a migration stands. MigrationManager lists the events each state
    accepts."""

    IDLE = "idle"
    CHECKPOINT = "checkpoint"
    TRANSFER = "transfer"
    RESTORE = "restore"
    REPLAY = "replay"
    FREEZE = "freeze"
    STOP = "stop"
    HANDOFF = "handoff"
    ABORT = "abort"
    DONE = "done"


# -- the manager -------------------------------------------------------------


class MigrationManager:
    """Drives a single migration of one service between two hosts as one
    state machine.

    Every step is an event: either a control message, whose payload is the
    bare event name, delivered on one of three per-migration broker queues
    (q_mgr, q_src, q_tgt), or a phase timer firing. _on_event looks the pair
    (state, event) up in _TRANSITIONS and runs the step it names. An event
    the table knows, arriving in a state that has no entry for it, is stale
    (an abort or an earlier step overtook it) and is dropped; an event the
    table does not know is a ProtocolError. Every outcome leaves through
    _finish, which tears down, closes and checks the phase timeline, and
    reports.

    MS2M, state by state (event -> step):
      CHECKPOINT  pause_request -> pause the source; pause_elapsed ->
                  checkpoint it; checkpoint_elapsed -> mirror the main queue
                  onto a secondary from the first id the checkpoint misses;
                  continuation_elapsed -> resume the source; phase1_done ->
                  TRANSFER
      TRANSFER    transfer_elapsed -> RESTORE
      RESTORE     restore_request, restore_elapsed -> restore the target and
                  start its suppressed replay of the secondary; restored ->
                  REPLAY
      REPLAY      replay_idle, check_due -> the replay monitor decides:
                  handoff -> FREEZE, abort -> ABORT
      FREEZE      freeze -> freeze the target's replay; frozen -> STOP
      STOP        stop_request -> stop the source; source_stopped -> the
                  watermark is announced, HANDOFF
      HANDOFF     watermark -> the target replays up to the watermark and
                  switches onto the main queue; switched -> Completed
      ABORT       discard -> stop the target; discarded -> AbortedDivergence

    StopAndCopy: CHECKPOINT (the source stops after its checkpoint), then
    TRANSFER, then HANDOFF: restore_request, restore_elapsed,
    activation_elapsed -> the target serves the main queue; switched ->
    Completed.

    In HANDOFF the source's part is over, so a source crash no longer
    matters. In any earlier state it ends the migration as
    AbortedSourceCrash.

    Hooks: on_complete(record, serving_instance_or_None),
    on_phase_entered(phase, time_ms), on_instance_created(instance).
    """

    def __init__(self, *, clock: SimClock, broker: Broker, rng: random.Random,
                 technique: Technique, service_id: str, main_queue: str,
                 output_topic: str, source: ServiceInstance, source_host: Host,
                 target_host: Host, link: Link, pause_ms: float,
                 continuation_ms: float, processing_ms: float,
                 policy: HandoffPolicy, migration_id: str = "m1",
                 shadow: bool = False, on_complete=None,
                 on_phase_entered=None, on_instance_created=None):
        if pause_ms < 0 or continuation_ms < 0:
            raise ValueError("pause_ms and continuation_ms must be >= 0")
        self.clock = clock
        self.broker = broker
        self.rng = rng
        self.technique = technique
        self.service_id = service_id
        self.main_queue = main_queue
        self.output_topic = output_topic
        self.source = source
        self.source_host = source_host
        self.target_host = target_host
        self.link = link
        self.pause_ms = pause_ms
        self.continuation_ms = continuation_ms
        self.processing_ms = processing_ms
        self.policy = policy
        self.migration_id = migration_id
        self.shadow = shadow
        self.on_complete = on_complete
        self.on_phase_entered = on_phase_entered
        self.on_instance_created = on_instance_created

        self.q_mgr = f"ctl.{migration_id}.mgr"
        self.q_src = f"ctl.{migration_id}.src"
        self.q_tgt = f"ctl.{migration_id}.tgt"

        self.record: MigrationRecord | None = None
        self.state = State.IDLE
        self.checkpoint: Checkpoint | None = None
        self.secondary_queue: str | None = None
        self.target_instance: ServiceInstance | None = None
        self._spans: list[PhaseSpan] = []
        self._current_phase: tuple[Phase, float] | None = None
        self._replay_started_at = 0.0
        self._streak = 0
        self._prev_counts = (0, 0)
        self._monitor_event = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self.state is not State.IDLE:
            raise ProtocolError("migration already started")
        self.record = MigrationRecord(
            technique=self.technique,
            migration_id=self.migration_id,
            initiated_at=self.clock.now,
            phase_timeline=self._spans,
        )
        if self.source.crashed or self.source.mode is not Mode.SERVING:
            self._finish(Outcome.ABORTED_SOURCE_CRASH)
            return
        for queue, owner in ((self.q_mgr, "mgr"), (self.q_src, "agent.src"),
                             (self.q_tgt, "agent.tgt")):
            ControlEndpoint(self.broker, queue, f"{owner}.{self.migration_id}",
                            self._on_event)
        self.state = State.CHECKPOINT
        self._send(self.q_src, "pause_request")

    def on_source_crash(self) -> None:
        """Source died. In HANDOFF its part is already over (watermark
        announced, or checkpoint fully transferred in StopAndCopy) and the
        migration proceeds; before that, abort and report what was lost
        rather than promote a target that could duplicate or drop outputs."""
        if self.state not in (State.IDLE, State.HANDOFF, State.DONE):
            self._finish(Outcome.ABORTED_SOURCE_CRASH)

    def enter_phase(self, phase: Phase) -> None:
        now = self.clock.now
        if self._current_phase is not None:
            name, start = self._current_phase
            self._spans.append(PhaseSpan(name.value, start, now))
        self._current_phase = (phase, now)
        if self.on_phase_entered is not None:
            self.on_phase_entered(phase, now)

    def _close_phases(self) -> None:
        if self._current_phase is not None:
            name, start = self._current_phase
            self._spans.append(PhaseSpan(name.value, start, self.clock.now))
            self._current_phase = None

    def _finish(self, outcome: Outcome) -> None:
        """The single exit: tear down, close and check the phase timeline,
        record the outcome and report it."""
        rec = self.record
        if outcome is Outcome.ABORTED_SOURCE_CRASH:
            # only a crash cancels a pending replay check; after a handoff or
            # divergence decision it fires and is dropped as stale, and the
            # golden event counts include that firing
            if self._monitor_event is not None:
                self.clock.cancel(self._monitor_event)
            published = self.broker.queue(self.main_queue).published_total
            last = self.source.state.last_processed_id
            rec.crash_info = {
                "source_last_processed": last,
                "published_total": published,
                "unemitted_count": published - last,
            }
        target = self.target_instance
        if outcome is not Outcome.COMPLETED and target is not None:
            target.stop()  # a no-op once a discard has stopped it
        if self.secondary_queue is not None:
            # the mirror starts with the secondary and runs until here
            self.broker.stop_mirror(self.main_queue)
            self.broker.delete_queue(self.secondary_queue)
        self._close_phases()
        rec.validate_timeline()
        if target is not None:
            rec.replayed_count = target.replayed_count
        rec.outcome = outcome
        rec.completed_at = self.clock.now
        self.state = State.DONE
        if self.on_complete is not None:
            self.on_complete(
                rec, target if outcome is Outcome.COMPLETED else None)

    # -- events -------------------------------------------------------------

    def _send(self, queue: str, event: str) -> None:
        self.broker.publish(queue, event.encode("ascii"))

    def _after(self, delay_ms: float, event: str):
        return self.clock.schedule(delay_ms, lambda: self._on_event(event))

    def _on_event(self, event: str) -> None:
        step = self._TRANSITIONS.get((self.state, event))
        if step is not None:
            step(self)
        elif event not in self._EVENTS:
            raise ProtocolError(f"unknown control event {event!r}")

    # -- source-side steps ----------------------------------------------------

    def _pause_source(self) -> None:
        self.enter_phase(Phase.PAUSE)
        self.source.pause()
        self._after(self.pause_ms, "pause_elapsed")

    def _checkpoint_source(self) -> None:
        self.enter_phase(Phase.CHECKPOINT)
        size = state_size_bytes(self.source.state)
        self._after(checkpoint_duration(self.source_host, size),
                    "checkpoint_elapsed")

    def _checkpoint_taken(self) -> None:
        cp = self.source.create_checkpoint()
        self.checkpoint = cp
        self.record.checkpoint_size_bytes = cp.size_bytes
        if self.technique is Technique.STOP_AND_COPY:
            self.source.stop()
            self._send(self.q_mgr, "phase1_done")
            return
        self.secondary_queue = f"{self.main_queue}.sec.{self.migration_id}"
        self.broker.create_queue(self.secondary_queue)
        # the secondary must hold every id the checkpoint does not cover,
        # including messages buffered while the source was paused
        self.broker.start_mirror(self.main_queue, self.secondary_queue,
                                 cp.checkpoint_last_id + 1)
        self.enter_phase(Phase.CONTINUATION)
        self._after(self.continuation_ms, "continuation_elapsed")

    def _resume_source(self) -> None:
        self.source.start_serving(self.main_queue)
        self._send(self.q_mgr, "phase1_done")

    def _stop_source(self) -> None:
        self.source.request_stop(self._source_stopped)

    def _source_stopped(self, _source: ServiceInstance) -> None:
        self._send(self.q_mgr, "source_stopped")
        # the source announces the watermark to the target directly
        self._send(self.q_tgt, "watermark")

    # -- target-side steps ----------------------------------------------------

    def _restore(self) -> None:
        self.enter_phase(Phase.RESTORATION)
        self._after(restore_duration(self.target_host,
                                     self.checkpoint.size_bytes),
                    "restore_elapsed")

    def _restored(self) -> None:
        inst = ServiceInstance.restore(
            self.checkpoint, self.clock, self.broker,
            self.processing_ms, self.output_topic,
            instance_id=f"{self.service_id}@{self.target_host.id}",
            shadow=self.shadow)
        self.target_instance = inst
        if self.on_instance_created is not None:
            self.on_instance_created(inst)
        if self.technique is Technique.STOP_AND_COPY:
            # activation: the restored container still pays the unpause cost
            # before it can serve; it lands inside the restoration span
            self._after(self.continuation_ms, "activation_elapsed")
            return
        self.enter_phase(Phase.REPLAY)
        self._send(self.q_mgr, "restored")
        inst.on_idle = lambda _inst: self._send(self.q_mgr, "replay_idle")
        inst.enter_replay(self.secondary_queue)

    def _activate(self) -> None:
        self.enter_phase(Phase.FINALIZATION)
        self.target_instance.start_serving(self.main_queue)
        self._send(self.q_mgr, "switched")

    def _freeze_target(self) -> None:
        self.target_instance.freeze_replay(
            lambda _inst: self._send(self.q_mgr, "frozen"))

    def _finish_replay(self) -> None:
        self.target_instance.finish_replay(
            self.record.watermark, self.main_queue, self._target_switched)

    def _target_switched(self, _target: ServiceInstance) -> None:
        self.enter_phase(Phase.FINALIZATION)
        self._send(self.q_mgr, "switched")

    def _discard_target(self) -> None:
        self.target_instance.stop()
        self._send(self.q_mgr, "discarded")

    # -- manager steps and the replay monitor ---------------------------------

    def _transfer(self) -> None:
        self.enter_phase(Phase.TRANSFER)
        self.state = State.TRANSFER
        dur = transfer_duration(self.link, self.checkpoint.size_bytes, self.rng)
        self._after(dur, "transfer_elapsed")

    def _transferred(self) -> None:
        # a StopAndCopy source is stopped and its checkpoint has arrived:
        # its part is over
        self.state = (State.RESTORE if self.technique is Technique.MS2M
                      else State.HANDOFF)
        self._send(self.q_tgt, "restore_request")

    def _begin_replay(self) -> None:
        self.state = State.REPLAY
        self._replay_started_at = self.clock.now
        sec = self.broker.queue(self.secondary_queue)
        self._prev_counts = (sec.published_total,
                             self.target_instance.replayed_count)
        self._streak = 0
        self._monitor_event = self._after(self.policy.check_interval_ms,
                                          "check_due")

    def _periodic_check(self) -> None:
        sec = self.broker.queue(self.secondary_queue)
        pub, rep = sec.published_total, self.target_instance.replayed_count
        dt = self.policy.check_interval_ms
        arrival = (pub - self._prev_counts[0]) / dt * 1000.0
        processing = (rep - self._prev_counts[1]) / dt * 1000.0
        self._prev_counts = (pub, rep)
        if arrival > processing:
            self._streak += 1
        else:
            self._streak = 0
        if self._decide() is Decision.CONTINUE:
            self._monitor_event = self._after(dt, "check_due")

    def _decide(self) -> Decision:
        backlog = len(self.broker.queue(self.secondary_queue))
        elapsed = self.clock.now - self._replay_started_at
        decision = decide_handoff(backlog, elapsed, self.policy, self._streak)
        if decision is Decision.HANDOFF:
            self.state = State.FREEZE
            self._send(self.q_tgt, "freeze")
        elif decision is Decision.ABORT:
            timeout = self.policy.replay_timeout_ms
            self.record.abort_reason = (
                "timeout" if timeout is not None and elapsed > timeout
                else "overload")
            self.state = State.ABORT
            self._send(self.q_tgt, "discard")
        return decision

    def _request_source_stop(self) -> None:
        self.state = State.STOP
        self._send(self.q_src, "stop_request")

    def _announce_watermark(self) -> None:
        # the source is stopped, so its last processed id no longer moves
        self.record.watermark = self.source.state.last_processed_id
        self.state = State.HANDOFF

    # -- the transition table -------------------------------------------------

    _TRANSITIONS = {
        (State.CHECKPOINT, "pause_request"): _pause_source,
        (State.CHECKPOINT, "pause_elapsed"): _checkpoint_source,
        (State.CHECKPOINT, "checkpoint_elapsed"): _checkpoint_taken,
        (State.CHECKPOINT, "continuation_elapsed"): _resume_source,
        (State.CHECKPOINT, "phase1_done"): _transfer,
        (State.TRANSFER, "transfer_elapsed"): _transferred,
        (State.RESTORE, "restore_request"): _restore,
        (State.RESTORE, "restore_elapsed"): _restored,
        (State.RESTORE, "restored"): _begin_replay,
        (State.REPLAY, "replay_idle"): _decide,
        (State.REPLAY, "check_due"): _periodic_check,
        (State.FREEZE, "freeze"): _freeze_target,
        (State.FREEZE, "frozen"): _request_source_stop,
        (State.STOP, "stop_request"): _stop_source,
        (State.STOP, "source_stopped"): _announce_watermark,
        (State.HANDOFF, "watermark"): _finish_replay,
        (State.HANDOFF, "restore_request"): _restore,
        (State.HANDOFF, "restore_elapsed"): _restored,
        (State.HANDOFF, "activation_elapsed"): _activate,
        (State.HANDOFF, "switched"): lambda m: m._finish(Outcome.COMPLETED),
        (State.ABORT, "discard"): _discard_target,
        # a crash abort can overtake a discard on its way to the target,
        # which still acknowledges it
        (State.DONE, "discard"): _discard_target,
        (State.ABORT, "discarded"):
            lambda m: m._finish(Outcome.ABORTED_DIVERGENCE),
    }
    _EVENTS = frozenset(event for _state, event in _TRANSITIONS)
