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
event name. A control message is delivered like any other, by the broker's
wake rule: a publish to a queue whose consumer is idle wakes it
delivery_latency_ms (zero by default) later, and a message published while
that wake is on its way rides it and arrives sooner. So a control hop adds
at most that latency to the migration, not always all of it (ROADMAP.md
item 15 would make every hop pay it in full); handling it takes no further
simulated time.
Each phase span starts where the previous one ended, so the spans tile the
record exactly either way.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .broker import Broker
from .rules import check, param
from .service import Mode, ProtocolError, ServiceInstance, serialize_state
from .simnet import (SimClock, checkpoint_duration, restore_duration,
                     transfer_duration)

if TYPE_CHECKING:
    from .sim import SimParams

SERVICE_ID = "svc"
MAIN_QUEUE = "svc.in"
OUTPUT_QUEUE = "svc.out"
MIGRATION_ID = "m1"


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

    def validate_timeline(self) -> None:
        """Spans must tile the record exactly, each starting at the instant
        the previous one ended, and no phase may be entered twice: a phase
        fault is scheduled on entry, so this invariant is what keeps it to
        one firing."""
        prev_end = None
        seen: set[str] = set()
        for span in self.phase_timeline:
            if span.name in seen:
                raise ProtocolError(f"phase {span.name} entered twice")
            seen.add(span.name)
            if prev_end is not None and span.start_ms != prev_end:
                raise ProtocolError(
                    f"phase {span.name} does not start where the previous "
                    f"phase ended ({span.start_ms} vs {prev_end})")
            prev_end = span.end_ms


class Decision(enum.Enum):
    """What the replay monitor does next. The two ways to give up carry the
    record's abort_reason as their value."""

    HANDOFF = "Handoff"
    CONTINUE = "Continue"
    TIMEOUT = "timeout"
    OVERLOAD = "overload"


@dataclass(frozen=True)
class HandoffPolicy:
    """When to hand off, keep waiting, or give up during message replay.

    The backlog is the secondary queue's length: what was mirrored and not
    yet replayed. replay_timeout_ms of None disables the timeout. Divergence
    is declared after divergence_window consecutive checks (spaced
    check_interval_ms apart) at which the backlog had grown since the check
    before.
    """

    handoff_threshold: int = param(0, minimum=0, integer=True)
    replay_timeout_ms: float | None = param(60_000.0, above=0, nullable=True)
    divergence_window: int = param(5, minimum=1, integer=True)
    # the floor caps the replay monitor at timeout / interval checks
    check_interval_ms: float = param(100.0, minimum=1.0)

    __post_init__ = check


def decide_handoff(backlog: int, elapsed_replay_ms: float,
                   policy: HandoffPolicy, overload_streak: int = 0) -> Decision:
    """Pure handoff decision, consulted whenever the replay backlog drains
    and at every periodic check.

    overload_streak is the caller-maintained count of consecutive checks,
    including the current one, at which the backlog had grown since the
    check before. Precedence: a drained backlog always wins (HANDOFF), then
    the replay timeout (TIMEOUT), then sustained divergence (OVERLOAD);
    otherwise CONTINUE.
    """
    if backlog <= policy.handoff_threshold:
        return Decision.HANDOFF
    if (policy.replay_timeout_ms is not None
            and elapsed_replay_ms > policy.replay_timeout_ms):
        return Decision.TIMEOUT
    if overload_streak >= policy.divergence_window:
        return Decision.OVERLOAD
    return Decision.CONTINUE


# -- control plane ----------------------------------------------------------


class ControlEndpoint:
    """Consumes one control queue, dispatching each message to a handler the
    instant it is delivered. A payload is a bare ASCII event name, and the
    handler gets it decoded. Delivery follows the broker's wake rule, as on
    any queue: a message waits delivery_latency_ms, unless a wake to this
    queue is already on its way, which it then rides and arrives with
    sooner. The handler itself costs no simulated time."""

    def __init__(self, broker: Broker, queue: str, owner: str, handler):
        self.broker = broker
        self.queue = queue
        self.owner = owner
        self.handler = handler
        broker.create_queue(queue)
        broker.subscribe(queue, owner, on_wake=self._drain)

    def _drain(self) -> None:
        while True:
            msg = self.broker.poll(self.queue, self.owner)
            if msg is None:
                return
            self.broker.ack(self.queue, self.owner, msg.id)
            self.handler(msg.payload.decode("ascii"))


class State(enum.Enum):
    """Where a migration stands. MigrationManager._MS2M and _STOP_AND_COPY
    declare, per technique, the events each state accepts, the step each
    runs and the state or states it leads to."""

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
    state machine, reading technique, hosts, link, costs, policy and fault
    from the run's SimParams. Link jitter is drawn from its own
    random.Random(params.seed), the run's only random draws.

    Every step is an event: either a control message, whose payload is the
    bare event name, delivered on one of three per-migration broker queues
    (q_mgr, q_src, q_tgt), or a phase timer firing. The protocol is strictly
    ordered, so at most one timer is pending, _timer: _after arms it and its
    firing clears it. The protocol is a declared graph per technique, _MS2M
    or _STOP_AND_COPY, picked once when the manager is built; README.md
    shows both as tables. _on_event looks the pair (state, event) up in it,
    runs the step the row names and moves to the row's next state, or, for
    the replay monitor's choice, to the declared state the step returned;
    any other return is a ProtocolError. An event the graph knows, arriving
    in a state that has no row for it, is stale (an abort or an earlier step
    overtook it) and is dropped; only a control message can be, because
    leaving replay (_decide) and leaving the protocol cancel the pending
    timer. An event the graph does not know is a ProtocolError. Every
    outcome leaves through _finish, which cancels the pending timer, tears
    down, closes and checks the phase timeline, and records the outcome.

    Around the protocol, the manager kills the source (crash_source, which
    aborts the migration in any state before HANDOFF), schedules a fault on
    a named phase when it enters that phase, reports the restored target's
    mode changes to the source's on_mode_change, and on Completed times how
    long the target takes to drain the main queue into record.drain_ms.
    """

    q_mgr = f"ctl.{MIGRATION_ID}.mgr"
    q_src = f"ctl.{MIGRATION_ID}.src"
    q_tgt = f"ctl.{MIGRATION_ID}.tgt"

    def __init__(self, params: SimParams, clock: SimClock, broker: Broker,
                 source: ServiceInstance):
        self.params = params
        self.clock = clock
        self.broker = broker
        self.rng = random.Random(params.seed)  # draws only for link jitter
        self.source = source
        self._graph = (self._MS2M if params.technique is Technique.MS2M
                       else self._STOP_AND_COPY)

        self.record: MigrationRecord | None = None
        self.state = State.IDLE
        self.checkpoint: bytes | None = None  # the source's snapshot
        self.secondary_queue: str | None = None
        self.target_instance: ServiceInstance | None = None
        self._current_phase: tuple[Phase, float] | None = None
        self._timer = None  # the one pending timer's clock entry, if any

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        if self.state is not State.IDLE:
            raise ProtocolError("migration already started")
        self.record = MigrationRecord(
            technique=self.params.technique,
            migration_id=MIGRATION_ID,
            initiated_at=self.clock.now,
        )
        # a crash stops the source, so a crashed one is not serving either
        if self.source.mode is not Mode.SERVING:
            self._finish(Outcome.ABORTED_SOURCE_CRASH)
            return
        for queue, owner in ((self.q_mgr, "mgr"), (self.q_src, "agent.src"),
                             (self.q_tgt, "agent.tgt")):
            ControlEndpoint(self.broker, queue, f"{owner}.{MIGRATION_ID}",
                            self._on_event)
        self.state = State.CHECKPOINT
        self._send(self.q_src, "pause_request")

    def crash_source(self) -> None:
        """Kill the source. In HANDOFF its part is already over (watermark
        announced, or checkpoint fully transferred in StopAndCopy) and the
        migration proceeds; before that, abort and report what was lost
        rather than promote a target that could duplicate or drop outputs."""
        self.source.crash()
        if self.state not in (State.IDLE, State.HANDOFF, State.DONE):
            self._finish(Outcome.ABORTED_SOURCE_CRASH)

    def enter_phase(self, phase: Phase) -> None:
        self._close_phases()
        self._current_phase = (phase, self.clock.now)
        fault = self.params.fault
        if fault is not None and fault.phase == phase.value:
            self.clock.schedule(fault.offset_ms, self.crash_source)

    def _close_phases(self) -> None:
        if self._current_phase is not None:
            name, start = self._current_phase
            self.record.phase_timeline.append(
                PhaseSpan(name.value, start, self.clock.now))
            self._current_phase = None

    def _finish(self, outcome: Outcome) -> None:
        """The single exit: tear down, close and check the phase timeline,
        record the outcome, and on Completed start timing the drain."""
        rec = self.record
        self._cancel_timer()
        if outcome is Outcome.ABORTED_SOURCE_CRASH:
            published = self.broker.queue(MAIN_QUEUE).published_total
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
            self.broker.stop_mirror(MAIN_QUEUE)
            self.broker.delete_queue(self.secondary_queue)
        self._close_phases()
        rec.validate_timeline()
        if target is not None:
            rec.replayed_count = target.replayed_count
        rec.outcome = outcome
        rec.completed_at = self.clock.now
        self.state = State.DONE
        if outcome is Outcome.COMPLETED:
            target.on_idle = self._drain_check
            # a busy target's message is still in the main queue: not drained
            self._drain_check()

    def _drain_check(self) -> None:
        rec = self.record
        if len(self.broker.queue(MAIN_QUEUE)) == 0:
            rec.drain_ms = self.clock.now - rec.completed_at
            # measured once: the hook leaves so later idles cost nothing
            self.target_instance.on_idle = None

    # -- events -------------------------------------------------------------

    def _send(self, queue: str, event: str) -> None:
        self.broker.publish(queue, event.encode("ascii"))

    def _after(self, delay_ms: float, event: str) -> None:
        def fire():
            self._timer = None
            self._on_event(event)
        self._timer = self.clock.schedule(delay_ms, fire)

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self.clock.cancel(self._timer)
            self._timer = None

    def _on_event(self, event: str) -> None:
        row = self._graph.get((self.state, event))
        if row is None:
            if event not in {e for _state, e in self._graph}:
                raise ProtocolError(f"unknown control event {event!r}")
            return  # stale
        step, nxt = row
        picked = step(self)
        if type(nxt) is tuple:
            if picked not in nxt:
                raise ProtocolError(f"{event!r} in {self.state} picked "
                                    f"{picked}, which its row does not declare")
            nxt = picked
        self.state = nxt

    # -- source-side steps ----------------------------------------------------

    def _pause_source(self) -> None:
        self.enter_phase(Phase.PAUSE)
        self.source.pause()
        self._after(self.params.pause_ms, "pause_elapsed")

    def _checkpoint_source(self) -> None:
        self.enter_phase(Phase.CHECKPOINT)
        size = len(serialize_state(self.source.state))
        self._after(checkpoint_duration(self.params.source_host, size),
                    "checkpoint_elapsed")

    def _take_checkpoint(self) -> None:
        self.checkpoint = self.source.create_checkpoint()
        self.record.checkpoint_size_bytes = len(self.checkpoint)

    def _mirror_and_continue(self) -> None:
        self._take_checkpoint()
        self.secondary_queue = f"{MAIN_QUEUE}.sec.{MIGRATION_ID}"
        self.broker.create_queue(self.secondary_queue)
        # the secondary must hold every id the checkpoint does not cover,
        # including messages buffered while the source was paused; the
        # source stays paused until continuation_elapsed, so its last id is
        # the checkpoint's
        self.broker.start_mirror(MAIN_QUEUE, self.secondary_queue,
                                 self.source.state.last_processed_id + 1)
        self.enter_phase(Phase.CONTINUATION)
        self._after(self.params.continuation_ms, "continuation_elapsed")

    def _stop_at_checkpoint(self) -> None:
        self._take_checkpoint()
        self.source.stop()
        self._send(self.q_mgr, "phase1_done")

    def _resume_source(self) -> None:
        self.source.start_serving(MAIN_QUEUE)
        self._send(self.q_mgr, "phase1_done")

    def _stop_source(self) -> None:
        self.source.request_stop(self._source_stopped)

    def _source_stopped(self) -> None:
        self._send(self.q_mgr, "source_stopped")
        # the source announces the watermark to the target directly
        self._send(self.q_tgt, "watermark")

    # -- target-side steps ----------------------------------------------------

    def _restore(self) -> None:
        self.enter_phase(Phase.RESTORATION)
        self._after(restore_duration(self.params.target_host,
                                     len(self.checkpoint)),
                    "restore_elapsed")

    def _restore_target(self) -> ServiceInstance:
        p = self.params
        inst = ServiceInstance.restore(
            self.checkpoint, self.clock, self.broker, p.processing_ms,
            OUTPUT_QUEUE, instance_id=f"{SERVICE_ID}@{p.target_host.id}")
        inst.on_mode_change = self.source.on_mode_change
        self.target_instance = inst
        return inst

    def _restore_and_replay(self) -> None:
        inst = self._restore_target()
        self.enter_phase(Phase.REPLAY)
        self._send(self.q_mgr, "restored")
        inst.on_idle = lambda: self._send(self.q_mgr, "replay_idle")
        inst.enter_replay(self.secondary_queue)

    def _restore_and_unpause(self) -> None:
        self._restore_target()
        # the restored container still pays the unpause cost before it can
        # serve; it lands inside the restoration span
        self._after(self.params.continuation_ms, "activation_elapsed")

    def _activate(self) -> None:
        self.enter_phase(Phase.FINALIZATION)
        self.target_instance.start_serving(MAIN_QUEUE)
        self._send(self.q_mgr, "switched")

    def _freeze_target(self) -> None:
        self.target_instance.freeze_replay(
            lambda: self._send(self.q_mgr, "frozen"))

    def _finish_replay(self) -> None:
        self.target_instance.finish_replay(
            self.record.watermark, MAIN_QUEUE, self._target_switched)

    def _target_switched(self) -> None:
        self.enter_phase(Phase.FINALIZATION)
        self._send(self.q_mgr, "switched")

    def _discard_target(self) -> None:
        self.target_instance.stop()
        self._send(self.q_mgr, "discarded")

    # -- manager steps and the replay monitor ---------------------------------

    def _transfer(self) -> None:
        self.enter_phase(Phase.TRANSFER)
        dur = transfer_duration(self.params.link, len(self.checkpoint),
                                self.rng)
        self._after(dur, "transfer_elapsed")

    def _request_restore(self) -> None:
        self._send(self.q_tgt, "restore_request")

    def _begin_replay(self) -> None:
        self._replay_started_at = self.clock.now
        self._backlog = len(self.broker.queue(self.secondary_queue))
        self._streak = 0
        self._after(self.params.policy.check_interval_ms, "check_due")

    def _periodic_check(self) -> State:
        # the backlog is what was mirrored and not yet replayed, so it grew
        # exactly when arrivals outpaced replay since the last check
        backlog = len(self.broker.queue(self.secondary_queue))
        self._streak = self._streak + 1 if backlog > self._backlog else 0
        self._backlog = backlog
        picked = self._decide()
        if picked is State.REPLAY:
            self._after(self.params.policy.check_interval_ms, "check_due")
        return picked

    def _decide(self) -> State:
        backlog = len(self.broker.queue(self.secondary_queue))
        elapsed = self.clock.now - self._replay_started_at
        decision = decide_handoff(backlog, elapsed, self.params.policy,
                                  self._streak)
        if decision is Decision.CONTINUE:
            return State.REPLAY
        # leaving replay: a pending check would only fire as stale
        self._cancel_timer()
        if decision is Decision.HANDOFF:
            self._send(self.q_tgt, "freeze")
            return State.FREEZE
        self.record.abort_reason = decision.value
        self._send(self.q_tgt, "discard")
        return State.ABORT

    def _request_source_stop(self) -> None:
        self._send(self.q_src, "stop_request")

    def _announce_watermark(self) -> None:
        # the source is stopped, so its last processed id no longer moves
        self.record.watermark = self.source.state.last_processed_id

    # -- the protocol graphs --------------------------------------------------
    # (state, event) -> (step, next): next is the state the row leads to, or
    # for the replay monitor a choice, the declared states its step may return

    _MONITOR = (State.REPLAY, State.FREEZE, State.ABORT)
    _COMMON = {
        (State.CHECKPOINT, "pause_request"): (_pause_source, State.CHECKPOINT),
        (State.CHECKPOINT, "pause_elapsed"):
            (_checkpoint_source, State.CHECKPOINT),
        (State.CHECKPOINT, "phase1_done"): (_transfer, State.TRANSFER),
        (State.HANDOFF, "switched"):
            (lambda m: m._finish(Outcome.COMPLETED), State.DONE),
    }
    _MS2M = _COMMON | {
        (State.CHECKPOINT, "checkpoint_elapsed"):
            (_mirror_and_continue, State.CHECKPOINT),
        (State.CHECKPOINT, "continuation_elapsed"):
            (_resume_source, State.CHECKPOINT),
        (State.TRANSFER, "transfer_elapsed"): (_request_restore, State.RESTORE),
        (State.RESTORE, "restore_request"): (_restore, State.RESTORE),
        (State.RESTORE, "restore_elapsed"):
            (_restore_and_replay, State.RESTORE),
        (State.RESTORE, "restored"): (_begin_replay, State.REPLAY),
        (State.REPLAY, "replay_idle"): (_decide, _MONITOR),
        (State.REPLAY, "check_due"): (_periodic_check, _MONITOR),
        (State.FREEZE, "freeze"): (_freeze_target, State.FREEZE),
        (State.FREEZE, "frozen"): (_request_source_stop, State.STOP),
        (State.STOP, "stop_request"): (_stop_source, State.STOP),
        (State.STOP, "source_stopped"): (_announce_watermark, State.HANDOFF),
        (State.HANDOFF, "watermark"): (_finish_replay, State.HANDOFF),
        (State.ABORT, "discard"): (_discard_target, State.ABORT),
        # a crash abort can overtake a discard on its way to the target,
        # which still acknowledges it
        (State.DONE, "discard"): (_discard_target, State.DONE),
        (State.ABORT, "discarded"):
            (lambda m: m._finish(Outcome.ABORTED_DIVERGENCE), State.DONE),
    }
    # the source stops at its checkpoint and its part is over once the
    # checkpoint has arrived, so the target is restored and activated in
    # HANDOFF, where a source crash no longer aborts
    _STOP_AND_COPY = _COMMON | {
        (State.CHECKPOINT, "checkpoint_elapsed"):
            (_stop_at_checkpoint, State.CHECKPOINT),
        (State.TRANSFER, "transfer_elapsed"): (_request_restore, State.HANDOFF),
        (State.HANDOFF, "restore_request"): (_restore, State.HANDOFF),
        (State.HANDOFF, "restore_elapsed"):
            (_restore_and_unpause, State.HANDOFF),
        (State.HANDOFF, "activation_elapsed"): (_activate, State.HANDOFF),
    }
