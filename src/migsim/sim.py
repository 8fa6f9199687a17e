"""One simulated run: broker, workload, a serving instance, and optionally a
migration driven by a MigrationManager, plus fault injection.

Everything is wired at construction, except that the arrival stream is fed
to the clock one message at a time (SimClock.feed), so the event heap holds
only the next arrival rather than the whole stream. run() executes the event
loop to exhaustion, detaches every callback the run set up (pending events,
broker wakes, instance hooks), even when the loop raises, and assembles a
SimResult. A finished or failed run therefore holds no reference cycle and
is freed by reference counting alone. A (params, seed) pair fully determines
the run: identical inputs give byte-identical outputs and final state.

The Simulation owns the clock, the broker, the source instance and the mode
log. A MigrationManager built from the same SimParams owns the rest of a
migration: the source crash (a phase fault it arms on entering that phase
and disarms when that phase closes), the restored target's place in the
mode log, and the drain timing in its record. Only a run without a
technique crashes its source directly.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import partial

from .broker import Broker
from .migration import (MAIN_QUEUE, OUTPUT_QUEUE, SERVICE_ID, HandoffPolicy,
                        MigrationManager, MigrationRecord, Phase, Technique)
from .rules import Rule, check, param, problem
from .service import Mode, ServiceInstance, ServiceState, serialize_state
from .simnet import Host, Link, SimClock, SimError
from .workload import WorkloadSpec, generate


@dataclass(frozen=True)
class FaultSpec:
    """Kill the source instance at an absolute time or at an offset into a
    named migration phase. A phase fault fires only if its phase is still
    open at that offset: closing the phase, by entering the next one or by
    ending the migration, disarms it."""

    kind: str = "source_crash"
    at_ms: float | None = param(None, minimum=0.0, nullable=True)
    phase: str | None = None
    offset_ms: float = param(0.0, minimum=0.0)

    def __post_init__(self):
        check(self)
        if self.kind != "source_crash":
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if (self.at_ms is None) == (self.phase is None):
            raise ValueError("fault needs exactly one of at_ms or phase")
        # a list, not a set: an unhashable phase is unknown, not a TypeError
        if self.phase is not None and self.phase not in [p.value for p in Phase]:
            raise ValueError(f"unknown phase {self.phase!r}")


_ARRIVAL_TIME = Rule(minimum=0.0)
_FLOAT_MAX = sys.float_info.max


def _check_arrival(i: int, entry) -> None:
    where = f"SimParams.stream[{i}]"
    if not isinstance(entry, (tuple, list)) or len(entry) != 2:
        raise ValueError(
            f"{where}: must be a (time_ms, payload) pair, got {entry!r:.60}")
    time_ms, payload = entry
    text = problem(time_ms, _ARRIVAL_TIME)
    if text is not None:
        raise ValueError(f"{where}: time {text}")
    if not isinstance(payload, bytes):
        raise ValueError(f"{where}: payload must be bytes, got "
                         f"{type(payload).__name__}")


@dataclass
class SimParams:
    """Everything one run needs. stream, when given instead of a workload,
    is a list of (time_ms, payload) arrivals with bytes payloads; it may be
    unsorted, and arrivals at equal times are published in list order.

    Construction refuses what a run would only trip over later: a value
    outside its field's rule, a technique that is not a Technique, a
    technique without a trigger_ms, both a workload and a stream, and a
    stream entry that is not a (time_ms, payload) pair with a finite time
    >= 0 and a bytes payload."""

    source_host: Host
    target_host: Host
    link: Link
    workload: WorkloadSpec | None = None
    stream: list[tuple[float, bytes]] | None = None
    processing_ms: float = param(1.0, minimum=0.0)
    pause_ms: float = param(0.0, minimum=0.0)
    continuation_ms: float = param(0.0, minimum=0.0)
    technique: Technique | None = None
    trigger_ms: float | None = param(None, minimum=0.0, nullable=True)
    policy: HandoffPolicy = field(default_factory=HandoffPolicy)
    seed: int = param(0, minimum=0, integer=True)
    fault: FaultSpec | None = None
    delivery_latency_ms: float = param(0.0, minimum=0.0)

    def __post_init__(self):
        check(self)
        # the manager picks its protocol graph by identity, so a bare
        # "MS2M" would run StopAndCopy's graph under an MS2M label
        if not isinstance(self.technique, (Technique, type(None))):
            raise ValueError("SimParams.technique: must be a Technique or "
                             f"None, got {self.technique!r}")
        if self.technique is not None and self.trigger_ms is None:
            raise ValueError("a technique needs a trigger_ms")
        if self.stream is not None and self.workload is not None:
            raise ValueError("give either a workload spec or a stream, not both")
        # anything else would fail mid-run, far from the bad entry; the
        # usual (float, bytes) tuple is let through without the full check
        for i, entry in enumerate(self.stream or ()):
            if not (type(entry) is tuple and len(entry) == 2
                    and type(entry[0]) is float
                    and 0.0 <= entry[0] <= _FLOAT_MAX
                    and type(entry[1]) is bytes):
                _check_arrival(i, entry)


@dataclass(frozen=True)
class ModeTransition:
    time_ms: float
    instance_id: str
    old: str
    new: str


@dataclass
class SimResult:
    """What a run produced. source and target are the run's instances, with
    their hooks detached: mode, state and counters are as the run left
    them."""

    outputs: list[bytes]
    final_state: bytes | None
    record: MigrationRecord | None
    mode_log: list[ModeTransition]
    published_main: int
    remaining_main: int
    source: ServiceInstance
    target: ServiceInstance | None


class Simulation:
    def __init__(self, params: SimParams):
        self.params = params
        self.clock = SimClock()
        self.broker = Broker(self.clock, params.delivery_latency_ms)
        self.broker.create_queue(MAIN_QUEUE)
        self.broker.create_queue(OUTPUT_QUEUE)

        self.mode_log: list[ModeTransition] = []
        # keyed by object, not instance_id: equal source and target hosts
        # give both instances the same id
        self._serving: set[ServiceInstance] = set()
        self._ran = False

        self.source = ServiceInstance(
            f"{SERVICE_ID}@{params.source_host.id}", ServiceState(),
            self.clock, self.broker, params.processing_ms, OUTPUT_QUEUE)
        self.source.on_mode_change = self._on_mode_change
        self.source.start_serving(MAIN_QUEUE)

        stream = params.stream
        if stream is None:
            stream = generate(params.workload) if params.workload else []
        self.clock.feed(stream, partial(self.broker.publish, MAIN_QUEUE))

        self.manager: MigrationManager | None = None
        if params.technique is not None:
            self.manager = MigrationManager(params, self.clock, self.broker,
                                            self.source)
            self.clock.schedule_at(params.trigger_ms, self.manager.start)

        fault = params.fault
        if fault is not None and fault.at_ms is not None:
            crash = (self.manager.crash_source if self.manager is not None
                     else self.source.crash)
            self.clock.schedule_at(fault.at_ms, crash)

    def _on_mode_change(self, inst: ServiceInstance, old: Mode, new: Mode) -> None:
        self.mode_log.append(ModeTransition(
            self.clock.now, inst.instance_id, old.value, new.value))
        if new is Mode.SERVING:
            self._serving.add(inst)
            if len(self._serving) > 1:
                raise SimError(
                    f"two instances serving at {self.clock.now}: "
                    f"{sorted(i.instance_id for i in self._serving)}")
        else:
            self._serving.discard(inst)

    # -- execution -------------------------------------------------------------

    def run(self) -> SimResult:
        if self._ran:
            raise SimError("a Simulation can only run once")
        self._ran = True
        try:
            self.clock.run_until()
        finally:
            # break every cycle the run's callbacks form, finished or failed:
            # pending events and the rest of the feed, broker wakes (control
            # endpoints included) and the instances' hooks
            self.clock.clear()
            self.broker.detach_wakes()
            self.source.detach_hooks()
            if self.manager and self.manager.target_instance:
                self.manager.target_instance.detach_hooks()

        record = self.manager.record if self.manager is not None else None
        target = self.manager.target_instance if self.manager else None
        # _on_mode_change keeps the serving instance, and refused a second
        final_state = (serialize_state(next(iter(self._serving)).state)
                       if self._serving else None)

        main = self.broker.queue(MAIN_QUEUE)
        return SimResult(
            # moved, not copied: the result outlives the queue's Messages
            outputs=self.broker.queue(OUTPUT_QUEUE).take_payloads(),
            final_state=final_state,
            record=record,
            mode_log=self.mode_log,
            published_main=main.published_total,
            remaining_main=len(main),
            source=self.source,
            target=target,
        )
