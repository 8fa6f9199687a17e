"""One simulated run: broker, workload, a serving instance, and optionally a
migration driven by a MigrationManager, plus fault injection.

Everything is wired at construction; run() executes the event loop to
exhaustion and assembles a SimResult. A (params, seed) pair fully determines
the run: identical inputs give byte-identical outputs and final state.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .broker import Broker
from .migration import (HandoffPolicy, MigrationManager, MigrationRecord,
                        Outcome, Phase, Technique)
from .service import Mode, ServiceInstance, ServiceState, serialize_state
from .simnet import Host, Link, SimClock, SimError
from .workload import WorkloadSpec, generate

MAIN_QUEUE = "svc.in"
OUTPUT_QUEUE = "svc.out"
SERVICE_ID = "svc"


@dataclass(frozen=True)
class FaultSpec:
    """Kill the source instance at an absolute time or at an offset into a
    named migration phase."""

    kind: str = "source_crash"
    at_ms: float | None = None
    phase: str | None = None
    offset_ms: float = 0.0

    def __post_init__(self):
        if self.kind != "source_crash":
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if (self.at_ms is None) == (self.phase is None):
            raise ValueError("fault needs exactly one of at_ms or phase")
        if self.phase is not None and self.phase not in {p.value for p in Phase}:
            raise ValueError(f"unknown phase {self.phase!r}")
        if self.offset_ms < 0 or (self.at_ms is not None and self.at_ms < 0):
            raise ValueError("fault times must be >= 0")


@dataclass
class SimParams:
    source_host: Host
    target_host: Host
    link: Link
    workload: WorkloadSpec | None = None
    stream: list[tuple[float, bytes]] | None = None
    processing_ms: float = 1.0
    pause_ms: float = 0.0
    continuation_ms: float = 0.0
    technique: Technique | None = None
    trigger_ms: float | None = None
    policy: HandoffPolicy = field(default_factory=HandoffPolicy)
    seed: int = 0
    fault: FaultSpec | None = None
    shadow: bool = False
    delivery_latency_ms: float = 0.0


@dataclass(frozen=True)
class ModeTransition:
    time_ms: float
    instance_id: str
    old: str
    new: str


@dataclass
class SimResult:
    outputs: list[bytes]
    final_state: bytes | None
    record: MigrationRecord | None
    mode_log: list[ModeTransition]
    published_main: int
    remaining_main: int
    source: ServiceInstance
    target: ServiceInstance | None
    shadow_outputs: list[bytes] | None


class Simulation:
    def __init__(self, params: SimParams):
        if params.technique is not None and params.trigger_ms is None:
            raise ValueError("a technique needs a trigger_ms")
        if params.stream is not None and params.workload is not None:
            raise ValueError("give either a workload spec or a stream, not both")
        self.params = params
        self.clock = SimClock()
        self.rng = random.Random(params.seed)
        self.broker = Broker(self.clock, params.delivery_latency_ms)
        self.broker.create_queue(MAIN_QUEUE)
        self.broker.create_queue(OUTPUT_QUEUE)

        self.mode_log: list[ModeTransition] = []
        self._serving: set[str] = set()
        self._drained_at: float | None = None
        self._ran = False

        self.source = ServiceInstance(
            f"{SERVICE_ID}@{params.source_host.id}", ServiceState(),
            self.clock, self.broker, params.processing_ms, OUTPUT_QUEUE)
        self._wire_instance(self.source)
        self.source.start_serving(MAIN_QUEUE)

        stream = params.stream
        if stream is None:
            stream = generate(params.workload) if params.workload else []
        for t, payload in stream:
            self.clock.schedule_at(
                t, lambda p=payload: self.broker.publish(MAIN_QUEUE, p))

        self.manager: MigrationManager | None = None
        if params.technique is not None:
            self.manager = MigrationManager(
                clock=self.clock, broker=self.broker, rng=self.rng,
                technique=params.technique, service_id=SERVICE_ID,
                main_queue=MAIN_QUEUE, output_topic=OUTPUT_QUEUE,
                source=self.source, source_host=params.source_host,
                target_host=params.target_host, link=params.link,
                pause_ms=params.pause_ms,
                continuation_ms=params.continuation_ms,
                processing_ms=params.processing_ms, policy=params.policy,
                shadow=params.shadow, on_complete=self._on_migration_complete,
                on_instance_created=self._wire_instance,
                on_phase_entered=self._on_phase_entered)
            self.clock.schedule_at(params.trigger_ms, self.manager.start)

        fault = params.fault
        self._fault_armed = fault is not None
        if fault is not None and fault.at_ms is not None:
            self.clock.schedule_at(fault.at_ms, self._crash_source)

    # -- hooks ----------------------------------------------------------------

    def _wire_instance(self, inst: ServiceInstance) -> None:
        inst.on_mode_change = self._on_mode_change

    def _on_mode_change(self, inst: ServiceInstance, old: Mode, new: Mode) -> None:
        self.mode_log.append(ModeTransition(
            self.clock.now, inst.instance_id, old.value, new.value))
        if new is Mode.SERVING:
            self._serving.add(inst.instance_id)
            if len(self._serving) > 1:
                raise SimError(
                    f"two instances serving at {self.clock.now}: "
                    f"{sorted(self._serving)}")
        else:
            self._serving.discard(inst.instance_id)

    def _on_phase_entered(self, phase: Phase, _time_ms: float) -> None:
        fault = self.params.fault
        if (self._fault_armed and fault is not None
                and fault.phase == phase.value):
            self._fault_armed = False
            self.clock.schedule(fault.offset_ms, self._crash_source)

    def _crash_source(self) -> None:
        if self.source.crashed:
            return
        self.source.crash()
        if self.manager is not None:
            self.manager.on_source_crash()

    def _on_migration_complete(self, record: MigrationRecord,
                               serving: ServiceInstance | None) -> None:
        if serving is None:
            return
        completed_at = self.clock.now

        def drain_hook(_inst: ServiceInstance) -> None:
            if (self._drained_at is None
                    and len(self.broker.queue(MAIN_QUEUE)) == 0):
                self._drained_at = self.clock.now

        serving.on_idle = drain_hook
        if not serving.busy and len(self.broker.queue(MAIN_QUEUE)) == 0:
            self._drained_at = completed_at

    # -- execution -------------------------------------------------------------

    def run(self) -> SimResult:
        if self._ran:
            raise SimError("a Simulation can only run once")
        self._ran = True
        self.clock.run_until()

        record = self.manager.record if self.manager is not None else None
        if record is not None and record.outcome is Outcome.COMPLETED:
            if self._drained_at is not None:
                record.drain_ms = self._drained_at - record.completed_at

        target = self.manager.target_instance if self.manager else None
        candidates = [self.source] + ([target] if target is not None else [])
        serving = [i for i in candidates if i.mode is Mode.SERVING]
        if len(serving) > 1:
            raise SimError("more than one serving instance at end of run")
        final_state = serialize_state(serving[0].state) if serving else None

        main = self.broker.queue(MAIN_QUEUE)
        return SimResult(
            outputs=self.broker.queue(OUTPUT_QUEUE).payloads(),
            final_state=final_state,
            record=record,
            mode_log=self.mode_log,
            published_main=main.published_total,
            remaining_main=len(main),
            source=self.source,
            target=target,
            shadow_outputs=(target.shadow_outputs if target is not None
                            else None),
        )
