"""Per-layer tracing of migsim from outside the package.

install() patches migsim's public functions and methods with wrappers that
record spans and counts; the returned Patches object undoes them. Nothing
under src/ knows about the tracer, and an untraced run carries no wrapper.

A span records its name, its inclusive duration, and how much of that time
its child spans covered, so self time = inclusive - children. Spans nest
through an explicit stack: every wrapped call that starts while another is
open is that span's child. Only per-name aggregates are kept, not individual
spans, so memory does not grow with the run. The wrappers' own cost lands in
the self time of the enclosing span.

Module-level functions are also bound by `from .x import y` in other migsim
modules (serialize_state in sim and service, decide_handoff in migration,
generate in sim, effective_params in harness). Patching only the defining module would miss those calls, so install() finds
every migsim module global that is the original function and replaces each
one; Patches.sites lists where it did. state_size_bytes, bound in migration,
is measured through the serialize_state call it makes inside service.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

from migsim import broker, config, harness, migration, service, sim, simnet, workload


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.child_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []

    def span(self, name: str, fn):
        """Wrap fn so each call is recorded as a span called name."""
        stack, clock = self._stack, self.clock
        calls, total_s, child_s = self.calls, self.total_s, self.child_s

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                total_s[name] += elapsed
                child_s[name] += children[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper

    def self_s(self, name: str) -> float:
        return self.total_s[name] - self.child_s[name]

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks[name]:
            self.peaks[name] = value


class Patches:
    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []
        # module name -> names of functions patched there
        self.sites: dict[str, list[str]] = defaultdict(list)

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo.clear()
        self.sites.clear()


def _migsim_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "migsim" or name.startswith("migsim."))]


def _patch_function(patches: Patches, original, wrapped) -> None:
    for module in _migsim_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.set(module, attr, wrapped)
                patches.sites[module.__name__].append(attr)


def install(tracer: Tracer) -> Patches:
    """Patch every layer boundary of migsim to record into tracer."""
    t = tracer
    patches = Patches()
    ctl_queues: set[str] = set()

    # -- simnet: the event loop, scheduling and each fired event -------------
    clock_cls = simnet.SimClock
    patches.set(clock_cls, "run_until", t.span("simnet.run_until",
                                                clock_cls.run_until))
    schedule_at, cancel = clock_cls.schedule_at, clock_cls.cancel

    def traced_schedule_at(self, time_ms, fn):
        t.counts["simnet.scheduled"] += 1
        return schedule_at(self, time_ms, t.span("simnet.event", fn))

    def traced_cancel(self, event):
        t.counts["simnet.cancelled"] += 1
        return cancel(self, event)

    patches.set(clock_cls, "schedule_at", traced_schedule_at)
    patches.set(clock_cls, "cancel", traced_cancel)

    # -- broker ---------------------------------------------------------------
    b = broker.Broker
    for name in ("poll", "peek", "ack"):
        patches.set(b, name, t.span(f"broker.{name}", getattr(b, name)))
    publish = t.span("broker.publish", b.publish)
    start_mirror = b.start_mirror

    def traced_publish(self, name, payload):
        q = self.queue(name)
        mirror = q.mirror
        msg_id = publish(self, name, payload)
        if name == sim.MAIN_QUEUE:
            t.peak("broker.main_depth_peak", len(q))
        elif name in ctl_queues:
            t.counts["migration.ctl.bytes"] += len(payload)
        if mirror is not None and msg_id >= mirror[1]:
            t.counts["broker.mirror.n"] += 1
            t.peak("broker.secondary_depth_peak", len(self.queue(mirror[0])))
        return msg_id

    def traced_start_mirror(self, name, target_name, start_id):
        target = self.queue(target_name)
        before = len(target)
        start_mirror(self, name, target_name, start_id)
        t.counts["broker.mirror.n"] += len(target) - before
        t.peak("broker.secondary_depth_peak", len(target))

    patches.set(b, "publish", traced_publish)
    patches.set(b, "start_mirror", traced_start_mirror)

    # -- service ----------------------------------------------------------------
    handle = t.span("service.handle", service.handle)
    serialize = t.span("service.serialize", service.serialize_state)

    def traced_handle(state, msg):
        try:
            return handle(state, msg)
        except service.StaleMessage:
            t.counts["service.stale.n"] += 1
            raise

    def traced_serialize(state):
        blob = serialize(state)
        t.counts["service.serialize.bytes"] += len(blob)
        return blob

    _patch_function(patches, service.handle, traced_handle)
    _patch_function(patches, service.serialize_state, traced_serialize)
    _patch_function(patches, service.deserialize_state,
                    t.span("service.deserialize", service.deserialize_state))

    # -- migration control plane --------------------------------------------------
    endpoint_init = migration.ControlEndpoint.__init__

    def traced_endpoint_init(self, broker_, queue, owner, handler):
        ctl_queues.add(queue)
        endpoint_init(self, broker_, queue, owner,
                      t.span("migration.ctl", handler))

    patches.set(migration.ControlEndpoint, "__init__", traced_endpoint_init)
    _patch_function(patches, migration.decide_handoff,
                    t.span("migration.decisions", migration.decide_handoff))

    # -- workload, config, sim wiring, harness -----------------------------------
    generate = t.span("workload.generate", workload.generate)

    def traced_generate(spec):
        stream = generate(spec)
        t.counts["workload.stream_len"] += len(stream)
        return stream

    _patch_function(patches, workload.generate, traced_generate)
    _patch_function(patches, config.load_scenario,
                    t.span("config.load", config.load_scenario))
    _patch_function(patches, config.effective_params,
                    t.span("config.effective_params", config.effective_params))

    sim_init = t.span("sim.construct", sim.Simulation.__init__)

    def traced_sim_init(self, params):
        if params.stream is not None:
            t.counts["workload.stream_len"] += len(params.stream)
        sim_init(self, params)

    patches.set(sim.Simulation, "__init__", traced_sim_init)
    patches.set(sim.Simulation, "run", t.span("sim.run", sim.Simulation.run))
    _patch_function(patches, harness.row_from_record,
                    t.span("harness.row", harness.row_from_record))
    _patch_function(patches, harness.export_csv,
                    t.span("harness.export_csv", harness.export_csv))

    return patches

