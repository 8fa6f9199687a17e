"""Timing oracle: every non-replay phase span of a completed migration equals
its cost formula from simnet, computed independently of the run.

With zero delivery latency and zero link jitter, each span is one named
constant or one linear cost model over the checkpoint's size:

    pause          pause_ms
    checkpoint     checkpoint_duration(source, size)
    continuation   continuation_ms (MS2M)
    transfer       transfer_duration(link, size)
    restoration    restore_duration(target, size), plus continuation_ms for
                   StopAndCopy, whose activation lies inside that span

size is the record's checkpoint_size_bytes, so the checkpoint span also
checks that the state sized at the checkpoint's start is the checkpoint.

Replay has no closed form, since it races the arrivals, but it has a floor:
the target applies replayed_count messages one after another, processing_ms
each, inside the MessageReplay span. So that span is at least
replayed_count * processing_ms, to a relative 1e-9 of float noise; delivery
latency only adds to it. Finalization and latency hops are left out.
"""

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from migsim.migration import Outcome, Phase, Technique
from migsim.sim import SimParams, Simulation
from migsim.simnet import (Host, Link, checkpoint_duration, restore_duration,
                           transfer_duration)
from migsim.workload import KINDS, WorkloadSpec

# hundredths of a ms: zero or well above float noise at the run's times
costs = st.integers(0, 5000).map(lambda n: n / 100)


def hosts(host_id):
    return st.builds(Host, st.just(host_id), checkpoint_fixed_ms=costs,
                     checkpoint_ms_per_kib=costs, restore_fixed_ms=costs,
                     restore_ms_per_kib=costs)


links = st.builds(Link, st.just("a"), st.just("b"), latency_ms=costs,
                  bandwidth_kib_per_s=st.none() | st.integers(1, 10_000))
workloads = st.builds(WorkloadSpec, st.sampled_from(KINDS),
                      arrival_rate=st.integers(0, 100),
                      duration_ms=st.integers(0, 2000),
                      payload_size_bytes=st.integers(16, 4096),
                      seed=st.integers(0, 2 ** 16))


@settings(max_examples=60, deadline=None, derandomize=True)
# one explicit MS2M cell with a per-KiB checkpoint cost, run before any
# generated one, so a sizing fault fails at once instead of after a shrink
@example(source=Host("a", checkpoint_ms_per_kib=8.0), target=Host("b"),
         link=Link("a", "b"),
         workload=WorkloadSpec("ConstantRate", 50, 200),
         technique=Technique.MS2M, processing_ms=1.0, pause_ms=1.0,
         continuation_ms=1.0, trigger_ms=100)
@given(source=hosts("a"), target=hosts("b"), link=links, workload=workloads,
       technique=st.sampled_from(list(Technique)),
       processing_ms=st.integers(0, 500).map(lambda n: n / 100),
       pause_ms=costs, continuation_ms=costs,
       trigger_ms=st.integers(0, 2000))
def test_non_replay_spans_follow_the_cost_models(
        source, target, link, workload, technique, processing_ms, pause_ms,
        continuation_ms, trigger_ms):
    params = SimParams(source_host=source, target_host=target, link=link,
                       workload=workload, processing_ms=processing_ms,
                       pause_ms=pause_ms, continuation_ms=continuation_ms,
                       technique=technique, trigger_ms=float(trigger_ms))
    record = Simulation(params).run().record
    assume(record.outcome is Outcome.COMPLETED)
    size = record.checkpoint_size_bytes
    restoration = restore_duration(target, size)
    if technique is Technique.STOP_AND_COPY:
        restoration += continuation_ms
    expected = {
        Phase.PAUSE: pause_ms,
        Phase.CHECKPOINT: checkpoint_duration(source, size),
        Phase.CONTINUATION: continuation_ms,
        Phase.TRANSFER: transfer_duration(link, size),
        Phase.RESTORATION: restoration,
    }
    spans = {span.name: span.duration_ms for span in record.phase_timeline}
    timed = [phase for phase in expected if phase.value in spans]
    assert {Phase.PAUSE, Phase.CHECKPOINT, Phase.TRANSFER,
            Phase.RESTORATION} <= set(timed)
    assert (Phase.CONTINUATION in timed) == (technique is Technique.MS2M)
    for phase in timed:
        assert spans[phase.value] == pytest.approx(expected[phase], rel=1e-9)
    if technique is Technique.MS2M:
        floor = record.replayed_count * processing_ms
        assert spans[Phase.REPLAY.value] >= floor * (1 - 1e-9)
