import random

import pytest
from hypothesis import given, strategies as st

from migsim.simnet import (Host, Link, SimClock, SimError,
                           checkpoint_duration, restore_duration,
                           transfer_duration)


def test_clock_starts_at_zero():
    assert SimClock().now == 0.0


def test_events_fire_in_time_order():
    clock = SimClock()
    seen = []
    clock.schedule(30.0, lambda: seen.append("c"))
    clock.schedule(10.0, lambda: seen.append("a"))
    clock.schedule(20.0, lambda: seen.append("b"))
    clock.run_until()
    assert seen == ["a", "b", "c"]
    assert clock.now == 30.0


def test_equal_timestamps_fire_in_scheduling_order():
    clock = SimClock()
    seen = []
    for tag in range(8):
        clock.schedule(5.0, lambda t=tag: seen.append(t))
    clock.run_until()
    assert seen == list(range(8))


def test_negative_delay_refused():
    clock = SimClock()
    with pytest.raises(SimError):
        clock.schedule(-0.001, lambda: None)


def test_schedule_at_past_refused():
    clock = SimClock()
    clock.schedule(10.0, lambda: None)
    clock.run_until()
    with pytest.raises(SimError):
        clock.schedule_at(5.0, lambda: None)


def test_cancelled_event_never_fires():
    clock = SimClock()
    seen = []
    ev = clock.schedule(1.0, lambda: seen.append("no"))
    clock.schedule(2.0, lambda: seen.append("yes"))
    clock.cancel(ev)
    clock.run_until()
    assert seen == ["yes"]


def test_event_budget_guards_against_runaway_loops():
    clock = SimClock()

    def reschedule():
        clock.schedule(0.0, reschedule)

    clock.schedule(0.0, reschedule)
    with pytest.raises(SimError):
        clock.run_until(max_events=1000)


def test_nested_scheduling_during_event():
    clock = SimClock()
    seen = []

    def outer():
        seen.append(("outer", clock.now))
        clock.schedule(5.0, lambda: seen.append(("inner", clock.now)))

    clock.schedule(10.0, outer)
    clock.run_until()
    assert seen == [("outer", 10.0), ("inner", 15.0)]


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=50))
def test_processing_order_matches_time_then_insertion(times):
    clock = SimClock()
    fired = []
    for i, t in enumerate(times):
        clock.schedule(t, lambda i=i: fired.append(i))
    clock.run_until()
    expected = [i for _, i in sorted((t, i) for i, t in enumerate(times))]
    assert fired == expected


def test_event_ordering_is_total():
    # equal timestamps fire in scheduling order, including an event scheduled
    # at the tie's own time while it runs; a cancelled event in the tie
    # neither fires nor reorders the others
    clock = SimClock()
    fired = []

    def first():
        fired.append(0)
        clock.schedule(0.0, lambda: fired.append("nested"))

    clock.schedule_at(1.0, first)
    tied = [clock.schedule_at(1.0, lambda i=i: fired.append(i))
            for i in range(1, 5)]
    clock.schedule_at(0.5, lambda: fired.append("early"))
    clock.cancel(tied[1])
    clock.run_until()
    assert fired == ["early", 0, 1, 3, 4, "nested"]


# -- hosts, links and cost models -------------------------------------------


def _host(**kw):
    base = dict(id="h", region="r", checkpoint_fixed_ms=0.0,
                checkpoint_ms_per_kib=0.0, restore_fixed_ms=0.0,
                restore_ms_per_kib=0.0)
    base.update(kw)
    return Host(**base)


def test_host_rejects_negative_coefficients():
    with pytest.raises(ValueError):
        _host(checkpoint_fixed_ms=-1.0)
    with pytest.raises(ValueError):
        _host(restore_ms_per_kib=-0.5)


def test_link_validation():
    with pytest.raises(ValueError):
        Link(source="a", target="b", latency_ms=-1.0)
    with pytest.raises(ValueError):
        Link(source="a", target="b", latency_ms=0.0, bandwidth_kib_per_s=0.0)
    with pytest.raises(ValueError):
        Link(source="a", target="b", latency_ms=0.0, jitter_frac=-0.1)


def test_checkpoint_duration_linear_in_size():
    # 2048 bytes = 2 KiB exactly: 100 + 64 * 2 = 228
    host = _host(checkpoint_fixed_ms=100.0, checkpoint_ms_per_kib=64.0)
    assert checkpoint_duration(host, 2048) == 228.0
    assert checkpoint_duration(host, 0) == 100.0
    with pytest.raises(ValueError):
        checkpoint_duration(host, -1)


def test_restore_duration_linear_in_size():
    host = _host(restore_fixed_ms=30.0, restore_ms_per_kib=8.0)
    assert restore_duration(host, 4096) == 62.0


def test_transfer_duration_latency_plus_bandwidth():
    # 4096 bytes at 2 KiB/s is 2 s = 2000 ms on top of 50 ms latency
    link = Link(source="a", target="b", latency_ms=50.0,
                bandwidth_kib_per_s=2.0)
    assert transfer_duration(link, 4096) == 2050.0


def test_transfer_unconstrained_bandwidth_is_pure_latency():
    link = Link(source="a", target="b", latency_ms=7.5,
                bandwidth_kib_per_s=None)
    assert transfer_duration(link, 10**9) == 7.5


def test_transfer_jitter_bounded_and_seeded():
    link = Link(source="a", target="b", latency_ms=100.0,
                bandwidth_kib_per_s=None, jitter_frac=0.5)
    base = 100.0
    for seed in range(20):
        d = transfer_duration(link, 1024, random.Random(seed))
        assert base <= d <= base + 0.5 * 100.0
    one = transfer_duration(link, 1024, random.Random(42))
    two = transfer_duration(link, 1024, random.Random(42))
    assert one == two


def test_jittery_link_without_rng_refused():
    link = Link(source="a", target="b", latency_ms=10.0, jitter_frac=0.1)
    with pytest.raises(ValueError):
        transfer_duration(link, 100)
