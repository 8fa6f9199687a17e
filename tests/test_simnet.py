import math
import random
import weakref

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
    # NaN passes a plain "not in the past" test, and an event at inf would
    # end the run there; both are refused with the time named
    for bad in (math.nan, math.inf):
        with pytest.raises(SimError, match=rf"non-finite time \({bad}\)"):
            clock.schedule_at(bad, lambda: None)
        with pytest.raises(SimError, match=rf"non-finite time \({bad}\)"):
            clock.schedule(bad, lambda: None)
    assert clock.pending() == 0


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
    with pytest.raises(SimError) as err:
        clock.run_until(max_events=1000)
    assert str(err.value) == "event budget of 1000 events exhausted at t=0.0 ms"
    assert clock.events_processed == 1000


def test_events_processed_exact_when_an_event_raises():
    clock = SimClock()
    seen = []
    for t in (1.0, 2.0, 4.0):
        clock.schedule_at(t, lambda t=t: seen.append(t))

    def boom():
        raise RuntimeError("boom")

    clock.schedule_at(3.0, boom)
    with pytest.raises(RuntimeError, match="boom"):
        clock.run_until()
    # the two events that returned count; the one that raised does not
    assert seen == [1.0, 2.0] and clock.events_processed == 2
    clock.run_until()
    assert seen == [1.0, 2.0, 4.0] and clock.events_processed == 3


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


# -- feeding a stream ---------------------------------------------------------

GRID = st.sampled_from([0.0, 1.0, 1.5, 3.0])


def _drive(stream, extras, feed):
    """Fire stream and the extra events on a fresh clock, either through
    feed() or, as the reference, with one schedule_at per item up front.
    Each arrival may schedule a follow-up at a time colliding with others."""
    clock = SimClock()
    fired = []

    def arrive(item):
        i, delay = item
        fired.append(("arrival", i, clock.now))
        if delay is not None:
            clock.schedule(delay, lambda: fired.append(("then", i, clock.now)))

    if feed:
        clock.feed(stream, arrive)
    else:
        for t, item in stream:
            clock.schedule_at(t, lambda item=item: arrive(item))
    for j, t in enumerate(extras):
        clock.schedule_at(t, lambda j=j: fired.append(("extra", j, clock.now)))
    pending = clock.pending()
    clock.run_until()
    return fired, clock.events_processed, pending


@given(st.lists(st.tuples(GRID, st.one_of(st.none(), GRID)), max_size=40),
       st.lists(GRID, max_size=8))
def test_feed_fires_like_scheduling_every_arrival_up_front(arrivals, extras):
    stream = [(t, (i, delay)) for i, (t, delay) in enumerate(arrivals)]
    fed = _drive(stream, extras, feed=True)
    assert fed == _drive(stream, extras, feed=False)
    assert fed[2] == len(stream) + len(extras)


def test_feed_keeps_only_the_next_arrival_on_the_heap():
    clock = SimClock()
    seen = []
    clock.feed([(float(t), t) for t in range(1000, 0, -1)], seen.append)
    assert clock.pending() == 1000 and len(clock._heap) == 1
    clock.run_until()
    assert seen == list(range(1, 1001)) and clock.events_processed == 1000
    assert clock.pending() == 0


def test_feed_checks_every_time_up_front():
    clock = SimClock()
    clock.schedule(10.0, lambda: None)
    clock.run_until()
    for stream, message in (
            ([(12.0, "a"), (5.0, "b")], r"into the past \(5\.0 < 10\.0\)"),
            ([(12.0, "a"), (math.nan, "b")], r"non-finite time \(nan\)"),
            ([(math.inf, "a")], r"non-finite time \(inf\)")):
        with pytest.raises(SimError, match=message):
            clock.feed(stream, print)
        assert clock.pending() == 0
    clock.feed([(11.0, "a")], print)
    with pytest.raises(SimError, match="already feeding"):
        clock.feed([(12.0, "b")], print)


class _WrappingClock(SimClock):
    """A clock whose schedule_at counts its calls and wraps each callback to
    count what fires, as perfbench's tracer does."""

    def __init__(self):
        super().__init__()
        self.scheduled = 0
        self.fired = 0

    def schedule_at(self, time_ms, fn):
        self.scheduled += 1

        def wrapper():
            self.fired += 1
            fn()

        return super().schedule_at(time_ms, wrapper)


def test_feed_rearms_one_entry_that_fires_through_the_wrapper():
    clock = _WrappingClock()
    stream = [(3.0, "c1"), (1.0, "a1"), (2.0, "b"), (1.0, "a2"),
              (3.0, "c2"), (0.5, "z"), (1.0, "a3")]
    seen, pending = [], []

    def arrive(item):
        seen.append((clock.now, item))
        pending.append(clock.pending())

    clock.feed(stream, arrive)
    pending.append(clock.pending())
    clock.run_until()
    assert clock.scheduled == 1
    assert seen == [(0.5, "z"), (1.0, "a1"), (1.0, "a2"), (1.0, "a3"),
                    (2.0, "b"), (3.0, "c1"), (3.0, "c2")]
    assert clock.fired == clock.events_processed == len(stream)
    assert pending == list(range(len(stream), -1, -1))


def test_clear_in_the_middle_of_a_feed_drops_the_rest():
    clock = _WrappingClock()
    seen = []

    def arrive(item):
        seen.append(item)
        if item == 2:
            clock.clear()

    clock.feed([(float(t), t) for t in range(5)], arrive)
    clock.run_until()
    assert seen == [0, 1, 2] and clock.fired == clock.events_processed == 3
    assert clock.pending() == 0
    # the clock takes a new feed once the old one is dropped
    clock.feed([(9.0, "x")], seen.append)
    clock.run_until()
    assert seen[-1] == "x" and clock.scheduled == 2


class _Callback:
    def __init__(self, seen):
        self.seen = seen

    def __call__(self):
        self.seen.append("event")


def test_clear_drops_pending_events_and_the_feed():
    clock = SimClock()
    seen = []
    clock.feed([(1.0, "a"), (2.0, "b")], seen.append)
    cancelled, cleared = _Callback(seen), _Callback(seen)
    refs = weakref.ref(cancelled), weakref.ref(cleared)
    # the handles stay held: cancel and clear must still let go of the
    # callbacks, however an event is stored
    handles = clock.schedule(1.0, cancelled), clock.schedule(1.0, cleared)
    del cancelled, cleared
    clock.cancel(handles[0])
    assert refs[0]() is None and refs[1]() is not None
    clock.clear()
    assert clock.pending() == 0 and refs[1]() is None
    clock.run_until()
    assert seen == [] and clock.events_processed == 0


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


def test_host_refuses_a_region_that_is_not_a_string():
    # the message migsim validate prints for hosts[i].region
    for region in (5, ["x"], None):
        with pytest.raises(ValueError) as err:
            _host(region=region)
        assert str(err.value) == (
            f"Host.region: must be a string, got {region!r}")
    assert _host(region="eu-west").region == "eu-west"


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
    with pytest.raises(ValueError, match="size_bytes must be >= 0"):
        restore_duration(host, -1)


def test_transfer_duration_latency_plus_bandwidth():
    # 4096 bytes at 2 KiB/s is 2 s = 2000 ms on top of 50 ms latency
    link = Link(source="a", target="b", latency_ms=50.0,
                bandwidth_kib_per_s=2.0)
    assert transfer_duration(link, 4096) == 2050.0
    with pytest.raises(ValueError, match="size_bytes must be >= 0"):
        transfer_duration(link, -1)


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
