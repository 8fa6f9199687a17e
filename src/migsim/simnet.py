"""Discrete-event simulation core: virtual clock, hosts, links and delay models.

Time is a float in simulated milliseconds. Nothing here ever consults the
wall clock; a run is fully determined by its configuration, its seed and
the order in which events were scheduled.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from operator import itemgetter

from .rules import check, param

# bound once: schedule_at runs for every event
_heappush = heapq.heappush
_INF = math.inf


class SimError(Exception):
    pass


class SimClock:
    """Virtual millisecond clock over a deterministic event queue.

    Events with equal timestamps fire in scheduling order: the insertion
    sequence number is the tie-breaker, which makes the event order total
    and repeat runs bit-identical. An event is its heap entry, a
    [time, seq, fn] list; seq is unique, so ordering never compares two
    callbacks. cancel() marks an entry removed by setting its fn to None,
    and the loop skips it when it is popped.

    A stream given to feed() fires as if every arrival had been scheduled
    before any other event, but the stream has one heap entry, re-armed
    with the next arrival's time each time one fires, so the heap holds
    what is in flight rather than the whole stream.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[list] = []  # [time_ms, seq, fn or None]
        self._seq = 0
        self.events_processed = 0
        self._feed: list[tuple[float, object]] | None = None
        self._feed_fn = None
        self._fed = 0  # arrivals of the feed put on the heap so far
        self._arrival: list | None = None  # the feed's one heap entry

    def schedule(self, delay_ms: float, fn) -> list:
        """Schedule fn() to run delay_ms from now. Negative delays are refused."""
        if delay_ms < 0:
            raise SimError(f"cannot schedule into the past (delay {delay_ms} ms)")
        return self.schedule_at(self.now + delay_ms, fn)

    def schedule_at(self, time_ms: float, fn) -> list:
        # NaN fails both comparisons, and an event at inf would end the run there
        if not self.now <= time_ms < _INF:
            self._refuse(time_ms)
        ev = [time_ms, self._seq, fn]
        _heappush(self._heap, ev)
        self._seq += 1
        return ev

    def _refuse(self, time_ms: float):
        if time_ms < self.now:
            raise SimError(
                f"cannot schedule into the past ({time_ms} < {self.now})")
        raise SimError(f"cannot schedule at a non-finite time ({time_ms})")

    def feed(self, items, fn) -> None:
        """Call fn(item) at time_ms for each (time_ms, item) pair of items.

        items may be unsorted: they fire in time order, and equal times keep
        their list order. Every time is checked here, with schedule_at's
        messages, so a bad stream fails before the run. An arrival fires
        before any other event at the same time, exactly as if the whole
        stream had been scheduled first, and counts as an event. Only the
        first arrival enters the heap through schedule_at; each later one
        re-arms that same entry, so a schedule_at that wraps the callback
        sees every arrival fire through its wrapper. A clock takes one feed
        at a time.
        """
        if self._feed is not None:
            raise SimError("the clock is already feeding a stream")
        items = list(items)
        for time_ms, _ in items:
            if not self.now <= time_ms < math.inf:
                self._refuse(time_ms)
        if items:
            items.sort(key=itemgetter(0))  # stable: equal times keep order
            self._feed, self._feed_fn, self._fed = items, fn, 1
            # seq -1 sorts below every regular event, and only the feed's
            # entry carries it. The time was checked above, so schedule_at
            # cannot raise between the swaps.
            seq, self._seq = self._seq, -1
            self._arrival = self.schedule_at(items[0][0], self._arrive)
            self._seq = seq

    def _arrive(self) -> None:
        feed = self._feed
        fed = self._fed
        item = feed[fed - 1][1]
        fn = self._feed_fn
        if fed < len(feed):
            # the loop has popped the entry: push it back at the next time
            ev = self._arrival
            ev[0] = feed[fed][0]
            _heappush(self._heap, ev)
            self._fed = fed + 1
        else:
            self._feed = self._feed_fn = self._arrival = None
        fn(item)

    def cancel(self, event: list) -> None:
        """The event will not fire; its callback is dropped at once."""
        event[2] = None

    def pending(self) -> int:
        """Events still to fire, counting the feed's arrivals not yet on the
        heap."""
        unfed = len(self._feed) - self._fed if self._feed is not None else 0
        return unfed + sum(1 for _, _, fn in self._heap if fn is not None)

    def clear(self) -> None:
        """Cancel every pending event and drop the rest of the feed, so that
        no callback the clock holds keeps its owner alive."""
        for ev in self._heap:
            ev[2] = None
        self._heap.clear()
        self._feed = self._feed_fn = self._arrival = None

    def run_until(self, max_events: int = 10_000_000) -> float:
        """Run events in order until the queue drains. Returns the final time.

        Firing max_events events in one call raises SimError, naming the
        budget and the time it ran out. events_processed gains the events
        that returned once run_until returns or raises, so it stays exact
        when an event raises or the budget runs out.
        """
        heap = self._heap
        pop = heapq.heappop
        processed = 0
        try:
            while heap:
                time, _, fn = pop(heap)
                if fn is None:
                    continue
                # never below now: schedule_at refuses a past time, and the
                # feed re-arms only at times it sorted and checked up front
                self.now = time
                fn()
                processed += 1
                if processed >= max_events:
                    raise SimError(f"event budget of {max_events} events "
                                   f"exhausted at t={self.now} ms")
        finally:
            self.events_processed += processed
        return self.now


def region_problem(region) -> str | None:
    """What is wrong with a host's region (parsed, never used), or None."""
    if isinstance(region, str):
        return None
    return f"must be a string, got {region!r}"


@dataclass(frozen=True)
class Host:
    """A machine that can run a service instance.

    Checkpoint and restore costs are linear in the serialized state size:
    fixed_ms + ms_per_kib * size_bytes / 1024.
    """

    id: str
    region: str = ""
    checkpoint_fixed_ms: float = param(0.0, minimum=0.0)
    checkpoint_ms_per_kib: float = param(0.0, minimum=0.0)
    restore_fixed_ms: float = param(0.0, minimum=0.0)
    restore_ms_per_kib: float = param(0.0, minimum=0.0)

    def __post_init__(self):
        check(self)
        text = region_problem(self.region)
        if text is not None:
            raise ValueError(f"Host.region: {text}")


@dataclass(frozen=True)
class Link:
    """A directed network path between two hosts.

    bandwidth_kib_per_s of None means the size term is dropped (unconstrained
    pipe). jitter_frac adds a uniform random extra of up to that fraction of
    the latency; it defaults to zero so runs stay deterministic unless a
    scenario asks otherwise.
    """

    source: str
    target: str
    latency_ms: float = param(0.0, minimum=0.0)
    bandwidth_kib_per_s: float | None = param(None, above=0, nullable=True)
    jitter_frac: float = param(0.0, minimum=0.0, maximum=1.0)

    __post_init__ = check


def checkpoint_duration(host: Host, size_bytes: int) -> float:
    """Milliseconds to create a checkpoint of size_bytes on host."""
    if size_bytes < 0:
        raise ValueError("size_bytes must be >= 0")
    return host.checkpoint_fixed_ms + host.checkpoint_ms_per_kib * (size_bytes / 1024.0)


def restore_duration(host: Host, size_bytes: int) -> float:
    """Milliseconds to restore a checkpoint of size_bytes on host."""
    if size_bytes < 0:
        raise ValueError("size_bytes must be >= 0")
    return host.restore_fixed_ms + host.restore_ms_per_kib * (size_bytes / 1024.0)


def transfer_duration(link: Link, size_bytes: int,
                      rng: random.Random | None = None) -> float:
    """Milliseconds to move size_bytes across link.

    latency + size/bandwidth, plus jitter drawn from rng when the link is
    jittery. rng may be omitted for jitter-free links.
    """
    if size_bytes < 0:
        raise ValueError("size_bytes must be >= 0")
    total = link.latency_ms
    if link.bandwidth_kib_per_s is not None:
        total += (size_bytes / 1024.0) / link.bandwidth_kib_per_s * 1000.0
    if link.jitter_frac > 0.0:
        if rng is None:
            raise ValueError("jittery link needs an rng")
        total += rng.uniform(0.0, link.jitter_frac * link.latency_ms)
    return total
