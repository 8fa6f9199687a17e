"""Discrete-event simulation core: virtual clock, hosts, links and delay models.

Time is a float in simulated milliseconds. Nothing here ever consults the
wall clock; a run is fully determined by its configuration, its seed and
the order in which events were scheduled.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass


class SimError(Exception):
    pass


class Event:
    """A scheduled callback. Cancelled events stay in the heap but never fire."""

    __slots__ = ("fn", "cancelled")

    def __init__(self, fn):
        self.fn = fn
        self.cancelled = False


class SimClock:
    """Virtual millisecond clock over a deterministic event queue.

    Events with equal timestamps fire in scheduling order: the insertion
    sequence number is the tie-breaker, which makes the event order total
    and repeat runs bit-identical. Heap entries are (time, seq, event)
    tuples; seq is unique, so ordering never compares two events.
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self.events_processed = 0

    def schedule(self, delay_ms: float, fn) -> Event:
        """Schedule fn() to run delay_ms from now. Negative delays are refused."""
        if delay_ms < 0:
            raise SimError(f"cannot schedule into the past (delay {delay_ms} ms)")
        return self.schedule_at(self.now + delay_ms, fn)

    def schedule_at(self, time_ms: float, fn) -> Event:
        if time_ms < self.now:
            raise SimError(f"cannot schedule into the past ({time_ms} < {self.now})")
        ev = Event(fn)
        heapq.heappush(self._heap, (time_ms, self._seq, ev))
        self._seq += 1
        return ev

    def cancel(self, event: Event) -> None:
        event.cancelled = True

    def pending(self) -> int:
        return sum(1 for _, _, ev in self._heap if not ev.cancelled)

    def run_until(self, max_events: int = 10_000_000) -> float:
        """Run events in order until the queue drains. Returns the final time.

        Firing max_events events in one call is taken to mean that the run
        does not terminate, and raises SimError.
        """
        heap = self._heap
        processed = 0
        while heap:
            time, _, ev = heapq.heappop(heap)
            if ev.cancelled:
                continue
            if time < self.now:
                raise SimError("event queue corrupted: time went backwards")
            self.now = time
            ev.fn()
            processed += 1
            self.events_processed += 1
            if processed >= max_events:
                raise SimError("event budget exhausted; run does not terminate")
        return self.now


@dataclass(frozen=True)
class Host:
    """A machine that can run a service instance.

    Checkpoint and restore costs are linear in the serialized state size:
    fixed_ms + ms_per_kib * size_bytes / 1024.
    """

    id: str
    region: str = ""
    checkpoint_fixed_ms: float = 0.0
    checkpoint_ms_per_kib: float = 0.0
    restore_fixed_ms: float = 0.0
    restore_ms_per_kib: float = 0.0

    def __post_init__(self):
        for name in ("checkpoint_fixed_ms", "checkpoint_ms_per_kib",
                     "restore_fixed_ms", "restore_ms_per_kib"):
            if getattr(self, name) < 0:
                raise ValueError(f"host {self.id!r}: {name} must be >= 0")


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
    latency_ms: float = 0.0
    bandwidth_kib_per_s: float | None = None
    jitter_frac: float = 0.0

    def __post_init__(self):
        if self.latency_ms < 0:
            raise ValueError("link latency_ms must be >= 0")
        if self.bandwidth_kib_per_s is not None and self.bandwidth_kib_per_s <= 0:
            raise ValueError("link bandwidth_kib_per_s must be > 0 when given")
        if self.jitter_frac < 0:
            raise ValueError("link jitter_frac must be >= 0")


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
