"""In-memory publish/subscribe broker: named FIFO queues, exclusive consumers,
explicit acknowledgements and queue mirroring.

Delivery is at-least-once: a message leaves the buffer only when acked, so a
consumer that goes away mid-flight sees the same message again after it (or a
successor) subscribes. A message is an (id, payload) pair. Each queue numbers
its messages 1, 2, 3, ... in publish order; a mirrored message keeps its
source id and shares the source's payload object rather than a copy.

A queue buffers a message as its id and its payload, in two parallel FIFO
deques in id order: ints and bytes, neither of which the cycle collector
tracks, so a buffered message adds no object for it to scan. A Message is
built only when one is handed out, by poll, peek, head() or messages().
Publishing and mirroring only append, a poll delivers the head, and at most
one delivery is in flight, so the in-flight message is always the head and
an ack pops it from the left of both deques.

A consumer is woken, after delivery_latency_ms, when it subscribes to a
queue that holds messages and when a publish reaches its queue while it is
idle: nothing in flight and no wake already on its way. An ack wakes nobody:
it returns how many messages are still buffered, so the consumer that acked
knows without a poll whether there is more to take. A wake belongs to the
subscription that scheduled it; unsubscribing cancels it.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .rules import Rule, problem
from .simnet import SimClock


class BrokerError(Exception):
    pass


class DuplicateQueue(BrokerError):
    pass


class UnknownQueue(BrokerError):
    pass


class ExclusiveConsumer(BrokerError):
    pass


class MirrorActive(BrokerError):
    pass


class NotSubscribed(BrokerError):
    pass


class BadAck(BrokerError):
    pass


class Message(NamedTuple):
    """An immutable message: its id on the queue it was published to, and
    its payload. Queues do not store it: it is built from the buffered id
    and payload when a message is handed out, and a delivered one is freed
    once its consumer acks and lets go of it."""

    id: int
    payload: bytes


# builds a Message without the namedtuple's Python-level __new__
_new_message = tuple.__new__


class Queue:
    """A named FIFO buffer. Each message is an id in _ids and its payload at
    the same position in _payloads, both in id order; the head is the next
    deliverable message and, while a delivery is outstanding, the one in
    flight."""

    def __init__(self, name: str):
        self.name = name
        self.next_id = 1
        self._ids: deque[int] = deque()
        self._payloads: deque[bytes] = deque()
        self.subscriber: str | None = None
        self.mirror: tuple[str, int] | None = None
        self.inflight: int | None = None  # delivered, not yet acked
        self.published_total = 0
        self._wake = None
        self._wake_event: list | None = None  # the scheduled wake, if any

    def __len__(self) -> int:
        return len(self._ids)

    def ids(self) -> list[int]:
        return list(self._ids)

    def take_payloads(self) -> list[bytes]:
        """Empty the buffer of a queue with nothing in flight and return its
        payloads in id order. published_total and next_id keep counting
        what was published."""
        payloads = list(self._payloads)
        self._ids.clear()
        self._payloads.clear()
        return payloads

    def messages(self) -> list[Message]:
        return [_new_message(Message, m)
                for m in zip(self._ids, self._payloads)]

    def head(self) -> Message | None:
        if not self._ids:
            return None
        return _new_message(Message, (self._ids[0], self._payloads[0]))

    def _fire_wake(self) -> None:
        self._wake_event = None
        if self._wake is not None:
            self._wake()


class Broker:
    """Single logical broker shared by every participant in a simulation.

    delivery_latency_ms delays the wake-up that tells a subscriber new data
    is available; it defaults to zero so protocol timing comes entirely from
    configured phase costs.
    """

    def __init__(self, clock: SimClock, delivery_latency_ms: float = 0.0):
        text = problem(delivery_latency_ms, Rule(minimum=0.0))
        if text is not None:
            raise ValueError(f"Broker.delivery_latency_ms: {text}")
        self.clock = clock
        self.delivery_latency_ms = delivery_latency_ms
        self._queues: dict[str, Queue] = {}

    # -- queue lifecycle ---------------------------------------------------

    def create_queue(self, name: str) -> Queue:
        if name in self._queues:
            raise DuplicateQueue(name)
        q = Queue(name)
        self._queues[name] = q
        return q

    def delete_queue(self, name: str) -> None:
        q = self.queue(name)
        if q.subscriber is not None:
            raise BrokerError(f"queue {name!r} still has a subscriber")
        del self._queues[name]

    def has_queue(self, name: str) -> bool:
        return name in self._queues

    def queue(self, name: str) -> Queue:
        try:
            return self._queues[name]
        except KeyError:
            raise UnknownQueue(name) from None

    # -- publish and mirroring ---------------------------------------------

    def publish(self, name: str, payload: bytes) -> int:
        """Append payload to the queue, propagate to an active mirror, and
        wake any idle subscriber. Returns the assigned id."""
        try:
            q = self._queues[name]
        except KeyError:
            q = self.queue(name)
        mid = q.next_id
        if type(payload) is not bytes:
            payload = bytes(payload)
        q._ids.append(mid)
        q._payloads.append(payload)
        q.next_id = mid + 1
        q.published_total += 1
        if q.mirror is not None and mid >= q.mirror[1]:
            self._append_mirrored(self.queue(q.mirror[0]), mid, payload)
        # _notify's rule, checked here because the queue cannot be empty: a
        # busy consumer's publishes, and the consumerless output queue's,
        # then cost no call
        if (q._wake is not None and q.inflight is None
                and q._wake_event is None):
            clock = self.clock
            q._wake_event = clock.schedule_at(
                clock.now + self.delivery_latency_ms, q._fire_wake)
        return mid

    def _append_mirrored(self, target: Queue, mid: int,
                         payload: bytes) -> None:
        # the source's id and its own payload object, shared: ids must
        # still only grow
        if target._ids and mid <= target._ids[-1]:
            raise BrokerError(
                f"mirror append would break id order on {target.name!r}")
        target._ids.append(mid)
        target._payloads.append(payload)
        target.published_total += 1
        if mid >= target.next_id:
            target.next_id = mid + 1
        self._notify(target)

    def start_mirror(self, name: str, target_name: str, start_id: int) -> None:
        """Mirror every message with id >= start_id onto the target queue.

        Messages that are already buffered are appended first, in order, so
        the target ends up with the complete id >= start_id subsequence even
        when mirroring starts after some of those publishes happened. A start
        that would break the target's id order is refused before anything
        changes.
        """
        q = self.queue(name)
        target = self.queue(target_name)
        if q.mirror is not None:
            raise MirrorActive(name)
        if target_name == name:
            raise BrokerError("queue cannot mirror onto itself")
        if start_id < 1:
            raise BrokerError("start_id must be >= 1")
        # the backfill's ids only grow, so if its first append keeps the
        # target's order, all do, and a refused one has changed nothing
        for mid, payload in zip(q._ids, q._payloads):
            if mid >= start_id:
                self._append_mirrored(target, mid, payload)
        q.mirror = (target_name, start_id)

    def stop_mirror(self, name: str) -> None:
        q = self.queue(name)
        if q.mirror is None:
            raise BrokerError(f"no mirror active on {name!r}")
        q.mirror = None

    # -- subscription ------------------------------------------------------

    def subscribe(self, name: str, consumer: str, on_wake=None) -> None:
        """Attach the single consumer of a queue.

        Delivery resumes at the oldest unacknowledged message. on_wake()
        fires delivery_latency_ms after subscribing to a non-empty queue and
        after a publish that finds the consumer idle: nothing in flight and
        no wake already pending. It does not fire after an ack: the consumer
        polls again once it has acked, if ack reports messages left.
        """
        q = self.queue(name)
        if q.subscriber is not None:
            raise ExclusiveConsumer(
                f"queue {name!r} already consumed by {q.subscriber!r}")
        q.subscriber = consumer
        q._wake = on_wake
        self._notify(q)

    def unsubscribe(self, name: str, consumer: str) -> None:
        """Detach the consumer. Unacknowledged messages stay buffered and any
        in-flight delivery becomes deliverable again. A pending wake is
        cancelled: it belonged to this subscription, and the next subscriber
        is woken on its own schedule."""
        q = self.queue(name)
        if q.subscriber != consumer:
            raise NotSubscribed(f"{consumer!r} is not the consumer of {name!r}")
        q.subscriber = None
        q._wake = None
        if q._wake_event is not None:
            self.clock.cancel(q._wake_event)
            q._wake_event = None
        q.inflight = None

    def detach_wakes(self) -> None:
        """Drop every subscriber's wake callback. Subscriptions and buffers
        stay as they are, but no publish wakes anyone any more."""
        for q in self._queues.values():
            q._wake = None

    def _notify(self, q: Queue) -> None:
        if (q._wake is None or q._wake_event is not None
                or q.inflight is not None or not q._ids):
            return
        clock = self.clock
        q._wake_event = clock.schedule_at(
            clock.now + self.delivery_latency_ms, q._fire_wake)

    # -- consumption -------------------------------------------------------

    def peek(self, name: str, consumer: str) -> Message | None:
        """Look at the next deliverable message without taking it."""
        q = self.queue(name)
        if q.subscriber != consumer:
            raise NotSubscribed(f"{consumer!r} is not the consumer of {name!r}")
        if q.inflight is not None:
            return None
        return q.head()

    def poll(self, name: str, consumer: str) -> Message | None:
        """Take the next message for delivery. At most one delivery may be
        outstanding per queue; it stays in the buffer until acked."""
        try:
            q = self._queues[name]
        except KeyError:
            q = self.queue(name)
        if q.subscriber != consumer:
            raise NotSubscribed(f"{consumer!r} is not the consumer of {name!r}")
        if q.inflight is not None or not q._ids:
            return None
        mid = q.inflight = q._ids[0]
        return _new_message(Message, (mid, q._payloads[0]))

    def ack(self, name: str, consumer: str, message_id: int) -> int:
        """Confirm the in-flight delivery; the message leaves the buffer.
        Returns how many messages the queue still buffers. Nothing is woken:
        the consumer polls again after its ack if that count is not zero."""
        try:
            q = self._queues[name]
        except KeyError:
            q = self.queue(name)
        if q.subscriber != consumer:
            raise NotSubscribed(f"{consumer!r} is not the consumer of {name!r}")
        if q.inflight != message_id or message_id is None:
            raise BadAck(f"message {message_id} is not in flight on {name!r}")
        # the in-flight message is the head: ids only grow at the tail
        q._ids.popleft()
        q._payloads.popleft()
        q.inflight = None
        return len(q._ids)
