"""In-memory publish/subscribe broker: named FIFO queues, exclusive consumers,
explicit acknowledgements and queue mirroring.

Delivery is at-least-once: a message leaves the buffer only when acked, so a
consumer that goes away mid-flight sees the same message again after it (or a
successor) subscribes. Each queue numbers its messages 1, 2, 3, ... in publish
order; a mirrored copy keeps the id it was assigned on the source queue.
"""

from __future__ import annotations

from dataclasses import dataclass

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


@dataclass(frozen=True)
class Message:
    id: int
    topic: str
    payload: bytes
    publish_time: float


class Queue:
    def __init__(self, name: str):
        self.name = name
        self.next_id = 1
        # id -> Message; insertion order is id order because ids only grow
        self._messages: dict[int, Message] = {}
        self.subscriber: str | None = None
        self.mirror: tuple[str, int] | None = None
        self.inflight: int | None = None  # delivered, not yet acked
        self.published_total = 0
        self._wake = None
        self._wake_pending = False

    def __len__(self) -> int:
        return len(self._messages)

    def ids(self) -> list[int]:
        return list(self._messages.keys())

    def payloads(self) -> list[bytes]:
        return [m.payload for m in self._messages.values()]

    def messages(self) -> list[Message]:
        return list(self._messages.values())

    def head(self) -> Message | None:
        for msg in self._messages.values():
            return msg
        return None


class Broker:
    """Single logical broker shared by every participant in a simulation.

    delivery_latency_ms delays the wake-up that tells a subscriber new data
    is available; it defaults to zero so protocol timing comes entirely from
    configured phase costs.
    """

    def __init__(self, clock: SimClock, delivery_latency_ms: float = 0.0):
        if delivery_latency_ms < 0:
            raise ValueError("delivery_latency_ms must be >= 0")
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
        q = self.queue(name)
        msg = Message(q.next_id, name, bytes(payload), self.clock.now)
        q._messages[msg.id] = msg
        q.next_id += 1
        q.published_total += 1
        if q.mirror is not None and msg.id >= q.mirror[1]:
            self._append_mirrored(self.queue(q.mirror[0]), msg)
        self._notify(q)
        return msg.id

    def _append_mirrored(self, target: Queue, msg: Message) -> None:
        # mirrored copies keep the source id; ids must still only grow
        if target._messages and msg.id <= next(reversed(target._messages)):
            raise BrokerError(
                f"mirror append would break id order on {target.name!r}")
        copy = Message(msg.id, target.name, msg.payload, self.clock.now)
        target._messages[copy.id] = copy
        target.published_total += 1
        if copy.id >= target.next_id:
            target.next_id = copy.id + 1
        self._notify(target)

    def start_mirror(self, name: str, target_name: str, start_id: int) -> None:
        """Mirror every message with id >= start_id onto the target queue.

        Messages that are already buffered are copied first, in order, so the
        target ends up with the complete id >= start_id subsequence even when
        mirroring starts after some of those publishes happened.
        """
        q = self.queue(name)
        target = self.queue(target_name)
        if q.mirror is not None:
            raise MirrorActive(name)
        if target_name == name:
            raise BrokerError("queue cannot mirror onto itself")
        if start_id < 1:
            raise BrokerError("start_id must be >= 1")
        q.mirror = (target_name, start_id)
        for msg in q._messages.values():
            if msg.id >= start_id:
                self._append_mirrored(target, msg)

    def stop_mirror(self, name: str) -> None:
        q = self.queue(name)
        if q.mirror is None:
            raise BrokerError(f"no mirror active on {name!r}")
        q.mirror = None

    # -- subscription ------------------------------------------------------

    def subscribe(self, name: str, consumer: str, on_wake=None) -> None:
        """Attach the single consumer of a queue.

        Delivery resumes at the oldest unacknowledged message. on_wake fires
        (via a scheduled event) whenever the queue has something deliverable
        and nothing is in flight.
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
        in-flight delivery becomes deliverable again."""
        q = self.queue(name)
        if q.subscriber != consumer:
            raise NotSubscribed(f"{consumer!r} is not the consumer of {name!r}")
        q.subscriber = None
        q._wake = None
        q._wake_pending = False
        q.inflight = None

    def _notify(self, q: Queue) -> None:
        if (q.subscriber is None or q._wake is None or q._wake_pending
                or q.inflight is not None or not q._messages):
            return
        q._wake_pending = True
        name = q.name

        def fire():
            q._wake_pending = False
            if q.subscriber is not None and q._wake is not None:
                q._wake(name)

        self.clock.schedule(self.delivery_latency_ms, fire)

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
        q = self.queue(name)
        if q.subscriber != consumer:
            raise NotSubscribed(f"{consumer!r} is not the consumer of {name!r}")
        if q.inflight is not None:
            return None
        msg = q.head()
        if msg is None:
            return None
        q.inflight = msg.id
        return msg

    def ack(self, name: str, consumer: str, message_id: int) -> None:
        """Confirm the in-flight delivery; the message leaves the buffer."""
        q = self.queue(name)
        if q.subscriber != consumer:
            raise NotSubscribed(f"{consumer!r} is not the consumer of {name!r}")
        if q.inflight != message_id or message_id not in q._messages:
            raise BadAck(f"message {message_id} is not in flight on {name!r}")
        del q._messages[message_id]
        q.inflight = None
        self._notify(q)
