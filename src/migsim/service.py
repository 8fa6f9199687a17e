"""Deterministic stateful service: ordered key-value state, a message
handler that applies each message in place (a rejected message changes
nothing), canonical state serialization, checkpoint/restore and the runtime
modes a live migration moves an instance through.

Canonical state serialization (external interface, all integers big-endian):

    u64  last_processed_id
    u32  entry count
    per entry, keys sorted by their UTF-8 bytes:
        u32  key length, then the key (UTF-8)
        u32  value length, then the value: 1 tag byte + body
             tag 0x01 int64   tag 0x02 raw bytes   tag 0x03 UTF-8 string

The length of this encoding is the state's size_bytes, which drives the
linear checkpoint, restore and transfer cost models. Independent
implementations must produce identical bytes for identical state.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

from .broker import Broker, Message
from .simnet import SimClock

Scalar = int | bytes | str


class ServiceError(Exception):
    pass


class StaleMessage(ServiceError):
    """Input id at or below last_processed_id: a duplicate or out-of-order
    message. Rejection must leave state unchanged and emit nothing."""


class UnknownCommand(ServiceError):
    pass


class ModeError(ServiceError):
    pass


class ProtocolError(ServiceError):
    """An exactly-once bookkeeping rule was about to be broken."""


class SerializationError(ServiceError):
    pass


@dataclass
class ServiceState:
    data: dict[str, Scalar] = field(default_factory=dict)
    last_processed_id: int = 0


_TAG_INT = 0x01
_TAG_BYTES = 0x02
_TAG_STR = 0x03


def _encode_value(value: Scalar) -> bytes:
    if isinstance(value, bool):
        raise SerializationError("bool values are not part of the state schema")
    if isinstance(value, int):
        try:
            return bytes([_TAG_INT]) + struct.pack(">q", value)
        except struct.error:
            raise SerializationError(f"int out of 64-bit range: {value}") from None
    if isinstance(value, bytes):
        return bytes([_TAG_BYTES]) + value
    if isinstance(value, str):
        return bytes([_TAG_STR]) + value.encode("utf-8")
    raise SerializationError(f"unsupported value type {type(value).__name__}")


def _decode_value(raw: bytes) -> Scalar:
    if not raw:
        raise SerializationError("empty value field")
    tag, body = raw[0], raw[1:]
    if tag == _TAG_INT:
        if len(body) != 8:
            raise SerializationError("int value must be exactly 8 bytes")
        return struct.unpack(">q", body)[0]
    if tag == _TAG_BYTES:
        return body
    if tag == _TAG_STR:
        return body.decode("utf-8")
    raise SerializationError(f"unknown value tag {tag:#x}")


def serialize_state(state: ServiceState) -> bytes:
    if state.last_processed_id < 0:
        raise SerializationError("last_processed_id must be >= 0")
    out = bytearray(struct.pack(">QI", state.last_processed_id, len(state.data)))
    for key in sorted(state.data, key=lambda k: k.encode("utf-8")):
        kb = key.encode("utf-8")
        vb = _encode_value(state.data[key])
        out += struct.pack(">I", len(kb))
        out += kb
        out += struct.pack(">I", len(vb))
        out += vb
    return bytes(out)


def deserialize_state(blob: bytes) -> ServiceState:
    if len(blob) < 12:
        raise SerializationError("truncated state blob")
    last_id, count = struct.unpack_from(">QI", blob, 0)
    offset = 12
    data: dict[str, Scalar] = {}
    for _ in range(count):
        if offset + 4 > len(blob):
            raise SerializationError("truncated key length")
        (klen,) = struct.unpack_from(">I", blob, offset)
        offset += 4
        key = blob[offset:offset + klen].decode("utf-8")
        offset += klen
        if offset + 4 > len(blob):
            raise SerializationError("truncated value length")
        (vlen,) = struct.unpack_from(">I", blob, offset)
        offset += 4
        data[key] = _decode_value(blob[offset:offset + vlen])
        offset += vlen
    if offset != len(blob):
        raise SerializationError("trailing bytes after state entries")
    return ServiceState(data, last_id)


def state_size_bytes(state: ServiceState) -> int:
    return len(serialize_state(state))


@dataclass(frozen=True)
class Checkpoint:
    """A frozen copy of a paused instance's state."""

    snapshot: bytes
    size_bytes: int
    checkpoint_last_id: int


def _key(raw: bytes) -> str:
    try:
        return raw.decode("ascii")
    except UnicodeDecodeError:
        raise UnknownCommand(f"non-ASCII key: {raw[:40]!r}") from None


def handle(state: ServiceState, msg: Message) -> tuple[ServiceState, list[bytes]]:
    """Apply one input message to state in place and return (state, outputs)
    with the same state object. Deterministic: the same state and message
    always yield the same successor state and the same output payloads.

    Commands:
        set <key> <value-bytes>   overwrite a key (value may contain spaces)
        add <key> <int> [pad]     increment an integer counter
    Keys are ASCII. Every applied input produces exactly one output payload.

    A rejected message raises StaleMessage or UnknownCommand and leaves
    state unchanged: every check runs before the first write. Writing in
    place keeps the cost of a message independent of the state's size.
    """
    if msg.id <= state.last_processed_id:
        raise StaleMessage(
            f"id {msg.id} <= last processed {state.last_processed_id}")
    payload = msg.payload
    op = payload.split(b" ", 1)[0]
    if op == b"set":
        parts = payload.split(b" ", 2)
        if len(parts) != 3 or not parts[1]:
            raise UnknownCommand(f"malformed set: {payload[:40]!r}")
        key = _key(parts[1])
        value = parts[2]
        outputs = [b"ok %d set %s" % (msg.id, parts[1])]
    elif op == b"add":
        parts = payload.split(b" ", 3)
        if len(parts) < 3 or not parts[1]:
            raise UnknownCommand(f"malformed add: {payload[:40]!r}")
        key = _key(parts[1])
        try:
            delta = int(parts[2])
        except ValueError:
            raise UnknownCommand(f"bad increment: {parts[2]!r}") from None
        old = state.data.get(key, 0)
        if not isinstance(old, int):
            raise UnknownCommand(f"key {key!r} is not a counter")
        value = old + delta
        outputs = [b"ok %d %s=%d" % (msg.id, parts[1], value)]
    else:
        raise UnknownCommand(f"unknown op {op!r}")
    state.data[key] = value
    state.last_processed_id = msg.id
    return state, outputs


class Mode(enum.Enum):
    SERVING = "Serving"
    PAUSED = "Paused"
    REPLAYING = "Replaying"
    STOPPED = "Stopped"


class ServiceInstance:
    """One running copy of the service, consuming a queue on a broker. It
    does not know its host; only the migration's cost models use hosts.

    The instance consumes its subscribed queue one message at a time: a poll
    takes processing_ms of simulated time, after which the message is applied,
    its outputs are published (Serving) or suppressed (Replaying), and the
    delivery is acked. State changes and output emission happen together at
    completion time, so a pause or crash before completion leaves the message
    fully unapplied and still buffered for redelivery.

    Hooks (all optional): on_mode_change(instance, old, new) after every mode
    change, on_idle(instance) when a drained queue leaves nothing to poll.
    """

    def __init__(self, instance_id: str, state: ServiceState,
                 clock: SimClock, broker: Broker, processing_ms: float,
                 output_topic: str, shadow: bool = False):
        if processing_ms < 0:
            raise ValueError("processing_ms must be >= 0")
        self.instance_id = instance_id
        self.state = state
        self.clock = clock
        self.broker = broker
        self.processing_ms = processing_ms
        self.output_topic = output_topic
        self._mode = Mode.PAUSED
        self.crashed = False
        self.replayed_count = 0
        self.rejected_count = 0
        self.applied_count = 0
        self.shadow_outputs: list[bytes] | None = [] if shadow else None
        self.on_mode_change = None
        self.on_idle = None
        self._queue: str | None = None  # consumed as instance_id
        self._pending = None            # the in-flight message's completion
        self._then = None               # step deferred until that completion
        self._idle = True
        self._frozen = False
        self._handoff = None            # (watermark, main_queue, on_switched)

    # -- mode handling -------------------------------------------------------

    @property
    def mode(self) -> Mode:
        return self._mode

    def _set_mode(self, new: Mode) -> None:
        old = self._mode
        if old is new:
            return
        self._mode = new
        if self.on_mode_change is not None:
            self.on_mode_change(self, old, new)

    def _require(self, *modes: Mode) -> None:
        if self._mode not in modes:
            want = " or ".join(m.value for m in modes)
            raise ModeError(
                f"{self.instance_id}: requires {want}, is {self._mode.value}")

    @property
    def busy(self) -> bool:
        return self._pending is not None

    def _attach(self, queue: str, mode: Mode, on_attached=None) -> None:
        self.broker.subscribe(queue, self.instance_id, on_wake=self._on_wake)
        self._queue = queue
        self._set_mode(mode)
        self._idle = False
        if on_attached is not None:
            on_attached(self)
        self._try_next()

    def _leave(self, mode: Mode) -> None:
        """Detach from the queue. An in-flight message is dropped unapplied,
        together with any step waiting for it; the broker redelivers it to
        the next consumer."""
        if self._pending is not None:
            self.clock.cancel(self._pending)
            self._pending = None
            self._then = None
        if self._queue is not None:
            self.broker.unsubscribe(self._queue, self.instance_id)
            self._queue = None
        self._set_mode(mode)

    def _when_quiescent(self, step) -> None:
        """Run step now, or once the in-flight message has completed."""
        if self._pending is None:
            step()
        else:
            self._then = step

    # -- lifecycle -----------------------------------------------------------

    def start_serving(self, queue: str) -> None:
        """Subscribe to queue and serve with outputs enabled. Consumption
        starts at the oldest unacknowledged message."""
        self._require(Mode.PAUSED)
        self._attach(queue, Mode.SERVING)

    def pause(self) -> None:
        """Halt consumption and detach from the queue.

        An in-flight message is deferred, never torn: its completion is
        cancelled and the broker may redeliver it later, so the message ends
        up fully unapplied rather than half-applied.
        """
        self._require(Mode.SERVING)
        self._leave(Mode.PAUSED)

    def create_checkpoint(self) -> Checkpoint:
        """Freeze the paused state into a transferable snapshot. The caller
        models the time this takes; the content is the state as paused."""
        self._require(Mode.PAUSED)
        snapshot = serialize_state(self.state)
        return Checkpoint(
            snapshot=snapshot,
            size_bytes=len(snapshot),
            checkpoint_last_id=self.state.last_processed_id,
        )

    @classmethod
    def restore(cls, checkpoint: Checkpoint, clock: SimClock, broker: Broker,
                processing_ms: float, output_topic: str, instance_id: str,
                shadow: bool = False) -> "ServiceInstance":
        """Rebuild an instance from a checkpoint. It comes up Paused with
        state bit-identical to what was frozen."""
        state = deserialize_state(checkpoint.snapshot)
        return cls(instance_id, state, clock, broker, processing_ms,
                   output_topic, shadow=shadow)

    def enter_replay(self, queue: str) -> None:
        """Consume queue with outputs suppressed. State advances; nothing is
        published."""
        self._require(Mode.PAUSED)
        self._attach(queue, Mode.REPLAYING)

    def freeze_replay(self, on_frozen) -> None:
        """Stop pulling from the replay queue. If a message is in flight its
        completion still applies (suppressed); on_frozen(instance) fires once
        the instance is quiescent."""
        self._require(Mode.REPLAYING)
        self._frozen = True
        self._when_quiescent(lambda: on_frozen(self))

    def finish_replay(self, watermark: int, main_queue: str, on_switched) -> None:
        """Replay the remaining backlog up to and including watermark, then
        switch: unsubscribe the replay queue, subscribe main_queue, enable
        outputs. on_switched(instance) fires at the switchover instant.

        A watermark below what was already applied would mean suppressed
        outputs can never be emitted; that is refused.
        """
        self._require(Mode.REPLAYING)
        if watermark < self.state.last_processed_id:
            raise ProtocolError(
                f"watermark {watermark} below already-applied id "
                f"{self.state.last_processed_id}")
        self._handoff = (watermark, main_queue, on_switched)
        self._frozen = False
        self._try_next()

    def request_stop(self, on_stopped) -> None:
        """Finish any in-flight message, then detach and stop. Used for the
        source side of a handoff; on_stopped(instance) fires once stopped,
        with state.last_processed_id as the watermark value."""
        self._require(Mode.SERVING)

        def stop_then_report():
            self._leave(Mode.STOPPED)
            on_stopped(self)

        self._when_quiescent(stop_then_report)

    def stop(self) -> None:
        """Immediate stop (discard path). Any in-flight message is released
        unapplied."""
        if self._mode is not Mode.STOPPED:
            self._leave(Mode.STOPPED)

    def crash(self) -> None:
        """Fail the instance. Unacked deliveries become redeliverable; state
        and outputs after the last completion are lost."""
        self.stop()
        self.crashed = True

    # -- consumption ---------------------------------------------------------

    def _on_wake(self, _queue_name: str) -> None:
        self._try_next()

    def _try_next(self) -> None:
        # detached (Paused, Stopped), busy, or a frozen replay: nothing to do
        if self._pending is not None or self._queue is None or self._frozen:
            return
        nxt = self.broker.peek(self._queue, self.instance_id)
        if self._handoff is not None:
            watermark, main_queue, on_switched = self._handoff
            if (self.state.last_processed_id >= watermark
                    or (nxt is not None and nxt.id > watermark)):
                self._handoff = None
                self.broker.unsubscribe(self._queue, self.instance_id)
                self._attach(main_queue, Mode.SERVING, on_switched)
                return
            if nxt is None:
                # every id <= watermark was mirrored before the watermark was
                # announced, so an empty queue here is a protocol bug
                raise ProtocolError(
                    f"{self.instance_id}: replay starved below watermark "
                    f"{watermark}")
        if nxt is None:
            self._mark_idle()
            return
        msg = self.broker.poll(self._queue, self.instance_id)
        self._idle = False
        self._pending = self.clock.schedule(
            self.processing_ms, lambda: self._complete(msg))

    def _complete(self, msg: Message) -> None:
        self._pending = None
        try:
            new_state, outputs = handle(self.state, msg)
        except StaleMessage:
            # duplicate delivery: drop without state change or output
            self.rejected_count += 1
        except UnknownCommand as exc:
            raise UnknownCommand(
                f"{self.instance_id} at t={self.clock.now} ms: message "
                f"{msg.id} on queue {self._queue!r}: {exc}") from exc
        else:
            self.state = new_state
            self.applied_count += 1
            if self._mode is Mode.SERVING:
                for out in outputs:
                    self.broker.publish(self.output_topic, out)
            else:
                self.replayed_count += 1
                if self.shadow_outputs is not None:
                    self.shadow_outputs.extend(outputs)
        self.broker.ack(self._queue, self.instance_id, msg.id)
        then, self._then = self._then, None
        if then is not None:
            then()
        else:
            self._try_next()

    def _mark_idle(self) -> None:
        if not self._idle:
            self._idle = True
            if self.on_idle is not None:
                self.on_idle(self)
