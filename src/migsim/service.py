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
from functools import lru_cache

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

_HEADER = struct.Struct(">QI")
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_I64_MIN, _I64_MAX = -(2 ** 63), 2 ** 63 - 1


@lru_cache(maxsize=128)
def _int_entry(key_len: int) -> struct.Struct:
    """A whole entry whose value is an int, for keys of key_len bytes: key
    length, key, value length (9), tag and int64, in one pack or unpack."""
    return struct.Struct(f">I{key_len}sIBq")


def _encode_value(value: Scalar) -> bytes:
    if isinstance(value, bool):
        raise SerializationError("bool values are not part of the state schema")
    if isinstance(value, int):
        try:
            return bytes([_TAG_INT]) + _I64.pack(value)
        except struct.error:
            raise SerializationError(f"int out of 64-bit range: {value}") from None
    if isinstance(value, bytes):
        return bytes([_TAG_BYTES]) + value
    if isinstance(value, str):
        return bytes([_TAG_STR]) + value.encode("utf-8")
    raise SerializationError(f"unsupported value type {type(value).__name__}")


def _decode_value(raw: bytes, key: str) -> Scalar:
    if not raw:
        raise SerializationError("empty value field")
    tag, body = raw[0], raw[1:]
    if tag == _TAG_INT:
        # deserialize_state decodes every 9-byte int value itself
        raise SerializationError("int value must be exactly 8 bytes")
    if tag == _TAG_BYTES:
        return body
    if tag == _TAG_STR:
        try:
            return body.decode("utf-8")
        except UnicodeDecodeError:
            raise SerializationError(f"value of key {key!r} is not valid "
                                     f"UTF-8: {body[:40]!r}") from None
    raise SerializationError(f"unknown value tag {tag:#x}")


def serialize_state(state: ServiceState) -> bytes:
    if state.last_processed_id < 0:
        raise SerializationError("last_processed_id must be >= 0")
    data = state.data
    out = bytearray(_HEADER.pack(state.last_processed_id, len(data)))
    pack_u32, int_entry = _U32.pack, _int_entry
    lo, hi = _I64_MIN, _I64_MAX
    # code-point order is UTF-8 byte order, so the keys sort as they are
    for key in sorted(data):
        kb = key.encode("utf-8")
        value = data[key]
        # exact ints in range take the fast path; bool, int subclasses and
        # out-of-range ints get _encode_value's checks and messages
        if type(value) is int and lo <= value <= hi:
            n = len(kb)
            out += int_entry(n).pack(n, kb, 9, _TAG_INT, value)
        else:
            vb = _encode_value(value)
            out += pack_u32(len(kb))
            out += kb
            out += pack_u32(len(vb))
            out += vb
    return bytes(out)


def deserialize_state(blob: bytes) -> ServiceState:
    """Decode a canonical blob. Anything else is refused: a truncated or
    trailing part, invalid UTF-8, an unknown tag, and keys whose bytes do
    not strictly increase."""
    size = len(blob)
    if size < 12:
        raise SerializationError("truncated state blob")
    last_id, count = _HEADER.unpack_from(blob, 0)
    offset = 12
    data: dict[str, Scalar] = {}
    unpack_u32, int_entry = _U32.unpack_from, _int_entry
    prev = None
    for _ in range(count):
        if offset + 4 > size:
            raise SerializationError("truncated key length")
        (klen,) = unpack_u32(blob, offset)
        end = offset + 4 + klen
        if end + 13 <= size:
            # read the entry as an int one; other values go the general way
            _, raw, vlen, tag, number = int_entry(klen).unpack_from(
                blob, offset)
        elif end <= size:
            raw, tag = blob[offset + 4:end], None
        else:
            raise SerializationError("truncated key")
        try:
            key = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise SerializationError(
                f"key is not valid UTF-8: {raw[:40]!r}") from None
        if prev is not None and raw <= prev:
            raise SerializationError(f"key {key!r} is repeated or out of order")
        prev = raw
        if tag == _TAG_INT and vlen == 9:
            data[key] = number
            offset = end + 13
            continue
        if end + 4 > size:
            raise SerializationError("truncated value length")
        (vlen,) = unpack_u32(blob, end)
        offset = end + 4
        end = offset + vlen
        if end > size:
            raise SerializationError(f"truncated value of key {key!r}")
        data[key] = _decode_value(blob[offset:end], key)
        offset = end
    if offset != size:
        raise SerializationError("trailing bytes after state entries")
    return ServiceState(data, last_id)


def state_size_bytes(state: ServiceState) -> int:
    return len(serialize_state(state))


def handle(state: ServiceState, msg: Message) -> bytes:
    """Apply one input message to state in place and return its one output
    payload. Deterministic: the same state and message always yield the same
    successor state and the same output.

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
    # add is the hot op: its one split also yields the op
    parts = payload.split(b" ", 3)
    op = parts[0]
    if op == b"add":
        if len(parts) < 3 or not parts[1]:
            raise UnknownCommand(f"malformed add: {payload[:40]!r}")
        raw = parts[1]
        try:
            key = raw.decode("ascii")
            delta = int(parts[2])
        except UnicodeDecodeError:  # a ValueError too, so caught first
            raise UnknownCommand(f"non-ASCII key: {raw[:40]!r}") from None
        except ValueError:
            raise UnknownCommand(f"bad increment: {parts[2]!r}") from None
        old = state.data.get(key, 0)
        if not isinstance(old, int):
            raise UnknownCommand(f"key {key!r} is not a counter")
        value = old + delta
        output = b"ok %d %s=%d" % (msg.id, raw, value)
    elif op == b"set":
        # the value may hold spaces, so it is everything after the key
        parts = payload.split(b" ", 2)
        if len(parts) != 3 or not parts[1]:
            raise UnknownCommand(f"malformed set: {payload[:40]!r}")
        raw = parts[1]
        try:
            key = raw.decode("ascii")
        except UnicodeDecodeError:
            raise UnknownCommand(f"non-ASCII key: {raw[:40]!r}") from None
        value = parts[2]
        output = b"ok %d set %s" % (msg.id, raw)
    else:
        raise UnknownCommand(f"unknown op {op!r}")
    state.data[key] = value
    state.last_processed_id = msg.id
    return output


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
    its one output is published (Serving) or dropped (Replaying, where only
    replayed_count records the message), and the delivery is acked. State
    changes and output emission happen together at completion time, so a
    pause or crash before completion leaves the message fully unapplied and
    still buffered for redelivery. The ack reports how many messages are
    still buffered. If there are any, the completion that acked takes the
    next one itself, unless a deferred step or a pending handoff decides
    what comes next; if there are none, the instance goes idle at once,
    since a poll could only find the queue empty. A publish wakes it again.

    Hooks (all optional): on_mode_change(instance, old, new) after every mode
    change, and on_idle() in two places only: when attaching to a queue
    finds it empty, and when a completion's ack leaves nothing buffered and
    neither a deferred step nor a handoff takes over. A wake whose poll
    finds nothing stays silent: the instance reported idle when it drained.
    The callbacks of freeze_replay, finish_replay and request_stop, like
    on_idle, take no argument.
    """

    def __init__(self, instance_id: str, state: ServiceState,
                 clock: SimClock, broker: Broker, processing_ms: float,
                 output_topic: str):
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
        self.on_mode_change = None
        self.on_idle = None
        self._queue: str | None = None  # consumed as instance_id
        self._pending = None            # the in-flight message's completion
        self._msg: Message | None = None  # the message polled last
        self._then = None               # step deferred until that completion
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
        self.broker.subscribe(queue, self.instance_id, on_wake=self._try_next)
        self._queue = queue
        self._set_mode(mode)
        if on_attached is not None:
            on_attached()
        self._try_next()
        if self._pending is None and self.on_idle is not None:
            self.on_idle()  # the first poll found the queue empty

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

    def create_checkpoint(self) -> bytes:
        """Freeze the paused state into a transferable snapshot: its
        canonical serialization. The caller models the time this takes."""
        self._require(Mode.PAUSED)
        return serialize_state(self.state)

    @classmethod
    def restore(cls, snapshot: bytes, clock: SimClock, broker: Broker,
                processing_ms: float, output_topic: str,
                instance_id: str) -> "ServiceInstance":
        """Rebuild an instance from a snapshot. It comes up Paused with
        state bit-identical to what was frozen."""
        state = deserialize_state(snapshot)
        return cls(instance_id, state, clock, broker, processing_ms,
                   output_topic)

    def enter_replay(self, queue: str) -> None:
        """Consume queue with outputs suppressed. State advances; nothing is
        published."""
        self._require(Mode.PAUSED)
        self._attach(queue, Mode.REPLAYING)

    def freeze_replay(self, on_frozen) -> None:
        """Stop pulling from the replay queue. If a message is in flight its
        completion still applies (suppressed); on_frozen() fires once
        the instance is quiescent."""
        self._require(Mode.REPLAYING)
        self._frozen = True
        self._when_quiescent(on_frozen)

    def finish_replay(self, watermark: int, main_queue: str, on_switched) -> None:
        """Replay the remaining backlog up to and including watermark, then
        switch: unsubscribe the replay queue, subscribe main_queue, enable
        outputs. on_switched() fires at the switchover instant.

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
        source side of a handoff; on_stopped() fires once stopped,
        with state.last_processed_id as the watermark value."""
        self._require(Mode.SERVING)

        def stop_then_report():
            self._leave(Mode.STOPPED)
            on_stopped()

        self._when_quiescent(stop_then_report)

    def stop(self) -> None:
        """Immediate stop (discard path). Any in-flight message is released
        unapplied; a stopped instance stays as it is."""
        self._leave(Mode.STOPPED)

    def crash(self) -> None:
        """Fail the instance. Unacked deliveries become redeliverable; state
        and outputs after the last completion are lost."""
        self.stop()
        self.crashed = True

    # -- consumption ---------------------------------------------------------

    def _try_next(self) -> None:
        # busy, or a frozen replay: nothing to do
        if self._pending is not None or self._frozen:
            return
        if self._handoff is not None and self._switched_at_watermark():
            return
        msg = self.broker.poll(self._queue, self.instance_id)
        if msg is None:
            # a wake for what the instance already took: it reported idle
            # when it attached to an empty queue or last drained
            return
        self._msg = msg
        clock = self.clock
        self._pending = clock.schedule_at(
            clock.now + self.processing_ms, self._complete)

    def _switched_at_watermark(self) -> bool:
        """Switch to the main queue once the replay has applied the
        watermark. False: keep replaying."""
        watermark, main_queue, on_switched = self._handoff
        if self.state.last_processed_id >= watermark:
            self._handoff = None
            self.broker.unsubscribe(self._queue, self.instance_id)
            self._attach(main_queue, Mode.SERVING, on_switched)
            return True
        nxt = self.broker.peek(self._queue, self.instance_id)
        if nxt is None or nxt.id > watermark:
            # every id <= watermark was mirrored before the watermark was
            # announced, so a queue that cannot reach it is a protocol bug
            raise ProtocolError(
                f"{self.instance_id}: replay starved below watermark "
                f"{watermark}")
        return False

    def _complete(self) -> None:
        msg = self._msg
        self._pending = None
        try:
            output = handle(self.state, msg)
        except StaleMessage:
            # duplicate delivery: drop without state change or output
            self.rejected_count += 1
        except UnknownCommand as exc:
            raise UnknownCommand(
                f"{self.instance_id} at t={self.clock.now} ms: message "
                f"{msg.id} on queue {self._queue!r}: {exc}") from exc
        else:
            self.applied_count += 1
            if self._mode is Mode.SERVING:
                self.broker.publish(self.output_topic, output)
            else:
                self.replayed_count += 1
        left = self.broker.ack(self._queue, self.instance_id, msg.id)
        then, self._then = self._then, None
        if then is not None:
            then()
        elif self._handoff is not None:
            self._try_next()
        elif left:
            # _try_next's poll without its checks, which this completion has
            # answered: attached, not busy, and a frozen replay never gets
            # here, since its on_frozen step was waiting
            self._msg = self.broker.poll(self._queue, self.instance_id)
            clock = self.clock
            self._pending = clock.schedule_at(
                clock.now + self.processing_ms, self._complete)
        else:
            # the poll _try_next would make finds the queue empty, and the
            # instance has been busy since its last poll: it goes idle
            if self.on_idle is not None:
                self.on_idle()

    def detach_hooks(self) -> None:
        """Drop the hooks and any step waiting on a completion, so that the
        instance holds no callback into its owners. Mode, state and counters
        stay readable."""
        self.on_mode_change = self.on_idle = None
        self._then = self._handoff = None
