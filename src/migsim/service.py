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

The codec has two paths with the same bytes and the same refusals: a table
of int counters under keys of one length (ASCII when encoding) goes one
whole entry per C-driven struct call, anything else entry by entry through
_encode_value and _decode_value.
"""

from __future__ import annotations

import enum
import struct
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat

from .broker import Broker, Message
from .rules import Rule, problem
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
        if len(body) != 8:
            raise SerializationError("int value must be exactly 8 bytes")
        return _I64.unpack(body)[0]
    if tag == _TAG_BYTES:
        return body
    if tag == _TAG_STR:
        try:
            return body.decode("utf-8")
        except UnicodeDecodeError:
            raise SerializationError(f"value of key {key!r} is not valid "
                                     f"UTF-8: {body[:40]!r}") from None
    raise SerializationError(f"unknown value tag {tag:#x}")


def _int_table(blob: bytes, klen: int) -> dict[str, Scalar] | None:
    """Decode a body of whole int entries under keys of klen bytes, or None
    at the first entry that is not one or whose key is not in order."""
    data: dict[str, Scalar] = {}
    prev = b""
    entries = _int_entry(klen).iter_unpack(memoryview(blob)[12:])
    try:
        for n, raw, vlen, tag, number in entries:
            if n != klen or vlen != 9 or tag != _TAG_INT or raw <= prev:
                return None
            data[raw.decode("utf-8")] = number
            prev = raw
    except UnicodeDecodeError:
        return None
    return data


def serialize_state(state: ServiceState) -> bytes:
    if state.last_processed_id < 0:
        raise SerializationError("last_processed_id must be >= 0")
    data = state.data
    out = bytearray(_HEADER.pack(state.last_processed_id, len(data)))
    # code-point order is UTF-8 byte order, so the keys sort as they are
    keys = sorted(data)
    n = len(keys[0]) if keys else -1
    # exact ints under ASCII keys of one length: every entry has one layout,
    # packed whole into its place in a body sized up front
    if (set(map(len, keys)) == {n} and set(map(type, data.values())) == {int}
            and "".join(keys).isascii()):
        out += bytes(len(keys) * (n + 17))
        try:
            # pack_into returns None, which a deque of length 0 drops
            deque(map(_int_entry(n).pack_into, repeat(out),
                      range(12, len(out), n + 17), repeat(n),
                      map(str.encode, keys), repeat(9), repeat(_TAG_INT),
                      map(data.__getitem__, keys)), maxlen=0)
            return bytes(out)
        except struct.error:
            pass  # an int out of range, which the loop below names
    pack_u32 = _U32.pack
    for key in keys:
        kb = key.encode("utf-8")
        vb = _encode_value(data[key])
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
    unpack_u32 = _U32.unpack_from
    # a blob sized as count int entries under the first key's length may be
    # a table of counters (an empty state is one of none); if any entry is
    # not an int entry, the loop below names why
    klen = unpack_u32(blob, 12)[0] if size >= 16 else 0
    if (size - 12 == count * (klen + 17)
            and (data := _int_table(blob, klen)) is not None):
        return ServiceState(data, last_id)
    offset = 12
    data = {}
    prev = None
    for _ in range(count):
        if offset + 4 > size:
            raise SerializationError("truncated key length")
        (klen,) = unpack_u32(blob, offset)
        end = offset + 4 + klen
        if end > size:
            raise SerializationError("truncated key")
        raw = blob[offset + 4:end]
        try:
            key = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise SerializationError(
                f"key is not valid UTF-8: {raw[:40]!r}") from None
        if prev is not None and raw <= prev:
            raise SerializationError(f"key {key!r} is repeated or out of order")
        prev = raw
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


# the last parse that succeeded on an exact bytes payload: (payload, is_add,
# raw key, key, increment or value); one tuple, rebound whole
_parsed: tuple = (None, False, b"", "", 0)


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

    A payload is handled as its bytes: one of another type, such as a
    bytearray, is copied to bytes first, so a set never keeps a value that
    could change after the call. The parse depends on those bytes alone, so
    the last one is kept: a payload equal to the previous parsed one reuses
    its op, key and increment or value. A payload that failed to parse is
    parsed again every time. The checks on the state still run for each
    message.
    """
    global _parsed
    if msg.id <= state.last_processed_id:
        raise StaleMessage(
            f"id {msg.id} <= last processed {state.last_processed_id}")
    payload = msg.payload
    parsed = _parsed
    if payload == parsed[0]:
        _, is_add, raw, key, arg = parsed
    else:
        if type(payload) is not bytes:
            payload = bytes(payload)
        # add is the hot op: its one split also yields the op
        parts = payload.split(b" ", 3)
        op = parts[0]
        if op == b"add":
            if len(parts) < 3 or not parts[1]:
                raise UnknownCommand(f"malformed add: {payload[:40]!r}")
            raw = parts[1]
            try:
                key = raw.decode("ascii")
                arg = int(parts[2])
            except UnicodeDecodeError:  # a ValueError too, so caught first
                raise UnknownCommand(f"non-ASCII key: {raw[:40]!r}") from None
            except ValueError:
                raise UnknownCommand(f"bad increment: {parts[2]!r}") from None
            is_add = True
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
            arg = parts[2]
            is_add = False
        else:
            raise UnknownCommand(f"unknown op {op!r}")
        _parsed = (payload, is_add, raw, key, arg)
    if is_add:
        old = state.data.get(key, 0)
        if not isinstance(old, int):
            raise UnknownCommand(f"key {key!r} is not a counter")
        value = old + arg
        output = b"ok %d %s=%d" % (msg.id, raw, value)
    else:
        value = arg
        output = b"ok %d set %s" % (msg.id, raw)
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
    next one itself, unless a hold is set; if there are none, the instance
    goes idle at once, since a poll could only find the queue empty. A
    publish wakes it again.

    The hold is the one wait the instance keeps: request_stop's stop,
    freeze_replay's freeze or finish_replay's switch at the watermark. Once
    nothing is in flight it is consulted before each poll, and a True return
    means it has taken over, so the instance does not poll. Setting a hold
    replaces one that has not fired; leaving the queue drops it.

    Hooks (all optional): on_mode_change(instance, old, new) after every mode
    change, and on_idle() in two places only: when attaching to a queue
    finds it empty, and when a completion's ack leaves nothing buffered and
    no hold is set. A wake whose poll finds nothing stays silent: the
    instance reported idle when it drained.
    The callbacks of freeze_replay, finish_replay and request_stop, like
    on_idle, take no argument.
    """

    def __init__(self, instance_id: str, state: ServiceState,
                 clock: SimClock, broker: Broker, processing_ms: float,
                 output_topic: str):
        text = problem(processing_ms, Rule(minimum=0.0))
        if text is not None:
            raise ValueError(f"ServiceInstance.processing_ms: {text}")
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
        self._hold = None               # consulted before a poll; True: held

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
        """Detach from the queue and drop the hold. An in-flight message is
        dropped unapplied; the broker redelivers it to the next consumer."""
        if self._pending is not None:
            self.clock.cancel(self._pending)
            self._pending = None
        self._hold = None
        if self._queue is not None:
            self.broker.unsubscribe(self._queue, self.instance_id)
            self._queue = None
        self._set_mode(mode)

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

        def freeze():
            self._hold = lambda: True  # frozen until finish_replay
            on_frozen()
            return True

        self._hold = freeze
        self._try_next()

    def finish_replay(self, watermark: int, main_queue: str, on_switched) -> None:
        """Replay the remaining backlog up to and including watermark, then
        switch: unsubscribe the replay queue, subscribe main_queue, enable
        outputs. on_switched() fires at the switchover instant.

        A watermark below what was already applied would mean suppressed
        outputs can never be emitted; that is refused. Like any new hold,
        the switch replaces a freeze that still waits on its in-flight
        message: on_frozen() then never fires, and the replay goes on.
        """
        self._require(Mode.REPLAYING)
        if watermark < self.state.last_processed_id:
            raise ProtocolError(
                f"watermark {watermark} below already-applied id "
                f"{self.state.last_processed_id}")
        self._hold = lambda: self._switched_at_watermark(
            watermark, main_queue, on_switched)
        self._try_next()

    def request_stop(self, on_stopped) -> None:
        """Finish any in-flight message, then detach and stop. Used for the
        source side of a handoff; on_stopped() fires once stopped,
        with state.last_processed_id as the watermark value."""
        self._require(Mode.SERVING)

        def stop_then_report():
            self._leave(Mode.STOPPED)
            on_stopped()
            return True

        self._hold = stop_then_report
        self._try_next()

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
        if self._pending is not None:
            return  # busy
        if self._hold is not None and self._hold():
            return  # stopped, frozen or switched instead of polling
        msg = self.broker.poll(self._queue, self.instance_id)
        if msg is None:
            # a wake for what the instance already took: it reported idle
            # when it attached to an empty queue or last drained
            return
        self._msg = msg
        clock = self.clock
        self._pending = clock.schedule_at(
            clock.now + self.processing_ms, self._complete)

    def _switched_at_watermark(self, watermark: int, main_queue: str,
                               on_switched) -> bool:
        """Switch to the main queue once the replay has applied the
        watermark. False: keep replaying."""
        if self.state.last_processed_id >= watermark:
            self._hold = None
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
        if self._hold is not None:
            self._try_next()
        elif left:
            # _try_next's poll without its checks, which this completion has
            # answered: attached, not busy and no hold
            self._msg = self.broker.poll(self._queue, self.instance_id)
            clock = self.clock
            self._pending = clock.schedule_at(
                clock.now + self.processing_ms, self._complete)
        elif self.on_idle is not None:
            # the poll _try_next would make finds the queue empty, and the
            # instance has been busy since its last poll: it goes idle
            self.on_idle()

    def detach_hooks(self) -> None:
        """Drop the hooks and the hold, so that the instance holds no
        callback into its owners. Mode, state and counters stay readable."""
        self.on_mode_change = self.on_idle = self._hold = None
