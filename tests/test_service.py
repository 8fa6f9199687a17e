import gc
import os
import random
import sys
import weakref

import pytest
from hypothesis import example, given, strategies as st

import migsim
from migsim.broker import Broker, Message
from migsim.service import (Mode, ModeError, ProtocolError, SerializationError,
                            ServiceInstance, ServiceState, StaleMessage,
                            UnknownCommand, deserialize_state, handle,
                            serialize_state)
from migsim.sim import SimParams, Simulation
from migsim.simnet import Host, Link, SimClock
from migsim.workload import WorkloadSpec


def _msg(mid: int, payload: bytes) -> Message:
    return Message(id=mid, payload=payload)


# -- canonical serialization ---------------------------------------------------

keys = st.text(min_size=1, max_size=12)
values = st.one_of(
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.binary(max_size=40),
    st.text(max_size=40),
)


def _field(raw: bytes) -> bytes:
    return len(raw).to_bytes(4, "big") + raw


def _reference_encode(data: dict, last: int) -> bytes:
    """The documented layout, written out independently of the codec."""
    entries = []
    for key, value in data.items():
        if isinstance(value, int):
            body = b"\x01" + value.to_bytes(8, "big", signed=True)
        elif isinstance(value, bytes):
            body = b"\x02" + value
        else:
            body = b"\x03" + value.encode("utf-8")
        entries.append((key.encode("utf-8"), body))
    entries.sort(key=lambda entry: entry[0])
    out = last.to_bytes(8, "big") + len(entries).to_bytes(4, "big")
    for kb, body in entries:
        out += _field(kb) + _field(body)
    return out


class Count(int):
    """An int subclass, as a caller's own counter type might be."""


@given(data=st.dictionaries(keys, values, max_size=12),
       last=st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_serialize_round_trip(data, last):
    state = ServiceState(data, last)
    back = deserialize_state(serialize_state(state))
    assert back.data == data
    assert back.last_processed_id == last


def test_golden_encoding():
    blob = serialize_state(ServiceState({"a": 1}, 7))
    assert blob == (
        b"\x00\x00\x00\x00\x00\x00\x00\x07"   # last_processed_id
        b"\x00\x00\x00\x01"                   # one entry
        b"\x00\x00\x00\x01" b"a"              # key
        b"\x00\x00\x00\x09"                   # value length: tag + int64
        b"\x01\x00\x00\x00\x00\x00\x00\x00\x01"
    )


def test_empty_state_is_twelve_bytes():
    assert len(serialize_state(ServiceState())) == 12


def test_encoding_independent_of_insertion_order():
    a = ServiceState({"x": 1, "y": b"b", "z": "s"}, 3)
    b = ServiceState({"z": "s", "x": 1, "y": b"b"}, 3)
    assert serialize_state(a) == serialize_state(b)


def test_keys_sorted_by_utf8_bytes():
    # "é" encodes above ascii "z", so byte order differs from naive codepoint
    # concerns only if the implementation sorted some other way
    blob = serialize_state(ServiceState({"é": 1, "z": 2}, 0))
    assert blob.index("z".encode()) < blob.index("é".encode("utf-8"))


def test_non_ascii_keys_serialize_in_utf8_byte_order():
    # two, three and four UTF-8 bytes; "😀" sorts before "ａ" in UTF-16
    data = {"é": 1, "ａ": b"w", "😀": "s", "z": 2}
    assert serialize_state(ServiceState(data, 9)) == _reference_encode(data, 9)


def test_rejects_bool_and_oversized_int():
    with pytest.raises(SerializationError):
        serialize_state(ServiceState({"k": True}, 0))
    with pytest.raises(SerializationError):
        serialize_state(ServiceState({"k": 2 ** 63}, 0))
    with pytest.raises(SerializationError,
                       match="^unsupported value type float$"):
        serialize_state(ServiceState({"k": 1.5}, 0))
    with pytest.raises(SerializationError,
                       match="^last_processed_id must be >= 0$"):
        serialize_state(ServiceState({}, -1))


def test_rejects_trailing_bytes_and_truncation():
    blob = serialize_state(ServiceState({"a": 1}, 7))
    with pytest.raises(SerializationError):
        deserialize_state(blob + b"\x00")
    with pytest.raises(SerializationError):
        deserialize_state(blob[:5])


def test_rejects_unknown_tag():
    blob = serialize_state(ServiceState({"a": b"x"}, 0))
    bad = blob.replace(b"\x02x", b"\x7fx")
    with pytest.raises(SerializationError):
        deserialize_state(bad)


int64s = st.one_of(st.sampled_from([-(2 ** 63), 2 ** 63 - 1]),
                   st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1))
codec_values = st.one_of(values, int64s, int64s.map(Count))


@example(data={"é": 1, "😀": Count(-(2 ** 63)), "ａ": "ü", "z": b"\xff"},
         last=2 ** 64 - 1, bad=2 ** 63)
@given(data=st.dictionaries(keys, codec_values, max_size=10),
       last=st.integers(min_value=0, max_value=2 ** 64 - 1),
       bad=st.sampled_from([2 ** 63, -(2 ** 63) - 1, Count(2 ** 63), True,
                            False]))
def test_serialize_matches_a_reference_encoder(data, last, bad):
    blob = serialize_state(ServiceState(data, last))
    assert blob == _reference_encode(data, last)
    back = deserialize_state(blob)
    assert back.data == data and back.last_processed_id == last
    # a value outside the schema is refused with the same message wherever
    # it sits among the other entries
    for key in ("", "m", "\U0010ffff"):
        with pytest.raises(SerializationError) as err:
            serialize_state(ServiceState({**data, key: bad}, last))
        assert str(err.value) == (
            "bool values are not part of the state schema"
            if isinstance(bad, bool) else f"int out of 64-bit range: {bad}")


@example(data={"é": 1, "zz": "ü"})
@given(data=st.dictionaries(keys, codec_values, max_size=4))
def test_every_proper_prefix_is_refused(data):
    # a cut inside a multi-byte character used to leak UnicodeDecodeError
    blob = serialize_state(ServiceState(data, 3))
    for end in range(len(blob)):
        with pytest.raises(SerializationError):
            deserialize_state(blob[:end])


def test_truncated_or_invalid_utf8_raises_serialization_error_only():
    blob = serialize_state(ServiceState({"é": 1, "zz": "ü"}, 3))
    # a 12-byte header, "zz" and its str "ü" at 12-24, then "é" and its int
    for end, text in ((17, "truncated key"), (20, "truncated value length"),
                      (24, "truncated value of key 'zz'"),
                      (27, "truncated key length"), (30, "truncated key"),
                      (len(blob) - 1, "truncated value of key 'é'")):
        with pytest.raises(SerializationError, match=f"^{text}$"):
            deserialize_state(blob[:end])
    header = (3).to_bytes(8, "big") + (1).to_bytes(4, "big")
    int_value = _field(b"\x01" + (1).to_bytes(8, "big"))
    for raw_key in (b"\xff", b"\xc3", b"a\xed\xa0\x80"):
        with pytest.raises(SerializationError) as err:
            deserialize_state(header + _field(raw_key) + int_value)
        assert str(err.value) == f"key is not valid UTF-8: {raw_key!r}"
    for body in (b"\xff", b"\xc3", b"ok\xe2\x82"):
        with pytest.raises(SerializationError) as err:
            deserialize_state(header + _field(b"zz") + _field(b"\x03" + body))
        assert str(err.value) == (
            f"value of key 'zz' is not valid UTF-8: {body!r}")


def _entries(blob: bytes) -> tuple[bytes, list[bytes]]:
    """Split a serialized state into its header and its raw entries."""
    entries, offset = [], 12
    while offset < len(blob):
        start = offset
        for _ in range(2):  # the key field, then the value field
            offset += 4 + int.from_bytes(blob[offset:offset + 4], "big")
        entries.append(blob[start:offset])
    return blob[:12], entries


def test_keys_out_of_order_or_repeated_are_refused():
    blob = serialize_state(ServiceState({"a": 1, "b": 2}, 0))
    header, (a, b) = _entries(blob)
    for bad in (header + b + a, header + a + a):
        assert len(bad) == 48
        with pytest.raises(SerializationError,
                           match="^key 'a' is repeated or out of order$"):
            deserialize_state(bad)


def test_int_value_of_the_wrong_length_is_refused():
    header = (3).to_bytes(8, "big") + (1).to_bytes(4, "big")
    blob = header + _field(b"n") + _field(b"\x01" + (7).to_bytes(5, "big"))
    for tail in (b"", bytes(16)):  # without and with room for an int entry
        with pytest.raises(SerializationError,
                           match="^int value must be exactly 8 bytes$"):
            deserialize_state(blob + tail)


@example(data={"é": 1, "ａ": b"w", "😀": "s", "z": 2})
@given(data=st.dictionaries(keys, codec_values, min_size=2, max_size=6))
def test_swapping_two_entries_is_refused(data):
    # a checkpoint decodes only if it is the encoding of what it restores
    header, entries = _entries(serialize_state(ServiceState(data, 5)))
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            swapped = list(entries)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            with pytest.raises(SerializationError,
                               match="is repeated or out of order$"):
                deserialize_state(header + b"".join(swapped))


# A blob sized as whole int entries under its first key's length is read
# entry by entry in one struct call each; the blobs below are sized so, and
# each has one entry that is not such an int.


def test_eight_byte_bytes_value_among_ints_round_trips():
    # tag 0x02 plus 8 bytes has an int entry's value length
    state = ServiceState({"a": 1, "b": b"12345678", "c": 3}, 4)
    blob = serialize_state(state)
    assert len(blob) == 12 + 3 * 18
    assert deserialize_state(blob) == state


def test_int_sized_entry_with_a_short_value_length_is_refused():
    header = (3).to_bytes(8, "big") + (1).to_bytes(4, "big")
    blob = (header + _field(b"n") + (7).to_bytes(4, "big") + b"\x01"
            + (5).to_bytes(8, "big"))
    assert len(blob) == 12 + 18
    with pytest.raises(SerializationError,
                       match="^int value must be exactly 8 bytes$"):
        deserialize_state(blob)


def test_int_sized_entry_with_a_shorter_key_is_refused():
    # read with the first key's length, "b"'s entry would be key "b\x00"
    # and int 7; its own key field makes its value field empty
    header = (3).to_bytes(8, "big") + (2).to_bytes(4, "big")
    blob = (header + _field(b"aa") + _field(b"\x01" + (1).to_bytes(8, "big"))
            + _field(b"b") + (0).to_bytes(4, "big") + b"\x09\x01"
            + (7).to_bytes(8, "big"))
    assert len(blob) == 12 + 2 * 19
    with pytest.raises(SerializationError, match="^empty value field$"):
        deserialize_state(blob)


@pytest.mark.parametrize("data", [
    {"a": 1, "bb": 2},            # two key lengths
    {"é": 1, "z": 2},             # one length in characters, not in bytes
    {"": -(2 ** 63)},             # the empty key
    {"a": 1, "b": Count(2)},      # an int subclass
])
def test_counter_tables_off_the_one_layout_encode_alike(data):
    blob = serialize_state(ServiceState(data, 2))
    assert blob == _reference_encode(data, 2)
    assert deserialize_state(blob).data == data


def _counter_table(size: int) -> dict:
    """size counters under seeded keys of one length, inserted shuffled;
    both int64 extremes are among the values, or one of them if size is 1."""
    rng = random.Random(size)
    keys = [f"k{i:05d}" for i in rng.sample(range(10 ** 5), size)]
    values = [-(2 ** 63), 2 ** 63 - 1] + [
        rng.randint(-(2 ** 63), 2 ** 63 - 1) for _ in range(size - 2)]
    rng.shuffle(values)
    return dict(zip(keys, values))


@pytest.mark.parametrize("size", [1, 1023, 1024, 1025, 10 ** 4])
def test_counter_tables_match_the_reference_encoder(size):
    data = _counter_table(size)
    blob = serialize_state(ServiceState(data, 6))
    assert blob == _reference_encode(data, 6)
    back = deserialize_state(blob)
    assert back.data == data and back.last_processed_id == 6
    assert list(back.data) == sorted(data)


def test_a_value_outside_the_counter_layout_is_found_anywhere():
    data = _counter_table(10 ** 4)
    order = sorted(data)
    for key in (order[0], order[len(order) // 2], order[-1]):
        for bad, message in ((True, "bool values are not part of the state "
                                    "schema"),
                             (2 ** 63, f"int out of 64-bit range: {2 ** 63}")):
            with pytest.raises(SerializationError, match=f"^{message}$"):
                serialize_state(ServiceState({**data, key: bad}, 0))
        odd = {**data, key: Count(5)}
        assert serialize_state(ServiceState(odd, 0)) == _reference_encode(odd, 0)


# -- message handler -----------------------------------------------------------


def test_handle_set_and_add():
    # applied in place: the argument itself holds every command's effect
    state = ServiceState()
    assert handle(state, _msg(1, b"set name alice smith")) == b"ok 1 set name"
    assert state.data == {"name": b"alice smith"}
    assert state.last_processed_id == 1
    assert handle(state, _msg(2, b"add hits 3")) == b"ok 2 hits=3"
    assert state.data["hits"] == 3
    assert handle(state, _msg(3, b"add hits -1 padpadpad")) == b"ok 3 hits=2"
    assert state.data == {"name": b"alice smith", "hits": 2}
    assert state.last_processed_id == 3


def test_handle_stale_rejected_without_change():
    state = ServiceState()
    handle(state, _msg(5, b"add n 1"))
    with pytest.raises(StaleMessage):
        handle(state, _msg(5, b"add n 1"))
    with pytest.raises(StaleMessage):
        handle(state, _msg(4, b"add n 1"))
    assert state.data == {"n": 1}
    assert state.last_processed_id == 5


def test_handle_unknown_command():
    with pytest.raises(UnknownCommand):
        handle(ServiceState(), _msg(1, b"frob k v"))
    with pytest.raises(UnknownCommand):
        handle(ServiceState(), _msg(1, b"set onlykey"))
    with pytest.raises(UnknownCommand):
        handle(ServiceState(), _msg(1, b"add k notanint"))
    state = ServiceState()
    handle(state, _msg(1, b"set k v"))
    with pytest.raises(UnknownCommand):
        handle(state, _msg(2, b"add k 1"))  # k holds bytes, not a counter
    with pytest.raises(UnknownCommand):
        handle(ServiceState(), _msg(1, b"set \xff v"))  # keys are ASCII
    with pytest.raises(UnknownCommand):
        handle(ServiceState(), _msg(1, b"add \xff 1"))


def test_handle_rejection_leaves_state_byte_identical():
    state = ServiceState({"name": b"alice", "hits": 3}, 5)
    before = serialize_state(state)
    rejected = [
        (5, b"add hits 1"),         # duplicate id
        (4, b"set name bob"),       # out-of-order id
        (6, b"frob hits 1"),        # unknown op
        (6, b"set name"),           # malformed set
        (6, b"set  bob"),           # set with an empty key
        (6, b"add hits"),           # malformed add
        (6, b"add hits x1"),        # bad increment
        (6, b"add name 1"),         # name holds bytes, not a counter
        (6, b"set \xff bob"),       # non-ASCII key
        (6, b"add \xff 1"),
    ]
    for mid, payload in rejected:
        with pytest.raises((StaleMessage, UnknownCommand)):
            handle(state, _msg(mid, payload))
        assert serialize_state(state) == before, payload


@given(st.lists(st.tuples(st.sampled_from([b"set", b"add"]),
                          st.sampled_from([b"a", b"b", b"c"]),
                          st.integers(min_value=-5, max_value=5)),
                max_size=20))
def test_handle_reexecution_is_deterministic(ops):
    def run():
        state = ServiceState()
        outputs = []
        for i, (op, key, val) in enumerate(ops, start=1):
            # op-prefixed keys keep counters and blobs disjoint
            payload = b"%s %s%s %d" % (op, op[:1], key, val)
            outputs.append(handle(state, _msg(i, payload)))
        return serialize_state(state), outputs

    assert run() == run()


def _reference_handle(state: ServiceState, msg: Message) -> bytes:
    """handle's documented commands, written out independently of it and
    parsing every payload afresh. A set keeps its value as bytes."""
    if msg.id <= state.last_processed_id:
        raise StaleMessage(msg.id)
    words = msg.payload.split(b" ", 2)
    if len(words) != 3 or not words[1] or not words[1].isascii():
        raise UnknownCommand(msg.payload)
    op, raw, rest = words
    key = raw.decode("ascii")
    if op == b"set":
        value = bytes(rest)
        output = b"ok %d set %s" % (msg.id, raw)
    elif op == b"add":
        old = state.data.get(key, 0)
        try:
            delta = int(rest.split(b" ", 1)[0])
        except ValueError:
            raise UnknownCommand(msg.payload) from None
        if not isinstance(old, int):
            raise UnknownCommand(msg.payload)
        value = old + delta
        output = b"ok %d %s=%d" % (msg.id, raw, value)
    else:
        raise UnknownCommand(msg.payload)
    state.data[key] = value
    state.last_processed_id = msg.id
    return output


def _outcome(fn, state, msg):
    try:
        return fn(state, msg)
    except (StaleMessage, UnknownCommand) as err:
        return type(err)


class _Twin:
    """handle and the reference fed the same messages, each on its own
    state; every step must give the same output or refusal and leave equal
    states, values of the same type included."""

    def __init__(self, data=None, last=0):
        self.state = ServiceState(dict(data or {}), last)
        self.ref = ServiceState(dict(data or {}), last)

    def step(self, mid, payload):
        got = _outcome(handle, self.state, _msg(mid, payload))
        assert got == _outcome(_reference_handle, self.ref, _msg(mid, payload))
        assert self.state == self.ref
        assert ([type(v) for v in self.state.data.values()]
                == [type(v) for v in self.ref.data.values()])
        return got


def test_a_repeated_payload_is_handled_like_a_fresh_one():
    pad = b"x" * 116
    one = b"add score 7 " + pad
    twin = _Twin()
    # the same object, then equal objects that are not it
    for mid in range(1, 4):
        assert twin.step(mid, one) == b"ok %d score=%d" % (mid, 7 * mid)
    for mid in range(4, 7):
        equal = bytes(bytearray(one))
        assert equal == one and equal is not one
        twin.step(mid, equal)
    assert twin.state.data == {"score": 42}
    # payloads that share a key, or differ only past it, are not one parse
    for mid, payload in enumerate(
            [b"add score -2 " + pad, b"add score 7", b"set name a b",
             b"set name a b", b"set name a  b", b"add hits 7 " + pad,
             b"add hits 7 " + pad, one], start=7):
        twin.step(mid, payload)
    assert twin.state.data == {"score": 54, "name": b"a  b", "hits": 14}


def test_a_malformed_payload_fails_alike_every_time():
    twin = _Twin({"k": 1}, 1)
    mid = 1
    for payload in (b"add k x1", b"add k", b"set k", b"frob k 1",
                    b"add \xff 1", b"add k 1.5"):
        texts = []
        for _ in range(2):
            with pytest.raises(UnknownCommand) as err:
                handle(twin.state, _msg(mid + 1, payload))
            texts.append(str(err.value))
        assert texts[0] == texts[1], payload
        assert twin.state == twin.ref
        # a good parse in between leaves the refusal as it was
        mid += 1
        twin.step(mid, b"add k 1")
        assert twin.step(mid + 1, payload) is UnknownCommand


def test_the_counter_check_runs_on_a_reused_parse():
    twin = _Twin()
    twin.step(1, b"set k v")
    # the first add keeps its parse, the second reuses it: both refused
    assert twin.step(2, b"add k 1") is UnknownCommand
    with pytest.raises(UnknownCommand, match="^key 'k' is not a counter$"):
        handle(twin.state, _msg(2, b"add k 1"))
    assert twin.state.data == {"k": b"v"}
    # the same parse applies to a state where k is a counter
    other = _Twin({"k": 4}, 1)
    assert other.step(2, b"add k 1") == b"ok 2 k=5"


def test_a_bytearray_payload_is_never_kept():
    twin = _Twin()
    buf = bytearray(b"add k 1")
    assert twin.step(1, buf) == b"ok 1 k=1"
    # the buffer changes after its call: neither its new nor its old content
    # may meet a parse of what it held then
    buf[-1:] = b"5"
    assert twin.step(2, b"add k 5") == b"ok 2 k=6"
    assert twin.step(3, bytes(buf)) == b"ok 3 k=11"
    assert twin.step(4, b"add k 1") == b"ok 4 k=12"
    # equal to the kept parse's payload, but a bytearray: its value is
    # bytes, as a fresh parse makes
    twin.step(5, b"set v a")
    twin.step(6, bytearray(b"set v a"))
    assert type(twin.state.data["v"]) is bytes


def test_a_set_from_a_bytearray_can_be_checkpointed():
    state = ServiceState()
    # another payload first, so the bytearray meets no kept parse
    handle(state, _msg(1, b"add n 1"))
    buf = bytearray(b"set v a")
    handle(state, _msg(2, buf))
    buf[-1:] = b"b"
    assert state.data == {"n": 1, "v": b"a"}
    assert deserialize_state(serialize_state(state)) == state


def test_a_stale_id_on_a_reused_parse_changes_nothing():
    twin = _Twin()
    payload = b"add n 2"
    twin.step(5, payload)
    before = serialize_state(twin.state)
    for mid in (5, 4, 1):
        assert twin.step(mid, payload) is StaleMessage
        assert serialize_state(twin.state) == before
    assert twin.step(6, payload) == b"ok 6 n=4"


_POOL = [b"add a 1", b"add a -3 pad", b"add b 2", b"set a x", b"set b y z",
         b"add a x", b"set c", b"add \xff 1", b"mul a 2"]


@given(st.lists(st.tuples(st.sampled_from(_POOL), st.booleans(),
                          st.integers(min_value=-1, max_value=2)),
                max_size=30))
def test_handle_agrees_with_a_fresh_parse_of_every_payload(steps):
    twin = _Twin()
    mid = 0
    for payload, as_bytearray, gap in steps:
        mid += gap  # a gap below 1 repeats or goes back: a stale id
        twin.step(mid, bytearray(payload) if as_bytearray else payload)


# -- instance runtime ----------------------------------------------------------


def _rig(processing_ms=4.0):
    clock = SimClock()
    broker = Broker(clock)
    broker.create_queue("in")
    broker.create_queue("out")
    inst = ServiceInstance("i1", ServiceState(), clock, broker, processing_ms,
                           "out")
    return clock, broker, inst


@pytest.mark.parametrize("processing_ms, text", [
    (float("nan"), "must be finite, got nan"),
    (float("inf"), "must be finite, got inf"),
    (-1, "must be >= 0.0, got -1"),
])
def test_bad_processing_delay_refused_when_built(processing_ms, text):
    # refused here, not at the first completion the instance schedules
    with pytest.raises(ValueError) as err:
        _rig(processing_ms)
    assert str(err.value) == f"ServiceInstance.processing_ms: {text}"


def test_processing_delay_times_output_emission():
    clock, broker, inst = _rig(processing_ms=4.0)
    emitted = []
    broker.subscribe("out", "probe",
                     on_wake=lambda: emitted.append(clock.now))
    inst.start_serving("in")
    clock.schedule_at(10.0, lambda: broker.publish("in", b"add n 1"))
    clock.run_until()
    # picked up at 10, applied and published at 14
    assert emitted == [14.0]
    assert inst.state.data == {"n": 1}


def test_serial_consumption_one_at_a_time():
    clock, broker, inst = _rig(processing_ms=2.0)
    # a probe that takes each output as it is published, with its time
    emitted = []

    def take():
        msg = broker.poll("out", "probe")
        emitted.append((msg.payload, clock.now))
        broker.ack("out", "probe", msg.id)

    broker.subscribe("out", "probe", on_wake=take)
    for i in range(3):
        broker.publish("in", b"add n 1")
    inst.start_serving("in")
    clock.run_until()
    # each output is published when its message completes, 2 ms apart
    assert emitted == [
        (b"ok 1 n=1", 2.0), (b"ok 2 n=2", 4.0), (b"ok 3 n=3", 6.0)]


def test_pause_defers_in_flight_message():
    clock, broker, inst = _rig(processing_ms=5.0)
    broker.publish("in", b"add n 1")
    inst.start_serving("in")
    # halfway through processing message 1
    clock.schedule_at(2.0, inst.pause)
    clock.run_until()
    assert inst.mode is Mode.PAUSED
    assert inst.state.data == {}          # nothing half-applied
    assert broker.queue("in").ids() == [1]  # still buffered
    inst.start_serving("in")
    clock.run_until()
    # applied exactly once after serving again
    assert inst.state.data == {"n": 1}
    assert inst.applied_count == 1
    assert len(broker.queue("out").messages()) == 1


def test_checkpoint_requires_paused():
    clock, broker, inst = _rig()
    inst.start_serving("in")
    with pytest.raises(ModeError):
        inst.create_checkpoint()
    inst.pause()
    cp = inst.create_checkpoint()
    assert cp == serialize_state(ServiceState()) and len(cp) == 12


def test_restore_round_trip_state():
    clock, broker, inst = _rig(processing_ms=0.0)
    broker.publish("in", b"set greet hello")
    broker.publish("in", b"add hits 2")
    inst.start_serving("in")
    clock.run_until()
    inst.pause()
    cp = inst.create_checkpoint()
    twin = ServiceInstance.restore(cp, clock, broker, 0.0, "out", "i2")
    assert twin.mode is Mode.PAUSED
    assert serialize_state(twin.state) == cp
    assert twin.state.last_processed_id == 2


def test_replay_suppresses_outputs_and_rejects_stale():
    """Restore onto a mirror backfilled from before the checkpoint: ids at or
    below the checkpoint's last id are rejected side-effect free, newer ids
    advance state, and nothing reaches the output queue."""
    clock, broker, inst = _rig(processing_ms=1.0)
    for _ in range(4):
        broker.publish("in", b"add n 1")
    inst.start_serving("in")
    clock.run_until()                      # source applied ids 1..4
    inst.pause()
    cp = inst.create_checkpoint()
    assert deserialize_state(cp).last_processed_id == 4

    # replay feed whose backfill starts below the checkpoint id, so the twin
    # sees two already-applied ids before a genuinely new one
    broker.create_queue("feed")
    for _ in range(5):
        broker.publish("feed", b"add n 1")  # ids 1..5, nothing consumed
    broker.create_queue("in.sec")
    broker.start_mirror("feed", "in.sec", 3)
    assert broker.queue("in.sec").ids() == [3, 4, 5]

    twin = ServiceInstance.restore(cp, clock, broker, 1.0, "out", "i2")
    twin.enter_replay("in.sec")
    clock.run_until()
    assert twin.rejected_count == 2
    assert twin.replayed_count == 1
    assert twin.state.data == {"n": 5}
    assert twin.state.last_processed_id == 5
    # replay published nothing beyond the source's own four outputs
    assert len(broker.queue("out").messages()) == 4


def test_freeze_replay_waits_for_in_flight():
    def run(stop_at=None):
        clock, broker, inst = _rig(processing_ms=3.0)
        broker.publish("in", b"add n 1")
        inst.start_serving("in")
        clock.run_until()
        inst.pause()
        cp = inst.create_checkpoint()

        broker.create_queue("in.sec")
        broker.start_mirror("in", "in.sec", 2)
        broker.publish("in", b"add n 1")   # id 2 lands in the mirror

        twin = ServiceInstance.restore(cp, clock, broker, 3.0, "out", "i2")
        frozen_at = []
        twin.enter_replay("in.sec")

        def freeze():
            assert twin.busy               # id 2 mid-processing
            twin.freeze_replay(lambda: frozen_at.append(clock.now))

        # source ran until t=3; twin polled id 2 there, completion lands at 6
        clock.schedule_at(4.0, freeze)
        if stop_at is not None:
            clock.schedule_at(stop_at, twin.stop)
        clock.run_until()
        return broker, twin, frozen_at

    broker, twin, frozen_at = run()
    assert frozen_at == [6.0]              # fires at completion, not at call
    assert twin.state.last_processed_id == 2
    assert twin.mode is Mode.REPLAYING     # frozen, not stopped

    # a stop while the freeze waits drops id 2 unapplied, and the freeze too
    broker, twin, frozen_at = run(stop_at=5.0)
    assert frozen_at == []
    assert twin.mode is Mode.STOPPED
    assert twin.state.last_processed_id == 1
    assert broker.queue("in.sec").ids() == [2]


def test_a_frozen_replay_takes_nothing_until_finish_replay():
    # the freeze waits for id 1; from then on neither that completion nor a
    # later publish's wake takes id 2 or 3 off the replay queue
    clock, broker, inst = _rig(processing_ms=1.0)
    broker.create_queue("in.sec")
    broker.start_mirror("in", "in.sec", 1)
    broker.publish("in", b"add n 1")
    broker.publish("in", b"add n 1")
    inst.enter_replay("in.sec")
    frozen = []
    inst.freeze_replay(lambda: frozen.append(clock.now))
    assert inst.busy                       # id 1 mid-processing
    clock.schedule_at(5.0, lambda: broker.publish("in", b"add n 1"))
    clock.run_until()
    assert frozen == [1.0]
    assert (inst.state.last_processed_id, inst.replayed_count) == (1, 1)
    assert broker.queue("in.sec").ids() == [2, 3]
    assert inst.mode is Mode.REPLAYING

    switched = []
    inst.finish_replay(3, "in", lambda: switched.append(clock.now))
    clock.run_until()
    assert switched == [7.0]               # ids 2 and 3 replayed from t=5
    assert (inst.state.last_processed_id, inst.replayed_count) == (3, 3)
    assert inst.mode is Mode.SERVING


def test_finish_replay_replaces_a_freeze_still_waiting_on_its_message():
    # the switch takes the freeze's place: on_frozen never fires, and the
    # replay goes on past id 1 to the watermark instead of stalling there
    clock, broker, inst = _rig(processing_ms=1.0)
    broker.create_queue("in.sec")
    broker.start_mirror("in", "in.sec", 1)
    for _ in range(3):
        broker.publish("in", b"add n 1")
    inst.enter_replay("in.sec")
    frozen, switched = [], []
    inst.freeze_replay(lambda: frozen.append(clock.now))
    inst.finish_replay(3, "in", lambda: switched.append(
        inst.state.last_processed_id))
    clock.run_until()
    assert frozen == []
    assert switched == [3]
    assert inst.replayed_count == 3
    assert inst.mode is Mode.SERVING


def test_finish_replay_refuses_watermark_below_applied():
    clock, broker, inst = _rig(processing_ms=0.0)
    broker.publish("in", b"add n 1")
    broker.publish("in", b"add n 1")
    inst.start_serving("in")
    clock.run_until()
    inst.pause()
    cp = inst.create_checkpoint()
    twin = ServiceInstance.restore(cp, clock, broker, 0.0, "out", "i2")
    broker.create_queue("in.sec")
    twin.enter_replay("in.sec")
    with pytest.raises(ProtocolError):
        twin.finish_replay(1, "in", lambda: None)


def test_finish_replay_switches_to_main_at_watermark():
    clock, broker, inst = _rig(processing_ms=1.0)
    inst.start_serving("in")
    inst.pause()
    cp = inst.create_checkpoint()
    broker.create_queue("in.sec")
    broker.start_mirror("in", "in.sec", 1)
    broker.publish("in", b"add n 1")       # id 1: replayed (<= watermark)
    broker.publish("in", b"add n 1")       # id 2: served from main afterwards

    twin = ServiceInstance.restore(cp, clock, broker, 1.0, "out", "i2")
    twin.enter_replay("in.sec")
    switched = []
    twin.finish_replay(1, "in", lambda: switched.append(clock.now))
    clock.run_until()
    assert switched == [1.0]
    assert twin.mode is Mode.SERVING
    assert twin.state.last_processed_id == 2
    assert twin.replayed_count == 1
    # main still buffered id 1 (the source never consumed it); the twin must
    # discard it as stale, then serve id 2 with outputs on
    assert twin.rejected_count == 1
    outs = [m.payload for m in broker.queue("out").messages()]
    assert outs == [b"ok 2 n=2"]


def test_finish_replay_switches_when_the_watermark_empties_the_queue():
    # the ack of the watermark message reports an empty replay queue; the
    # switch still happens at that completion, not at some later publish
    clock, broker, inst = _rig(processing_ms=1.0)
    broker.create_queue("in.sec")
    broker.start_mirror("in", "in.sec", 1)
    broker.publish("in", b"add n 1")
    broker.publish("in", b"add n 1")
    inst.enter_replay("in.sec")
    switched = []
    inst.finish_replay(2, "in", lambda: switched.append(clock.now))
    clock.run_until()
    assert switched == [2.0]
    assert inst.mode is Mode.SERVING
    assert (inst.replayed_count, inst.rejected_count) == (2, 2)


def test_finish_replay_refuses_a_queue_that_starves_below_the_watermark():
    # every id up to the watermark is mirrored before it is announced, so a
    # replay queue that runs dry below it is a protocol bug, not a wait
    clock, broker, inst = _rig(processing_ms=1.0)
    broker.create_queue("in.sec")
    broker.start_mirror("in", "in.sec", 1)
    broker.publish("in", b"add n 1")
    broker.publish("in", b"add n 1")
    inst.enter_replay("in.sec")
    inst.finish_replay(5, "in", lambda: None)
    with pytest.raises(ProtocolError,
                       match=r"^i1: replay starved below watermark 5$"):
        clock.run_until()
    assert inst.state.last_processed_id == 2
    assert inst.mode is Mode.REPLAYING


def test_finish_replay_refuses_a_queue_that_skips_past_the_watermark():
    # applied up to id 2, and the queue's next id is 5: ids 3 and 4 can never
    # be applied, so switching at the watermark 4 would serve without them
    clock, broker, inst = _rig(processing_ms=1.0)
    broker.publish("in", b"add n 1")
    broker.publish("in", b"add n 1")
    inst.start_serving("in")
    clock.run_until()
    inst.pause()
    twin = ServiceInstance.restore(inst.create_checkpoint(), clock, broker,
                                   1.0, "out", "i2")
    broker.create_queue("in.sec")
    twin.enter_replay("in.sec")
    twin.freeze_replay(lambda: None)
    broker.create_queue("feed")
    for _ in range(5):
        broker.publish("feed", b"add n 1")
    broker.start_mirror("feed", "in.sec", 5)
    assert broker.queue("in.sec").ids() == [5]
    with pytest.raises(ProtocolError,
                       match=r"^i2: replay starved below watermark 4$"):
        twin.finish_replay(4, "in", lambda: None)
    assert twin.state.last_processed_id == 2
    assert twin.mode is Mode.REPLAYING


def test_request_stop_finishes_in_flight_first():
    def run(crash_at=None):
        clock, broker, inst = _rig(processing_ms=4.0)
        broker.publish("in", b"add n 1")
        inst.start_serving("in")
        stopped = []
        clock.schedule_at(
            1.0, lambda: inst.request_stop(
                lambda: stopped.append(
                    (clock.now, inst.state.last_processed_id))))
        if crash_at is not None:
            clock.schedule_at(crash_at, inst.crash)
        clock.run_until()
        assert inst.mode is Mode.STOPPED
        return broker, inst, stopped

    broker, inst, stopped = run()
    assert stopped == [(4.0, 1)]
    assert inst.applied_count == 1

    # a crash while the stop waits drops id 1 unapplied, and the stop too
    broker, inst, stopped = run(crash_at=2.0)
    assert stopped == []
    assert inst.applied_count == 0
    assert broker.queue("in").ids() == [1]


def test_pause_drops_a_waiting_stop():
    # a pause releases the in-flight message and the stop waiting for it, so
    # serving again does not stop at the next completion
    clock, broker, inst = _rig(processing_ms=4.0)
    broker.publish("in", b"add n 1")
    broker.publish("in", b"add n 1")
    inst.start_serving("in")
    stopped = []
    inst.request_stop(lambda: stopped.append(clock.now))
    assert inst.busy
    inst.pause()
    inst.start_serving("in")
    clock.run_until()
    assert stopped == []
    assert inst.mode is Mode.SERVING
    assert inst.applied_count == 2


def test_detached_instance_is_freed_without_the_cycle_collector():
    # a run that fails while a stop waits on the in-flight message leaves
    # that step behind; detach_hooks drops it with the hooks, so once the
    # clock and the broker let go too, reference counting frees the instance
    gc.collect()
    gc.disable()
    try:
        clock, broker, inst = _rig(processing_ms=4.0)
        broker.publish("in", b"add n 1")
        inst.start_serving("in")
        inst.request_stop(lambda: None)
        assert inst.busy and inst.mode is Mode.SERVING
        ref = weakref.ref(inst)
        clock.clear()
        broker.detach_wakes()
        inst.detach_hooks()
        del clock, broker, inst
        assert ref() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_request_stop_immediate_when_idle():
    clock, broker, inst = _rig()
    inst.start_serving("in")
    stopped = []
    inst.request_stop(lambda: stopped.append(clock.now))
    assert stopped == [0.0]
    assert inst.mode is Mode.STOPPED


def test_crash_releases_in_flight_unapplied():
    clock, broker, inst = _rig(processing_ms=5.0)
    broker.publish("in", b"add n 1")
    inst.start_serving("in")
    clock.schedule_at(2.0, inst.crash)
    clock.run_until()
    assert inst.crashed
    assert inst.mode is Mode.STOPPED
    assert inst.state.data == {}
    assert broker.queue("in").ids() == [1]   # redeliverable
    assert len(broker.queue("out").messages()) == 0
    with pytest.raises(ModeError):
        inst.start_serving("in")


def test_idle_hook_edge_triggered():
    clock, broker, inst = _rig(processing_ms=1.0)
    idles = []
    inst.on_idle = lambda: idles.append(clock.now)
    inst.start_serving("in")
    clock.run_until()
    assert idles == [0.0]
    broker.publish("in", b"add n 1")
    clock.run_until()
    assert idles == [0.0, 1.0]               # re-fires after each drain
    broker.publish("in", b"add n 1")
    broker.publish("in", b"add n 1")
    clock.run_until()
    # the ack after the first message leaves one buffered: no idle between
    assert idles == [0.0, 1.0, 3.0]
    assert inst.state.data == {"n": 3}


@pytest.mark.parametrize("late_publish, expected", [
    (False, [1.0]),       # the subscribe wake at 5.0 finds nothing: silent
    (True, [1.0, 6.0]),   # a publish at 3.0 rides that wake, served at 5.0
])
def test_idle_hook_silent_on_a_wake_that_finds_nothing(late_publish, expected):
    clock = SimClock()
    broker = Broker(clock, 5.0)
    broker.create_queue("in")
    broker.create_queue("out")
    inst = ServiceInstance("i1", ServiceState(), clock, broker, 1.0, "out")
    idles = []
    inst.on_idle = lambda: idles.append(clock.now)
    broker.publish("in", b"add n 1")
    # subscribing schedules a wake at 5.0, but the instance polls message 1
    # at once and drains it at 1.0
    inst.start_serving("in")
    if late_publish:
        clock.schedule_at(3.0, lambda: broker.publish("in", b"add n 1"))
    clock.run_until()
    assert idles == expected
    assert inst.state.data == {"n": 2 if late_publish else 1}


# Calls into migsim per served message on an idle consumer (100/s, 1 ms
# processing) and on a busy one (150/s, 10 ms). The count is deterministic,
# so it guards the serve path's cost without timing anything. Raise a budget
# only together with a benchmark record that shows why.
SERVE_CALL_BUDGET = {"idle": 11, "busy": 8}


def _calls_into_migsim(rate: float, processing_ms: float,
                       seconds: float) -> tuple[int, int]:
    params = SimParams(Host("a"), Host("b"), Link("a", "b"),
                       workload=WorkloadSpec("ConstantRate", rate,
                                             seconds * 1000.0),
                       processing_ms=processing_ms)
    sim = Simulation(params)
    package = os.path.dirname(migsim.__file__) + os.sep
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = sim.run()
    finally:
        sys.setprofile(previous)
    return calls, result.published_main


@pytest.mark.parametrize("consumer, rate, processing_ms",
                         [("idle", 100.0, 1.0), ("busy", 150.0, 10.0)])
def test_serve_path_stays_within_its_call_budget(consumer, rate,
                                                 processing_ms):
    # two stream lengths, so the run's set-up and teardown cancel out
    short_calls, short_msgs = _calls_into_migsim(rate, processing_ms, 2.0)
    long_calls, long_msgs = _calls_into_migsim(rate, processing_ms, 4.0)
    assert long_msgs > short_msgs
    per_message = (long_calls - short_calls) / (long_msgs - short_msgs)
    assert per_message <= SERVE_CALL_BUDGET[consumer]
