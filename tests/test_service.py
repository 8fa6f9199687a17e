import pytest
from hypothesis import given, strategies as st

from migsim.broker import Broker, Message
from migsim.service import (Mode, ModeError, ProtocolError, SerializationError,
                            ServiceInstance, ServiceState, StaleMessage,
                            UnknownCommand, deserialize_state, handle,
                            serialize_state, state_size_bytes)
from migsim.simnet import SimClock


def _msg(mid: int, payload: bytes) -> Message:
    return Message(id=mid, topic="in", payload=payload, publish_time=0.0)


# -- canonical serialization ---------------------------------------------------

keys = st.text(min_size=1, max_size=12)
values = st.one_of(
    st.integers(min_value=-(2 ** 63), max_value=2 ** 63 - 1),
    st.binary(max_size=40),
    st.text(max_size=40),
)


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
    assert state_size_bytes(ServiceState()) == 12


def test_encoding_independent_of_insertion_order():
    a = ServiceState({"x": 1, "y": b"b", "z": "s"}, 3)
    b = ServiceState({"z": "s", "x": 1, "y": b"b"}, 3)
    assert serialize_state(a) == serialize_state(b)


def test_keys_sorted_by_utf8_bytes():
    # "é" encodes above ascii "z", so byte order differs from naive codepoint
    # concerns only if the implementation sorted some other way
    blob = serialize_state(ServiceState({"é": 1, "z": 2}, 0))
    assert blob.index("z".encode()) < blob.index("é".encode("utf-8"))


def test_rejects_bool_and_oversized_int():
    with pytest.raises(SerializationError):
        serialize_state(ServiceState({"k": True}, 0))
    with pytest.raises(SerializationError):
        serialize_state(ServiceState({"k": 2 ** 63}, 0))


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


# -- message handler -----------------------------------------------------------


def test_handle_set_and_add():
    s0 = ServiceState()
    s1, out1 = handle(s0, _msg(1, b"set name alice smith"))
    assert s1.data == {"name": b"alice smith"}
    assert s1.last_processed_id == 1
    assert out1 == [b"ok 1 set name"]
    s2, out2 = handle(s1, _msg(2, b"add hits 3"))
    assert s2.data["hits"] == 3
    assert out2 == [b"ok 2 hits=3"]
    s3, out3 = handle(s2, _msg(3, b"add hits -1 padpadpad"))
    assert s3.data["hits"] == 2
    assert out3 == [b"ok 3 hits=2"]
    # applied in place: the argument itself holds every command's effect
    assert s1 is s0 and s2 is s0 and s3 is s0
    assert s0.data == {"name": b"alice smith", "hits": 2}
    assert s0.last_processed_id == 3


def test_handle_stale_rejected_without_change():
    state, _ = handle(ServiceState(), _msg(5, b"add n 1"))
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
    state, _ = handle(ServiceState(), _msg(1, b"set k v"))
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
            state, out = handle(state, _msg(i, payload))
            outputs.extend(out)
        return serialize_state(state), outputs

    assert run() == run()


# -- instance runtime ----------------------------------------------------------


def _rig(processing_ms=4.0, shadow=False):
    clock = SimClock()
    broker = Broker(clock)
    broker.create_queue("in")
    broker.create_queue("out")
    inst = ServiceInstance("i1", ServiceState(), clock, broker, processing_ms,
                           "out", shadow=shadow)
    return clock, broker, inst


def test_processing_delay_times_output_emission():
    clock, broker, inst = _rig(processing_ms=4.0)
    emitted = []
    broker.subscribe("out", "probe",
                     on_wake=lambda q: emitted.append(clock.now))
    inst.start_serving("in")
    clock.schedule_at(10.0, lambda: broker.publish("in", b"add n 1"))
    clock.run_until()
    # picked up at 10, applied and published at 14
    assert emitted == [14.0]
    assert inst.state.data == {"n": 1}


def test_serial_consumption_one_at_a_time():
    clock, broker, inst = _rig(processing_ms=2.0)
    for i in range(3):
        broker.publish("in", b"add n 1")
    inst.start_serving("in")
    clock.run_until()
    # each output is published when its message completes, 2 ms apart
    assert [(m.payload, m.publish_time)
            for m in broker.queue("out").messages()] == [
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
    assert cp.size_bytes == len(cp.snapshot) == 12
    assert cp.checkpoint_last_id == 0


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
    assert serialize_state(twin.state) == cp.snapshot
    assert twin.state.last_processed_id == 2


def test_replay_suppresses_outputs_and_rejects_stale():
    """Restore onto a mirror backfilled from before the checkpoint: ids at or
    below checkpoint_last_id are rejected side-effect free, newer ids advance
    state, and nothing reaches the output queue."""
    clock, broker, inst = _rig(processing_ms=1.0)
    for _ in range(4):
        broker.publish("in", b"add n 1")
    inst.start_serving("in")
    clock.run_until()                      # source applied ids 1..4
    inst.pause()
    cp = inst.create_checkpoint()
    assert cp.checkpoint_last_id == 4

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
            twin.freeze_replay(lambda _i: frozen_at.append(clock.now))

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
        twin.finish_replay(1, "in", lambda _i: None)


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
    twin.finish_replay(1, "in", lambda _i: switched.append(clock.now))
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


def test_request_stop_finishes_in_flight_first():
    def run(crash_at=None):
        clock, broker, inst = _rig(processing_ms=4.0)
        broker.publish("in", b"add n 1")
        inst.start_serving("in")
        stopped = []
        clock.schedule_at(
            1.0, lambda: inst.request_stop(
                lambda i: stopped.append(
                    (clock.now, i.state.last_processed_id))))
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


def test_request_stop_immediate_when_idle():
    clock, broker, inst = _rig()
    inst.start_serving("in")
    stopped = []
    inst.request_stop(lambda i: stopped.append(clock.now))
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
    inst.on_idle = lambda _i: idles.append(clock.now)
    inst.start_serving("in")
    clock.run_until()
    assert idles == [0.0]
    broker.publish("in", b"add n 1")
    clock.run_until()
    assert idles == [0.0, 1.0]               # re-fires after each drain
