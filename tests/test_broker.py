import gc

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from migsim.broker import (BadAck, Broker, BrokerError, DuplicateQueue,
                           ExclusiveConsumer, MirrorActive, NotSubscribed,
                           UnknownQueue)
from migsim.simnet import SimClock


@pytest.fixture
def broker():
    return Broker(SimClock())


def test_create_and_duplicate_queue(broker):
    broker.create_queue("q")
    with pytest.raises(DuplicateQueue):
        broker.create_queue("q")


def test_unknown_queue_refused(broker):
    with pytest.raises(UnknownQueue):
        broker.publish("missing", b"x")


def test_ids_assigned_from_one_in_fifo_order(broker):
    broker.create_queue("q")
    assert [broker.publish("q", bytes([i])) for i in range(4)] == [1, 2, 3, 4]
    assert broker.queue("q").ids() == [1, 2, 3, 4]
    assert broker.queue("q").head().id == 1


def test_exclusive_consumer(broker):
    broker.create_queue("q")
    broker.subscribe("q", "alice")
    with pytest.raises(ExclusiveConsumer):
        broker.subscribe("q", "bob")


def test_delete_queue_with_subscriber_refused(broker):
    broker.create_queue("q")
    broker.subscribe("q", "alice")
    with pytest.raises(BrokerError):
        broker.delete_queue("q")
    broker.unsubscribe("q", "alice")
    broker.delete_queue("q")
    assert not broker.has_queue("q")


def test_poll_requires_subscription(broker):
    broker.create_queue("q")
    broker.publish("q", b"m")
    with pytest.raises(NotSubscribed):
        broker.poll("q", "nobody")


def test_poll_ack_cycle(broker):
    broker.create_queue("q")
    broker.subscribe("q", "c")
    broker.publish("q", b"one")
    broker.publish("q", b"two")
    msg = broker.poll("q", "c")
    assert msg.id == 1 and msg.payload == b"one"
    # single outstanding delivery: next poll waits for the ack
    assert broker.poll("q", "c") is None
    assert broker.peek("q", "c") is None
    # ack reports what is left, so the consumer knows whether to poll
    assert broker.ack("q", "c", 1) == 1
    assert broker.queue("q").ids() == [2]
    # the acked message's payload left with its id
    assert broker.poll("q", "c") == (2, b"two")
    assert broker.ack("q", "c", 2) == 0


def test_ack_wrong_id_rejected(broker):
    broker.create_queue("q")
    broker.subscribe("q", "c")
    broker.publish("q", b"m")
    broker.poll("q", "c")
    with pytest.raises(BadAck):
        broker.ack("q", "c", 99)


def test_ack_without_poll_rejected(broker):
    broker.create_queue("q")
    broker.subscribe("q", "c")
    broker.publish("q", b"m")
    with pytest.raises(BadAck):
        broker.ack("q", "c", 1)


def test_unacked_message_redelivered_after_unsubscribe(broker):
    broker.create_queue("q")
    broker.subscribe("q", "c1")
    broker.publish("q", b"m")
    assert broker.poll("q", "c1").id == 1
    broker.unsubscribe("q", "c1")
    broker.subscribe("q", "c2")
    redelivered = broker.poll("q", "c2")
    assert redelivered.id == 1 and redelivered.payload == b"m"


def test_wake_fires_after_delivery_latency():
    clock = SimClock()
    broker = Broker(clock, delivery_latency_ms=2.5)
    broker.create_queue("q")
    wakes = []
    broker.subscribe("q", "c", on_wake=lambda: wakes.append(clock.now))
    clock.schedule(10.0, lambda: broker.publish("q", b"m"))
    clock.run_until()
    assert wakes == [12.5]


@pytest.mark.parametrize("latency, text", [
    (float("nan"), "must be finite, got nan"),
    (float("inf"), "must be finite, got inf"),
    (-1, "must be >= 0.0, got -1"),
])
def test_bad_delivery_latency_refused_when_built(latency, text):
    # refused here, not at the first wake the broker schedules
    with pytest.raises(ValueError) as err:
        Broker(SimClock(), latency)
    assert str(err.value) == f"Broker.delivery_latency_ms: {text}"


def test_wake_not_duplicated_for_burst_publishes():
    clock = SimClock()
    broker = Broker(clock)
    broker.create_queue("q")
    wakes = []
    broker.subscribe("q", "c", on_wake=lambda: wakes.append(clock.now))

    def burst():
        broker.publish("q", b"a")
        broker.publish("q", b"b")
        broker.publish("q", b"c")

    clock.schedule(1.0, burst)
    clock.run_until()
    assert wakes == [1.0]


def test_subscribe_to_nonempty_queue_wakes(broker):
    clock = broker.clock
    broker.create_queue("q")
    broker.publish("q", b"m")
    wakes = []
    broker.subscribe("q", "c", on_wake=lambda: wakes.append(clock.now))
    clock.run_until()
    assert wakes == [0.0]


def test_ack_with_messages_queued_schedules_no_wake(broker):
    clock = broker.clock
    broker.create_queue("q")
    wakes = []
    broker.subscribe("q", "c", on_wake=lambda: wakes.append(clock.now))
    broker.publish("q", b"one")
    broker.publish("q", b"two")
    clock.run_until()
    assert wakes == [0.0]
    msg = broker.poll("q", "c")
    before = clock.pending()
    broker.ack("q", "c", msg.id)
    # the acking consumer polls again itself; a wake would reach it busy
    assert clock.pending() == before == 0
    clock.run_until()
    assert wakes == [0.0]
    assert broker.poll("q", "c").id == 2


def test_unsubscribing_cancels_the_wake_it_was_owed():
    clock = SimClock()
    broker = Broker(clock, delivery_latency_ms=5.0)
    broker.create_queue("q")
    wakes = []
    broker.subscribe("q", "old",
                     on_wake=lambda: wakes.append(("old", clock.now)))
    clock.schedule_at(0.0, lambda: broker.publish("q", b"m"))
    clock.schedule_at(1.0, lambda: broker.unsubscribe("q", "old"))
    clock.schedule_at(2.0, lambda: broker.subscribe(
        "q", "new", on_wake=lambda: wakes.append(("new", clock.now))))
    clock.run_until()
    # the wake due at 5 was old's; new waits out its own latency
    assert wakes == [("new", 7.0)]


def test_publish_while_in_flight_schedules_no_wake(broker):
    clock = broker.clock
    broker.create_queue("q")
    wakes = []
    broker.subscribe("q", "c", on_wake=lambda: wakes.append(clock.now))
    broker.publish("q", b"one")
    clock.run_until()
    msg = broker.poll("q", "c")
    broker.publish("q", b"two")
    # a busy consumer learns of it from ack's count, not from a wake
    assert clock.pending() == 0
    assert broker.ack("q", "c", msg.id) == 1
    assert wakes == [0.0]


def test_message_fields_cannot_be_assigned(broker):
    broker.create_queue("q")
    broker.subscribe("q", "c")
    broker.publish("q", b"m")
    msg = broker.poll("q", "c")
    for name, value in (("id", 7), ("payload", b"x")):
        with pytest.raises(AttributeError):
            setattr(msg, name, value)
    # a message is its id and payload, nothing else
    assert msg._fields == ("id", "payload")
    assert (msg.id, msg.payload) == (1, b"m")


# -- mirroring ----------------------------------------------------------------


def test_mirror_backfills_buffered_messages(broker):
    broker.create_queue("main")
    broker.create_queue("sec")
    broker.subscribe("main", "svc")
    for i in range(5):
        broker.publish("main", b"m%d" % (i + 1))
    for mid in (1, 2):
        assert broker.poll("main", "svc").id == mid
        broker.ack("main", "svc", mid)
    broker.start_mirror("main", "sec", 3)
    assert broker.queue("sec").ids() == [3, 4, 5]
    broker.publish("main", b"m6")
    assert broker.queue("sec").ids() == [3, 4, 5, 6]


def test_publish_after_a_mirror_backfill_takes_the_next_id(broker):
    # the target's ids must keep growing after the mirrored ones
    broker.create_queue("main")
    broker.create_queue("sec")
    for i in range(5):
        broker.publish("main", b"m%d" % (i + 1))
    broker.start_mirror("main", "sec", 3)
    assert broker.queue("sec").ids() == [3, 4, 5]
    assert broker.publish("sec", b"direct") == 6
    assert broker.queue("sec").ids() == [3, 4, 5, 6]


def test_mirrored_copy_keeps_source_id_and_payload(broker):
    broker.create_queue("main")
    broker.create_queue("sec")
    broker.start_mirror("main", "sec", 1)
    broker.publish("main", b"payload")
    copies = broker.queue("sec").messages()
    assert len(copies) == 1
    assert copies[0].id == 1
    assert copies[0].payload == b"payload"


def test_mirrored_payload_is_the_source_payload(broker):
    """A mirror shares the source's payload objects, backfilled or live,
    rather than copying each."""
    broker.create_queue("main")
    broker.create_queue("sec")
    backfilled, live = b"backfilled", b"live"
    broker.publish("main", b"old")
    broker.publish("main", backfilled)
    broker.start_mirror("main", "sec", 2)
    broker.publish("main", live)
    sec = broker.queue("sec").messages()
    assert [m.id for m in sec] == [2, 3]
    assert sec[0].payload is backfilled
    assert sec[1].payload is live


def test_buffered_messages_add_no_tracked_objects(broker):
    """A queue buffers a message as an int and a bytes object, neither of
    which the cycle collector tracks, so publishing, mirrored or not,
    leaves it nothing new to scan."""
    broker.create_queue("out")
    broker.create_queue("main")
    broker.create_queue("sec")
    broker.start_mirror("main", "sec", 1)
    payloads = [b"m%d" % i for i in range(1000)]
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for payload in payloads:
            broker.publish("out", payload)
            broker.publish("main", payload)
        after = len(gc.get_objects())
    finally:
        gc.enable()
    assert len(broker.queue("out")) == len(broker.queue("sec")) == 1000
    assert after - before == 0


def test_mirror_ignores_ids_below_start(broker):
    broker.create_queue("main")
    broker.create_queue("sec")
    broker.publish("main", b"old")
    broker.start_mirror("main", "sec", 2)
    assert broker.queue("sec").ids() == []
    broker.publish("main", b"new")
    assert broker.queue("sec").ids() == [2]


def test_second_mirror_refused(broker):
    broker.create_queue("main")
    broker.create_queue("a")
    broker.create_queue("b")
    broker.start_mirror("main", "a", 1)
    with pytest.raises(MirrorActive):
        broker.start_mirror("main", "b", 1)


def test_self_mirror_and_bad_start_refused(broker):
    broker.create_queue("main")
    broker.create_queue("sec")
    with pytest.raises(BrokerError):
        broker.start_mirror("main", "main", 1)
    with pytest.raises(BrokerError):
        broker.start_mirror("main", "sec", 0)


def test_stop_mirror_halts_propagation(broker):
    broker.create_queue("main")
    broker.create_queue("sec")
    broker.start_mirror("main", "sec", 1)
    broker.publish("main", b"a")
    broker.stop_mirror("main")
    broker.publish("main", b"b")
    assert broker.queue("sec").ids() == [1]
    with pytest.raises(BrokerError):
        broker.stop_mirror("main")


def test_refused_mirror_restart_leaves_no_mirror_behind(broker):
    broker.create_queue("main")
    broker.create_queue("sec")
    broker.publish("main", b"a")
    broker.publish("main", b"b")
    broker.start_mirror("main", "sec", 1)
    broker.stop_mirror("main")
    # the backfill of ids 1 and 2 would land at or below sec's tail
    with pytest.raises(BrokerError, match="would break id order on 'sec'"):
        broker.start_mirror("main", "sec", 1)
    assert broker.queue("main").mirror is None
    assert broker.queue("sec").ids() == [1, 2]
    broker.publish("main", b"c")
    assert broker.queue("sec").ids() == [1, 2]


def test_consuming_main_does_not_touch_mirror(broker):
    broker.create_queue("main")
    broker.create_queue("sec")
    broker.subscribe("main", "svc")
    broker.start_mirror("main", "sec", 1)
    broker.publish("main", b"a")
    broker.poll("main", "svc")
    broker.ack("main", "svc", 1)
    assert broker.queue("main").ids() == []
    assert broker.queue("sec").ids() == [1]


@given(
    pre_ops=st.lists(st.sampled_from(["pub", "consume"]), max_size=30),
    post_pubs=st.integers(min_value=0, max_value=15),
    start_back=st.integers(min_value=0, max_value=10),
)
def test_mirror_holds_exactly_the_tail_subsequence(pre_ops, post_pubs, start_back):
    """Independent bookkeeping oracle: after an arbitrary interleaving of
    publishes and consumes around mirror creation, the mirror holds exactly
    the ids >= start_id that were buffered at creation or published later."""
    broker = Broker(SimClock())
    broker.create_queue("main")
    broker.create_queue("sec")
    broker.subscribe("main", "svc")

    published = 0
    acked: set[int] = set()
    for op in pre_ops:
        if op == "pub":
            published += 1
            broker.publish("main", b"p%d" % published)
        else:
            msg = broker.poll("main", "svc")
            if msg is not None:
                broker.ack("main", "svc", msg.id)
                acked.add(msg.id)

    start_id = max(1, published - start_back)
    buffered = [i for i in range(1, published + 1) if i not in acked]
    expected = [i for i in buffered if i >= start_id]

    broker.start_mirror("main", "sec", start_id)
    assert broker.queue("sec").ids() == expected

    for _ in range(post_pubs):
        published += 1
        broker.publish("main", b"p%d" % published)
        if published >= start_id:
            expected.append(published)
    assert broker.queue("sec").ids() == expected


# -- state machine ------------------------------------------------------------

QUEUES = ("main", "sec")


class BrokerMachine(RuleBasedStateMachine):
    """Publish, poll, ack, unsubscribe/resubscribe and start/stop mirror
    against a model that keeps each queue as a list of ids. Publishes go to
    main; sec only ever receives mirrored messages, which share main's
    payload objects. Message n's payload is b"m<n>"."""

    def __init__(self):
        super().__init__()
        self.broker = Broker(SimClock())
        self.model = {q: [] for q in QUEUES}
        self.consumer = {q: None for q in QUEUES}
        self.inflight = {q: None for q in QUEUES}
        self.mirror_start = None
        self.published = 0
        self.sent = {}  # id -> the payload object published with it
        self.subscriptions = 0
        for q in QUEUES:
            self.broker.create_queue(q)

    def _subscribed(self, q):
        return self.consumer[q] is not None

    @rule()
    def publish(self):
        self.published += 1
        payload = b"m%d" % self.published
        assert self.broker.publish("main", payload) == self.published
        self.sent[self.published] = payload
        self.model["main"].append(self.published)
        if self.mirror_start is not None \
                and self.published >= self.mirror_start:
            self.model["sec"].append(self.published)

    @rule(q=st.sampled_from(QUEUES))
    def subscribe(self, q):
        if self._subscribed(q):
            with pytest.raises(ExclusiveConsumer):
                self.broker.subscribe(q, "stranger")
            return
        # a fresh consumer each time: delivery resumes at the oldest unacked
        self.subscriptions += 1
        self.consumer[q] = "c%d" % self.subscriptions
        self.broker.subscribe(q, self.consumer[q])

    @rule(q=st.sampled_from(QUEUES))
    def unsubscribe(self, q):
        if not self._subscribed(q):
            return
        self.broker.unsubscribe(q, self.consumer[q])
        self.consumer[q] = None
        self.inflight[q] = None  # redeliverable to the next consumer

    @rule(q=st.sampled_from(QUEUES))
    def poll(self, q):
        if not self._subscribed(q):
            with pytest.raises(NotSubscribed):
                self.broker.poll(q, "stranger")
            return
        msg = self.broker.poll(q, self.consumer[q])
        if self.inflight[q] is not None or not self.model[q]:
            assert msg is None
            return
        # the polled message is the head, and its payload is the object
        # that was published, on sec too
        assert msg.id == self.model[q][0]
        assert msg.payload == b"m%d" % msg.id
        assert msg.payload is self.sent[msg.id]
        self.inflight[q] = msg.id

    @rule(q=st.sampled_from(QUEUES))
    def ack(self, q):
        if not self._subscribed(q) or self.inflight[q] is None:
            return
        left = self.broker.ack(q, self.consumer[q], self.inflight[q])
        assert self.model[q].pop(0) == self.inflight[q]
        # on sec, the mirrored copies still buffered count too
        assert left == len(self.model[q])
        self.inflight[q] = None

    @rule(q=st.sampled_from(QUEUES),
          wrong=st.one_of(st.none(), st.integers(min_value=-1, max_value=40)))
    def bad_ack(self, q, wrong):
        if not self._subscribed(q):
            return
        if wrong is not None and wrong == self.inflight[q]:
            return
        # the invariant then finds the buffer and the delivery unchanged
        with pytest.raises(BadAck):
            self.broker.ack(q, self.consumer[q], wrong)

    @precondition(lambda self: self.mirror_start is None)
    @rule(start=st.integers(min_value=1, max_value=40))
    def start_mirror(self, start):
        self._start_mirror(start)

    def _start_mirror(self, start):
        # sec's ids only grow, so a restarted mirror begins past its tail
        if self.model["sec"]:
            start = max(start, self.model["sec"][-1] + 1)
        self.broker.start_mirror("main", "sec", start)
        self.mirror_start = start
        self.model["sec"] += [i for i in self.model["main"] if i >= start]

    @precondition(lambda self: self.mirror_start is None)
    @rule(start=st.integers(min_value=1, max_value=40))
    def refused_mirror_restart(self, start):
        # a restart is refused while main buffers an id at or below sec's
        # tail, which would be copied first. Runs rarely drift into that
        # state, so the rule makes it: publish if main is empty, then mirror
        # from main's head and stop again if sec does not already reach it.
        main, sec = self.model["main"], self.model["sec"]
        if not main:
            self.publish()
        if not sec or main[0] > sec[-1]:
            self._start_mirror(main[0])
            self.stop_mirror()
        start = min(start, max(i for i in main if i <= sec[-1]))
        # the invariant then finds both buffers unchanged
        with pytest.raises(BrokerError):
            self.broker.start_mirror("main", "sec", start)
        assert self.broker.queue("main").mirror is None

    @precondition(lambda self: self.mirror_start is not None)
    @rule()
    def stop_mirror(self):
        self.broker.stop_mirror("main")
        self.mirror_start = None

    @invariant()
    def buffers_match_the_model(self):
        for q in QUEUES:
            queue = self.broker.queue(q)
            ids = queue.ids()
            assert ids == self.model[q]
            assert all(a < b for a, b in zip(ids, ids[1:]))
            # every view of the buffer agrees, and each id still has the
            # payload object published with it
            messages = queue.messages()
            assert len(queue) == len(ids)
            assert [m.id for m in messages] == ids
            assert all(m.payload is self.sent[m.id] for m in messages)
            head = queue.head()
            assert head == (messages[0] if messages else None)
            assert queue.inflight == self.inflight[q]


TestBrokerMachine = BrokerMachine.TestCase
TestBrokerMachine.settings = settings(max_examples=60, stateful_step_count=40,
                                      deadline=None)
