"""Unit tests for the discrete-event kernel.

The repo's "same seed ⇒ same bytes" claims rest on the dispatch order
being the :class:`EventQueue` contract's ``(time, caused_at, seq)``
order; the randomized tests check a run against that contract itself
(``queue_contract.QueueLog``).
"""

import random

import pytest

from repro.core.engine import Event, EventQueue, SimError, Simulator

from queue_contract import QueueLog


@pytest.fixture
def sim():
    return Simulator()


def test_events_fire_in_time_order(sim):
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 30


def test_same_time_events_fire_fifo(sim):
    order = []
    for tag in range(5):
        sim.schedule(100, order.append, tag)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_run_until_advances_clock_even_when_idle(sim):
    sim.run(until=5_000)
    assert sim.now == 5_000


def test_run_until_does_not_fire_later_events(sim):
    fired = []
    sim.schedule(100, fired.append, 1)
    sim.schedule(900, fired.append, 2)
    sim.run(until=500)
    assert fired == [1]
    assert sim.now == 500
    sim.run()
    assert fired == [1, 2]


def test_schedule_after_idle_run_until_stays_ordered(sim):
    # run(until=) advances the clock without dispatching; scheduling
    # afterwards (earlier than already-pending events) must still
    # dispatch in time order.
    fired = []
    sim.schedule(500_000, fired.append, "far")
    sim.run(until=10)
    sim.schedule(5, fired.append, "near")
    sim.run()
    assert fired == ["near", "far"]


def test_cancelled_event_does_not_fire(sim):
    fired = []
    event = sim.schedule(10, fired.append, "no")
    sim.schedule(5, event.cancel)
    sim.run()
    assert fired == []
    assert sim.events_cancelled == 1


def test_cancel_then_reschedule(sim):
    # The cancel-then-reschedule pattern every timer in the repo uses
    # (RTO re-arm, ackNoTimeout): the replacement fires, the old one
    # doesn't, and a second cancel of the old handle is a no-op.
    fired = []
    old = sim.schedule(10, fired.append, "old")
    old.cancel()
    old.cancel()  # idempotent
    sim.schedule(10, fired.append, "new")
    sim.run()
    assert fired == ["new"]
    assert sim.events_cancelled == 1


def test_cancel_after_fire_is_noop(sim):
    fired = []
    event = sim.schedule(10, fired.append, "x")
    sim.run()
    event.cancel()  # documented safe; must not count as a cancellation
    assert fired == ["x"]
    assert sim.events_cancelled == 0
    sim.schedule(10, fired.append, "y")
    sim.run()
    assert fired == ["x", "y"]


def test_events_scheduled_during_run_are_dispatched(sim):
    seen = []

    def chain(depth):
        seen.append(sim.now)
        if depth:
            sim.schedule(7, chain, depth - 1)

    sim.schedule(0, chain, 3)
    sim.run()
    assert seen == [0, 7, 14, 21]


def test_zero_delay_self_reschedule_runs_after_same_time_peers(sim):
    # A zero-delay reschedule lands at the same timestamp but a later
    # seq, so it must run *after* events already pending at that time.
    order = []

    def first():
        order.append("first")
        sim.schedule(0, order.append, "rescheduled")

    sim.schedule(10, first)
    sim.schedule(10, order.append, "peer")
    sim.run()
    assert order == ["first", "peer", "rescheduled"]


def test_scheduling_in_the_past_raises(sim):
    sim.schedule(10, lambda: None)
    sim.run()
    with pytest.raises(SimError):
        sim.schedule_at(5, lambda: None)
    with pytest.raises(SimError):
        sim.schedule(-1, lambda: None)


def test_max_events_guard(sim):
    def forever():
        sim.schedule(1, forever)

    sim.schedule(0, forever)
    sim.run(max_events=50)
    assert sim.events_processed == 50


def test_peek_skips_cancelled(sim):
    event = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    event.cancel()
    assert sim.peek() == 20


@pytest.mark.parametrize("seed", range(4))
def test_randomized_dispatch_honours_the_contract(monkeypatch, seed):
    # A randomized workload of schedules, chained reschedules and
    # cancellations, drained in slices and then to the end: the popped
    # keys ascend, every popped entry was pushed and live, and nothing
    # live and due is left behind.
    log = QueueLog(monkeypatch)
    rng = random.Random(1234 + seed)
    sim = Simulator()
    handles = []
    fired = []

    def fire(tag):
        fired.append(tag)
        if rng.random() < 0.4:
            handles.append(sim.schedule(rng.randrange(0, 3000), fire,
                                        tag + 1000))
        if handles and rng.random() < 0.3:
            handles.pop(rng.randrange(len(handles))).cancel()

    for tag in range(200):
        handles.append(sim.schedule(rng.randrange(0, 20_000), fire, tag))
    for until in (5_000, 12_000):
        sim.run(until=until)
        log.check(until)
    sim.run()
    log.check(float("inf"))
    assert len(fired) == len(log.popped) > 200
    assert sim.events_cancelled > 0 and len(sim.queue) == 0


def test_eager_compaction_keeps_queue_small():
    # Satellite: cancelled events must not linger until the pop path
    # reaches their timestamps once they exceed half the pending set.
    sim = Simulator()
    events = [sim.schedule(1_000_000 + i, lambda: None) for i in range(200)]
    assert len(sim.queue) == 200
    for event in events[:150]:
        event.cancel()
    assert sim.events_cancelled == 150
    # Compaction triggered somewhere past the half-full mark: the queue
    # now holds only live entries (+ at most the pre-trigger remainder).
    assert len(sim.queue) < 200 - 100
    assert sim.queue.cancelled_pending < 101
    snap = sim.obs_snapshot()
    assert snap["events_cancelled"] == 150
    assert snap["events_compacted"] > 0
    fired = sim.run()
    assert fired == 1_000_000 + 199
    assert sim.events_processed == 50


def test_clear_resets_per_run_stats_and_pool():
    # Satellite: a reused simulator reports per-run stats.
    sim = Simulator()
    for i in range(10):
        sim.schedule(i, lambda: None)
    sim.schedule(100, lambda: None).cancel()
    sim.run()
    assert sim.events_processed == 10
    assert sim.heap_high_watermark == 11
    sim.clear()
    assert sim.events_processed == 0
    assert sim.events_cancelled == 0
    assert sim.heap_high_watermark == 0
    assert sim.wall_seconds == 0.0
    assert len(sim.queue) == 0
    assert sim.obs_snapshot()["event_pool_size"] == 0
    sim.schedule(5, lambda: None)
    assert sim.heap_high_watermark == 1
    sim.run()
    assert sim.events_processed == 1


def test_event_pool_recycles_unreferenced_events(sim):
    # Fire-and-forget events (no caller keeps the handle) are recycled;
    # the pool never grows past its cap.
    for i in range(50):
        sim.schedule(i, lambda: None)
    sim.run()
    assert 0 < sim.obs_snapshot()["event_pool_size"] <= Simulator.POOL_CAP


def test_held_handles_are_never_recycled(sim):
    # A caller holding the Event may still call cancel() after it fires
    # ("safe to call more than once") — so a held event must not be
    # recycled into a new scheduled event that the stale cancel() would
    # then kill.
    held = [sim.schedule(10, lambda: None) for _ in range(5)]
    sim.run()
    assert sim.obs_snapshot()["event_pool_size"] == 0
    fired = []
    replacement = sim.schedule(10, fired.append, "ok")
    for event in held:
        event.cancel()   # stale handles: must not touch `replacement`
    assert replacement.cancelled is False
    sim.run()
    assert fired == ["ok"]


def test_jump_to_advances_idle_clock(sim):
    sim.jump_to(1_000)
    assert sim.now == 1_000
    with pytest.raises(SimError):
        sim.jump_to(500)
    sim.schedule(100, lambda: None)
    with pytest.raises(SimError):
        sim.jump_to(5_000)  # would jump past a pending event


# -- the queue contract: pop_due -------------------------------------------------

def _entry(time, seq):
    """A queue entry the way ``Simulator.schedule`` builds one
    (``caused_at`` is 0: every entry here was pushed at t=0)."""
    return (time, 0, seq, Event(None), print, (seq,))


def test_pop_due_never_returns_a_later_event():
    # Randomized schedule, drained in randomly sized time slices: every
    # entry comes out inside the slice that covers it, in
    # (time, caused_at, seq) order, and what is not due stays pending.
    rng = random.Random(99)
    queue = EventQueue()
    entries = [_entry(rng.randrange(0, 50_000), seq) for seq in range(400)]
    for pending, entry in enumerate(entries, start=1):
        assert queue.push(entry) == pending
    popped = []
    until = 0
    while len(queue):
        until += rng.randrange(1, 3_000)
        while True:
            entry = queue.pop_due(until)
            if entry is None:
                break
            assert entry[0] <= until
            popped.append(entry)
        head = queue.peek_time()
        assert head is None or head > until
    assert popped == sorted(entries, key=lambda e: (e[0], e[1], e[2]))


def test_pop_due_discards_cancelled_heads():
    # Cancelled heads go whatever their time — also those past `until`,
    # which is what the peek()+pop() pair it replaces did — and each
    # discard is taken off cancelled_pending.
    queue = EventQueue()
    entries = [_entry(10 * (seq + 1), seq) for seq in range(6)]
    for entry in entries:
        queue.push(entry)
    for index in (0, 1, 3):
        entries[index][3].cancelled = True
        queue.cancelled_pending += 1
    assert queue.pop_due(5) is None          # heads at 10, 20 discarded
    assert (len(queue), queue.cancelled_pending) == (4, 1)
    assert queue.pop_due(30) is entries[2]
    assert queue.pop_due(45) is None         # head at 40 discarded, 50 waits
    assert (len(queue), queue.cancelled_pending) == (2, 0)
    assert queue.pop_due(1_000) is entries[4]
    assert queue.pop_due(1_000) is entries[5]
    assert queue.pop_due(1_000) is None
    assert len(queue) == 0


def test_pop_due_same_time_fifo_and_push_while_draining():
    # Same-time entries leave in seq order; an entry pushed at the time
    # being drained (a zero-delay reschedule) leaves after its peers.
    queue = EventQueue()
    for seq in range(4):
        queue.push(_entry(100, seq))
    assert queue.pop_due(100)[2] == 0
    queue.push(_entry(100, 4))
    queue.push(_entry(100, 5))
    assert [queue.pop_due(100)[2] for _ in range(5)] == [1, 2, 3, 4, 5]
    assert queue.pop_due(100) is None


def test_push_earlier_than_a_head_pop_due_left_pending():
    # pop_due(until) that finds nothing due leaves its head pending;
    # entries pushed before that head (and at it, and between) must
    # still come out in order.
    queue = EventQueue()
    far = [_entry(10_000 + i, i) for i in range(3)]
    for entry in far:
        queue.push(entry)
    assert queue.pop_due(50) is None
    near = [_entry(70, 3), _entry(10_001, 4), _entry(5_000, 5)]
    for entry in near:
        queue.push(entry)
    order = []
    while (entry := queue.pop_due(20_000)) is not None:
        order.append(entry[2])
    assert order == [3, 5, 0, 1, 4, 2]


def test_ordering_never_compares_events(sim):
    # seq is unique, so tuple comparison is decided before it reaches
    # the Event — which defines no ordering at all — or the callback.
    with pytest.raises(TypeError):
        Event(None) < Event(None)
    fired = []
    for tag in range(50):
        sim.schedule(7, fired.append, tag)     # 50-way tie on time
    sim.run()
    assert fired == list(range(50))


# -- ending a run: stop(), stop_when, max_events, until --------------------------

def test_stop_returns_after_the_current_handler(sim):
    fired = []

    def stopper():
        sim.stop()
        fired.append("stopper-finished")   # the handler itself completes

    sim.schedule(10, fired.append, "a")
    sim.schedule(20, stopper)
    sim.schedule(20, fired.append, "same-time peer")
    sim.schedule(30, fired.append, "later")
    assert sim.run(until=1_000) == 20      # not advanced to `until`
    assert fired == ["a", "stopper-finished"]
    assert sim.peek() == 20 and len(sim.queue) == 2
    # A following run resumes at the next (time, seq).
    sim.run()
    assert fired == ["a", "stopper-finished", "same-time peer", "later"]
    assert sim.now == 30


def test_stop_outside_a_run_is_forgotten(sim):
    fired = []
    sim.schedule(5, fired.append, 1)
    sim.stop()
    sim.run()
    assert fired == [1]


def test_stop_when_is_asked_after_every_handler(sim):
    fired = []
    for t in (10, 20, 30, 40):
        sim.schedule(t, fired.append, t)
    sim.run(stop_when=lambda: len(fired) == 2)
    assert fired == [10, 20] and sim.now == 20
    sim.run()
    assert fired == [10, 20, 30, 40]


def test_a_one_event_run_dispatches_one_event(sim):
    assert sim.run(max_events=1) == 0 and sim.events_processed == 0
    fired = []
    sim.schedule(10, fired.append, "a")
    handle = sim.schedule(20, fired.append, "b")
    assert sim.run(max_events=1) == 10
    assert (fired, sim.events_processed) == (["a"], 1)
    handle.cancel()
    assert sim.run(max_events=1) == 10      # only a cancelled entry left
    assert (fired, sim.events_processed) == (["a"], 1)


def test_clock_is_monotone_across_a_capped_run(sim):
    # Satellite: run(until=100, max_events=1) used to return now == 100
    # with t=20 still pending, and the next run() set the clock *back*.
    fired = []
    for t in (10, 20, 30):
        sim.schedule(t, fired.append, t)
    first = sim.run(until=100, max_events=1)
    assert first == 10 and fired == [10]
    second = sim.run()
    assert fired == [10, 20, 30]
    assert first <= second == 30
    # ... while a run that ends because nothing is due still advances.
    sim.schedule(50, fired.append, 80)
    assert sim.run(until=60) == 60
    assert sim.run(until=100) == 100 and fired[-1] == 80


def test_clear_orphans_the_handles_it_drops(sim):
    # Satellite: a handle from before clear() kept `owner`, so a later
    # cancel() counted a cancellation against an empty queue and skewed
    # the eager-compaction test from then on.
    stale = [sim.schedule(1_000 + i, lambda: None) for i in range(10)]
    sim.run(until=5)
    sim.clear()
    for handle in stale:
        handle.cancel()
    assert sim.queue.cancelled_pending == 0
    assert sim.events_cancelled == 0
    assert len(sim.queue) == 0

    def arm_and_cancel(simulator):
        timers = [simulator.schedule(1_000_000 + i, lambda: None)
                  for i in range(100)]
        for timer in timers[:60]:
            timer.cancel()
        snap = simulator.obs_snapshot()
        return (len(simulator.queue), simulator.queue.cancelled_pending,
                snap["events_cancelled"], snap["events_compacted"])

    assert arm_and_cancel(sim) == arm_and_cancel(Simulator())
