"""The :class:`EventQueue` contract, driven directly against a reference.

Each script pushes, cancels, drains, peeks, looks ahead, compacts and
clears one queue, and checks every answer against a plain list of the
entries it holds: ``pop_due(until)`` hands out exactly the live entry
with the least ``(time, caused_at, seq)`` key when that is due and
nothing otherwise; ``peek_time`` and ``earliest(skip)`` equal a scan of
the live entries and change nothing; ``len(queue) - cancelled_pending``
is the live count (every lazily discarded entry is taken off the
counter); ``compact`` removes exactly the cancelled entries; ``clear``
orphans every handle it drops.

The workload shapes each lean on one clause of the contract, and every
shape runs under several seeds: the queue is a heap, so which entries a
mistake surfaces on depends on the order they went in.
"""

import random

import pytest

from repro.core.engine import Event, EventQueue

_FOREVER = float("inf")


class _Owner:
    """Stands in for the Simulator: a cancel is counted on the queue."""

    def __init__(self, queue):
        self.queue = queue

    def _note_cancel(self):
        self.queue.cancelled_pending += 1


#: look-ahead predicates ``earliest`` is checked under: none skipped,
#: all skipped, and three that reject entries scattered over the heap
SKIPS = {
    "never": lambda entry: False,
    "always": lambda entry: True,
    "odd_seq": lambda entry: entry[2] % 2 == 1,
    "tagged": lambda entry: entry[5][0] % 3 == 0,
    "early_caused": lambda entry: entry[1] < entry[0] // 2,
}


class _Script:
    """One queue and the entries it should hold."""

    def __init__(self, rng):
        self.rng = rng
        self.queue = EventQueue()
        self.owner = _Owner(self.queue)
        #: entries pushed and neither popped nor cleared, cancelled or not
        self.held = []
        self.popped = []
        self.clock = 0
        self._seq = 0

    def live(self):
        return [entry for entry in self.held if not entry[3].cancelled]

    def head(self):
        return min(self.live(), key=lambda entry: entry[:3], default=None)

    # -- operations ---------------------------------------------------------

    def push(self, time, caused_at=None):
        if caused_at is None:
            caused_at = self.clock
        assert caused_at <= time
        entry = (time, caused_at, self._seq, Event(self.owner), print,
                 (self._seq,))
        self._seq += 1
        self.held.append(entry)
        assert self.queue.push(entry) == len(self.queue)
        self.check_counts()
        return entry

    def cancel(self, entry):
        entry[3].cancel()
        self.check_counts()

    def pop_due(self, until):
        expected = self.head()
        got = self.queue.pop_due(until)
        if expected is not None and expected[0] <= until:
            assert got is expected, (got and got[:3], expected[:3])
            self.held.remove(got)
            self.popped.append(got)
            self.clock = max(self.clock, got[0])
        else:
            assert got is None, got[:3]
            self.clock = max(self.clock, until)
        self.check_counts()
        return got

    def drain(self, until):
        while self.pop_due(until) is not None:
            pass

    def compact(self):
        cancelled = len(self.queue) - len(self.live())
        assert self.queue.compact() == cancelled
        assert self.queue.cancelled_pending == 0
        assert len(self.queue) == len(self.live())

    def clear(self):
        dropped = self.live()
        self.queue.clear()
        self.held = []
        assert len(self.queue) == self.queue.cancelled_pending == 0
        assert dropped and all(entry[3].owner is None for entry in dropped)
        # a handle from before the clear cannot touch the accounting
        for entry in dropped[:5]:
            entry[3].cancel()
        assert self.queue.cancelled_pending == 0

    # -- checks -------------------------------------------------------------

    def check_counts(self):
        queue = self.queue
        assert queue.cancelled_pending >= 0
        assert len(queue) - queue.cancelled_pending == len(self.live())

    def check_look_ahead(self):
        queue = self.queue
        held, cancelled = len(queue), queue.cancelled_pending
        live = self.live()
        for name, skip in SKIPS.items():
            scan = min((entry[0] for entry in live if not skip(entry)),
                       default=None)
            assert queue.earliest(skip) == scan, name
        # earliest removes nothing, cancelled entries included
        assert (len(queue), queue.cancelled_pending) == (held, cancelled)
        head = self.head()
        assert queue.peek_time() == (None if head is None else head[0])
        self.check_counts()

    def finish(self):
        """Drain everything: every live entry comes out, each the least
        key left, and the queue ends empty."""
        self.check_look_ahead()
        self.drain(_FOREVER)
        assert not self.live() and len(self.queue) == 0
        assert self.queue.cancelled_pending == 0


def _random_cancel(script, p):
    live = script.live()
    if live and script.rng.random() < p:
        script.cancel(script.rng.choice(live))


# -- the shapes ---------------------------------------------------------------

def _spread(script):
    # wide times, few ties: the plain priority-queue clause
    rng = script.rng
    for step in range(300):
        script.push(script.clock + rng.randrange(0, 50_000))
        _random_cancel(script, 0.15)
        if step % 25 == 24:
            script.drain(script.clock + rng.randrange(0, 20_000))
        if step % 8 == 0:
            script.check_look_ahead()


def _descending(script):
    # every push sorts before everything held: each becomes the new root
    rng = script.rng
    for step in range(250):
        script.push(1_000_000 - 50 * step + rng.randrange(0, 50), 0)
        _random_cancel(script, 0.2)
        if step % 8 == 0:
            script.check_look_ahead()
        if step % 60 == 59:
            for _ in range(10):
                script.pop_due(_FOREVER)


def _one_instant(script):
    # every entry is due at one nanosecond: caused_at, then seq decide
    rng = script.rng
    for step in range(250):
        script.push(10_000, rng.randrange(0, 10_001))
        _random_cancel(script, 0.15)
        if step % 8 == 0:
            script.check_look_ahead()
        if step % 70 == 69:
            for _ in range(rng.randrange(1, 40)):
                script.pop_due(10_000)


def _ties(script):
    # a handful of times and causes: most comparisons are ties on time
    rng = script.rng
    for step in range(300):
        time = script.clock + rng.choice((0, 0, 10, 10, 20, 500))
        script.push(time, script.clock + rng.choice((0, 0, 5))
                    if time >= script.clock + 5 else script.clock)
        _random_cancel(script, 0.15)
        if step % 8 == 0:
            script.check_look_ahead()
        if step % 30 == 29:
            script.drain(script.clock + rng.choice((0, 10, 20)))


def _hops(script):
    # hop keys: caused_at is the arrival, later than now, so an entry
    # pushed later can sort first among those due at one time
    rng = script.rng
    for step in range(300):
        hop = rng.randrange(0, 2_000)
        delay = rng.choice((0, 0, rng.randrange(0, 500)))
        arrival = script.clock + hop
        script.push(arrival + delay, arrival)
        _random_cancel(script, 0.1)
        if step % 8 == 0:
            script.check_look_ahead()
        if step % 20 == 19:
            script.drain(script.clock + rng.randrange(0, 1_500))


def _cancel_heads(script):
    # cancels aimed at the head: pop_due and peek_time discard a run of
    # cancelled heads, also past ``until``
    rng = script.rng
    for step in range(300):
        script.push(script.clock + rng.randrange(0, 5_000))
        if rng.random() < 0.5:
            head = script.head()
            if head is not None:
                script.cancel(head)
        if step % 8 == 0:
            script.check_look_ahead()
        if step % 15 == 14:
            script.pop_due(script.clock + rng.randrange(0, 300))


def _cancel_heavy(script):
    # most entries die pending: lazy discards and the counter that
    # tracks them carry the accounting
    rng = script.rng
    for step in range(300):
        script.push(script.clock + rng.randrange(0, 20_000))
        _random_cancel(script, 0.7)
        _random_cancel(script, 0.3)
        if step % 8 == 0:
            script.check_look_ahead()
        if step % 40 == 39:
            script.drain(script.clock + rng.randrange(0, 8_000))


def _drain_refill(script):
    # pushes between pops: zero-delay entries pushed while draining, and
    # entries pushed earlier than a head pop_due left pending
    rng = script.rng
    for _ in range(40):
        script.push(script.clock + rng.randrange(0, 3_000))
    for step in range(300):
        if script.pop_due(script.clock + rng.randrange(0, 40)) is not None:
            for _ in range(rng.choice((0, 1, 1, 2))):
                script.push(script.clock + rng.choice((0, 0, 1, 700)))
        else:
            script.push(script.clock + rng.randrange(0, 200))
        _random_cancel(script, 0.1)
        if step % 8 == 0:
            script.check_look_ahead()


def _compact_clear(script):
    # compaction at arbitrary points, and clear() dropping everything
    rng = script.rng
    for step in range(300):
        script.push(script.clock + rng.randrange(0, 10_000))
        _random_cancel(script, 0.4)
        if step % 8 == 0:
            script.check_look_ahead()
        if step % 23 == 22:
            script.compact()
            script.check_look_ahead()
        if step % 31 == 30:
            script.drain(script.clock + rng.randrange(0, 4_000))
        if step % 110 == 109:
            script.clear()
            script.check_look_ahead()


SHAPES = {
    "spread": _spread,
    "descending": _descending,
    "one_instant": _one_instant,
    "ties": _ties,
    "hops": _hops,
    "cancel_heads": _cancel_heads,
    "cancel_heavy": _cancel_heavy,
    "drain_refill": _drain_refill,
    "compact_clear": _compact_clear,
}


@pytest.mark.parametrize("seed", range(7))
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_queue_answers_as_the_reference_does(shape, seed):
    script = _Script(random.Random(f"{shape}-{seed}"))
    SHAPES[shape](script)
    script.finish()
    assert script.popped


# -- single clauses, each pinned by one small case -----------------------------

def test_caused_at_decides_before_seq():
    # same time: the entry caused earlier leaves first whatever its seq
    script = _Script(random.Random(0))
    late = script.push(100, 90)
    early = script.push(100, 10)
    assert script.queue.pop_due(100) is early
    assert script.queue.pop_due(100) is late


def test_earliest_walks_both_subtrees_of_a_skipped_root():
    script = _Script(random.Random(0))
    root = script.push(10)
    script.push(30)
    script.push(20)
    assert script.queue.earliest(lambda entry: entry is root) == 20
    root[3].cancel()
    assert script.queue.earliest(SKIPS["never"]) == 20
    assert len(script.queue) == 3


def test_pop_due_past_a_cancelled_head_returns_the_live_entry_behind_it():
    script = _Script(random.Random(0))
    doomed = script.push(10)
    live = script.push(20)
    doomed[3].cancel()
    assert script.queue.pop_due(30) is live
    assert (len(script.queue), script.queue.cancelled_pending) == (0, 0)


def test_peek_time_discards_cancelled_heads_and_keeps_the_live_one():
    script = _Script(random.Random(0))
    doomed = [script.push(time) for time in (5, 6, 7)]
    live = script.push(8)
    for entry in doomed:
        entry[3].cancel()
    assert script.queue.peek_time() == 8
    assert (len(script.queue), script.queue.cancelled_pending) == (1, 0)
    assert script.queue.pop_due(8) is live
