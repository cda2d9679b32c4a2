"""Discrete-event simulation kernel.

The whole reproduction runs on a single-threaded event loop with integer
nanosecond timestamps.  Integer time keeps event ordering exact (no float
round-off when two packets are scheduled back-to-back at 100G) and makes
experiments reproducible bit-for-bit given a seed.

The pending events live in one :class:`EventQueue`, a ``heapq`` binary
heap of ``(time, caused_at, seq, event, callback, args)`` tuples ordered
by ``(time, caused_at, seq)``: when an event is due, then when what it
stands for was caused, then the simulator's insertion counter — unique,
so ``heapq`` orders two entries in C on three ints and never looks past
them.  That total order is the dispatch order every "same seed ⇒ same
bytes" claim in the repo relies on.

``schedule`` keys ``caused_at = now``, so among its entries
``(caused_at, seq)`` sorts exactly as ``seq`` alone.  Two kinds of entry
carry an earlier key than their push would draw:

* a *hop* (:meth:`Simulator.schedule_via`): a frame's wire time plus the
  fixed latency behind it (a switch pipeline, a host stack) is one
  event, keyed ``caused_at = now + hop`` with a ``seq`` drawn at
  transmit — the instant and the counter position of the arrival event
  it replaces;
* a :class:`Timer` re-armed to a later deadline keeps its pending entry,
  which wakes at the old deadline and re-enters under the key the
  re-arm drew.

One order of simultaneous events differs from the two-event hop: an
event already pending when a frame left, firing at the nanosecond it
arrives and scheduling a child for the nanosecond its handler runs —
the hop's handler now runs before that child.

:meth:`Simulator.run` is the only per-event loop in the tree: one
``pop_due`` and one handler call per event, nothing else.  A driver
that needs to end a run early calls :meth:`Simulator.stop` from a
handler (or passes ``stop_when`` for a condition no handler owns).

Typical usage::

    sim = Simulator()
    sim.schedule(1000, lambda: print("1 microsecond in"))
    sim.run(until=1_000_000)
"""

from __future__ import annotations

import itertools
import sys
import time
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Event", "EventQueue", "Simulator", "SimError", "Timer"]

#: one pending-set entry: ``(time, caused_at, seq, event, callback,
#: args)`` — what orders it, the handle that can cancel it, what to call
#: when it is due
Entry = Tuple[int, int, int, "Event", Callable[..., Any], Tuple]

#: ``pop_due`` bound meaning "whatever is next" (integer time never gets here)
_FOREVER = sys.maxsize


class SimError(RuntimeError):
    """Raised for misuse of the simulation kernel (e.g. scheduling in the past)."""


class Event:
    """The handle :meth:`Simulator.schedule` returns: a scheduled
    callback can be cancelled with :meth:`cancel` before it fires.

    That is all it is — when it fires and what it calls live in the
    queue entry that carries it.
    """

    __slots__ = ("cancelled", "owner")

    def __init__(self, owner) -> None:
        self.cancelled = False
        #: the Simulator this event is pending in; cleared on dispatch
        #: (and by ``clear()``) so a late ``cancel()`` on a fired or
        #: dropped handle stays a cheap no-op.
        self.owner = owner

    def cancel(self) -> None:
        """Prevent this event from firing.  Safe to call more than once."""
        if self.cancelled:
            return
        self.cancelled = True
        owner = self.owner
        if owner is not None:
            owner._note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "Event(%s)" % ("cancelled" if self.cancelled else
                              "pending" if self.owner is not None else "done")


class EventQueue:
    """The pending-event set: a binary heap (``heapq``) of ``(time,
    caused_at, seq, event, callback, args)`` entries, a strict ``(time,
    caused_at, seq)`` priority queue.

    Its contract (``tests/test_engine.py`` and ``tests/test_event_queue.py``
    lock it in):

    * ``push(entry)`` adds an entry and returns the number now held;
    * ``pop_due(until)`` first discards cancelled entries at the head
      (whatever their time), then removes and returns the next live
      entry if its time is ``<= until``, else returns ``None`` and
      leaves it pending.  Successive calls return entries in ascending
      ``(time, caused_at, seq)`` order — same-time events caused at the
      same instant fire FIFO in insertion order;
    * ``peek_time()`` returns the timestamp the next ``pop_due`` would
      look at, discarding cancelled heads the same way, without
      consuming a live entry;
    * ``earliest(skip)`` returns the timestamp of the earliest live
      entry for which ``skip(entry)`` is false (``None`` when there is
      none) and changes nothing — cancelled entries stay where they
      are, so it is safe from inside a handler;
    * entries pushed *while draining* (zero-delay self-rescheduling)
      take their place in the same total order, as do entries pushed
      earlier than a head that ``pop_due``/``peek_time`` left pending;
    * ``cancelled_pending`` is incremented by the Simulator on each
      cancel and decremented on every discarded entry;
    * ``compact()`` removes all cancelled entries in one pass;
    * ``clear()`` drops every entry and orphans its event
      (``owner = None``), so a handle from before the clear cannot
      touch this queue's accounting.

    Entries are ordered by comparing the tuples — ``seq`` is unique, so
    the comparison is decided on three ints and never reaches the event
    or the callback — and otherwise only ``entry[3].cancelled`` is read.
    """

    def __init__(self) -> None:
        #: cancelled entries still occupying the queue (Simulator policy
        #: input for eager compaction)
        self.cancelled_pending = 0
        self._heap: List[Entry] = []

    def push(self, entry: Entry) -> int:
        """Add an entry; returns ``len(self)`` afterwards."""
        heap = self._heap
        heappush(heap, entry)
        return len(heap)

    def pop_due(self, until: int) -> Optional[Entry]:
        """Remove and return the next live entry if due by ``until``."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heappop(heap)
                self.cancelled_pending -= 1
            elif entry[0] > until:
                return None
            else:
                return heappop(heap)
        return None

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next live entry, or None when empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
            self.cancelled_pending -= 1
        return heap[0][0] if heap else None

    def earliest(self, skip: Callable[[Entry], bool]) -> Optional[int]:
        """Time of the earliest live entry ``skip`` rejects; removes nothing."""
        # Walk down from the root: a live, unskipped entry bounds its
        # whole subtree, so only the children of cancelled or skipped
        # entries (and nothing at or past the best time so far) are
        # visited — a handful of entries however long the heap is.
        heap = self._heap
        size = len(heap)
        best = None
        stack = [0]
        while stack:
            index = stack.pop()
            if index >= size:
                continue
            entry = heap[index]
            if best is not None and entry[0] >= best:
                continue
            if entry[3].cancelled or skip(entry):
                stack.append(2 * index + 1)
                stack.append(2 * index + 2)
            else:
                best = entry[0]
        return best

    def compact(self) -> int:
        """Drop every cancelled entry; returns how many were removed."""
        live = [entry for entry in self._heap if not entry[3].cancelled]
        removed = len(self._heap) - len(live)
        heapify(live)
        self._heap = live
        self.cancelled_pending = 0
        return removed

    def clear(self) -> None:
        """Drop every entry, orphaning the events they carry."""
        for entry in self._heap:
            entry[3].owner = None
        self._heap.clear()
        self.cancelled_pending = 0

    def __len__(self) -> int:
        """Entries currently held, cancelled ones included."""
        return len(self._heap)


class Simulator:
    """Single-threaded discrete-event simulator with integer-ns time."""

    #: cap on recycled Event objects kept for reuse
    POOL_CAP = 512
    #: below this many pending entries, cancelled events are left for
    #: lazy pop-side skipping rather than compacted eagerly
    COMPACT_MIN = 64

    def __init__(self, obs=None) -> None:
        #: current simulation time in nanoseconds.  A plain attribute
        #: because handlers read it more often than anything else in the
        #: tree; only the kernel writes it.
        self.now: int = 0
        self._queue = queue = EventQueue()
        self._push = queue.push
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self._events_processed = 0
        self._events_cancelled = 0
        self._events_compacted = 0
        self._heap_high_watermark = 0
        self._wall_seconds = 0.0
        self._pool: List[Event] = []
        #: idle loop -> its pending replenish entries (``schedule_idle``)
        self._idle: Dict[Any, int] = {}
        #: the one callback every idle entry carries, so the look-ahead
        #: recognises one by identity
        self._fire_idle = self._dispatch_idle
        #: ingress handler -> "is this frame quiet chatter?" (``idle_landing``)
        self._landings: Dict[Callable[..., Any], Callable[..., bool]] = {}
        #: how far the running ``run()`` lets an idle loop look ahead
        #: (its ``until``); 0 — not at all — outside a run and under
        #: ``max_events``/``stop_when``, which count or poll every handler
        self._horizon_cap = 0
        #: per-frame events idle loops booked instead of dispatching, so
        #: ``events_processed + events_elided`` is what the same run
        #: dispatches with every frame observed.  Not in ``obs_snapshot``:
        #: an attached registry pins the per-frame path and it reads 0.
        self.events_elided = 0
        self.obs = obs
        if obs is not None:
            obs.registry.register_provider("engine", self.obs_snapshot)
            # obs v2: lets the flight recorder install its sampling tick
            # (duck-typed so bare registry+tracer stand-ins keep working).
            attach = getattr(obs, "attach_engine", None)
            if attach is not None:
                attach(self)

    @property
    def queue(self) -> EventQueue:
        """The pending-event structure (for introspection/tests)."""
        return self._queue

    @property
    def events_processed(self) -> int:
        """Number of events dispatched so far (for overhead accounting)."""
        return self._events_processed

    @property
    def events_cancelled(self) -> int:
        """Number of pending events cancelled so far."""
        return self._events_cancelled

    @property
    def heap_high_watermark(self) -> int:
        """Largest number of pending events ever held at once."""
        return self._heap_high_watermark

    @property
    def wall_seconds(self) -> float:
        """Host wall-clock time spent inside :meth:`run` so far
        (added when a run returns, so it reads 0.0 during the first)."""
        return self._wall_seconds

    def obs_snapshot(self) -> dict:
        """Kernel self-measurement: the substrate for all perf claims."""
        sim_seconds = self.now / 1e9
        return {
            "events_processed": self._events_processed,
            "events_cancelled": self._events_cancelled,
            "events_compacted": self._events_compacted,
            "heap_high_watermark": self._heap_high_watermark,
            "heap_pending": len(self._queue),
            "event_pool_size": len(self._pool),
            "sim_time_ns": self.now,
            "wall_seconds": self._wall_seconds,
            "wall_seconds_per_sim_second": (
                self._wall_seconds / sim_seconds if sim_seconds > 0 else 0.0
            ),
            "events_per_wall_second": (
                self._events_processed / self._wall_seconds
                if self._wall_seconds > 0 else 0.0
            ),
        }

    # -- cancellation bookkeeping (called from Event.cancel) ------------------

    def _note_cancel(self) -> None:
        self._events_cancelled += 1
        queue = self._queue
        queue.cancelled_pending = cancelled = queue.cancelled_pending + 1
        # Eager compaction: cancelled entries would otherwise linger
        # until the pop path reaches their timestamps — on timer-heavy
        # workloads (every ACK re-arms RTO/TLP/RACK) that is most of the
        # queue.  Compact when they exceed half the pending set, itself
        # at least COMPACT_MIN — which takes more than COMPACT_MIN / 2
        # of them, so most cancels never need the queue's length.
        if cancelled * 2 > self.COMPACT_MIN:
            pending = len(queue)
            if cancelled * 2 > pending >= self.COMPACT_MIN:
                self._events_compacted += queue.compact()

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay: int, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        pool = self._pool
        if pool:
            event = pool.pop()
            event.cancelled = False
            event.owner = self
        else:
            event = Event(self)
        if delay.__class__ is not int:
            delay = int(delay)
        now = self.now
        pending = self._push(
            (now + delay, now, next(self._seq), event, callback, args))
        if pending > self._heap_high_watermark:
            self._heap_high_watermark = pending
        return event

    def schedule_via(self, hop: int, delay: int,
                     callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` ``delay`` ns after a ``hop`` that
        starts now — a frame's wire time, then the pipeline or stack
        behind it — as one event.

        It is keyed as if ``hop`` were an event of its own that
        schedules the callback when it fires: ``caused_at = now + hop``
        with a ``seq`` drawn now, exactly where that arrival event would
        sort.  (The one order this does not reproduce is in the module
        docstring.)
        """
        if hop < 0 or delay < 0:
            raise SimError(
                f"cannot schedule in the past (hop={hop}, delay={delay})")
        pool = self._pool
        if pool:
            event = pool.pop()
            event.cancelled = False
            event.owner = self
        else:
            event = Event(self)
        arrival = self.now + hop
        pending = self._push(
            (arrival + delay, arrival, next(self._seq), event, callback, args))
        if pending > self._heap_high_watermark:
            self._heap_high_watermark = pending
        return event

    def _enter(self, time: int, caused_at: int, seq: int,
               callback: Callable[..., Any], args: Tuple) -> Event:
        """Push an entry under a key drawn elsewhere (a :class:`Timer`'s).
        ``schedule`` and ``schedule_via`` spell this out inline: one
        Python frame per scheduled event, not two."""
        pool = self._pool
        if pool:
            event = pool.pop()
            event.cancelled = False
            event.owner = self
        else:
            event = Event(self)
        pending = self._push((time, caused_at, seq, event, callback, args))
        if pending > self._heap_high_watermark:
            self._heap_high_watermark = pending
        return event

    def timer(self, callback: Callable[[], Any]) -> "Timer":
        """A re-armable one-shot timer calling ``callback()`` (see
        :class:`Timer`)."""
        return Timer(self, callback)

    def schedule_at(self, time: int, callback: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at an absolute time (ns)."""
        time = int(time)
        if time < self.now:
            raise SimError(f"cannot schedule at t={time} < now={self.now}")
        return self.schedule(time - self.now, callback, *args)

    # -- idle loops ----------------------------------------------------------

    def schedule_idle(self, delay: int, loop) -> Event:
        """Schedule ``loop.replenish()`` as an *idle-loop* entry.

        An idle loop is background chatter that re-arms itself forever
        (LinkGuardian's dummy and explicit-ACK queues).  Its entries are
        ordinary events — same ``(time, caused_at, seq)`` order, same
        dispatch — that :meth:`idle_horizon` may look past while
        ``loop.coastable()`` holds.
        """
        self._idle[loop] = self._idle.get(loop, 0) + 1
        return self.schedule(delay, self._fire_idle, loop)

    def _dispatch_idle(self, loop) -> None:
        self._idle[loop] -= 1
        loop.replenish()

    def idle_pending(self, loop) -> int:
        """How many replenish entries ``loop`` has pending here."""
        return self._idle.get(loop, 0)

    def idle_landing(self, handler: Callable[..., Any],
                     quiet: Callable[..., bool]) -> None:
        """Declare ``handler`` the ingress an idle loop's frames land on.

        A pending ``handler(*args)`` entry for which ``quiet(*args)``
        holds is a frame that, when it lands, bumps a counter at most
        and schedules nothing: chatter :meth:`idle_horizon` looks past.
        """
        self._landings[handler] = quiet

    def idle_horizon(self) -> int:
        """The time before which nothing but idle chatter can happen.

        That is the earliest live pending entry — not counting the
        replenish of an idle loop that is coastable now, nor the landing
        of a quiet frame (:meth:`idle_landing`), which would only
        chatter too — capped by the running ``run(until=...)``.
        Nothing is removed or reordered.  Returns 0, meaning "do not
        look ahead", outside :meth:`run`, under ``max_events`` or
        ``stop_when`` (both need every handler to really run), and when
        neither a pending entry nor ``until`` bounds the answer.
        """
        cap = self._horizon_cap
        if not cap:
            return 0
        fire, landings = self._fire_idle, self._landings

        def chatter(entry) -> bool:
            callback, args = entry[4], entry[5]
            if callback is fire:
                return args[0].coastable()
            quiet = landings.get(callback)
            return quiet is not None and quiet(*args)

        earliest = self._queue.earliest(chatter)
        if earliest is None:
            return 0 if cap == _FOREVER else cap
        return earliest if earliest < cap else cap

    # -- dispatch -------------------------------------------------------------

    def peek(self) -> Optional[int]:
        """Time of the next pending event, or ``None`` if the queue is empty."""
        return self._queue.peek_time()

    def stop(self) -> None:
        """End the running :meth:`run` once the current handler returns.

        Later events stay pending and the clock stays at the current
        event's time, so a following ``run()`` resumes at the next
        ``(time, caused_at, seq)``.  Outside a run this does nothing.
        """
        self._stopped = True

    def run(
        self,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run the event loop — the only per-event loop there is.

        It ends when nothing is pending at or before ``until`` (then,
        and only then, the clock is advanced to ``until``), after
        ``max_events`` dispatches, or after the handler that called
        :meth:`stop` — whichever comes first.

        Args:
            until: do not dispatch events later than this (ns).
            max_events: hard cap on dispatched events (runaway guard).
            stop_when: polled after every handler; a true result ends
                the run like :meth:`stop`.  For end conditions that no
                single handler owns — a handler that knows the run is
                over should call :meth:`stop` instead.

        Returns:
            The simulation time when the loop stopped.
        """
        if self._running:
            raise SimError("run() is not reentrant")
        self._running = True
        self._stopped = False
        limit = _FOREVER if until is None else until
        budget = -1 if max_events is None else max_events
        if max_events is None and stop_when is None:
            self._horizon_cap = limit
        pop_due = self._queue.pop_due
        pool = self._pool
        pool_cap = self.POOL_CAP
        getrefcount = sys.getrefcount
        dispatched = 0
        drained = False
        wall_start = time.perf_counter()
        try:
            while dispatched != budget:
                entry = pop_due(limit)
                if entry is None:
                    drained = True
                    break
                self.now, _, _, event, callback, args = entry
                self._events_processed += 1
                dispatched += 1
                event.owner = None
                # Pool the handle for reuse — only when no caller still
                # holds it (the ``cancel()``-after-fire contract would
                # otherwise let an old handle cancel an unrelated future
                # event).  Refcount 3 == the entry tuple + the local +
                # getrefcount's argument: nothing external.
                if len(pool) < pool_cap and getrefcount(event) <= 3:
                    pool.append(event)
                callback(*args)
                if self._stopped or (stop_when is not None and stop_when()):
                    break
        finally:
            self._running = False
            self._horizon_cap = 0
            self._wall_seconds += time.perf_counter() - wall_start
        if drained and until is not None and self.now < until:
            self.now = int(until)
        return self.now

    def jump_to(self, time: int) -> None:
        """Advance the idle clock without dispatching (snapshot restore:
        materializing a simulation mid-run needs ``now`` at the capture
        time before components re-arm their timers)."""
        time = int(time)
        if time < self.now:
            raise SimError(f"cannot jump to t={time} < now={self.now}")
        next_time = self.peek()
        if next_time is not None and next_time < time:
            raise SimError(
                f"cannot jump past pending event at t={next_time}")
        self.now = time

    def clear(self) -> None:
        """Drop all pending events and reset per-run accounting (the
        clock is left where it is) — a reused simulator reports stats
        for its current run, not its lifetime.  Dropped events are
        orphaned and pooled ones discarded, so no handle from before
        the clear can reach this simulator's accounting or a later
        event (a :class:`Timer` whose entry was dropped pushes a new one
        when next armed).  The idle-loop registry goes with the queue: a
        loop whose replenish was dropped has none pending and can be
        primed again."""
        self._queue.clear()
        self._pool.clear()
        self._idle.clear()
        self.events_elided = 0
        self._events_processed = 0
        self._events_cancelled = 0
        self._events_compacted = 0
        self._heap_high_watermark = 0
        self._wall_seconds = 0.0


class Timer:
    """A one-shot timer that is re-armed far more often than it fires.

    A transport's retransmission and probe timers move out on every
    send and every ACK.  :meth:`arm` keys the deadline exactly as
    ``cancel()`` + ``schedule(delay, callback)`` would — ``(now + delay,
    now, seq)`` with a ``seq`` drawn now — but only pushes when it has to:

    * while the pending entry is due at or before the new deadline,
      ``arm`` just records the new key.  The entry wakes at its own
      time, sees that it is stale and re-enters under the recorded key
      (no new ``seq``), so the callback runs where a fresh push would
      have run it.  A re-arm to the *same* deadline is stale too: what
      decides is the recorded key, not the time;
    * a deadline earlier than the pending entry cancels it and pushes.

    A wake that re-enters is a dispatched event: one per time the
    deadline outlives the pending entry, not one cancel and push per
    re-arm.
    """

    __slots__ = ("_sim", "_callback", "_fire", "_key", "_pushed", "_event")

    def __init__(self, sim: Simulator, callback: Callable[[], Any]) -> None:
        self._sim = sim
        self._callback = callback
        self._fire = self._wake
        #: ``(deadline, caused_at, seq)`` armed, or None
        self._key: Optional[Tuple[int, int, int]] = None
        #: the key the pending entry was pushed under
        self._pushed: Optional[Tuple[int, int, int]] = None
        #: the pending entry's handle, or None
        self._event: Optional[Event] = None

    def arm(self, delay: int) -> None:
        """(Re)start the timer to fire ``delay`` ns from now."""
        sim = self._sim
        if delay < 0:
            raise SimError(f"cannot schedule in the past (delay={delay})")
        now = sim.now
        self._key = key = (now + int(delay), now, next(sim._seq))
        event = self._event
        if event is not None:
            if event.owner is not None and self._pushed[0] <= key[0]:
                return
            event.cancel()
        self._push(key)

    def cancel(self) -> None:
        """Disarm; nothing fires until the next :meth:`arm`."""
        self._key = None
        event = self._event
        if event is not None:
            self._event = None
            event.cancel()

    def _push(self, key: Tuple[int, int, int]) -> None:
        self._pushed = key
        self._event = self._sim._enter(*key, self._fire, ())

    def _wake(self) -> None:
        key = self._key
        if key is not self._pushed:
            self._push(key)
            return
        self._key = self._event = None
        self._callback()
