"""The event queue's contract, checked from outside: which entries went
in, which came out, and in what order."""

from repro.core.engine import EventQueue


class QueueLog:
    """Records every entry an :class:`EventQueue` takes (``push``) and
    hands out (``pop_due``) while installed; ``monkeypatch`` undoes it.
    Install it before the :class:`Simulator` under test is built — the
    simulator binds ``push`` once."""

    def __init__(self, monkeypatch) -> None:
        self.pushed = []
        self.popped = []
        push, pop_due = EventQueue.push, EventQueue.pop_due

        def recording_push(queue, entry):
            self.pushed.append(entry)
            return push(queue, entry)

        def recording_pop_due(queue, until):
            entry = pop_due(queue, until)
            if entry is not None:
                # asked now: a dispatched handle may be recycled later
                assert not entry[3].cancelled, f"popped cancelled {entry[:3]}"
                self.popped.append(entry)
            return entry

        monkeypatch.setattr(EventQueue, "push", recording_push)
        monkeypatch.setattr(EventQueue, "pop_due", recording_pop_due)

    def pending(self):
        """Live entries pushed and not popped yet.  (A handle is only
        recycled once its entry is popped, so ``cancelled`` on one still
        pending is its own.)"""
        popped = {id(entry) for entry in self.popped}
        return [entry for entry in self.pushed
                if id(entry) not in popped and not entry[3].cancelled]

    def check(self, until: float) -> None:
        """The popped keys ``(time, caused_at, seq)`` strictly ascend,
        each popped entry is one that was pushed, and no live entry due
        by ``until`` is left behind."""
        keys = [entry[:3] for entry in self.popped]
        assert all(a < b for a, b in zip(keys, keys[1:])), "out of order"
        pushed = {id(entry) for entry in self.pushed}
        assert all(id(entry) in pushed for entry in self.popped)
        assert not [entry[:3] for entry in self.pending()
                    if entry[0] <= until], "live entries left behind"


def linear_earliest(log: QueueLog, skip):
    """``EventQueue.earliest(skip)`` by a scan over every live entry."""
    return min((entry[0] for entry in log.pending() if not skip(entry)),
               default=None)
