"""Snapshot capture for the hybrid splicer's recovery windows.

:mod:`repro.fastpath.splice` warms one stress world, snapshots its
:class:`~repro.linkguardian.protocol.ProtectedLink` once at a
data-quiescent point and restores that snapshot into a fresh world for
each recovery window, all in one process.  This module is what such a
snapshot is made of.

Every stateful component names the attributes that are its protocol
state once, as the class tuple ``STATE``.  :func:`capture` deep-copies
those attributes and :func:`apply` deep-copies them back:

* an attribute holding a component, or a list of them, is captured
  recursively and applied in place, so whatever else refers to that
  component keeps seeing it;
* one memo per snapshot (and per apply) keeps aliasing intact — the
  sender's Tx buffer and its by-key index hold the same entries;
* applying copies again, so any number of windows can restore one
  snapshot.

Scheduled-event plumbing (pending timers, in-flight frames, serializer
callbacks) is never captured: the component re-arms what its restored
state implies, by hand, next to its tuple.  Nothing persists a
snapshot, so it carries no version.
"""

from __future__ import annotations

from copy import deepcopy
from typing import Optional

__all__ = ["SnapshotError", "capture", "apply"]


class SnapshotError(RuntimeError):
    """A snapshot cannot be taken or applied."""


class _State(dict):
    """One component's captured attributes, by name; ``kind`` is the
    component's class."""

    def __init__(self, kind: type) -> None:
        super().__init__()
        self.kind = kind


def _holds_components(value) -> bool:
    """A non-empty list of components (an egress port's queues)."""
    return (isinstance(value, list) and bool(value)
            and all(hasattr(item, "STATE") for item in value))


def capture(obj, memo: Optional[dict] = None) -> _State:
    """Deep copies of ``obj``'s ``STATE`` attributes."""
    memo = {} if memo is None else memo
    state = _State(type(obj))
    for name in obj.STATE:
        value = getattr(obj, name)
        if hasattr(value, "STATE"):
            state[name] = capture(value, memo)
        elif _holds_components(value):
            state[name] = [capture(item, memo) for item in value]
        else:
            state[name] = deepcopy(value, memo)
    return state


def apply(obj, state: _State, memo: Optional[dict] = None) -> None:
    """Write deep copies of a :func:`capture` of the same type into ``obj``."""
    if getattr(state, "kind", None) is not type(obj):
        raise SnapshotError(
            f"not a snapshot of a {type(obj).__name__}: {type(state).__name__}"
            f" of {getattr(state, 'kind', None)}")
    memo = {} if memo is None else memo
    for name in obj.STATE:
        value, current = state[name], getattr(obj, name)
        if hasattr(current, "STATE"):
            apply(current, value, memo)
        elif _holds_components(current):
            if len(value) != len(current):
                raise SnapshotError(
                    f"{type(obj).__name__}.{name} holds {len(current)} "
                    f"components, the snapshot {len(value)}")
            for item, item_state in zip(current, value):
                apply(item, item_state, memo)
        else:
            setattr(obj, name, deepcopy(value, memo))
