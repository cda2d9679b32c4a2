"""One codec for every config dataclass whose dict form crosses a process
or file boundary (a grid cell, a replay chunk, a fault file, ...)."""

from __future__ import annotations

from dataclasses import fields
from functools import cache
from typing import Any, Dict, get_type_hints


@cache
def _table(cls: type):
    """A spec class's field names in order, and its nested-spec fields."""
    hints = get_type_hints(cls)
    names = tuple(f.name for f in fields(cls))
    return names, {name: hints[name] for name in names
                   if isinstance(hints[name], type)
                   and issubclass(hints[name], Spec)}


class Spec:
    """Dataclass mixin: ``to_dict`` lists the fields in declaration order
    (a nested spec as its own dict, dict/list values copied shallowly);
    ``from_dict`` refuses a non-dict or an undeclared key, builds nested
    specs by recursion, and leaves a missing key to the field default."""

    def to_dict(self) -> Dict[str, Any]:
        out = {}
        for name in _table(type(self))[0]:
            value = getattr(self, name)
            if isinstance(value, Spec):
                value = value.to_dict()
            elif isinstance(value, (dict, list)):
                value = value.copy()
            out[name] = value
        return out

    @classmethod
    def from_dict(cls, data: Any):
        if not isinstance(data, dict):
            raise ValueError(f"{cls.__name__} must be an object, "
                             f"not {type(data).__name__}")
        names, nested = _table(cls)
        unknown = data.keys() - names
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} fields: {sorted(unknown)}")
        return cls(**{key: nested[key].from_dict(value) if key in nested
                      else value for key, value in data.items()})
