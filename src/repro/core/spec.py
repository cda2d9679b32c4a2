"""One codec for every config dataclass whose dict form crosses a process
or file boundary (a grid cell, a replay chunk, a fault file, ...), and
the one declaration of each numeric knob's legal range: on its field,
``coverage: float = ranged(1.0, "(0, 1]")``, checked at construction and
read by the command line through :func:`knob`."""

from __future__ import annotations

from dataclasses import MISSING, Field, field, fields
from functools import cache
from importlib import import_module
from numbers import Integral, Real
from typing import Any, Dict, NamedTuple, Optional, Tuple, get_type_hints


class Range(NamedTuple):
    """An interval as written, ``"[0, 1)"``, ``"(0, inf)"``: a real
    number (an integer, if ``integer``; never a bool) within the bounds,
    each end open or closed.  NaN is never in range, an infinity only at
    a closed infinite end."""

    text: str
    lo: float
    hi: float
    integer: bool = False

    @classmethod
    def parse(cls, text: str, integer: bool = False) -> "Range":
        lo, hi = (float(bound) for bound in text[1:-1].split(","))
        return cls(text, lo, hi, integer)

    def refusal(self, name: str, value: Any) -> Optional[str]:
        """Why ``value`` cannot be ``name``, or None when it can."""
        if isinstance(value, bool) or not isinstance(
                value, Integral if self.integer else Real):
            return f"{name} must be {'an integer' if self.integer else 'a number'}"
        if not ((self.lo < value if self.text[0] == "(" else self.lo <= value)
                and (value < self.hi if self.text[-1] == ")"
                     else value <= self.hi)):
            return f"{name} must be in {self.text}"
        return None


def ranged(default: Any, interval: str) -> Field:
    """A field with a default and a :class:`Range` (integers only if
    the field is annotated ``int``)."""
    return field(default=default, metadata={"range": interval})


@cache
def _table(cls: type):
    """A spec class's field names in order, its nested-spec fields, and
    its declared ranges."""
    hints = get_type_hints(cls)
    names = tuple(f.name for f in fields(cls))
    nested = {name: hints[name] for name in names
              if isinstance(hints[name], type) and issubclass(hints[name], Spec)}
    ranges = {f.name: Range.parse(f.metadata["range"], hints[f.name] is int)
              for f in fields(cls) if "range" in f.metadata}
    return names, nested, ranges


class Spec:
    """Dataclass mixin: ``to_dict`` lists the fields in declaration order
    (a nested spec as its own dict, dict/list values copied shallowly);
    ``from_dict`` refuses a non-dict or an undeclared key, builds nested
    specs by recursion, and leaves a missing key to the field default.

    A class with :func:`ranged` fields refuses an out-of-range value
    before its own ``__post_init__`` (left to cross-field checks) runs;
    a class without pays nothing per construction."""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # @dataclass has not yet turned the body's Field objects into
        # fields, nor looked for a __post_init__.
        if not any(isinstance(value, Field) and "range" in value.metadata
                   for value in vars(cls).values()):
            return
        own = vars(cls).get("__post_init__")

        def __post_init__(self) -> None:
            for name, bounds in _table(type(self))[2].items():
                refusal = bounds.refusal(name, getattr(self, name))
                if refusal:
                    raise ValueError(refusal)
            if own is not None:
                own(self)

        cls.__post_init__ = __post_init__

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
        names, nested, _ = _table(cls)
        unknown = data.keys() - names
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} fields: {sorted(unknown)}")
        return cls(**{key: nested[key].from_dict(value) if key in nested
                      else value for key, value in data.items()})


def lookup(path: str) -> Any:
    """The object named ``"<module under repro>:<name>"``."""
    module, _, name = path.partition(":")
    return getattr(import_module(f"repro.{module}"), name)


def knob(path: str) -> Tuple[Any, Optional[Range]]:
    """The default and range of the spec field at ``path``,
    ``"<module>:<Class>.<field>"``; more ``.<field>`` steps walk into a
    nested spec's default (``"blame.voting:BlameEvalSpec.fleet.n_pods"``
    is the eval fleet's pod count, ranged by ``FleetSpec.n_pods``)."""
    module, _, chain = path.partition(":")
    owner, *names = chain.split(".")
    cls = lookup(f"{module}:{owner}")
    head = next(f for f in fields(cls) if f.name == names[0])
    default = head.default_factory() if head.default is MISSING else head.default
    for name in names[1:]:
        cls, default = type(default), getattr(default, name)
    return default, _table(cls)[2].get(names[-1])
