"""Every number the program takes is range-checked, and in one place.

The command line is walked from ``build_parser()``: every float flag of
every verb is run in process with ``nan``, ``inf`` and ``-inf``, and
every flag with a declared range (its spec field's, or its own) with one
value outside it.  Each must exit 2 with exactly one ``repro: error:``
line, within a wall budget enforced by ``signal.alarm`` — a value that
slips through runs the verb, which a budget turns from a hang (``--days
nan`` never ended a trace) into a failure.

The specs are walked too: every :class:`~repro.core.spec.Spec` subclass's
``from_dict`` is fed non-finite and out-of-range numbers and may answer
with ``ValueError`` only.
"""

import argparse
import importlib
import math
import pkgutil
import signal
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.cli import VERBS, build_parser, main
from repro.core.spec import Range, Spec, knob
from repro.lifecycle.repair import REPAIR_POLICIES, RepairPolicy
from tests.test_spec import SPECS

#: seconds one refused command line may take
BUDGET_S = 10
#: extra arguments that keep a verb that wrongly accepted a value cheap
#: and local (no well-known port, no synthetic feed)
SAFE = {("serve",): ["--port", "0", "--telemetry", "none"]}


def _subparsers(parser):
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _leaf_parsers(parser=None, path=()):
    """Every runnable ``(path, parser)`` of the command tree."""
    for name, child in _subparsers(parser or build_parser()).items():
        if any(isinstance(a, argparse._SubParsersAction)
               for a in child._actions):
            yield from _leaf_parsers(child, (*path, name))
        else:
            yield (*path, name), child


def _flag_rows(verbs=VERBS, path=()):
    """Every ``(path, Flag)`` row of the verb table."""
    for verb in verbs:
        if verb.subs:
            yield from _flag_rows(verb.subs, (*path, verb.name))
        else:
            for flag in verb.flag_rows():
                yield (*path, verb.name), flag


def _positionals(subparser):
    return ["missing-input" for action in subparser._actions
            if not action.option_strings]


def _is_float(action) -> bool:
    return getattr(action.type, "__name__", None) == "float"


def _bounds(flag):
    """The range a flag row declares, on its spec field or itself."""
    if "field" in flag.kwargs:
        return knob(flag.kwargs["field"])[1]
    text = flag.kwargs.get("range")
    return Range.parse(text) if text else None


def _outside(bounds: Range, integer: bool) -> str:
    """One value just outside ``bounds`` (None if no bound is finite)."""
    if math.isfinite(bounds.lo):
        value = bounds.lo if bounds.text[0] == "(" else bounds.lo - 1
    else:
        value = bounds.hi if bounds.text[-1] == ")" else bounds.hi + 1
    return str(int(value)) if integer else repr(float(value))


def _float_cases():
    for path, subparser in PARSERS.items():
        for action in subparser._actions:
            if action.option_strings and _is_float(action):
                for value in ("nan", "inf", "-inf"):
                    yield path, action.option_strings[0], value


def _range_cases():
    for path, flag in _flag_rows():
        bounds = _bounds(flag)
        if bounds is None or not (math.isfinite(bounds.lo)
                                  or math.isfinite(bounds.hi)):
            continue
        action = next(a for a in PARSERS[path]._actions
                      if flag.name in a.option_strings)
        yield path, flag.name, _outside(
            bounds, getattr(action.type, "__name__", None) == "int")


PARSERS = dict(_leaf_parsers())
FLOAT_CASES = list(_float_cases())
RANGE_CASES = list(_range_cases())


class _OverBudget(Exception):
    pass


def _on_alarm(signum, frame):
    raise _OverBudget(f"still running after {BUDGET_S} s")


def _refused(path, flag, value, capsys):
    argv = [*path, *_positionals(PARSERS[path]),
            *SAFE.get(path, []), f"{flag}={value}"]
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(BUDGET_S)
    try:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    captured = capsys.readouterr()
    assert excinfo.value.code == 2, argv
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("repro: error: "), lines
    return lines[0]


def test_the_walk_finds_the_flags():
    assert len({(path, flag) for path, flag, _ in FLOAT_CASES}) >= 60
    assert len(RANGE_CASES) >= 90


@pytest.mark.parametrize("path, flag, value", FLOAT_CASES,
                         ids=[f"{' '.join(p)} {f} {v}"
                              for p, f, v in FLOAT_CASES])
def test_every_float_flag_refuses_non_finite(path, flag, value, capsys):
    line = _refused(path, flag, value, capsys)
    assert line.startswith(f"repro: error: {flag} must be in ")


@pytest.mark.parametrize("path, flag, value", RANGE_CASES,
                         ids=[f"{' '.join(p)} {f} {v}"
                              for p, f, v in RANGE_CASES])
def test_every_declared_range_is_enforced(path, flag, value, capsys):
    line = _refused(path, flag, value, capsys)
    assert line.startswith(f"repro: error: {flag} must be in ")


@pytest.mark.parametrize("path, flag", sorted(
    {(path, flag.name): flag for path, flag in _flag_rows()
     if "field" in flag.kwargs}), ids=str)
def test_spec_bound_flags_take_the_field_default(path, flag):
    """A flag that names a spec field parses to the field's default,
    unless its row states another — never the same one again."""
    row = next(row for p, row in _flag_rows()
               if p == path and row.name == flag)
    args = PARSERS[path].parse_args(_positionals(PARSERS[path]))
    field_default = knob(row.kwargs["field"])[0]
    if row.kwargs["default"] is None:
        assert getattr(args, row.dest) == field_default
    else:
        assert row.kwargs["default"] != field_default
        assert getattr(args, row.dest) == row.kwargs["default"]


# -- the specs ----------------------------------------------------------------

def _spec_classes():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    found, todo = set(), [Spec]
    while todo:
        for cls in todo.pop().__subclasses__():
            found.add(cls)
            todo.append(cls)
    return found


#: one valid instance of every spec class (policies are specs too)
INSTANCES = [*SPECS, RepairPolicy(),
             *(cls() for cls in REPAIR_POLICIES.values())]


def test_every_spec_class_is_walked():
    assert _spec_classes() <= {type(spec) for spec in INSTANCES}


def _numeric_fields(spec):
    return [name for name, field in type(spec).__dataclass_fields__.items()
            if "range" in field.metadata
            or (isinstance(getattr(spec, name), (int, float))
                and not isinstance(getattr(spec, name), bool))]


CASES = [(spec, name) for spec in INSTANCES for name in _numeric_fields(spec)]

NUMBERS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0, -1, 1.5, 2, 70_000]),
    st.floats(allow_nan=False), st.integers(-10**6, 10**6))


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(CASES), value=NUMBERS)
def test_from_dict_refuses_with_value_error_only(case, value):
    spec, name = case
    cls = type(spec)
    data = {**spec.to_dict(), name: value}
    if isinstance(spec, RepairPolicy):
        del data["name"]   # the registry key, not a field
    declared = cls.__dataclass_fields__[name].metadata.get("range")
    bounds = (Range.parse(declared, get_type_hints(cls)[name] is int)
              if declared else None)
    try:
        cls.from_dict(data)
    except ValueError:
        return
    assert bounds is None or bounds.refusal(name, value) is None, (
        f"{cls.__name__}.{name}={value!r} accepted")
