"""Only code a caller reaches stays in ``src/repro``.

Every public top-level name (function, class or constant) defined in a
``src/repro`` module must be reached by something other than the tests
and the examples.  A name is reached when one of these refers to it:

* any ``src/repro`` module, by a name it loads or an attribute it reads
  (an import alone, or a listing in ``__all__``, is a re-export and does
  not count);
* its own module, outside its own definition;
* a ``"repro.pkg.mod:name"`` string in ``src/repro`` (the owner column
  of ``repro.runner.cells.CELLS``);
* a decorator on its definition that is not a plain wrapper (a registry
  such as ``@register_policy``);
* ``bench/*.py`` (imports count there: the benchmark is a caller);
* the Python that ``.github/workflows/ci.yml`` runs (``python -``
  heredocs and ``python -c`` bodies), by what it loads or imports; a
  word in a comment, a grep pattern or a shell line does not count.

A name nothing reaches either goes or stands on :data:`ALLOWLIST` with
the reason it stays.  An entry the code now reaches is stale, and an
entry no test refers to is untested; both fail.

Run ``pytest tests/test_structure.py -rA`` to see the allowlist and its
reasons in the log.
"""

from __future__ import annotations

import ast
import functools
import re
import textwrap
from pathlib import Path
from typing import Dict, Iterator, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TESTS = ROOT / "tests"

ALLOWLIST: Dict[str, str] = {
    "repro.linkguardian.bidirectional:BidirectionalProtectedLink": (
        "paper §5 bidirectional corruption; its claim row is still open "
        "on the ROADMAP"),
    "repro.monitor.fallback:AutoFallback": (
        "paper §5 automatic fallback under high loss; its claim row is "
        "still open on the ROADMAP"),
    "repro.monitor.corruptd:Corruptd": (
        "paper Appendix C corruptd; its claim row is still open on the "
        "ROADMAP"),
    "repro.phy.loss:ScriptedLoss": (
        "deterministic fault injection that tests substitute for a loss "
        "process"),
    "repro.service.app:load_snapshot": (
        "the only reader of the service's shutdown snapshot, and it "
        "checks input from outside the program"),
    "repro.lifecycle.slo:DAY_COLUMNS": (
        "the canonical order of a rollup's per-day columns, which the "
        "replay tests hold every chunk to"),
    "repro.units:NS": (
        "unit vocabulary: the packet tier's base time unit beside US, MS "
        "and SEC"),
    "repro.units:MB": "unit vocabulary: megabytes beside KB",
    "repro.units:MTU_PAYLOAD": (
        "wire-format constant: the 1500 B IP MTU an MTU frame carries"),
    "repro.units:MTU_WIRE": (
        "paper constant: an MTU frame is 1538 B on the wire"),
}

#: Decorators that wrap a definition without recording it anywhere.
WRAPPERS = frozenset({"dataclass", "lru_cache", "cache"})

OWNER = re.compile(r"^(repro(?:\.\w+)+):(\w+)$")


def module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def parse_tree(root: Path) -> Dict[str, ast.Module]:
    return {module_name(path): ast.parse(path.read_text(), str(path))
            for path in sorted(root.rglob("*.py"))}


def decorator_name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def definitions(tree: ast.Module) -> Iterator[Tuple[str, ast.stmt]]:
    """Public top-level names and the statement that binds each."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target,
                                                            ast.Name):
            names = [stmt.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, stmt


def uses(tree: ast.AST) -> Set[str]:
    """Names ``tree`` loads or reads as attributes, through import
    aliases."""
    aliases = {alias.asname: alias.name
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names if alias.asname}
    found: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(aliases.get(node.id, node.id))
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return found


def imported(tree: ast.AST) -> Set[str]:
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def ci_python(text: str) -> Iterator[str]:
    """The Python a workflow file runs: ``python - <<'EOF'`` heredoc
    bodies and ``python -c`` bodies (``"$VAR"`` is the shell variable's
    quoted value)."""
    shell = dict(re.findall(r'^\s*(\w+)="(.*)"$', text, re.M))
    for body in re.findall(r"python - <<'EOF'\n(.*?)\n\s*EOF$", text,
                           re.S | re.M):
        yield textwrap.dedent(body)
    for body in re.findall(r'python -c "([^"]*)"', text):
        yield shell[body[1:]] if body.startswith("$") else body


def owner_strings(tree: ast.AST) -> Set[str]:
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and OWNER.match(node.value)}


@functools.lru_cache(maxsize=None)
def scan() -> Tuple[Set[str], Set[str]]:
    """``(defined, reached)``, both as ``"module:name"`` keys."""
    modules = parse_tree(SRC / "repro")
    by_module = {module: dict(definitions(tree))
                 for module, tree in modules.items()}
    defined = {f"{module}:{name}"
               for module, names in by_module.items() for name in names}

    reached: Set[str] = set()
    for tree in modules.values():
        reached |= owner_strings(tree)
    for module, names in by_module.items():
        for name, stmt in names.items():
            if any(decorator_name(d) not in WRAPPERS
                   for d in getattr(stmt, "decorator_list", ())):
                reached.add(f"{module}:{name}")

    # A load in another module refers to that module's own definition
    # when it has one; otherwise it reaches every module defining it.
    loaded = {module: uses(tree) for module, tree in modules.items()}
    for module, names in by_module.items():
        body = [(stmt, uses(stmt)) for stmt in modules[module].body]
        for name, definition in names.items():
            own = any(name in words for stmt, words in body
                      if stmt is not definition)
            if own or any(
                    name in words and name not in by_module[other]
                    for other, words in loaded.items() if other != module):
                reached.add(f"{module}:{name}")

    external: Set[str] = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        external |= uses(tree) | imported(tree)
        reached |= owner_strings(tree)
    ci = ROOT / ".github" / "workflows" / "ci.yml"
    for source in ci_python(ci.read_text()):
        tree = ast.parse(source)
        external |= uses(tree) | imported(tree)
    reached |= {key for key in defined if key.partition(":")[2] in external}
    return defined, reached


def test_every_public_name_has_a_caller():
    defined, reached = scan()
    unreached = sorted(defined - reached - set(ALLOWLIST))
    assert not unreached, (
        "public names in src/repro that only tests or examples reach; "
        "delete them or allowlist them with a reason:\n  "
        + "\n  ".join(unreached))


def test_allowlist_entries_are_defined_and_unreached():
    defined, reached = scan()
    assert not set(ALLOWLIST) - defined, "allowlisted names that are gone"
    stale = sorted(set(ALLOWLIST) & reached)
    assert not stale, f"allowlisted names the code now reaches: {stale}"


def test_allowlist_entries_have_reasons_and_tests():
    tests = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(TESTS.glob("*.py"))
             if path.name != Path(__file__).name}
    words = {name: uses(tree) | imported(tree)
             for name, tree in tests.items()}
    for key, reason in sorted(ALLOWLIST.items()):
        name = key.partition(":")[2]
        users = sorted(test for test, found in words.items() if name in found)
        assert reason.strip(), f"{key} has no reason"
        assert users, f"{key}: no test exercises it"
        print(f"{key}: {reason} (tested by {', '.join(users)})")


# The rules the scan applies, each on a few lines of source.

def test_import_and_all_listing_do_not_reach():
    tree = ast.parse('from a import X\n__all__ = ["X"]\n')
    assert "X" not in uses(tree)
    assert imported(tree) == {"X"}


def test_alias_loads_and_attribute_reads_reach():
    tree = ast.parse("from a import X as Y\nimport b\nY()\nb.Z\n")
    assert {"X", "Z"} <= uses(tree)
    assert "Y" not in uses(tree)


def test_only_wrapping_decorators_leave_a_name_unreached():
    tree = ast.parse(
        "@dataclass(frozen=True)\nclass A: pass\n"
        "@functools.lru_cache(maxsize=None)\ndef f(): pass\n"
        "@register_policy('x')\ndef g(): pass\n")
    names = [decorator_name(d) for stmt in tree.body
             for d in stmt.decorator_list]
    assert names == ["dataclass", "lru_cache", "register_policy"]
    assert [name in WRAPPERS for name in names] == [True, True, False]


def test_owner_strings_name_a_module_and_an_attribute():
    tree = ast.parse('CELLS = ("repro.runner.cells:CELLS", "repro:x", '
                     '"repro.a:b c", "other.mod:name")\n')
    assert owner_strings(tree) == {"repro.runner.cells:CELLS"}


def test_ci_callers_are_the_python_it_runs():
    text = textwrap.dedent("""\
        # Foo in a comment
        run: |
          test -z "$(grep -rn "Bar" src/repro)"
          CODE="import json; print(Baz)"
          python -c "$CODE" | python -c "from repro.a import Qux"
          PYTHONPATH=src python - <<'EOF'
          from repro.b import Quux
          Quux.corge()
          EOF
        """)
    found: Set[str] = set()
    for source in ci_python(text):
        tree = ast.parse(source)
        found |= uses(tree) | imported(tree)
    assert {"Baz", "Qux", "Quux", "corge"} <= found
    assert not {"Foo", "Bar"} & found


def test_definitions_are_public_top_level_bindings():
    tree = ast.parse("_p = 1\nA = B = 2\nC: int = 3\ndef e(): pass\n"
                     "class F:\n    G = 4\nimport os\nx.y = 5\n")
    assert [name for name, _ in definitions(tree)] == ["A", "B", "C", "e",
                                                        "F"]
