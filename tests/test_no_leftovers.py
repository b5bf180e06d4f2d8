"""What a replaced code path leaves behind, caught by walking the AST of
``src/repro/``: a private ``_name`` function or method that nothing in
``src/repro/`` references, an import of the ``packets/arena.py`` stub, a
second ``Packet.__new__`` call site, a second way to pickle a bank
without its pages, a second caller of ``ClockEngine.tick``, an idle
test beside ``wake_cycle`` in ``advance``, a way back to a selectable
scheduler or to a ``tick()`` that branches on its observers — and, over
the whole repository, a public function nobody mentions."""

import ast
import collections
import functools
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


@functools.cache
def _walk_src():
    """Every ``(file relative to SRC, AST node)`` pair, parsed once."""
    return [
        (str(path.relative_to(SRC)), node)
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
    ]


def test_every_private_function_is_referenced():
    defined, referenced = {}, set()
    for rel, node in _walk_src():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                defined[node.name] = f"{rel}:{node.lineno}"
        elif isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            referenced.add(node.value)  # getattr(obj, "_name") and the like
    leftovers = {n: where for n, where in defined.items() if n not in referenced}
    assert not leftovers, f"private functions nothing references: {leftovers}"


def test_nothing_in_src_imports_the_arena_stub():
    """``packets/arena.py`` exists only for ``benchmarks/spine/child.py``
    and goes when that import does; the program must not lean on it."""
    importers = set()
    for rel, node in _walk_src():
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        if any(name.rsplit(".", 1)[-1] == "arena" for name in names):
            importers.add(f"{rel}:{node.lineno}")
    assert not importers, f"imports of repro.packets.arena: {sorted(importers)}"


def test_packet_new_is_called_only_in_packet_py():
    """One trusted constructor: ``Packet.__new__`` skips the validation
    in ``__post_init__``, so a second call site is a second copy of
    ``_fast_new`` whose slot list drifts from the dataclass."""
    sites = {
        f"{rel}:{node.lineno}"
        for rel, node in _walk_src()
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "Packet"
        and rel != "packets/packet.py"
    }
    assert not sites, f"Packet.__new__ outside packets/packet.py: {sorted(sites)}"


def test_bank_skeleton_state_serves_getstate_only():
    """Delta checkpoints keep the banks out of the stream altogether
    (``PageStore``): the per-bank skeleton reducer is gone, and the
    state dict it pickled has ``Bank.__getstate__`` as its one user."""
    names, callers = set(), set()
    for rel, node in _walk_src():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
            if any(isinstance(n, ast.Attribute) and n.attr == "skeleton_state"
                   for n in ast.walk(node)):
                callers.add((rel, node.name))
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    # (spelt in halves so that `git grep` for the old name stays empty)
    assert "_reduce_bank_" + "skeleton" not in names
    assert callers == {("core/bank.py", "__getstate__")}


def test_the_engine_ticks_from_one_place_and_skips_by_one_rule():
    """``ClockEngine.advance`` is the only caller of ``tick`` (what
    waits — ``clock_until_response`` — goes through ``HMCSim.clock``),
    and it decides what to skip from ``wake_cycle`` alone: idle is the
    case wake = never, not a second ``is_idle`` branch."""
    def receiver(call):  # `self` in `self.tick()`, `engine` in `sim.engine.tick()`
        value = call.func.value
        return value.id if isinstance(value, ast.Name) else getattr(value, "attr", "")

    sites = [
        (rel, fn.name)
        for rel, fn in _walk_src()
        if isinstance(fn, ast.FunctionDef)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
        and call.func.attr == "tick"
        # dev.regs.tick() / dev.ras.tick(cycle) are other objects' ticks.
        and (receiver(call) == "engine"
             or (receiver(call) == "self" and rel == "core/clock.py"))
    ]
    assert sites == [("core/clock.py", "advance")]
    (advance,) = [
        fn for rel, fn in _walk_src()
        if rel == "core/clock.py" and isinstance(fn, ast.FunctionDef)
        and fn.name == "advance"
    ]
    called = {n.attr for n in ast.walk(advance) if isinstance(n, ast.Attribute)}
    assert "wake_cycle" in called and "is_idle" not in called


def test_every_public_function_is_mentioned_somewhere():
    """A public function or method of ``src/repro/`` whose name occurs
    nowhere in the repository but at its own ``def`` — not in ``src/``,
    tests, examples, benchmarks, docs, CI, the verify skill or a
    top-level ``.md`` — is API nobody can have found.  (``ISSUE.md`` is
    the next PR's task description, not part of the tree.)"""
    files = [
        path
        for top in ("src", "tests", "examples", "benchmarks", "docs",
                    ".github", ".claude")
        for path in (REPO / top).rglob("*")
        if path.suffix in (".py", ".md", ".yml", ".toml", ".json")
    ]
    files += [path for path in REPO.glob("*.md") if path.name != "ISSUE.md"]
    mentions = collections.Counter()
    for path in files:
        mentions.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    defined = collections.Counter(
        node.name
        for _, node in _walk_src()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    )
    dead = sorted(n for n, defs in defined.items() if mentions[n] <= defs)
    assert not dead, f"public functions mentioned only at their def: {dead}"


def _clock_nodes():
    return [node for rel, node in _walk_src() if rel == "core/clock.py"]


def test_the_engine_has_one_path_and_no_scheduler_to_select():
    """No ``active`` flag threads through ``core/clock.py`` and nothing
    under ``src/`` spells the retired scheduler value: the full walk is
    ``tests/reference/full_walk.py``, not an option."""
    flags = {
        f"{type(node).__name__}:{node.lineno}"
        for node in _clock_nodes()
        if (isinstance(node, ast.arg) and node.arg in ("active", "_active"))
        or (isinstance(node, ast.Attribute) and node.attr in ("active", "_active"))
    }
    assert not flags, f"`active` is back in core/clock.py: {sorted(flags)}"
    spelt = {
        f"{rel}:{node.lineno}"
        for rel, node in _walk_src()
        if isinstance(node, ast.Constant) and node.value == "naive"
    }
    assert not spelt, f'"naive" as a value under src/: {sorted(spelt)}'


def test_tick_runs_the_list_and_knows_no_observer():
    """``ClockEngine.tick`` is sync, read the cycle, run the steps: the
    profiler and the SUBCYCLE markers are wrappers in the list, never a
    test inside the cycle."""
    (tick,) = [
        node for node in _clock_nodes()
        if isinstance(node, ast.FunctionDef) and node.name == "tick"
    ]
    statements = [n for n in ast.walk(tick) if isinstance(n, ast.stmt)]
    assert len(statements) - 1 <= 6  # nested ones too; not the def itself
    named = {n.id for n in ast.walk(tick) if isinstance(n, ast.Name)} | {
        n.attr for n in ast.walk(tick) if isinstance(n, ast.Attribute)
    }
    assert not {n for n in named if "profiler" in n or "SUBCYCLE" in n}
