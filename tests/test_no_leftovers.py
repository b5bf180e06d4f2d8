"""What a replaced code path leaves behind, caught by walking the AST of
``src/repro/``: a private ``_name`` function or method that nothing in
``src/repro/`` references, an import of the ``packets/arena.py`` stub, a
second ``Packet.__new__`` call site, a second way to pickle a bank
without its pages, an older checkpoint state shape read outside
``core/migrate.py``, a second caller of ``ClockEngine.tick``, a
subsystem named in ``advance`` beside its due list, a way back to a
selectable scheduler or to a ``tick()`` that branches on its observers,
a sort or a host query in the shard pump, a per-cycle pump beside
``pump_until``, a send/clock/drain loop beside ``Host.run`` — and, over the whole repository, a public function
nobody mentions and a module no command, example, experiment or
benchmark workload imports."""

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
    # The C walk calls Python methods back by name ("_do_mode", ...).
    for path in SRC.rglob("*.c"):
        referenced.update(re.findall(r'"(_\w+)"', path.read_text()))
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
    (``PageStore``) and a bank pickles one flat tuple whose integer head
    is what the store keeps: the per-bank skeleton reducer and the
    state dict both pickled are gone."""
    names = set()
    for rel, node in _walk_src():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    # (spelt in halves so that `git grep` for the old names stays empty)
    assert "_reduce_bank_" + "skeleton" not in names
    assert "skeleton" + "_state" not in names


#: What only code reading an older state shape spells (the two tests
#: are the (None, {slot: value}) default and Bank's oldest tuple).
_OLD_SHAPE_MARKERS = (r"\b_blocks\b", "_storage_v2", "pending_words", '"ber"',
                      r"len\(state\) == 2", r"isinstance\(state, tuple\)")


def test_old_state_shapes_are_read_in_migrate_only():
    """One state shape per class: everything that knows a version-1
    shape lives in ``core/migrate.py`` (which a later format can delete
    in one step), and the two classes whose old shapes were renames or
    leftovers restore with pickle's default."""
    hits = sorted(
        f"{path.relative_to(SRC)}: {marker}"
        for path in SRC.rglob("*.py")
        if path.relative_to(SRC).as_posix() != "core/migrate.py"
        for marker in _OLD_SHAPE_MARKERS
        if re.search(marker, path.read_text())
    )
    assert not hits, f"old state shapes outside core/migrate.py: {hits}"
    custom = sorted(
        f"{rel}:{cls.name}"
        for rel, cls in _walk_src()
        if isinstance(cls, ast.ClassDef)
        and cls.name in ("_DirState", "BitErrorInjector")
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "__setstate__"
    )
    assert not custom, f"a __setstate__ is back: {custom}"
    assert {cls.name for _, cls in _walk_src() if isinstance(cls, ast.ClassDef)} \
        >= {"_DirState", "BitErrorInjector"}  # the guard still looks at something


#: All that ``ClockEngine.advance`` may read: the due list and what
#: runs, skips and traces around it — no subsystem.
_ADVANCE_READS = {"sim", "_sync_steps", "_dues", "_fast_forward", "tick",
                  "clock_value", "tracer", "begin_batch", "end_batch"}


def test_the_engine_ticks_from_one_place_and_skips_by_one_rule():
    """``ClockEngine.advance`` is the only caller of ``tick`` (what
    waits — ``clock_until_response`` — is one ``advance`` with a stop
    test), and it decides what to skip from the due list alone: it reads
    nothing else, so it names no subsystem, and ``wake_cycle`` is the
    stages' entry in that list — idle is the case every entry answers
    never, not an ``is_idle`` branch.  The clock reads no RAS private
    state: ``RasController.next_due`` answers for it."""
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
    read = {n.attr for n in ast.walk(advance) if isinstance(n, ast.Attribute)}
    named = read | {n.id for n in ast.walk(advance) if isinstance(n, ast.Name)}
    assert "_dues" in read and read <= _ADVANCE_READS, read - _ADVANCE_READS
    assert not named & {"ras", "regs", "refresh_interval", "watchdog_cycles",
                        "_link_fault_states", "wake_cycle", "is_idle"}

    from repro.core.simulator import HMCSim

    sim = HMCSim()
    sim.attach_host(0, 0)
    sim.clock(1)
    assert sim.engine._dues[0] == sim.engine.wake_cycle
    clock_reads = {n.attr for n in _clock_nodes() if isinstance(n, ast.Attribute)}
    assert not clock_reads & {"_next_upset", "scrubber"}
    assert "_idle_skip_bound" not in {
        n.name for n in _clock_nodes() if isinstance(n, ast.FunctionDef)
    }


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


def _shard_methods() -> dict:
    (shard,) = [
        node for rel, node in _walk_src()
        if rel == "service/shard.py" and isinstance(node, ast.ClassDef)
        and node.name == "Shard"
    ]
    return {fn.name: fn for fn in shard.body if isinstance(fn, ast.FunctionDef)}


def _called(fn) -> set:
    return {
        call.func.id if isinstance(call.func, ast.Name) else call.func.attr
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and isinstance(call.func, (ast.Name, ast.Attribute))
    }


def test_the_pump_neither_sorts_nor_asks_the_host():
    """``Shard.pump_until`` walks a resident list sorted once per
    membership change and tests each session's host-link queue itself:
    no ``sorted`` and no ``Host.responses_queued`` per pass, nor in the
    receive and the charging it hands the pass to."""
    methods = _shard_methods()
    called = set().union(*(_called(methods[name])
                           for name in ("pump_until", "_receive", "_charge")))
    assert "_residents" in called
    assert not called & {"sorted", "responses_queued"}


def test_the_pump_crosses_its_waits_in_one_call():
    """One pump body: ``Shard`` has ``pump_until`` and no per-cycle
    ``pump`` beside it, and ``MemoryService._drive`` hands each busy
    shard the tick's cycles in one call, with no per-cycle loop of its
    own (no ``range(cycles_per_yield)``)."""
    assert "pump_until" in _shard_methods() and "pump" not in _shard_methods()
    (drive,) = [
        node for rel, node in _walk_src()
        if rel == "service/frontend.py" and isinstance(node, ast.AsyncFunctionDef)
        and node.name == "_drive"
    ]
    loops = [
        node for node in ast.walk(drive)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "range"
    ]
    assert not loops, "_drive loops per cycle again"
    assert "pump_until" in _called(drive)


#: The drive loops that may clock and drain: ``Host.run`` is the one
#: send, clock, drain loop (bubbles, occupancy sampling and the checking
#: host hook it by subclassing); the others each do something it cannot.
_DRIVE_LOOPS = {
    ("host/host.py", "run"): "the one loop",
    ("host/multichannel.py", "run"): "clocks N simulations in reference "
        "ticks across clock domains (§V.C); folding it in would make "
        "Host.run branch on its caller",
    ("workloads/pointer_chase.py", "pointer_chase_run"): "a dependent "
        "read waits for its predecessor's response, one request in flight",
}


def test_one_loop_sends_clocks_and_drains():
    """No ``src`` loop outside ``_DRIVE_LOOPS`` calls both ``clock()``
    and a drain (``drain_*`` or ``recv_all``): a copy of ``Host.run``
    with one small difference belongs in a ``Host`` subclass.  An
    allowlisted loop that is deleted leaves the allowlist too."""
    def names(node):
        return {
            call.func.attr if isinstance(call.func, ast.Attribute) else call.func.id
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))
        }

    loops = {
        (rel, fn.name)
        for rel, fn in _walk_src()
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for loop in ast.walk(fn)
        if isinstance(loop, (ast.For, ast.While))
        and "clock" in (called := names(loop))
        and any(n.startswith("drain") or n == "recv_all" for n in called)
    }
    assert loops == set(_DRIVE_LOOPS), (
        f"send/clock/drain loops beside Host.run: "
        f"{sorted(loops - set(_DRIVE_LOOPS))}; "
        f"allowlisted but gone: {sorted(set(_DRIVE_LOOPS) - loops)}")


#: Modules under ``src/repro/`` that no root below imports, each kept
#: for a reason; anything else no root reaches is a leftover.
_UNREACHED = {
    "addressing/custom.py": "§III.B user-defined maps: the only map that "
        "is not an AddressMap, so it drives the C vault walk's call-back "
        "decode in tests/test_vault_walk_reference.py",
    "analysis/sweep.py": "ROADMAP item 5(c) fans its search out through it",
    "trace/parse.py": "§IV.E: it inverts the trace sinks, and the trace "
        "tests check the sinks against it",
    "verification/shadow.py": "ROADMAP item 5(b) builds on its data model",
}


def _reach_roots():
    """The files whose imports make a module reached: the CLI, the
    examples, the benchmark spine, and ``benchmarks/experiments.py``,
    which writes EXPERIMENTS.md."""
    return [SRC / "cli.py", SRC / "__main__.py",
            *sorted((REPO / "examples").glob("*.py")),
            *sorted((REPO / "benchmarks" / "spine").glob("*.py")),
            REPO / "benchmarks" / "experiments.py"]


def _module_path(name: str):
    """``repro.a.b`` as its file under SRC, or None outside the package."""
    parts = name.split(".")
    if parts[0] != "repro":
        return None
    base = SRC.joinpath(*parts[1:])
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


@functools.cache
def _reexports(init: Path) -> dict:
    """``{name: (module, name there)}`` for each ``from X import`` of a
    package ``__init__``."""
    return {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(ast.parse(init.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    }


def _defining_module(module: str, name: str):
    """The file a ``from module import name`` reaches: the submodule
    *name*, else — through a package's re-exports, which call nothing —
    the module that defines *name*."""
    sub = _module_path(f"{module}.{name}")
    if sub is not None:
        return sub
    path = _module_path(module)
    if path is not None and path.name == "__init__.py":
        origin = _reexports(path).get(name)
        if origin is not None:
            return _defining_module(*origin)
    return path


def _imported_by(path: Path):
    """Files under SRC that *path* imports, package re-exports followed
    to the module that defines each name."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield _module_path(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield _defining_module(node.module, alias.name)


def _reached():
    seen, todo = set(), _reach_roots()
    while todo:
        path = todo.pop()
        if path is None or path in seen:
            continue
        seen.add(path)
        # A package __init__ only re-exports: what it imports is reached
        # by name, through _defining_module, not by the package's import.
        if path.name != "__init__.py":
            todo.extend(_imported_by(path))
    return {str(path.relative_to(SRC)) for path in seen if SRC in path.parents}


def test_every_module_has_a_caller():
    """Every module under ``src/repro/`` is imported, directly or through
    other modules, from ``repro.cli``, an example, the benchmark spine or
    ``benchmarks/experiments.py`` — a re-export in a package
    ``__init__`` is no caller — or it is in ``_UNREACHED`` with its
    reason.  An allowlisted module that gains a caller or is deleted
    leaves the allowlist too."""
    modules = {str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
               if path.name != "__init__.py"}
    reached = _reached()
    assert not modules - reached - set(_UNREACHED), (
        f"modules nothing reaches: {sorted(modules - reached - set(_UNREACHED))}")
    assert not set(_UNREACHED) & reached, (
        f"allowlisted but reached: {sorted(set(_UNREACHED) & reached)}")
    assert set(_UNREACHED) <= modules, (
        f"allowlisted but gone: {sorted(set(_UNREACHED) - modules)}")
