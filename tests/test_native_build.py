"""Build-on-first-import of the C modules (``repro.core._native``).

The package holds two: the vault walk (``core/_vaultwalk.c``) and the
trace encoder and fold (``trace/_tracecodec.c``); importing
``repro.core.vault`` loads both.  Each test copies ``src/repro`` without
its ``__pycache__`` directories into a fresh directory and imports it
in new interpreters, so the caches start empty: the first import
compiles each module once, later ones load the cached modules without
the compiler, concurrent first imports leave one loadable module each,
a missing compiler is an ``ImportError`` that names it and the module,
a warm import loads none of the modules only a build needs, importing
any one module runs the vault walk's one ``bind``, and binding again
changes nothing.
"""

from __future__ import annotations

import shutil
import site
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
#: Each C module: its package directory and its file-name stem.
MODULES = (("core", "_vaultwalk"), ("trace", "_tracecodec"))

#: Prints how many processes the import ran (the build is one gcc call).
COUNT_BUILDS = """
import subprocess
runs = []
real = subprocess.run
def counting(*args, **kw):
    runs.append(args[0][0])
    return real(*args, **kw)
subprocess.run = counting
import repro.core.vault
print(len(runs))
"""


def _tree(tmp_path: Path) -> Path:
    root = tmp_path / "tree"
    shutil.copytree(SRC, root / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def _command(root: Path, code: str) -> dict:
    """Arguments that run *code* in a new interpreter importing *root*.

    -S keeps site's own imports (a .pth may load tempfile) out of the
    interpreter; the site directories still provide numpy.
    """
    path = [str(root), *site.getsitepackages(), site.getusersitepackages()]
    return dict(args=[sys.executable, "-S", "-c", code],
                env={"PYTHONPATH": ":".join(path), "PATH": "/usr/bin:/bin"},
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def _python(root: Path, code: str) -> subprocess.CompletedProcess:
    return subprocess.run(**_command(root, code), timeout=120)


def _cache(root: Path, package: str = "core", stem: str = "_vaultwalk") -> list:
    """The built modules of *stem*; none when the package was never
    imported (a failed build can stop the import before it)."""
    cache = root / "repro" / package / "__pycache__"
    return sorted(p.name for p in cache.glob(stem + ".*"))


def _caches(root: Path) -> list:
    return [_cache(root, package, stem) for package, stem in MODULES]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A copied tree and what its first import printed."""
    root = _tree(tmp_path_factory.mktemp("native"))
    return root, _python(root, COUNT_BUILDS)


def test_first_import_compiles_once(built):
    root, first = built
    assert first.returncode == 0, first.stderr
    assert first.stdout.split() == [str(len(MODULES))]  # one gcc call each
    for (package, _), (module,) in zip(MODULES, _caches(root)):
        assert module.endswith(".so") and ".tmp" not in module
        mode = (root / "repro" / package / "__pycache__" / module).stat().st_mode
        assert mode & 0o444 == 0o444  # loadable by every user of the install


def test_second_interpreter_loads_without_compiling(built):
    root, _ = built
    again = _python(root, COUNT_BUILDS)
    assert again.returncode == 0, again.stderr
    assert again.stdout.split() == ["0"]


def test_warm_import_loads_no_build_module(built):
    root, _ = built
    probe = _python(root, (
        "import sys\n"
        "import repro.core.vault\n"
        "print(sorted({'subprocess', 'sysconfig', 'tempfile'} & set(sys.modules)))"
    ))
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.split() == ["[]"]


def test_concurrent_first_imports_leave_one_module(tmp_path):
    root = _tree(tmp_path)
    procs = [subprocess.Popen(**_command(root, COUNT_BUILDS)) for _ in range(2)]
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], [err for _, err in outs]
    assert [len(names) for names in _caches(root)] == [1] * len(MODULES)
    after = _python(root, COUNT_BUILDS)
    assert after.returncode == 0, after.stderr
    assert after.stdout.split() == ["0"]


def test_missing_compiler_is_an_import_error_naming_it(tmp_path):
    root = _tree(tmp_path)
    done = _python(root, (
        "import shutil\n"
        "shutil.which = lambda *args, **kw: None\n"
        "try:\n"
        "    import repro.core.vault\n"
        "except ImportError as exc:\n"
        "    print('ImportError:', exc)\n"
    ))
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ImportError:") and "'gcc'" in done.stdout
    # The first one loaded: repro.packets.packet takes build_memrequest
    # from the vault walk's module.
    assert "repro.core._vaultwalk" in done.stdout
    assert _caches(root) == [[], []]


def test_missing_compiler_for_the_trace_codec_names_it(built):
    """With the vault walk cached and the trace codec not, a missing
    compiler is an ImportError naming gcc and the codec."""
    root, _ = built
    tmp = root.parent / "trace_only"
    shutil.copytree(root, tmp)
    cache = tmp / "repro" / "trace" / "__pycache__"
    for name in _cache(tmp, "trace", "_tracecodec"):
        (cache / name).unlink()
    done = _python(tmp, (
        "import shutil\n"
        "shutil.which = lambda *args, **kw: None\n"
        "try:\n"
        "    import repro.core.vault\n"
        "except ImportError as exc:\n"
        "    print('ImportError:', exc)\n"
    ))
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ImportError:") and "'gcc'" in done.stdout
    assert "repro.trace._tracecodec" in done.stdout
    assert _cache(tmp, "trace", "_tracecodec") == []
    assert len(_cache(tmp)) == 1


def test_missing_compiler_for_the_vault_walk_names_it(built):
    """With the trace codec cached and the vault walk not, a missing
    compiler is an ImportError naming gcc and the vault walk."""
    root, _ = built
    tmp = root.parent / "walk_only"
    shutil.copytree(root, tmp)
    cache = tmp / "repro" / "core" / "__pycache__"
    for name in _cache(tmp):
        (cache / name).unlink()
    done = _python(tmp, (
        "import shutil\n"
        "shutil.which = lambda *args, **kw: None\n"
        "try:\n"
        "    import repro.core.vault\n"
        "except ImportError as exc:\n"
        "    print('ImportError:', exc)\n"
    ))
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("ImportError:") and "'gcc'" in done.stdout
    assert "repro.core._vaultwalk" in done.stdout
    assert _cache(tmp) == []
    assert len(_cache(tmp, "trace", "_tracecodec")) == 1


#: What the one ``bind`` installs, read from ``sys.modules`` only, so
#: the probe imports nothing beyond the module under test.
BOUND = """
import sys
m = sys.modules
methods = (m["repro.core.bank"].Bank.read, m["repro.core.queueing"].PacketQueue.remove_positions,
           m["repro.core.vault"].Vault.stage34, m["repro.core.crossbar"].CrossbarUnit.route_requests,
           m["repro.trace.tracer"].Tracer.emit_fast)
clock, walk = m["repro.core.clock"], m["repro.core._vaultwalk"]
stages = (clock._route_stage, clock._vault_stage, clock._response_stage)
assert stages == (walk.route_stage, walk.vault_stage, walk.response_stage)
print(" ".join(type(f).__name__ for f in methods + stages))
"""


@pytest.mark.parametrize("module", [
    "repro.core.bank", "repro.core.queueing", "repro.core.vault", "repro.core.crossbar",
    "repro.core.clock", "repro.trace.tracer", "repro.trace"])
def test_importing_one_module_binds_the_c(built, module):
    root, _ = built
    done = _python(root, f"import {module}\n{BOUND}")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["method_descriptor"] * 5 + ["builtin_function_or_method"] * 3


#: The host lane after ``import repro.host.host``: ``build_memrequest``
#: is the C builder, each of ``Host._inject`` / ``drain_responses`` and
#: ``HMCSim.send`` / ``recv`` / ``recv_all`` is one call into the C, and
#: after a second ``bind`` a request still goes out and comes back.
HOST_LANE = """
import importlib, sys
import repro.host.host
m = sys.modules
walk, packet = m["repro.core._vaultwalk"], m["repro.packets.packet"]
Host, HMCSim = m["repro.host.host"].Host, m["repro.core.simulator"].HMCSim
lane = (walk.build_memrequest, walk.host_inject, walk.host_drain, walk.host_send,
        walk.host_poll, walk.host_recv_all)
assert packet.build_memrequest is walk.build_memrequest
for method, name in ((Host._inject, "host_inject"), (Host.drain_responses, "host_drain"),
                     (HMCSim.send, "host_send"), (HMCSim.recv, "host_poll"),
                     (HMCSim.recv_all, "host_recv_all")):
    assert name in method.__code__.co_names, method
importlib.reload(m["repro.core.clock"])
sim = HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2)
sim.attach_host(0, 0)
host = Host(sim)
tag = host.send_request(m["repro.packets.commands"].CMD.RD64, 0x40)
sim.clock_until_response(1000)
print(" ".join(type(f).__name__ for f in lane), [r.tag for r in host.drain_responses()] == [tag])
"""


def test_the_host_lane_is_c(built):
    root, _ = built
    done = _python(root, HOST_LANE)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["builtin_function_or_method"] * 6 + ["True"]


#: A short traced Table I run, bound once and then bound again by
#: re-running ``repro.core.clock``: its cycles, trace bytes and the
#: references the C holds must not move.
REBIND = """
import hashlib, importlib, io, sys
from repro.core.simulator import HMCSim
from repro.host.host import Host
from repro.packets.packet import ErrStat
from repro.trace.binfmt import BinarySink
from repro.trace.events import EventType
from repro.workloads.random_access import RandomAccessConfig, random_access_requests

def run():
    sim = HMCSim(num_devs=1, num_links=4, num_banks=8, capacity=2)
    for link in range(4):
        sim.attach_host(0, link)
    buf = io.BytesIO()
    sim.set_trace_mask(EventType.STANDARD)
    sim.add_trace_sink(BinarySink(buf, num_vaults=sim.config.device.num_vaults))
    Host(sim).run(random_access_requests(sim.config.device.capacity_bytes,
                                         RandomAccessConfig(num_requests=512, seed=3)))
    sim.tracer.flush()
    return sim.clock_value, hashlib.sha256(buf.getvalue()).hexdigest()

held = (ErrStat.INVALID_ADDRESS, EventType.CHAIN_HOP, EventType.MISROUTE)
first, refs = run(), [sys.getrefcount(o) for o in held]
importlib.reload(sys.modules["repro.core.clock"])
print(run() == first, [sys.getrefcount(o) for o in held] == refs, first[0] > 0)
"""


def test_a_second_bind_changes_nothing(built):
    root, _ = built
    done = _python(root, REBIND)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True"] * 3
