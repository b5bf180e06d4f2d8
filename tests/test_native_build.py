"""Build-on-first-import of the C modules (``repro.core._native``).

The package holds two: the vault walk (``core/_vaultwalk.c``) and the
trace encoder and fold (``trace/_tracecodec.c``); importing
``repro.core.vault`` loads both.  Each test copies ``src/repro`` without
its ``__pycache__`` directories into a fresh directory and imports it
in new interpreters, so the caches start empty: the first import
compiles each module once, later ones load the cached modules without
the compiler, concurrent first imports leave one loadable module each,
a missing compiler is an ``ImportError`` that names it and the module,
and a warm import loads none of the modules only a build needs.
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
    cache = root / "repro" / package / "__pycache__"
    return sorted(p.name for p in cache.iterdir()
                  if p.name.startswith(stem + "."))


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
    assert "repro.core._vaultwalk" in done.stdout
    assert _cache(root) == []


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
