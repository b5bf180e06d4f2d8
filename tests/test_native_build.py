"""Build-on-first-import of the C vault walk (``repro.core._native``).

Each test copies ``src/repro`` without its ``__pycache__`` into a fresh
directory and imports it in new interpreters, so the cache starts empty:
the first import compiles once, later ones load the cached module
without the compiler, concurrent first imports leave one loadable
module, a missing compiler is an ``ImportError`` that names it, and a
warm import loads none of the modules only a build needs.
"""

from __future__ import annotations

import shutil
import site
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

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


def _cache(root: Path) -> list:
    cache = root / "repro" / "core" / "__pycache__"
    return sorted(p.name for p in cache.iterdir()
                  if p.name.startswith("_vaultwalk."))


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """A copied tree and what its first import printed."""
    root = _tree(tmp_path_factory.mktemp("native"))
    return root, _python(root, COUNT_BUILDS)


def test_first_import_compiles_once(built):
    root, first = built
    assert first.returncode == 0, first.stderr
    assert first.stdout.split() == ["1"]
    (module,) = _cache(root)
    assert module.endswith(".so") and ".tmp" not in module
    mode = (root / "repro" / "core" / "__pycache__" / module).stat().st_mode
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
    assert len(_cache(root)) == 1
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
    assert _cache(root) == []
