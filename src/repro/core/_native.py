"""The C vault walk (``_vaultwalk.c``), built on first import.

The first import compiles ``_vaultwalk.c`` with one ``gcc`` call into
this package's ``__pycache__``; later imports load the cached module
and start no process.  The cached file's name carries the source's
sha256 and the interpreter's extension suffix, so an edited source, or
another Python, builds a module of its own and a stale one is never
loaded.  The build writes a temporary file and renames it into place,
so concurrent first imports leave one whole module.  gcc and the
Python headers are required; without gcc the import raises an
``ImportError`` that names it.
"""

from __future__ import annotations

import hashlib
import os
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader

_NAME = "_vaultwalk"
COMPILER = "gcc"
_HERE = os.path.dirname(os.path.abspath(__file__))


def _compile(source: str, target: str) -> None:
    """Build *source* into *target* through a temporary file."""
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    cc = shutil.which(COMPILER)
    if cc is None:
        raise ImportError(
            f"repro.core.{_NAME} is C and is built on first import: the "
            f"compiler {COMPILER!r} was not found on PATH", name=_NAME)
    fd, tmp = tempfile.mkstemp(prefix=f"{_NAME}.", suffix=".tmp",
                               dir=os.path.dirname(target))
    os.close(fd)
    try:
        done = subprocess.run(
            [cc, "-O2", "-fPIC", "-shared",
             "-I" + sysconfig.get_paths()["include"], source, "-o", tmp],
            capture_output=True, text=True)
        if done.returncode:
            raise ImportError(
                f"{COMPILER} could not build repro.core.{_NAME}:\n"
                f"{done.stderr}", name=_NAME)
        os.chmod(tmp, 0o755)  # mkstemp's 0600 would hide it from others
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load():
    """The compiled module, built first if the cache holds none."""
    source = os.path.join(_HERE, _NAME + ".c")
    with open(source, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    cache = os.path.join(_HERE, "__pycache__")
    target = os.path.join(cache, f"{_NAME}.{digest[:16]}{EXTENSION_SUFFIXES[0]}")
    if not os.path.exists(target):
        os.makedirs(cache, exist_ok=True)
        _compile(source, target)
    loader = ExtensionFileLoader(f"repro.core.{_NAME}", target)
    module = module_from_spec(spec_from_loader(loader.name, loader))
    loader.exec_module(module)
    return module


walk = load()
