"""The package's C modules, each built on first import.

``load("repro.core._vaultwalk")`` compiles ``core/_vaultwalk.c`` with
one ``gcc`` call into ``core/__pycache__`` and imports it; later imports
load the cached module and start no process.  Any ``_name.c`` beside a
package's modules loads the same way (``repro.trace._tracecodec``).
The cached file's name carries the source's sha256 and the
interpreter's extension suffix, so an edited source, or another Python,
builds a module of its own and a stale one is never loaded.  The build
writes a temporary file and renames it into place, so concurrent first
imports leave one whole module.  gcc and the Python headers are
required; without gcc the import raises an ``ImportError`` that names
it and the module.
"""

from __future__ import annotations

import hashlib
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader

COMPILER = "gcc"


def _compile(name: str, source: str, target: str) -> None:
    """Build *source* into *target* through a temporary file."""
    import shutil
    import subprocess
    import sysconfig
    import tempfile

    stem = name.rpartition(".")[2]
    cc = shutil.which(COMPILER)
    if cc is None:
        raise ImportError(
            f"{name} is C and is built on first import: the "
            f"compiler {COMPILER!r} was not found on PATH", name=name)
    fd, tmp = tempfile.mkstemp(prefix=f"{stem}.", suffix=".tmp",
                               dir=os.path.dirname(target))
    os.close(fd)
    try:
        done = subprocess.run(
            [cc, "-O2", "-fPIC", "-shared",
             "-I" + sysconfig.get_paths()["include"], source, "-o", tmp],
            capture_output=True, text=True)
        if done.returncode:
            raise ImportError(
                f"{COMPILER} could not build {name}:\n{done.stderr}",
                name=name)
        os.chmod(tmp, 0o755)  # mkstemp's 0600 would hide it from others
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(name: str):
    """The compiled module *name*, built first if the cache holds none.

    *name* is dotted (``"repro.core._vaultwalk"``); its source is the
    ``.c`` file of that stem in the package's directory.  A module loads
    once per interpreter: later calls return it from ``sys.modules``.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    package, _, stem = name.rpartition(".")
    here = sys.modules[package].__path__[0]
    source = os.path.join(here, stem + ".c")
    with open(source, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    cache = os.path.join(here, "__pycache__")
    target = os.path.join(cache, f"{stem}.{digest[:16]}{EXTENSION_SUFFIXES[0]}")
    if not os.path.exists(target):
        os.makedirs(cache, exist_ok=True)
        _compile(name, source, target)
    loader = ExtensionFileLoader(name, target)
    module = module_from_spec(spec_from_loader(name, loader))
    loader.exec_module(module)
    sys.modules[name] = module
    return module
