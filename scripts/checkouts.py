"""Load the ``stackstokes`` package of any checkout under a name of its own.

    from checkouts import load
    a = load(Path("A"), "stackstokes_a")
    b = load(Path("B"), "stackstokes_b")   # b.harness, b.stokes, ... run B's code

The package imports itself only relatively, so each loaded copy runs its own
code, and one interpreter can run several checkouts side by side, or the same
checkout twice.  A root is any tree holding ``src/stackstokes``: a git
checkout, or one made with ``git archive <commit> | tar -x -C DIR``.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path


def load(root: Path, name: str):
    """Import ``root/src/stackstokes`` as the package ``name``, registered in
    ``sys.modules``, and return it; the modules its ``__init__`` imports are
    its attributes (``grid``, ``stokes``, ``leader``, ``harness``, ...)."""
    src = Path(root).resolve() / "src" / "stackstokes"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def commit(root: Path):
    """The short HEAD commit of a git checkout at ``root``, marked ``+changes`` if
    its tracked files differ from it, or None outside git."""
    def git(*cmd):
        return subprocess.run(["git", "-C", str(root), *cmd], capture_output=True, text=True)

    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("+changes" if dirty else "")
