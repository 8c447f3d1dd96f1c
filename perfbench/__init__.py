"""perfbench: the repository benchmark (see ``perfbench/README.md``).

Measures the program purely from outside: the public engine API for the
end-to-end numbers, class-level wrappers around each layer's functions for
the per-layer numbers.  Nothing under ``src/`` imports this package.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_program() -> None:
    """Put the program under test on ``sys.path`` — or stop the run.

    The benchmark holds no copy of the engine: in a directory without
    ``src/repro`` there is nothing to measure, so it exits non-zero
    without printing a result."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program to measure under {SRC}\n")
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
