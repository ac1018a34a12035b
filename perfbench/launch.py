"""Run ``python -m repro <args>`` with span recorders around its layers.

Usage: ``python perfbench/launch.py SPANS_DIR serve --port 0 [...]``.
Times ``import repro``, installs the wrappers of
:func:`perfbench.spans.install_serve`, then hands the arguments to
``repro.cli.main``.  Forked shards inherit the wrappers and write their
own span files when they exit; this process writes its file after the
server has drained.
"""

import sys
import time
from pathlib import Path

_start = time.perf_counter()
_root = Path(__file__).resolve().parent.parent
sys.path[0] = str(_root)
sys.path.insert(1, str(_root / "src"))

import repro.cli  # noqa: E402

_import_s = time.perf_counter() - _start

from perfbench import spans  # noqa: E402


def main() -> int:
    recorder = spans.Recorder(sys.argv[1])
    recorder.meta["import_s"] = _import_s
    spans.install_serve(recorder)
    try:
        return repro.cli.main(sys.argv[2:])
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main())
