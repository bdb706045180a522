"""Traced stand-in for ``python -m qlattice.cli``.

    python3 perfbench/cli_shim.py <trace.json> <qlattice arguments...>

Installs the boundary wrappers, then calls ``qlattice.cli.main`` with the
remaining arguments. Spans are written when main returns, or when the
process is asked to stop with SIGTERM.
"""

import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def _stop(signum, frame):
    raise SystemExit(128 + signum)


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    import qlattice.cli
    from tracer import Tracer

    began = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    install_s = time.perf_counter() - began
    signal.signal(signal.SIGTERM, _stop)
    tracer.op = " ".join(argv)
    entry = time.monotonic()
    code = 1
    try:
        code = qlattice.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_path, {"main_entry": entry, "install_s": install_s, "exit": code})
    return code


if __name__ == "__main__":
    sys.exit(main())
