"""``expfinder serve`` with the layer tracer installed.

Usage: ``python traced_serve.py SPANS_FILE serve [serve flags...]``.
Installs :func:`tracer.install`, then runs the CLI's own ``main``.  The
spans are written to ``SPANS_FILE`` on SIGUSR1 (so the benchmark can
collect them before it SIGKILLs the server) and again when ``serve``
returns after SIGTERM.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans_file, cli_args = argv[0], argv[1:]
    recorder = tracer.Tracer()
    tracer.install(recorder)
    signal.signal(signal.SIGUSR1, lambda signum, frame: recorder.dump(spans_file))
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
