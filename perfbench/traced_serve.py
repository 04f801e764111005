"""Launch ``python -m repro serve`` with the benchmark's span tracing.

    python perfbench/traced_serve.py DUMP_PATH serve [serve flags...]

Installs the wrappers of :mod:`tracing` (including the event-loop
ones), then calls ``repro.__main__.main`` with the remaining arguments.
On SIGTERM the span trace is written to ``DUMP_PATH`` and the process
exits.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import check_checkout  # noqa: E402


def main() -> None:
    check_checkout()
    import repro.__main__ as cli
    import tracing

    dump, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer, service=True)

    def on_term(signum, frame):
        tracer.close_open()
        tracer.dump(dump + ".tmp")
        os.replace(dump + ".tmp", dump)
        os._exit(0)

    signal.signal(signal.SIGTERM, on_term)
    cli.main(argv)


if __name__ == "__main__":
    main()
