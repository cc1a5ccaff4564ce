"""Run ``repro.apps.cli serve`` with the benchmark's layer wrappers installed.

Usage::

    python3 perfbench/traced_serve.py SPANS.json serve --transport asyncio ...

Everything after the span file path is passed to the CLI unchanged.  The
recorded spans are written to SPANS.json when the server shuts down (SIGINT)
and also on SIGUSR1, so a client can collect them before it SIGKILLs the
server.
"""

from __future__ import annotations

import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import repro.apps.cli as cli
    from tracing import Tracer, install

    tracer = install(Tracer())

    def dump(*_args: object) -> None:
        tracer.dump(spans_path + ".tmp")
        os.replace(spans_path + ".tmp", spans_path)

    signal.signal(signal.SIGUSR1, dump)
    try:
        return cli.main(argv)
    finally:
        dump()


if __name__ == "__main__":
    sys.exit(main())
