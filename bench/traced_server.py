"""Launcher of the server for the traced pass of the ``serve_*`` workloads.

Runs the program's own ``python -m repro serve`` entry point with the
benchmark's span wrappers installed around the layer boundaries, and writes
the spans as Chrome trace-event JSON when the server stops (SIGINT).  The
untraced pass never uses this file: it starts ``python -m repro serve``.

usage: traced_server.py TRACE_OUT serve [serve options...]
"""

from __future__ import annotations

import sys


def main(argv) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    from spans import SpanRecorder, install

    from repro.cli import main as repro_main

    rec = SpanRecorder()
    install(rec)
    rec.enabled = True
    try:
        repro_main(cli_args)  # blocks until SIGINT; returns its closing message
        return 0
    finally:
        rec.enabled = False
        rec.write_chrome_json(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
