"""Cell child: runs one CLI cell in a fresh, single-threaded interpreter.

Started by run.py as ``child.py ARGV_JSON [SPANS_PATH]``.  It imports
`truncperm.cli`, prints ``{"ready": true}``, runs ``truncperm.cli.main`` on
the JSON-encoded argument list and prints one JSON line: the exit code, the
captured stdout, the elapsed time of `main`, the process's peak RSS and, when
SPANS_PATH is given, the per-span totals of the traced run (the spans
themselves are written to SPANS_PATH).

Each cell gets a fresh process, as each CLI call does, so no memo or cache
carries over from one cell to the next.  The parent enforces the cell
deadline by sending SIGTERM; the handler raises `CellDeadline` inside the
running cell and the child reports the interrupted cell, spans closed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time


class CellDeadline(BaseException):
    """Raised in the running cell when the parent's deadline expires."""


def _on_sigterm(signum, frame):
    raise CellDeadline()


def main() -> int:
    argv = json.loads(sys.argv[1])
    spans_path = sys.argv[2] if len(sys.argv) > 2 else None
    # Keep fd 1 for the replies; anything else that writes to it goes to stderr.
    proto = os.fdopen(os.dup(1), "w")
    os.dup2(2, 1)
    signal.signal(signal.SIGTERM, _on_sigterm)

    import truncperm.cli

    tracer = None
    if spans_path:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    def reply(obj) -> None:
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    reply({"ready": True})
    out = io.StringIO()
    status, rc, error = "ok", None, ""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            rc = truncperm.cli.main(argv)
    except CellDeadline:
        status = "deadline"
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
        error = str(exc.code)
    except Exception as exc:  # MemoryError from the address-space cap included
        status, error = "error", f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    msg = {
        "status": status,
        "rc": rc,
        "stdout": out.getvalue(),
        "error": error,
        "elapsed_s": elapsed,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        tracer.close_all()
        msg["trace"] = tracer.summary()
        tracer.save(spans_path)
    reply(msg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
