"""Run one ``mixedframes`` CLI command with the tracer installed.

Usage: python perfbench/driver.py <trace.json> <request-id> <cli arguments...>

The driver times ``import mixedframes.cli``, installs the tracer, calls
``mixedframes.cli.main(argv)`` and writes the import time, the exit code,
the spans and the counts to ``trace.json``. It exits with main's code.
"""

from __future__ import annotations

import json
import sys
import time

import tracer


def main() -> int:
    trace_path, request, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    import mixedframes.cli

    import_s = time.perf_counter() - start
    spans = tracer.Tracer()
    spans.install()
    spans.request = request
    spans.active = True
    code = 1
    try:
        code = mixedframes.cli.main(argv)
    finally:
        spans.active = False
        with open(trace_path, "w") as handle:
            json.dump({"import_s": import_s, "exit": code, **spans.dump()}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
