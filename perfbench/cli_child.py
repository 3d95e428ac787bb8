"""One traced ``pacshift calibrate`` process for the cli-k100 workload.

Usage: python3 perfbench/cli_child.py TRACE_FILE calibrate [calibrate args...]

Runs ``pacshift.cli.main`` under the tracer, writes its spans, counts and
the in-process ``main`` wall time to TRACE_FILE as JSON, and exits with
``main``'s exit code.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    import pacshift.cli as cli
    from tracing import Tracer

    tracer = Tracer()
    start = time.perf_counter()
    with tracer.root(None, "cli.main"):
        code = cli.main(argv)
    recorded = tracer.export()
    recorded["main_s"] = time.perf_counter() - start
    Path(trace_file).write_text(json.dumps(recorded), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
