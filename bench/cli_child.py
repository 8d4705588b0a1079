"""One algconn command in a fresh interpreter, as ``python -m algconn.cli``
runs it (import ``algconn.cli``, call ``main``, exit with its code), with the
pace kernel timed just before the import and just after ``main``. With
``--trace``, ``main`` runs under the layer trace.

The last line on stderr is one JSON object: the two kernel times, the import
time and, when traced, the trace counts.

    python3 bench/cli_child.py [--trace] <algconn arguments>
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pace  # noqa: E402
import tracer  # noqa: E402

traced = sys.argv[1:2] == ["--trace"]
kernel_start = pace.kernel()
t0 = time.perf_counter()
import algconn.cli  # noqa: E402

import_ms = (time.perf_counter() - t0) * 1000
trace = tracer.Tracer().install() if traced else None
code = algconn.cli.main(sys.argv[2:] if traced else sys.argv[1:])
report = {"kernel": [kernel_start, pace.kernel()], "import_ms": import_ms}
if trace is not None:
    trace.uninstall()
    report["trace"] = trace.snapshot()
sys.stdout.flush()
sys.stderr.write(json.dumps(report) + "\n")
sys.exit(code)
