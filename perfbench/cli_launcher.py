"""Run the CLI under the tracer: `python perfbench/cli_launcher.py <cmd> <args>`.

Used for the children of the traced cli_batch run.  It times the import of
toricglsm.cli, installs the same wrappers as the in-process runs, calls
cli.main and writes the trace to the file named by $PERFBENCH_TRACE_OUT:
one line of spans, then one line with the import time and the launcher's
own time (installing the wrappers and serialising the spans), which a real
CLI start does not spend and the parent subtracts from the child's wall time.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import toricglsm.cli  # noqa: E402

t1 = time.perf_counter()
import tracer  # noqa: E402

tr = tracer.Tracer()
tr.install()
overhead_s = time.perf_counter() - t1
tr.begin(0)
try:
    code = toricglsm.cli.main(sys.argv[1:])
finally:
    tr.end()
    t2 = time.perf_counter()
    spans = json.dumps(tr.dump())
    overhead_s += time.perf_counter() - t2
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
        fh.write(spans + "\n" + json.dumps({"import_s": t1 - t0, "overhead_s": overhead_s}) + "\n")
sys.exit(code)
