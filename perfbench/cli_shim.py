"""The flagcalc CLI with the benchmark's layer wrappers installed.

    PERFBENCH_SPANS=out.json python3 perfbench/cli_shim.py <flagcalc arguments>

Behaves like ``python -m flagcalc.cli``: same output, same exit code.  It
times the import of flagcalc.cli, installs the wrappers of tracing.py, runs
``flagcalc.cli.main`` and, on the way out, writes to PERFBENCH_SPANS the
import time, the time in ``main``, the part of it spent inside library
spans, the process's own elapsed time and the per-layer span totals.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main() -> None:
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    import flagcalc.cli
    import_s = time.perf_counter() - t0
    tracing.install(tracer)
    tracer.active = True
    t1 = time.perf_counter()
    try:
        flagcalc.cli.main(args=sys.argv[1:], prog_name="flagcalc")
    finally:
        tracer.active = False
        record = {
            "import_s": import_s,
            "main_s": time.perf_counter() - t1,
            "outer_s": tracer.outer_s,
            "totals": tracer.summary(),
        }
        record["total_s"] = time.perf_counter() - T_START
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    main()
