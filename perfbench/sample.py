"""One benchmark sample, in a fresh interpreter.

    python3 perfbench/sample.py SPEC.json RESULT.json

SPEC holds ``invocations`` (argument lists for ``dsmsharp.cli.main``),
``trace`` (bool) and ``sample`` (id). The sample times the import of
``dsmsharp.cli``, then runs the invocations one after another and writes
their exit codes, the wall time after import, the process's peak resident
memory and, when traced, the spans and counts to RESULT.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)

    t0 = time.perf_counter()
    import dsmsharp.cli

    setup_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer(spec["sample"])
        tracer.install()

    codes: list = []
    error = None
    cpu0 = time.process_time()
    t1 = time.perf_counter()
    try:
        for argv in spec["invocations"]:
            if tracer is None:
                codes.append(dsmsharp.cli.main(argv))
            else:
                with tracer.span("cli.main"):
                    codes.append(dsmsharp.cli.main(argv))
    except Exception:  # reported as a failed invocation, not a crash
        error = traceback.format_exc()
        codes.append(None)
    wall_s = time.perf_counter() - t1
    cpu_s = time.process_time() - cpu0

    result = {
        "module": dsmsharp.cli.__file__,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit_codes": codes,
        "error": error,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
