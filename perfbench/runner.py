"""One traced CLI process: timed imports, wrappers, then ``cli.main``.

Usage: ``python3 perfbench/runner.py SPANS_JSON [e2qes arguments ...]``.
With no e2qes arguments it only times the imports.  The spans, import
times and generator-cache counters are written to SPANS_JSON once, at
exit; the exit code is the CLI's.
"""

import json
import sys
import time


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    clock = time.perf_counter
    t0 = clock()
    import sympy  # noqa: F401
    t1 = clock()
    import scipy.linalg  # noqa: F401
    t2 = clock()
    import e2qes.cli
    t3 = clock()
    record = {"imports": {"sympy": t1 - t0, "scipy": t2 - t1, "e2qes": t3 - t2}}
    code = 0
    if argv:
        from spans import Instrumentation, Tracer

        tracer = Tracer()
        inst = Instrumentation(tracer)
        inst.install()
        try:
            code = e2qes.cli.main(argv)
        finally:
            info = inst.generators.cache_info()
            record["spans"] = tracer.spans
            record["cache"] = [info.hits, info.misses]
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump(record, fh)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
