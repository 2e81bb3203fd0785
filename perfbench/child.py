"""One benchmark child process: import the CLI, optionally install the tracer,
run ``cursed_auctions.cli.main`` once, and write its measurements as JSON.

Usage: python3 child.py RESULT_JSON TRACE(0|1) [CLI ARGS...]
With no CLI arguments the child only imports the CLI (a set-up probe).
"""

import json
import sys
import time
import traceback

import cursed_auctions.cli as cli  # set-up ends when this import returns

READY = time.monotonic()


def main() -> int:
    result_path, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    result = {"ready_monotonic": READY}
    if argv:
        import resource

        import numpy
        import scipy

        tracer = None
        if trace:
            import tracer as tracing

            tracer = tracing.install(tracing.Tracer())
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not a benchmark error
            traceback.print_exc()
            rc = 1
        wall = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            rc=rc,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            versions={
                "python": sys.version.split()[0],
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
        )
        if tracer is not None:
            result["trace"] = tracer.summary()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
