"""One pass of one workload in a fresh interpreter, started by run.py.

    python3 bench/child.py --setup
    python3 bench/child.py WORKLOAD SEED TRACE WORK_DIR

Run from the root of a stemcharts checkout.  The last line of stdout is a
JSON object: the set-up time, or the pass's timings, failures, digests,
peak resident memory and, when TRACE is 1, its spans and counts.  Each
untraced time comes with its speed factor (speed.py).
"""

import json
import os
import resource
import sys
import time


def main() -> None:
    sys.path.insert(0, os.path.abspath("src"))
    if sys.argv[1:] == ["--setup"]:
        from speed import SpeedProbe
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            import stemcharts.cli
            stemcharts.cli.build_parser()
            t1 = time.perf_counter()
        seconds, speed = probe.measure(t0, t1)
        print(json.dumps({"setup_s": seconds, "speed": speed}))
        return
    workload, seed, trace, work_dir = sys.argv[1:]
    import stemcharts
    import stemcharts.cli  # noqa: F401  (with the package: every traced module)
    tracer = None
    if trace == "1":
        from spans import Tracer, install
        tracer = Tracer()
        install(tracer)
    from workloads import run_pass
    os.chdir(work_dir)
    result = run_pass(workload, int(seed), tracer)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
