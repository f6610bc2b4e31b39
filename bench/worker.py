"""One fresh benchmark process: generate inputs, set up, warm up, measure.

Run by ``run.py``, never by hand. Modes:

- ``setup``: time the set-up once and exit.
- ``measure``: set up, warm up, then run tasks untraced for ``--seconds``.
- ``traced``: set up, warm up, then run ``--seconds`` untraced and ``--seconds``
  traced, so the tracing overhead is measured on the same inputs.
- ``traced-only``: as ``traced`` without the untraced phase (the
  single-thread BLAS reference).

The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

from tracing import NullTracer, Tracer
from workloads import ROOT, WORKLOADS

MAX_PROBLEMS_REPORTED = 5
# The timed phase runs at least this many tasks, so the tail percentile (ten
# tasks beyond it) is at least p75, not the median, on the slow pign tasks.
MIN_TIMED_TASKS = 40


def openblas_info() -> dict:
    """Version, configuration and live thread count of numpy's bundled OpenBLAS."""
    info = {"blas": None, "blas_config": None, "blas_threads": None}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                info["blas_threads"] = int(get_threads())
                info["blas_config"] = get_config().decode().strip()
                return info
    return info


def environment() -> dict:
    env = {"python": platform.python_version(), "numpy": np.__version__,
           "cpu_count": os.cpu_count()}
    env.update(openblas_info())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PICARD_OP_THREADS"):
        env[var] = os.environ.get(var)
    return env


def run_tasks(wl, state, specs, tracer, traced: bool, digest=None, seconds=None,
              min_tasks=0):
    """Run tasks from ``specs`` until they run out, or ``seconds`` have passed
    and at least ``min_tasks`` have run.

    Returns the task wall times, the failure count and the first problems.
    Checks and digests run between tasks, outside the timed interval.
    """
    times, failed, problems = [], 0, []
    deadline = None if seconds is None else time.perf_counter() + seconds
    for spec in specs:
        if (deadline is not None and len(times) >= min_tasks
                and time.perf_counter() >= deadline):
            break
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer.root("task"):
                    out = wl.run(state, spec)
            else:
                out = wl.run(state, spec)
        except Exception as exc:  # a failing task is counted, not fatal
            times.append(time.perf_counter() - t0)
            found = [f"raised {type(exc).__name__}: {exc}"]
        else:
            times.append(time.perf_counter() - t0)
            found = wl.check(state, spec, out)
            if digest is not None:
                wl.digest(state, digest, spec, out)
        if found:
            failed += 1
            if len(problems) < MAX_PROBLEMS_REPORTED:
                problems.append(f"task {spec!r:.60}: {'; '.join(found)}")
    return {"times": times, "failed": failed, "problems": problems}


def cycle(pool):
    while True:
        yield from pool


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "measure", "traced", "traced-only"))
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    wl = WORKLOADS[args.workload]
    inputs = wl.generate(args.seed)
    traced = args.mode.startswith("traced")
    tracer = Tracer() if traced else NullTracer()

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import picardop

    if traced:
        tracer.install()
        with tracer.root("setup"):
            state = wl.setup(picardop, inputs, tracer)
    else:
        state = wl.setup(picardop, inputs, tracer)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0
    if traced:
        result["setup_stats"] = tracer.stats
        tracer.reset()
        tracer.uninstall()

    digest = hashlib.sha256()
    warm = run_tasks(wl, state, state.warmup, tracer, False, digest=digest)
    result.update(env=environment(), digest=digest.hexdigest(),
                  warmup_tasks=len(warm["times"]), warmup=warm)
    tasks = cycle(state.pool)
    if args.mode in ("measure", "traced"):
        result["untraced"] = run_tasks(
            wl, state, tasks, tracer, False, seconds=args.seconds,
            min_tasks=MIN_TIMED_TASKS if args.mode == "measure" else 0)
    if traced:
        tracer.install()
        result["traced"] = run_tasks(wl, state, tasks, tracer, True, seconds=args.seconds)
        tracer.uninstall()
        result.update(stats=tracer.stats, counters=tracer.counters)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
