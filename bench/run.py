"""Benchmark of the bgs stepper and verification harness.

Run from the root of a checkout:

    python3 bench/run.py --workload cavity_n32 --seed 1 --seconds 30 --trace 0

One process runs one workload: the imports, then SETUPS set-ups (each
imports `bgs` afresh and builds the workload), then whole rounds of the
workload until the next round would end after --seconds (at least the
workload's minimum), each round checked for correctness.  --trace 0
reports the end-to-end metrics, --trace 1 installs timing wrappers
around the program's layers and reports the per-layer metrics instead.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  Run outputs go to .bench_out/ in the checkout.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUPS = 5
# per-layer metrics that are a maximum, not a sum over set-up and rounds
MAX_METRICS = ("solver.lu_nnz_max",)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def _import_program():
    """Import bgs from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "bgs", "__init__.py")):
        sys.exit(f"error: no bgs sources under {SRC}")
    sys.path.insert(0, SRC)
    # assembly stays serial: the threaded path is measured apart
    os.environ.pop("BGS_THREADS", None)
    import numpy  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    import bgs
    if os.path.dirname(os.path.abspath(bgs.__file__)) != os.path.join(SRC, "bgs"):
        sys.exit(f"error: bgs imported from {bgs.__file__}, not {SRC}")


def _reimport_program() -> None:
    """Import bgs and bgs.cli afresh while numpy and scipy stay loaded.

    The fresh modules are dropped again and the originals put back, so the
    workloads (and the traced run's wrappers) keep using the originals.
    """
    def ours(name):
        return name == "bgs" or name.startswith("bgs.")
    saved = {name: mod for name, mod in sys.modules.items() if ours(name)}
    for name in saved:
        del sys.modules[name]
    try:
        importlib.import_module("bgs.cli")
    finally:
        for name in [n for n in sys.modules if ours(n)]:
            del sys.modules[name]
        sys.modules.update(saved)


def _git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads():
    """Thread count of numpy's OpenBLAS, or None if it cannot be read."""
    import ctypes
    import glob
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..",
                                  "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def environment(args) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "BGS_THREADS": os.environ.get("BGS_THREADS"),
            "blas_threads": _blas_threads(), "git_commit": _git_commit(),
            "machine": platform.machine()}


def _per_layer(tracer, after_setup: dict, rounds: int) -> dict:
    """Per-layer figures for one set-up plus one round."""
    end = tracer.snapshot()
    out = {}
    for name, value in end.items():
        if name in MAX_METRICS:
            out[name] = value
        else:
            out[name] = (after_setup[name] / SETUPS
                         + (value - after_setup[name]) / rounds)
            if isinstance(value, int) and out[name].is_integer():
                out[name] = int(out[name])
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from workloads import WORKLOADS
    import_s = time.perf_counter() - _T0
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    outdir = os.path.join(ROOT, ".bench_out", args.workload)
    os.makedirs(outdir, exist_ok=True)
    env = environment(args)
    print("env: " + json.dumps(env, sort_keys=True), flush=True)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    try:
        setup_times = []
        for _ in range(SETUPS):
            tic = time.perf_counter()
            _reimport_program()
            workload = workload_cls(args.seed, outdir, tracer)
            setup_times.append(time.perf_counter() - tic)
        after_setup = tracer.snapshot() if tracer else None

        round_times, failures = [], []
        attempted = failed = 0
        start = time.perf_counter()
        while True:
            tic = time.perf_counter()
            n_failed, round_failures = workload.round()
            round_times.append(time.perf_counter() - tic)
            if len(round_times) == 1:
                # later rounds only add allocator growth, and how many of
                # them fit depends on the machine's speed
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0
            attempted += workload.ops
            failed += n_failed
            failures += round_failures
            elapsed = time.perf_counter() - start
            if (len(round_times) >= workload_cls.min_rounds
                    and elapsed + round_times[-1] > args.seconds):
                break
        failures += workload.finish()
        per_layer = (_per_layer(tracer, after_setup, len(round_times))
                     if tracer else None)
    finally:
        if tracer:
            tracer.uninstall()

    wall_s = statistics.median(round_times)
    setup_s = statistics.median(setup_times)
    done_per_round = (attempted - failed) / len(round_times)
    if tracer:
        metrics = {name: {"value": per_layer[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "ops_per_s": {"value": done_per_round / wall_s, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(f"{args.workload}: {len(round_times)} round(s) of "
          f"{[round(t, 3) for t in round_times]} s; import {import_s:.3f} s, "
          f"set-up {[round(t, 4) for t in setup_times]} s; "
          f"{attempted} ops, {failed} failed, "
          f"{len(failures)} check failure(s)", flush=True)
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(os.path.join(outdir, f"run-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "round_s": round_times, "import_s": import_s,
                   "setup_runs_s": setup_times, "check_failures": failures,
                   **result}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
