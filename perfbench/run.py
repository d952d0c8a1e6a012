#!/usr/bin/env python3
"""Benchmark of kostant_toda: six workloads, end-to-end and per-layer metrics.

One workload per call, run in a closed loop (one caller, one pass at a time)
in a fresh worker process:

    python3 perfbench/run.py --workload verify-suite --seed 0 --seconds 30 --trace 0

Every workload in turn, with a summary table:

    python3 perfbench/run.py --all --seed 0 --seconds 30 [--trace 1]

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics (setup_s, wall_rel, peak_rss_mb); --trace 1 gives the per-layer
metrics of a traced run instead. wall_rel is the median over the run's passes
of a pass's time in units of the fixed reference kernel, which runs around
each of its steps (see harness.py); the raw median pass time is printed above
the result. Failed operations are counted in "attempted" and
"failed"; "correct" is false when an oracle rejected an output. The package
is imported from src/ of the checkout this file sits in, never from an
installed copy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NAMES = ("verify-suite", "resolvent-sweep", "resolvent-neumann", "long-trajectory", "simulate-csv",
         "simulate-csv-t1")
UNLISTED = ("verify-suite", "resolvent-sweep", "simulate-csv")  # not in BENCHMARK.json: see README.md
SETUP_SAMPLES = 5  # fresh processes timed per run for setup_s, the worker included
RUN_LIMIT_S = 170  # a run must end within 180 s


def _fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


# ----------------------------------------------------------------------
# worker side: runs inside the fresh workload process


def worker(args):
    sys.path.insert(0, SRC)
    import kostant_toda

    if not os.path.abspath(kostant_toda.__file__).startswith(SRC + os.sep):
        _fail(f"imported kostant_toda from {kostant_toda.__file__}, not from {SRC}")
    import harness
    import layers
    import workloads

    w = workloads.make(args.workload, args.seed, args.tmpdir)
    w.setup()
    print("READY", flush=True)
    if args.setup_only:
        return
    result = {"env": environment()}
    # A traced run spends half its time untraced, for the tracing overhead.
    seconds = args.seconds / 2 if args.trace else args.seconds
    # Nothing the program prints may reach the result channel.
    with contextlib.redirect_stdout(sys.stderr):
        record = harness.run_passes(w, seconds)
        if args.trace:
            tracer, traced = layers.traced_run(w, seconds)
            result["layers"] = layers.metrics(tracer, traced, record, w.counters())
            result["traced_s"] = traced.pass_s
            record.merge(traced)
    w.teardown()
    result.update(
        pass_s=record.pass_s,
        rel=record.rel,
        ref_s=record.ref_s,
        passes=record.passes,
        attempted=record.attempted,
        failures=dict(record.failures),
        wrong=record.wrong,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    )
    print(json.dumps(result), flush=True)


def environment():
    """Backend, numba, CPUs, versions, BLAS threads and commit of this run."""
    import platform

    import numpy

    import kostant_toda

    return {
        "backend": kostant_toda.active_backend(),
        "has_numba": kostant_toda.HAS_NUMBA,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(numpy),
        "commit": _commit(),
    }


def _blas_threads(numpy):
    """Thread count of numpy's bundled OpenBLAS, or the setting of the usual
    environment variables when that library cannot be asked."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    return "unknown"


def _commit():
    """HEAD of the checkout's git directory, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ----------------------------------------------------------------------
# caller side: starts the workload processes and reports


def _spawn(args, tmpdir, setup_only, deadline):
    """Start a worker; returns (process, seconds from start to READY)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--role", "worker",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmpdir", tmpdir]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    ready, _, _ = select.select([proc.stdout], [], [], max(1.0, deadline - perf_counter()))
    line = proc.stdout.readline() if ready else ""
    setup = perf_counter() - start
    if line.strip() != "READY":
        _stop(proc)
        return proc, None
    return proc, setup


def _stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.communicate()


def run_workload(args):
    """One workload: setup samples, then the measuring worker; returns the
    worker's result object with the setup times added."""
    deadline = perf_counter() + RUN_LIMIT_S
    tmpdir = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, setup = _spawn(args, tmpdir, True, deadline)
                proc.communicate()
                if setup is None:
                    _fail(f"{args.workload}: a setup process failed (exit {proc.returncode})", 1)
                setups.append(setup)
        proc, setup = _spawn(args, tmpdir, False, deadline)
        if setup is None:
            _fail(f"{args.workload}: the workload process failed during setup (exit {proc.returncode})", 1)
        setups.append(setup)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            _stop(proc)
            _fail(f"{args.workload}: no result within {RUN_LIMIT_S} s", 1)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmpdir))
        except OSError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        _fail(f"{args.workload}: the workload process exited with {proc.returncode}", 1)
    res = json.loads(lines[-1])
    res["setup_s"] = setups
    return res


def result_line(res, trace):
    """The contract's result object for one workload run."""
    if trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(res["setup_s"]), "unit": "s"},
            "wall_rel": {"value": statistics.median(res["rel"]), "unit": "ref"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    failed = sum(res["failures"].values())
    return {
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": metrics,
    }


def describe(name, res, line):
    """Human-readable lines printed before the result; line may be None."""
    print(f"env: {json.dumps(res['env'], sort_keys=True)}")
    failed = sum(res["failures"].values())
    print(f"{name}: {res['passes']} passes ({len(res['pass_s'])} completed), "
          f"failed_frac = {failed}/{res['attempted']} = {failed / max(res['attempted'], 1):.4g} [1], "
          f"correct = {res['wrong'] == 0}")
    if res["pass_s"]:
        print("  pass_s min/median/max = " + "/".join(
            f"{f(res['pass_s']):.4g}" for f in (min, statistics.median, max)) + " [s]")
        print(f"  reference kernel median = {statistics.median(res['ref_s']):.4g} [s]")
    for reason, n in sorted(res["failures"].items()):
        print(f"  failed {n}: {reason}")
    for key, m in (line["metrics"].items() if line else ()):
        print(f"  {key} = {m['value']:.6g} [{m['unit']}]")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--all", action="store_true", help="run every workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0, help="measured pass time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("caller", "worker"), default="caller", help=argparse.SUPPRESS)
    ap.add_argument("--tmpdir", help=argparse.SUPPRESS)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kostant_toda", "__init__.py")):
        _fail(f"no kostant_toda source tree under {SRC}")
    if args.role == "worker":
        return worker(args)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    names = NAMES if args.all else (args.workload,)
    lines = {}
    for name in names:
        args.workload = name
        res = run_workload(args)
        if not res["pass_s"]:
            describe(name, res, None)
            _fail(f"{name}: no pass completed, so there is no time to report", 1)
        lines[name] = result_line(res, args.trace)
        describe(name, res, lines[name])
    print(json.dumps(lines if args.all else lines[names[0]], allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
