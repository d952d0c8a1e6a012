"""The six benchmark workloads and their correctness oracles.

Each workload builds its inputs from the workload seed alone. Every oracle
runs outside the timed region. An output whose bytes equal the last output
judged in the run gets that output's verdict again without a second check.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import math
import os
import sys
import traceback
from collections import Counter
from time import perf_counter

import numpy as np

import kostant_toda
from kostant_toda import IntegratorConfig, cli, integrate, random_state, verify
from kostant_toda.resolvent import dense_resolvent_block

from harness import CRASH, NONFINITE, WRONG, Verdict, Workload

CLOSED_FORM_TOL = 1e-4  # the threshold check_closed_form_resolvent applies
TRACE_TOL = 1e-10  # allowed drift of tr J^k, relative to max(1, |tr J^k(0)|)


def warm_up():
    """First integrate call of the process; numba's JIT compile lands here."""
    integrate(random_state(0, 8), IntegratorConfig(t_end=2e-3, h=1e-3))


# ----------------------------------------------------------------------


class VerifySuite(Workload):
    """run_suite with the three controls, jobs=1, on seeds 10s .. 10s+n-1.

    One operation is one check. A check that raises is isolated at the check
    boundary: it becomes a failed report carrying the exception type, and the
    suite goes on to the next check, so one seed-dependent exception does not
    erase the other checks of the pass.
    """

    name = "verify-suite"
    ops_per_pass = 22  # reports of a complete suite: 19 checks and 3 controls

    def __init__(self, seed, n_seeds=10):
        self.seeds = list(range(10 * seed, 10 * seed + n_seeds))
        self._first = None
        self._patches = []

    def setup(self):
        warm_up()
        for attr, value in list(vars(verify).items()):
            if attr.startswith("check_") or attr == "run_control":
                self._patches.append((attr, value))
                setattr(verify, attr, _isolated(value, attr))

    def teardown(self):
        while self._patches:
            setattr(verify, *self._patches.pop())

    def steps(self):
        return [self._suite]

    def _suite(self):
        reports = verify.run_suite(seeds=self.seeds, jobs=1)
        return reports, verify.reports_to_json(reports)

    def judge(self, output):
        reports, text = output
        self.ops_per_pass = len(reports)
        if self._first is None:
            self._first = text
        failures = Counter()
        if text != self._first:
            failures[f"{WRONG}:report_bytes_differ"] = len(reports)
            return Verdict(len(reports), failures)
        for r in reports:
            if "error" in r.instance:
                failures[f"{CRASH}:{r.instance['error']}"] += 1
            elif not math.isfinite(r.max_residual):
                failures[NONFINITE] += 1
            elif not r.passed:  # the suite's own verdict: a failure, not a wrong report
                failures[f"check_failed:{r.id}"] += 1
        return Verdict(len(reports), failures)


def _isolated(fn, attr):
    n_reports = 2 if attr == "check_exponential_moments" else 1

    def call(*args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # one check's exception fails that check only
            print(f"{attr} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            rep = verify.CheckReport(
                id=f"{attr}.{args[0]}" if attr == "run_control" else attr,
                instance={"error": type(exc).__name__},
                max_residual=math.nan,
                threshold=math.nan,
                passed=False,
                runtime_s=perf_counter() - start,
            )
            return rep if n_reports == 1 else [copy.copy(rep) for _ in range(n_reports)]

    call.__name__ = attr
    return call


# ----------------------------------------------------------------------


class _CliWorkload(Workload):
    """In-process command line calls, each writing a CSV file."""

    def __init__(self, seed, tmpdir):
        self.seed = seed
        self.tmpdir = tmpdir
        self._judged = {}  # output path -> (bytes, verdict) of the last output checked there

    def calls(self):
        """(argv, output path, instance seed) of each call a pass makes."""
        raise NotImplementedError

    @property
    def ops_per_pass(self):
        return self.ops_per_call * len(self.calls())

    def setup(self):
        warm_up()

    def steps(self):
        """One step per call, so that each is timed between reference runs."""
        return [functools.partial(_call_cli, argv) for argv, _out, _seed in self.calls()]

    def collect(self, outputs):
        return outputs

    def judge(self, output):
        verdict = Verdict(0)
        for (code, err), (_argv, out, seed) in zip(output, self.calls()):
            one = self._judge_call(code, err, out, seed)
            verdict.ops += one.ops
            verdict.failures.update(one.failures)
        return verdict

    def _judge_call(self, code, err, out, seed):
        n = self.ops_per_call
        if code != 0:
            print(f"{self.name}: exit code {code}: {err.strip()}", file=sys.stderr)
            return Verdict(n, Counter({f"exit{code}": n}))
        try:
            with open(out, "rb") as fh:
                data = fh.read()
            os.remove(out)
        except FileNotFoundError:
            return Verdict(n, Counter({f"{WRONG}:no_output": n}))
        if self._judged.get(out, (None,))[0] != data:
            self._judged[out] = (data, self.check(data, seed))
        return self._judged[out][1]

    def check(self, data, seed):
        raise NotImplementedError


def _call_cli(argv):
    """cli.main(argv) with its output captured; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return cli.main(argv), err.getvalue()


def _parse_csv(data, n_cols):
    """Rows of a numeric CSV with a header line; None if it does not parse."""
    try:
        table = np.loadtxt(io.BytesIO(data), delimiter=",", skiprows=1, ndmin=2)
    except ValueError:
        return None
    return table if table.shape[1] == n_cols else None


class ResolventSweep(_CliWorkload):
    """kostant-toda resolvent at m=64 over 32 angles with the closed form.

    One operation is one CSV row. A row fails when a field is not finite or
    when the Neumann value is further from the dense solve than its tail
    bound. Rows where the closed form disagrees with the Neumann value by
    more than CLOSED_FORM_TOL are counted, not failed (a known defect). The
    closed form also overflows to inf or nan on some instances, for example
    at seeds 830, 849 and 860, which fails those rows.
    """

    name = "resolvent-sweep"
    M, T_END, H, ANGLES, STRIDE = 64, 1.0, 1e-3, 32, 10
    INSTANCES = 1  # instance seeds I*s .. I*s+I-1 of workload seed s, one call each
    CLOSED_FORM = True
    ops_per_call = (round(T_END / H) // STRIDE + 1) * ANGLES

    def __init__(self, seed, tmpdir):
        super().__init__(seed, tmpdir)
        self._trajs = {}
        self._counters = {}  # instance seed -> closed-form counters of its last output

    def calls(self):
        out = []
        for seed in range(self.INSTANCES * self.seed, self.INSTANCES * (self.seed + 1)):
            path = os.path.join(self.tmpdir, f"{self.name}-{seed}.csv")
            argv = ["resolvent", "--seed", str(seed), "--m", str(self.M),
                    "--t-end", str(self.T_END), "--h", str(self.H), "--angles", str(self.ANGLES),
                    "--stride", str(self.STRIDE), "--out", path]
            if self.CLOSED_FORM:
                argv.append("--closed-form")
            out.append((argv, path, seed))
        return out

    def check(self, data, seed):
        n = self.ops_per_call
        rows = _parse_csv(data, 21 if self.CLOSED_FORM else 12)
        if rows is None:
            return Verdict(n, Counter({f"{WRONG}:unparsable": n}))
        if seed not in self._trajs:
            state = random_state(seed, self.M)
            self._trajs[seed] = integrate(state, IntegratorConfig(t_end=self.T_END, h=self.H))
        traj = self._trajs[seed]
        failures = Counter()
        if len(rows) < n:
            failures[f"{WRONG}:missing_rows"] += n - len(rows)
        finite = np.isfinite(rows).all(axis=1)
        failures[NONFINITE] += int(np.count_nonzero(~finite))
        for row in rows[finite]:
            st = traj.state_at(int(round(row[0] / self.H)))
            z = complex(row[1], row[2])
            neumann = (row[3:11:2] + 1j * row[4:11:2]).reshape(2, 2)
            if np.max(np.abs(neumann - dense_resolvent_block(st, z))) > row[11]:
                failures[f"{WRONG}:neumann_vs_dense"] += 1
        if not self.CLOSED_FORM:
            return Verdict(max(len(rows), n), +failures)
        max_diff = rows[:, 20]
        self._counters[seed] = {
            "rows_over_tol": int(np.count_nonzero(max_diff > CLOSED_FORM_TOL)),
            "max_diff": float(np.max(max_diff[np.isfinite(max_diff)], initial=0.0)),
            "rows_nonfinite": int(np.count_nonzero(~np.isfinite(max_diff))),
        }
        return Verdict(max(len(rows), n), +failures)

    def counters(self):
        """Closed-form counters of one pass: summed over its sweeps, and the
        worst max_diff of any row."""
        per = list(self._counters.values())
        key = "resolvent.closed_form_resolvent."
        return {
            key + "rows_over_tol": sum(c["rows_over_tol"] for c in per),
            key + "max_diff": max((c["max_diff"] for c in per), default=0.0),
            key + "rows_nonfinite": sum(c["rows_nonfinite"] for c in per),
        }


class ResolventNeumann(ResolventSweep):
    """kostant-toda resolvent at m=64 over 4 angles without the closed form,
    on the 16 instance seeds 16s .. 16s+15 of workload seed s.

    The Neumann term count varies 2x from instance to instance, and a pass's
    time follows it; sixteen instances per pass average most of that out.
    Rows and their oracle are those of resolvent-sweep without the
    closed-form columns, which overflow on some instances.
    """

    name = "resolvent-neumann"
    ANGLES, INSTANCES, CLOSED_FORM = 4, 16, False
    ops_per_call = (round(ResolventSweep.T_END / ResolventSweep.H) // ResolventSweep.STRIDE + 1) * ANGLES


class SimulateCsv(_CliWorkload):
    """kostant-toda simulate at m=32 to t = 2 with h = 1e-3: 2,001 samples.

    One operation is one pass. It fails on a non-zero exit code, on a
    non-finite value, or when the CSV does not parse back bit-identical to a
    direct integrate call. Before t = 2 the complex flow of some instances
    runs into a finite-time singularity (for example seeds 32, 33 and 52,
    where q3' = exp(q2 - q1) overflows), and the CSV holds inf and nan.
    """

    name = "simulate-csv"
    M, T_END, H = 32, 2.0, 1e-3
    ops_per_call = 1

    def calls(self):
        path = os.path.join(self.tmpdir, f"{self.name}.csv")
        argv = ["simulate", "--seed", str(self.seed), "--m", str(self.M),
                "--t-end", str(self.T_END), "--h", str(self.H), "--out", path]
        return [(argv, path, self.seed)]

    def check(self, data, seed):
        m = self.M
        traj = integrate(random_state(seed, m), IntegratorConfig(t_end=self.T_END, h=self.H))
        band = traj.samples[:, : 3 * m]
        expect = np.empty((traj.n_samples, 1 + 2 * band.shape[1]))
        expect[:, 0] = traj.ts
        expect[:, 1::2] = band.real
        expect[:, 2::2] = band.imag
        rows = _parse_csv(data, expect.shape[1])
        if rows is not None and not np.isfinite(rows).all():
            return Verdict(1, Counter({NONFINITE: 1}))
        same = rows is not None and rows.shape == expect.shape and np.array_equal(rows, expect)
        return Verdict(1, Counter() if same else Counter({f"{WRONG}:csv_differs": 1}))


class SimulateCsvT1(SimulateCsv):
    """simulate-csv to t = 1 with h = 5e-4: the same 2,000 steps and 2,001
    rows, but no instance of seeds 0..399 leaves the finite range."""

    name = "simulate-csv-t1"
    T_END, H = 1.0, 5e-4


class LongTrajectory(Workload):
    """One library integrate call on random_state(s, 1024), 1,000 steps.

    The call stores 49 MB of samples. At 5,000 steps (246 MB) one pass took
    1.0-1.3 s, and ten runs of the same code spread by 11% of their median;
    passes of a quarter of a second spread by 4%. One operation is one pass. It fails on an abort, on any non-finite
    sample, or when tr J^k (k = 1..3) at the last sample drifts from its
    t = 0 value by more than TRACE_TOL relative to max(1, |tr J^k(0)|).
    """

    name = "long-trajectory"
    ops_per_pass = 1

    def __init__(self, seed, m=1024, t_end=0.1, h=1e-4):
        self.seed = seed
        self.m = m
        self.cfg = IntegratorConfig(t_end=t_end, h=h)
        self.state = None

    def setup(self):
        self.state = random_state(self.seed, self.m)
        warm_up()

    def steps(self):
        return [self._integrate]

    def _integrate(self):
        # Looked up at call time, so that a traced run sees the wrapper.
        return kostant_toda.integrate(self.state, self.cfg)

    def judge(self, traj):
        if not np.isfinite(traj.samples.sum()):  # any inf or nan makes the sum non-finite
            return Verdict(1, Counter({NONFINITE: 1}))
        first = power_traces(traj.a[0], traj.b[0], traj.c[0])
        last = power_traces(traj.a[-1], traj.b[-1], traj.c[-1])
        drift = np.abs(last - first) / np.maximum(1.0, np.abs(first))
        ok = bool(np.all(drift <= TRACE_TOL))
        return Verdict(1, Counter() if ok else Counter({f"{WRONG}:trace_drift": 1}))


def power_traces(a, b, c):
    """tr J, tr J^2, tr J^3 of the banded operator, from its closed walks.

    A closed walk of length 2 is a loop twice or an up-down pair (weight b);
    of length 3, three loops, an up-down pair with one loop at either end,
    or two steps up and one c step down, each counted once per rotation.
    """
    return np.array([
        a.sum(),
        (a * a).sum() + 2 * b.sum(),
        (a**3).sum() + 3 * (b * (a[:-1] + a[1:])).sum() + 3 * c.sum(),
    ])


def make(name, seed, tmpdir):
    """The workload called name, built from the workload seed."""
    if name == VerifySuite.name:
        return VerifySuite(seed)
    if name == LongTrajectory.name:
        return LongTrajectory(seed)
    for cls in (ResolventSweep, ResolventNeumann, SimulateCsv, SimulateCsvT1):
        if name == cls.name:
            return cls(seed, tmpdir)
    raise ValueError(f"unknown workload {name!r}")
