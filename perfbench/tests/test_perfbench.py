"""Tests of the benchmark itself: accounting, tracing and its oracles.

Run from the repository root with  python3 -m pytest perfbench/tests
"""

import json
import os
from collections import Counter

import numpy as np
import pytest

import harness
import layers
import run
import workloads
from kostant_toda import random_state, verify
from tracer import Tracer

from conftest import ROOT


class Flaky(harness.Workload):
    """Fake workload whose second pass raises."""

    name = "flaky"
    ops_per_pass = 3

    def __init__(self):
        self.calls = 0

    def steps(self):
        return [self.step]

    def step(self):
        self.calls += 1
        if self.calls == 2:
            raise ZeroDivisionError("injected")
        return self.calls

    def judge(self, output):
        return harness.Verdict(3)


def test_injected_crash_counts_as_failed_operations():
    record = harness.run_passes(Flaky(), seconds=1e9, max_passes=5)
    assert record.passes == 5
    assert len(record.pass_s) == 4  # the crashed pass's time is left out
    assert record.attempted == 15
    assert record.failures == Counter({"crash:ZeroDivisionError": 3})
    assert len(record.rel) == 4
    assert len(record.ref_s) == 5  # the kernel also runs after the crashed step
    res = {"env": {}, "passes": record.passes, "pass_s": record.pass_s, "rel": record.rel,
           "ref_s": record.ref_s,
           "setup_s": [0.1],
           "attempted": record.attempted, "failures": dict(record.failures),
           "wrong": record.wrong, "peak_rss_mb": 1.0}
    line = run.result_line(res, trace=0)
    assert line["correct"] is True  # an exception is a failure, not a wrong output
    assert line["failed"] / line["attempted"] == pytest.approx(3 / 15)


def test_check_exception_fails_only_that_check(monkeypatch):
    def broken(seeds):
        raise ZeroDivisionError("injected")

    monkeypatch.setattr(verify, "check_rhs_equivalence", broken)
    w = workloads.VerifySuite(0, n_seeds=1)
    w.setup()
    try:
        record = harness.run_passes(w, seconds=0)
    finally:
        w.teardown()
    assert verify.check_rhs_equivalence is broken
    assert record.attempted == 22
    assert record.failures == Counter({"crash:ZeroDivisionError": 1})
    assert len(record.pass_s) == 1


def _untraced_then_traced(w):
    w.setup()
    try:
        outputs = [w.run_pass()]
        tracer = Tracer()
        tracer.install()
        try:
            outputs.append(w.run_pass())
        finally:
            tracer.uninstall()
    finally:
        w.teardown()
    return outputs, tracer


def test_tracing_leaves_verify_report_bytes_unchanged():
    (plain, traced), tracer = _untraced_then_traced(workloads.VerifySuite(0, n_seeds=1))
    assert plain[1] == traced[1]
    assert tracer.summary()["dynamics.integrate"]["calls"] > 0
    assert "verify.run_control.freeze-b" in tracer.summary()


def test_tracing_leaves_long_trajectory_samples_unchanged():
    (plain, traced), tracer = _untraced_then_traced(workloads.LongTrajectory(0, m=64, t_end=0.05))
    assert np.array_equal(plain.samples, traced.samples)
    assert tracer.summary()["dynamics.integrate"]["calls"] == 1
    assert tracer.counts["backends.rk4_trajectory.steps"] == 500


def test_wrappers_reach_every_namespace_and_come_off():
    from kostant_toda import dynamics, resolvent

    original = dynamics.integrate
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.integrate is resolvent.integrate is dynamics.integrate
        assert dynamics.integrate is not original
    finally:
        tracer.uninstall()
    assert verify.integrate is resolvent.integrate is dynamics.integrate is original


@pytest.mark.parametrize("make", [
    lambda out: workloads.ResolventNeumann(0, out),
    lambda out: workloads.SimulateCsvT1(0, out),
])
def test_layer_self_times_sum_to_pass_time(make, outdir):
    w = make(outdir)
    w.setup()
    tracer, record = layers.traced_run(w, seconds=0)
    w.teardown()
    assert record.failed == 0
    summary = tracer.summary()
    layer_self = sum(row["self_s"] for name, row in summary.items() if name != "step")
    assert layer_self == pytest.approx(record.pass_s[0], rel=0.10)
    assert all(row["self_s"] >= 0 for row in summary.values())


def test_resolvent_oracle_rejects_a_wrong_row(outdir):
    w = workloads.ResolventSweep(0, outdir)
    w.setup()
    assert w.judge(w.run_pass()).failures == Counter()
    out = w.calls()[0][1]
    w.run_pass()
    with open(out) as fh:
        lines = fh.read().splitlines()
    fields = lines[5].split(",")
    fields[3] = repr(float(fields[3]) + 1e-6)  # a Neumann entry off by far more than the tail
    lines[5] = ",".join(fields)
    with open(out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    verdict = w.judge([(0, "")])
    assert verdict.failures == Counter({"wrong:neumann_vs_dense": 1})
    assert verdict.ops == w.ops_per_pass == 3232
    assert w.counters()["resolvent.closed_form_resolvent.rows_over_tol"] == 667


def test_resolvent_neumann_sweeps_sixteen_instances_of_the_seed(outdir):
    w = workloads.ResolventNeumann(3, outdir)
    assert [seed for _argv, _out, seed in w.calls()] == list(range(48, 64))
    assert all("--closed-form" not in argv for argv, _out, _seed in w.calls())
    assert w.ops_per_pass == 16 * 404
    assert [seed for _argv, _out, seed in workloads.ResolventSweep(3, outdir).calls()] == [3]


def test_simulate_oracle_rejects_a_changed_digit(outdir):
    w = workloads.SimulateCsv(0, outdir)
    w.setup()
    assert w.judge(w.run_pass()).failures == Counter()
    out = w.calls()[0][1]
    w.run_pass()
    with open(out) as fh:
        text = fh.read()
    head, first, rest = text.split("\n", 2)
    cells = first.split(",")
    cells[1] = repr(np.nextafter(float(cells[1]), np.inf))  # one ulp off
    with open(out, "w") as fh:
        fh.write("\n".join([head, ",".join(cells), rest]))
    assert w.judge([(0, "")]).failures == Counter({"wrong:csv_differs": 1})
    w.run_pass()
    with open(out) as fh:
        text = fh.read()
    with open(out, "w") as fh:
        fh.write(text.replace(cells[2], "nan", 1))  # a non-finite value is a failure, not a wrong answer
    assert w.judge([(0, "")]).failures == Counter({"nonfinite": 1})


def test_power_traces_match_dense_powers():
    st = random_state(3, 10)
    J = st.dense()
    dense = [np.trace(J), np.trace(J @ J), np.trace(J @ J @ J)]
    assert np.allclose(workloads.power_traces(st.a, st.b, st.c), dense, rtol=0, atol=1e-12)


def test_benchmark_file_matches_the_metrics_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == [n for n in run.NAMES if n not in run.UNLISTED]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.names()
    res = {"pass_s": [1.0], "rel": [50.0], "ref_s": [0.02], "setup_s": [0.1], "peak_rss_mb": 1.0, "failures": {},
           "attempted": 1, "wrong": 0}
    printed = run.result_line(res, trace=0)["metrics"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (k, v["unit"]) for k, v in printed.items()]
