"""Closed-loop pass runner with failure accounting, shared by every workload.

A workload runs whole passes one after another on one thread. A pass is a
fixed list of steps (program calls) made in order. Each step is timed; the
pass's output is judged by the workload's oracle afterwards, outside the
timed region. An exception raised inside a pass never ends the run: the
pass's operations count as failed under the exception's type, its time is
kept out of the pass times, and the next pass starts.

Every step is bracketed by the fixed reference kernel below. On a shared
host the speed of a core drifts by up to 2x over tens of seconds, and a step
and the kernel next to it slow down alike, so a pass's time in units of the
reference kernel (`RunRecord.rel`) is steadier than the pass time itself.
"""

from __future__ import annotations

import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

# Failure reasons: crash:<exception type>, exit<code>, check_failed:<check>,
# NONFINITE, or wrong:<oracle verdict>. Only the last marks an output as
# incorrect; a non-finite number is a result the program failed to produce,
# the same failure an exit code reports once the program refuses such results.
CRASH = "crash"
NONFINITE = "nonfinite"
WRONG = "wrong"


class Workload:
    """One benchmark workload. Subclasses set name and ops_per_pass."""

    name = "workload"
    ops_per_pass = 1  # operations a complete pass attempts

    def setup(self):
        """Instance generation and warm-up; runs before the first pass."""

    def run_pass(self):
        """One complete pass, untimed; what judge takes."""
        return self.collect([step() for step in self.steps()])

    def steps(self) -> list:
        """The calls a pass makes, in order; the only code timed."""
        raise NotImplementedError

    def collect(self, outputs):
        """The pass's output from the list of its steps' outputs."""
        return outputs[0]

    def judge(self, output) -> Verdict:
        """Oracle verdict on one pass's output."""
        raise NotImplementedError

    def counters(self) -> dict:
        """Per-layer counters the oracle derived from the outputs."""
        return {}

    def teardown(self):
        """Undo anything setup changed in the process."""


def reference_kernel():
    """Fixed work that mixes what the workloads do: a loop of small complex
    array operations, streaming through a few MB, and float formatting. It
    never calls the package, so no change to the package moves its time.
    About 20 ms on a 2-core 2 GHz Xeon."""
    y = np.linspace(0.0, 1.0, 64) + 0.5j
    for _ in range(800):
        y[1:] += 1e-3 * np.exp(y[:-1] - y[1:])
        y *= 0.999
    block = np.empty((64, 8192), dtype=np.complex128)  # 8 MB
    for sweep in range(4):
        for k in range(64):
            block[k] = (k + sweep) * 1e-3
    g = "{:.17g}".format
    text = ",".join(g(x) for x in (y.real.tolist() + block[:, 0].real.tolist()) * 40)
    return len(text) + float(block.real.sum())


def reference_s():
    """Seconds the reference kernel takes now."""
    start = perf_counter()
    reference_kernel()
    return perf_counter() - start


@dataclass
class Verdict:
    ops: int
    failures: Counter = field(default_factory=Counter)  # reason -> failed operations


@dataclass
class RunRecord:
    """What the passes of one run did."""

    pass_s: list = field(default_factory=list)  # passes that did not crash
    rel: list = field(default_factory=list)  # the same passes in reference-kernel units
    ref_s: list = field(default_factory=list)  # every reference kernel time after a step
    passes: int = 0
    attempted: int = 0
    failures: Counter = field(default_factory=Counter)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def wrong(self) -> int:
        """Failed operations whose output an oracle rejected."""
        return sum(n for reason, n in self.failures.items() if reason.startswith(WRONG))

    def merge(self, other: "RunRecord") -> None:
        self.pass_s += other.pass_s
        self.rel += other.rel
        self.ref_s += other.ref_s
        self.passes += other.passes
        self.attempted += other.attempted
        self.failures.update(other.failures)


def run_passes(workload: Workload, seconds: float, tracer=None, max_passes: int = 100_000):
    """Run passes until their summed time reaches seconds (at least one pass).

    With a tracer, each step is recorded as a "step" span and the oracle runs
    with tracing paused, so only the program's own calls are traced. The
    reference kernel runs before the first step and after every step; a
    step's reference time is the mean of the two runs around it.
    """
    record = RunRecord()
    spent = 0.0
    seen = set()
    ref_before = reference_s()
    while record.passes == 0 or (spent < seconds and record.passes < max_passes):
        record.passes += 1
        outputs, elapsed, rel = [], 0.0, 0.0
        try:
            for step in workload.steps():
                if tracer is not None:
                    step = tracer.wrap("step", step)
                start = perf_counter()
                try:
                    outputs.append(step())
                finally:
                    took = perf_counter() - start
                    elapsed += took
                    ref_after = reference_s()
                    record.ref_s.append(ref_after)
                    rel += took / ((ref_before + ref_after) / 2)
                    ref_before = ref_after
        except Exception as exc:  # the run must outlive any program failure
            reason = f"{CRASH}:{type(exc).__name__}"
            if reason not in seen:
                seen.add(reason)
                traceback.print_exc(file=sys.stderr)
            record.attempted += workload.ops_per_pass
            record.failures[reason] += workload.ops_per_pass
        else:
            record.pass_s.append(elapsed)
            record.rel.append(rel)
            if tracer is not None:
                tracer.enabled = False
            try:
                verdict = workload.judge(workload.collect(outputs))
            finally:
                if tracer is not None:
                    tracer.enabled = True
            del outputs  # a large output must not stay alive into the next pass
            record.attempted += verdict.ops
            record.failures.update(verdict.failures)
        spent += elapsed
    return record
