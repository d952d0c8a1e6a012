"""Lattice flow: coefficient ODE, Lax form, and the RK4 trajectory object.

The flow integrated here is

    a_n' = b_n - b_{n-1}
    b_n' = b_n (a_{n+1} - a_n) + c_n - c_{n-1}
    c_n' = c_n (a_{n+2} - a_n)

with b_0 = 0 and all coefficients beyond the truncation treated as absent.
Written on the dense operator this is exactly J' = [J, J_lower], so the
truncated flow is an honest Lax pair and the spectrum of J is conserved.

A trajectory stores the bands and nothing else. The closed-form
resolvent reads all it needs off the exponential of the operator at the
first sample (resolvent.closed_form_resolvent), not off the integrator.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass

import numpy as np

from . import backends
from .core import LatticeState, commutator, norm_bound_stack

__all__ = [
    "CNearZeroError",
    "CorruptionSpec",
    "IntegratorConfig",
    "Trajectory",
    "central_diff",
    "integrate",
    "kostant_rhs",
    "lax_rhs",
]

# Central differences span delta = STENCIL_HALFWIDTH * h on each side of the
# sample, so the stencil stays on the stored grid.
STENCIL_HALFWIDTH = 2

# The deliberate defects CorruptionSpec can inject, in report order.
CORRUPTION_KINDS = ("freeze-b", "scale-c-rhs", "drop-commutator-term")


class CNearZeroError(RuntimeError):
    """Raised when some |c_n| falls below the floor backends.C_FLOOR or turns NaN.

    The c band must stay away from zero for the block partition to remain
    invertible; the integrator refuses to continue past that point. A NaN
    c_min means the bands overflowed: the flow left the finite range.
    """

    def __init__(self, t: float, step: int, c_min: float):
        self.t = t
        self.step = step
        self.c_min = c_min
        what = (
            f"min |c| = {c_min:.3e} fell below floor {backends.C_FLOOR:.3e}"
            if np.isfinite(c_min)
            else "the flow left the finite range"
        )
        super().__init__(f"{what} at t = {t:.6g} (step {step})")


@dataclass(frozen=True)
class CorruptionSpec:
    """Deliberate defect injected into the flow (negative controls).

    kind: 'freeze-b' scales b' by (1 - magnitude), 'scale-c-rhs' scales c'
    by (1 + magnitude), 'drop-commutator-term' removes magnitude * (c_n -
    c_{n-1}) from b_n'. magnitude must be finite and positive.
    """

    kind: str
    magnitude: float = 1.0

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(
                f"unknown corruption kind {self.kind!r}; "
                f"expected one of {sorted(CORRUPTION_KINDS)}"
            )
        if not (self.magnitude > 0 and np.isfinite(self.magnitude)):
            raise ValueError(
                f"corruption magnitude must be finite and > 0, got {self.magnitude}"
            )


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 configuration; t_end must sit on the step grid."""

    t_end: float = 1.0
    h: float = 1e-3

    def __post_init__(self):
        if not (self.h > 0 and np.isfinite(self.h)):
            raise ValueError(f"h must be finite and > 0, got {self.h}")
        if not (self.t_end >= 0 and np.isfinite(self.t_end)):
            raise ValueError(
                f"integration horizon must be finite and >= 0, got {self.t_end}"
            )
        n = round(self.t_end / self.h)
        if abs(n * self.h - self.t_end) > 1e-9 * max(1.0, abs(self.t_end)):
            raise ValueError(
                f"integration horizon {self.t_end} is not an integer multiple "
                f"of h={self.h}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.h)


def kostant_rhs(state: LatticeState):
    """Time derivatives (a', b', c') of the coefficient arrays."""
    y = backends.pack_state(state.a, state.b, state.c)
    dy = np.empty_like(y)
    backends._rhs(y, dy, state.m, None)
    return backends.unpack_bands(dy, state.m)


def lax_rhs(J: np.ndarray) -> np.ndarray:
    """Dense right hand side [J, J_lower] of the Lax form."""
    return commutator(J, np.tril(J, -1))


class Trajectory:
    """Sampled solution on the uniform grid t0 + k h, k = 0..n_steps.

    samples holds the packed rows described in backends; the bands a, b
    and c are views into it, bound once.
    """

    def __init__(self, samples, m, h, t0):
        self.samples = samples
        self.m = m
        self.h = h
        self.t0 = t0
        self.ts = t0 + h * np.arange(samples.shape[0])
        self.a, self.b, self.c = (x.T for x in backends.unpack_bands(samples.T, m))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def index_of(self, t: float) -> int:
        """Grid index of time t; t must lie on the grid."""
        i = int(round((t - self.t0) / self.h))
        if not 0 <= i < self.n_samples or abs(self.t0 + i * self.h - t) > 1e-9 * max(
            1.0, abs(t)
        ):
            raise ValueError(f"t={t} is not on the integration grid")
        return i

    def norm_bounds(self) -> np.ndarray:
        """norm_bound of the operator at every sample (float array)."""
        return norm_bound_stack(self.a, self.b, self.c)

    def state_at(self, i: int) -> LatticeState:
        if not 0 <= i < self.n_samples:
            raise ValueError(
                f"sample index {i} is not on the trajectory (0..{self.n_samples - 1})"
            )
        return LatticeState(
            self.a[i].copy(), self.b[i].copy(), self.c[i].copy(), t=float(self.ts[i])
        )

    def stencil(self, t: float):
        """State at grid time t, and the states at the central_diff points.

        The points are t - delta and t + delta, delta = STENCIL_HALFWIDTH * h.
        A stencil that leaves the grid raises ValueError from state_at.
        """
        i = self.index_of(t)
        k = STENCIL_HALFWIDTH
        before, state, after = (self.state_at(j) for j in (i - k, i, i + k))
        return state, (before, after)

    def to_csv(self, stream) -> None:
        """Write t, Re/Im of every band entry to a text stream, one row per sample."""
        m = self.m
        cols = ["t"]
        for name, count in (("a", m), ("b", m - 1), ("c", m - 2)):
            for n in range(1, count + 1):
                cols += [f"{name}{n}_re", f"{name}{n}_im"]
        bands = self.samples.view(np.float64)  # re, im interleaved
        write_csv(stream, cols, np.column_stack([self.ts, bands]))


# A table of at least this many fields is formatted by two processes. Fork
# plus wait costs 1.5-3.4 ms (2-core Linux box, CPython 3.11, numpy loaded,
# about 56 MB resident) against about 0.6 us per %.17g field, so the helper
# pays for itself from about 10,000 fields; the cut leaves a margin, so the
# resolvent CLI's 4,848-field tables at --angles 4 stay serial while its
# 68k-field --angles 32 sweeps and simulate's 374k-field tables split.
FORK_FIELDS = 50_000


def _write_rows(write, row_fmt, rows) -> None:
    for row in rows:
        write(row_fmt % tuple(row.tolist()))


def write_csv(stream, columns, table) -> None:
    """Write a float table as CSV to a text stream: a header line, then
    %.17g per field.

    %.17g round-trips every double exactly; each row is one string
    operation on its Python floats. The text costs about 0.6 us per field
    and no shorter round-trip format is faster (repr 1.0 us, numpy's
    astype("U32") 1.1 us), so a table of FORK_FIELDS or more is formatted
    on two cores: after the header, a forked helper formats the rows from
    the middle one on with the same row loop and sends its text through a
    pipe, while this process writes the rows before the middle, then
    copies the helper's complete lines into the stream in 64 KiB chunks.
    The helper only formats strings and calls os.write, and it leaves by
    os._exit on every path, so it never flushes the buffers it inherited.
    If it exits non-zero or sends fewer lines than it owes, this process
    formats the missing rows itself: a failed helper costs time, never
    bytes. On any exception, KeyboardInterrupt included, the helper is
    killed and reaped before the exception propagates, so no process
    outlives the call. Smaller tables, hosts without os.fork or
    os.sched_getaffinity, and processes allowed one CPU run the same row
    loop over all rows here.

    On CPython 3.12 and later, os.fork in a process that runs threads, such
    as numpy's BLAS pool, raises a DeprecationWarning; it is left
    unsilenced. The helper runs no code that could meet a lock held by such
    a thread. This path is tested on CPython 3.11; 3.12 is untested.

    Opening a file is the caller's (cli._emit). Kept out of __all__ so that
    tracers time it as part of its caller.
    """
    table = np.asarray(table)
    row_fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    stream.write(",".join(columns) + "\n")
    split = len(table) // 2
    helper = None
    if table.size >= FORK_FIELDS and _two_cpus():
        helper = _start_helper(row_fmt, table[split:])
    if helper is None:
        _write_rows(stream.write, row_fmt, table)
        return
    pid, r = helper
    try:
        _write_rows(stream.write, row_fmt, table[:split])
        done = _copy_lines(r, stream)
        os.waitpid(pid, 0)
        pid = None
        # A failed helper sent whole lines only; the rest are formatted here.
        _write_rows(stream.write, row_fmt, table[split + done :])
    finally:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(r)


def _two_cpus() -> bool:
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
    )


def _start_helper(row_fmt, rows):
    """Fork a helper that sends the text of rows through a pipe and exits:
    (its pid, the pipe's read end), or None when no process can be made."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller formats every row
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            _send_rows(w, row_fmt, rows)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _send_rows(fd, row_fmt, rows) -> None:
    """Format rows in full, then write their text to fd (the helper's part).

    A pipe holds 64 KiB and the parent reads only after its own rows, so
    writing as it went would stall the helper for most of the parent's work.
    """
    parts = []
    _write_rows(parts.append, row_fmt, rows)
    data = memoryview("".join(parts).encode("ascii"))
    while data:
        data = data[os.write(fd, data) :]


def _copy_lines(fd, stream) -> int:
    """Copy the complete lines read from fd until EOF to stream; their count."""
    lines, tail = 0, b""
    while chunk := os.read(fd, 1 << 16):
        chunk = tail + chunk
        cut = chunk.rfind(b"\n") + 1
        stream.write(chunk[:cut].decode("ascii"))
        lines += chunk.count(b"\n", 0, cut)
        tail = chunk[cut:]
    return lines


def integrate(
    state: LatticeState,
    cfg: IntegratorConfig,
    corruption: CorruptionSpec | None = None,
) -> Trajectory:
    """Run fixed-step RK4 from state.t over [t, t + t_end].

    Raises CNearZeroError if any |c_n| falls below backends.C_FLOOR or the
    bands overflow.
    """
    c_min0 = float(np.min(np.abs(state.c)))
    if c_min0 < backends.C_FLOOR:
        raise CNearZeroError(state.t, 0, c_min0)

    y0 = backends.pack_state(state.a, state.b, state.c)
    samples, status = backends.rk4_trajectory(
        y0, state.m, cfg.n_steps, cfg.h, corruption
    )
    if status:
        c = backends.unpack_bands(samples[status], state.m)[2]
        c_min = float(np.min(np.abs(c)))
        raise CNearZeroError(state.t + status * cfg.h, status, c_min)
    return Trajectory(samples, state.m, cfg.h, state.t)


def central_diff(values, h: float):
    """Time derivative from the values at the points of Trajectory.stencil.

    values holds f(t - delta) and f(t + delta), delta = STENCIL_HALFWIDTH * h.
    Truncation error is delta^2/6 times the third derivative.
    """
    k = STENCIL_HALFWIDTH
    return (values[1] - values[0]) / (2.0 * (k * h))
