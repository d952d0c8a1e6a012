"""Lattice flow: coefficient ODE, Lax form, and the RK4 trajectory object.

The flow integrated here is

    a_n' = b_n - b_{n-1}
    b_n' = b_n (a_{n+1} - a_n) + c_n - c_{n-1}
    c_n' = c_n (a_{n+2} - a_n)

with b_0 = 0 and all coefficients beyond the truncation treated as absent.
Written on the dense operator this is exactly J' = [J, J_lower], so the
truncated flow is an honest Lax pair and the spectrum of J is conserved.

Alongside the bands, every trajectory carries three scalar quadratures
q1 = int a_1, q2 = int a_2 and q3 = int exp(q2 - q1), which assemble the
upper triangular normalization N(t) used by the closed-form resolvent. The
per-z quadrature block X of that closed form is not integrated here:
resolvent.closed_form_resolvent replays the RK4 stages from the stored
samples, so a trajectory keeps the corruption its flow was run with.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from . import backends
from .core import LatticeState, commutator

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
    c_{n-1}) from b_n'. magnitude must be positive.
    """

    kind: str
    magnitude: float = 1.0

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(
                f"unknown corruption kind {self.kind!r}; "
                f"expected one of {sorted(CORRUPTION_KINDS)}"
            )
        if not self.magnitude > 0:
            raise ValueError("corruption magnitude must be > 0")


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 configuration; t_end must sit on the step grid."""

    t_end: float = 1.0
    h: float = 1e-3

    def __post_init__(self):
        if not (self.h > 0 and np.isfinite(self.h)):
            raise ValueError(f"h must be finite and > 0, got {self.h}")
        if not (self.t_end >= 0 and np.isfinite(self.t_end)):
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end}")
        n = round(self.t_end / self.h)
        if abs(n * self.h - self.t_end) > 1e-9 * max(1.0, abs(self.t_end)):
            raise ValueError(
                f"t_end={self.t_end} is not an integer multiple of h={self.h}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.h)


def kostant_rhs(state: LatticeState):
    """Time derivatives (a', b', c') of the coefficient arrays."""
    y = backends.pack_state(state.a, state.b, state.c)
    dy = np.empty_like(y)
    backends._rhs(y, dy, state.m, None)
    return backends.unpack_bands(dy, state.m)[:3]


def lax_rhs(J: np.ndarray) -> np.ndarray:
    """Dense right hand side [J, J_lower] of the Lax form."""
    return commutator(J, np.tril(J, -1))


class Trajectory:
    """Sampled solution on the uniform grid t0 + k h, k = 0..n_steps.

    samples holds the packed rows described in backends; band and
    quadrature accessors return views into it. corruption is the
    CorruptionSpec (or None) the flow was integrated with.
    """

    def __init__(self, samples, m, h, t0, corruption):
        self.samples = samples
        self.m = m
        self.h = h
        self.t0 = t0
        self.corruption = corruption
        self.ts = t0 + h * np.arange(samples.shape[0])

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    @property
    def a(self) -> np.ndarray:
        return self.samples[:, : self.m]

    @property
    def b(self) -> np.ndarray:
        return self.samples[:, self.m : 2 * self.m - 1]

    @property
    def c(self) -> np.ndarray:
        return self.samples[:, 2 * self.m - 1 : 3 * self.m - 3]

    @property
    def q(self) -> np.ndarray:
        return self.samples[:, 3 * self.m - 3 : 3 * self.m]

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
        rows = np.abs(self.a) + 1.0
        rows[:, 1:] += np.abs(self.b)
        rows[:, 2:] += np.abs(self.c)
        return np.max(rows, axis=1)

    def state_at(self, i: int) -> LatticeState:
        if not 0 <= i < self.n_samples:
            raise ValueError(
                f"sample index {i} is not on the trajectory (0..{self.n_samples - 1})"
            )
        m = self.m
        row = self.samples[i]
        return LatticeState(
            row[:m].copy(),
            row[m : 2 * m - 1].copy(),
            row[2 * m - 1 : 3 * m - 3].copy(),
            t=float(self.ts[i]),
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

    def to_csv(self, path_or_buf) -> None:
        """Write t, Re/Im of every band entry and quadrature, one row per sample."""
        m = self.m
        cols = ["t"]
        for name, count in (("a", m), ("b", m - 1), ("c", m - 2), ("q", 3)):
            for n in range(1, count + 1):
                cols += [f"{name}{n}_re", f"{name}{n}_im"]
        bands = self.samples[:, : 3 * m].view(np.float64)  # re, im interleaved
        write_csv(path_or_buf, cols, np.column_stack([self.ts, bands]))

    def to_csv_string(self) -> str:
        buf = io.StringIO()
        self.to_csv(buf)
        return buf.getvalue()


def write_csv(path_or_buf, columns, table) -> None:
    """Write a float table as CSV: a header line, then %.17g per field.

    %.17g round-trips every double exactly. Kept out of __all__ so that
    tracers time it as part of its caller.
    """
    header = ",".join(columns)
    np.savetxt(
        path_or_buf, table, fmt="%.17g", delimiter=",", header=header, comments=""
    )


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
        m = state.m
        c_min = float(np.min(np.abs(samples[status, 2 * m - 1 : 3 * m - 3])))
        raise CNearZeroError(state.t + status * cfg.h, status, c_min)
    return Trajectory(samples, state.m, cfg.h, state.t, corruption)


def central_diff(values, h: float):
    """Time derivative from the values at the points of Trajectory.stencil.

    values holds f(t - delta) and f(t + delta), delta = STENCIL_HALFWIDTH * h.
    Truncation error is delta^2/6 times the third derivative.
    """
    k = STENCIL_HALFWIDTH
    return (values[1] - values[0]) / (2.0 * (k * h))
