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

It owns the package's one time-derivative rule, Trajectory.derivative.
Every law dX/dt = F(J) reads the flow through that method alone, so any
flow object with it can stand in for the trajectory. The rule reads the
flow's vector field at the sample, not the time grid around it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import backends
from .core import LatticeState, commutator, norm_bound_stack

__all__ = [
    "CNearZeroError",
    "CorruptionSpec",
    "IntegratorConfig",
    "Trajectory",
    "integrate",
    "kostant_rhs",
    "lax_rhs",
]

# Trajectory.derivative's ring, N = 12 roots of unity: the laws reach degree 9
_RING = np.exp(2j * np.pi * np.arange(12) / 12)

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
        if _grid_index(self.t_end, 0.0, self.h) is None:
            raise ValueError(
                f"integration horizon {self.t_end} is not an integer multiple "
                f"of h={self.h}"
            )

    @property
    def n_steps(self) -> int:
        return _grid_index(self.t_end, 0.0, self.h)


def _grid_index(t: float, t0: float, h: float) -> int | None:
    """The k with t = t0 + k h to within 1e-9 relative, or None.

    A quotient (t - t0) / h that is not finite, as when it overflows, has
    no such k and raises ValueError naming the step count.
    """
    q = (t - t0) / h
    if not np.isfinite(q):
        raise ValueError(f"the step count ({t} - {t0}) / {h} is not finite")
    k = round(q)
    if abs(t0 + k * h - t) > 1e-9 * max(1.0, abs(t)):
        return None
    return k


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
    and c are views into it, bound once; corruption bends the flow they follow.
    """

    def __init__(self, samples, m, h, t0, corruption=None):
        self.samples = samples
        self.m = m
        self.h = h
        self.t0 = t0
        self.corruption = corruption
        self.ts = t0 + h * np.arange(samples.shape[0])
        self.a, self.b, self.c = (x.T for x in backends.unpack_bands(samples.T, m))
        # the helper formatting the CSV table whose columns after t are
        # samples, when csvio.integrate_for_csv forked one
        self._helper = None

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def index_of(self, t: float) -> int:
        """Grid index of time t; t must lie on the grid."""
        i = _grid_index(t, self.t0, self.h)
        if i is None or not 0 <= i < self.n_samples:
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

    def derivative(self, t: float, values_of):
        """State J at grid time t, f there, and the derivative of f along the flow.

        values_of is called once, on J and the ring states J + r w_j V, and
        returns f at each: V is the vector field at J under the
        trajectory's corruption, w_j = e^{2 pi i j / N} for j < N = 12 and
        r = 0.1 / max |V|. The derivative f'(J)[V] is the trapezoidal sum
        (1/N) sum_j f(J + r w_j V) / (r w_j), exact for f polynomial in
        J's entries of degree at most N and geometrically close for f
        rational, as the resolvent, with roundoff about eps |f| / r
        (Lyness & Moler, SIAM J. Numer. Anal. 4, 1967).
        """
        i = self.index_of(t)
        state, y = self.state_at(i), self.samples[i]
        v = np.empty_like(y)
        backends._rhs(y, v, self.m, self.corruption)
        r = 0.1 / np.max(np.abs(v))
        rows = y + (r * _RING)[:, None] * v
        ring = (LatticeState(*backends.unpack_bands(row, self.m), state.t) for row in rows)
        values = np.asarray(values_of((state, *ring)))
        weights = 1.0 / (len(_RING) * r * _RING)
        return state, values[0], np.tensordot(weights, values[1:], axes=1)

    def to_csv(self, stream) -> None:
        """Write t, Re/Im of every band entry to a text stream, one row per sample."""
        from .csvio import write_trajectory  # csvio imports this module
        write_trajectory(self, stream)


def integrate(
    state: LatticeState,
    cfg: IntegratorConfig,
    corruption: CorruptionSpec | None = None,
) -> Trajectory:
    """Run fixed-step RK4 from state.t over [t, t + t_end].

    Raises CNearZeroError if any |c_n| falls below backends.C_FLOOR or the
    bands overflow.
    """
    return _integrate(state, cfg, corruption)


def _integrate(state, cfg, corruption, **rows) -> Trajectory:
    """integrate, handing rows (out, on_rows) to backends.rk4_trajectory."""
    c_min0 = float(np.min(np.abs(state.c)))
    if c_min0 < backends.C_FLOOR:
        raise CNearZeroError(state.t, 0, c_min0)

    y0 = backends.pack_state(state.a, state.b, state.c)
    samples, status = backends.rk4_trajectory(
        y0, state.m, cfg.n_steps, cfg.h, corruption, **rows
    )
    if status:
        c = backends.unpack_bands(samples[status], state.m)[2]
        c_min = float(np.min(np.abs(c)))
        raise CNearZeroError(state.t + status * cfg.h, status, c_min)
    return Trajectory(samples, state.m, cfg.h, state.t, corruption)

