"""Integration kernel: fixed-step RK4 over the packed lattice state.

The only hot path in the package is this loop. `_rhs` holds the one copy
of the flow formulas and of the corruption modes; `dynamics.kostant_rhs`
and `rk4_trajectory` both evaluate it. It stays out of `__all__` so that
tracers wrapping the public functions leave the RK4 stages alone.

Packed state layout, length 3m complex entries:

  y[0:m]            a, diagonal coefficients
  y[m:2m-1]         b, first subdiagonal
  y[2m-1:3m-3]      c, second subdiagonal
  y[3m-3:3m]        q1, q2, q3 quadrature states
                    (q1' = a_1, q2' = a_2, q3' = exp(q2 - q1))

The quadratures feed the closed-form resolvent: N(t) is the upper
triangular matrix with entries exp(q1), exp(q1)*q3 / 0, exp(q2). `_rhs`
reads no time, and takes a (3m, n) array as n rows side by side: so
`resolvent` replays the RK4 stages of a stored trajectory.

A corruption (dynamics.CorruptionSpec, or None) bends the flow on purpose
for the negative controls of the verification harness.
"""

from __future__ import annotations

import importlib.util

import numpy as np

# Run records report this flag; the package never imports the module.
HAS_NUMBA = importlib.util.find_spec("numba") is not None

C_FLOOR = 1e-12  # the integrator aborts once some |c_n| falls below this

__all__ = [
    "HAS_NUMBA",
    "active_backend",
    "pack_state",
    "rk4_trajectory",
    "unpack_bands",
]


def active_backend() -> str:
    """Name of the integration kernel recorded in reports: always "numpy"."""
    return "numpy"


def pack_state(a, b, c) -> np.ndarray:
    """Packed row with the quadratures q1, q2, q3 at zero."""
    parts = [a, b, c, np.zeros(3)]
    return np.concatenate([np.asarray(p, dtype=np.complex128).ravel() for p in parts])


def unpack_bands(y: np.ndarray, m: int):
    """Views (a, b, c, q) of one packed row."""
    return (
        y[:m],
        y[m : 2 * m - 1],
        y[2 * m - 1 : 3 * m - 3],
        y[3 * m - 3 : 3 * m],
    )


def _rhs(y, dy, m, corruption):
    """Write the derivative of packed row y into dy (columns of a 2-D y are rows)."""
    a = y[:m]
    b = y[m : 2 * m - 1]
    c = y[2 * m - 1 : 3 * m - 3]
    da = dy[:m]
    db = dy[m : 2 * m - 1]
    dc = dy[2 * m - 1 : 3 * m - 3]

    da[0] = b[0]
    da[1 : m - 1] = b[1:] - b[:-1]
    da[m - 1] = -b[m - 2]

    db[:] = b * (a[1:] - a[:-1])
    db[: m - 2] += c
    db[1:] -= c

    dc[:] = c * (a[2:] - a[:-2])

    if corruption is not None:
        mag = corruption.magnitude
        if corruption.kind == "freeze-b":
            db *= 1.0 - mag
        elif corruption.kind == "scale-c-rhs":
            dc *= 1.0 + mag
        else:  # drop-commutator-term
            db[: m - 2] -= mag * c
            db[1:] += mag * c

    dy[3 * m - 3] = a[0]
    dy[3 * m - 2] = a[1]
    dy[3 * m - 1] = np.exp(y[3 * m - 2] - y[3 * m - 3])


def rk4_trajectory(y0, m, n_steps, h, corruption=None):
    """Integrate the packed state; returns (samples, status).

    samples has shape (n_steps + 1, len(y0)); status is 0 on success or the
    1-based step index at which min |c| fell below C_FLOOR or turned NaN, as
    it does when the bands overflow (rows past that index are unspecified).
    Overflow is reported by status alone: numpy's warnings are silenced.
    A samples array too big to allocate raises ValueError naming its size.
    """
    y0 = np.ascontiguousarray(y0, dtype=np.complex128)
    L = y0.size
    if L != 3 * m:
        raise ValueError(f"packed state length {L} != 3*m = {3 * m}")
    try:
        out = np.empty((n_steps + 1, L), dtype=np.complex128)
    except MemoryError as exc:  # numpy's message names the shape and the size
        raise ValueError(f"cannot store the trajectory: {exc}") from None
    out[0] = y0
    y = y0.copy()
    k1 = np.empty(L, dtype=np.complex128)
    k2 = np.empty(L, dtype=np.complex128)
    k3 = np.empty(L, dtype=np.complex128)
    k4 = np.empty(L, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            _rhs(y, k1, m, corruption)
            _rhs(y + (0.5 * h) * k1, k2, m, corruption)
            _rhs(y + (0.5 * h) * k2, k3, m, corruption)
            _rhs(y + h * k3, k4, m, corruption)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[k + 1] = y
            cmin = np.min(np.abs(y[2 * m - 1 : 3 * m - 3]))
            if not cmin >= C_FLOOR:
                return out, k + 1
    return out, 0
