"""Integration kernel: fixed-step RK4 over the packed lattice state.

The only hot path in the package is this loop, and at the sizes used here
Python call overhead sets its cost, not arithmetic. So `_flow` slices
every view of a row pair (y, dy) once and returns a function that only
calls ufuncs into them, 6 for the clean flow, and copies a' at the two
band ends as items; `rk4_trajectory` binds four such flows to the rows
k1..k4 of one buffer and forms each stage y + (h/2) k, and the increment
(h/6)(((k1 + 2 k2) + 2 k3) + k4), in place, with 12 more ufunc calls (one
doubles k2 and k3 together) and one row copy per step: 36 in all, which
tests/test_backends.py counts. Every scalar operand (h/2, h,
2, h/6 and a corruption's factor) is a 0-d complex128 array built once:
numpy turns a Python float into that same operand on every call, at
about twice the cost. Every operation keeps the operands and the order of
the plain expressions, so a stored sample has the same bits however the
loop is arranged. The c floor is tested on blocks of FLOOR_BLOCK stored
steps, and the status is still the first failing step. The classical RK4
method and its global error O(h^4) are as in Hairer, Nørsett & Wanner,
*Solving Ordinary Differential Equations I* (2nd ed., Springer 1993),
Chapter II.

A caller may hand in the array to fill, whose rows may be strided (the
sample columns of csvio's shared CSV table), and a hook that is told,
once per block of FLOOR_BLOCK steps that passes the floor test, how many
rows are final; the step's 36 ufunc calls do not change.

`_flow` holds the one copy of the flow formulas and of the corruption
modes; `_rhs` is a single call of it, which `dynamics.kostant_rhs` uses.
Both stay out of `__all__` so that tracers wrapping the public functions
leave the RK4 stages alone.

Packed state layout, length 3m - 3 complex entries: the bands, sliced
by `unpack_bands` alone.

  y[0:m]            a, diagonal coefficients
  y[m:2m-1]         b, first subdiagonal
  y[2m-1:3m-3]      c, second subdiagonal

A corruption (dynamics.CorruptionSpec, or None) bends the flow on purpose
for the negative controls of the verification harness.
"""

from __future__ import annotations

import importlib.util

import numpy as np

# Run records report this flag; the package never imports the module.
HAS_NUMBA = importlib.util.find_spec("numba") is not None

C_FLOOR = 1e-12  # the integrator aborts once some |c_n| falls below this
FLOOR_BLOCK = 64  # stored steps per test of the c floor

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
    """Packed row of the bands a, b, c."""
    parts = (a, b, c)
    return np.concatenate([np.asarray(p, dtype=np.complex128).ravel() for p in parts])


def unpack_bands(y: np.ndarray, m: int):
    """Views (a, b, c) of one packed row, or of the rows of a 2-D y whose
    columns are packed rows (the transpose of a sample array)."""
    return y[:m], y[m : 2 * m - 1], y[2 * m - 1 : 3 * m - 3]


def _flow(y, dy, m, corruption):
    """The flow bound to rows y and dy: calling it writes y's derivative into dy.

    Every view is taken here once, the bands from unpack_bands, so a call
    only runs ufuncs into them: 6 for the clean flow, each with its
    operands in the order of the formulas (b * diff, not diff * b), so the
    bits do not depend on how often the views are rebuilt. a' at the band ends, b_1 and -b_{m-1}, are
    item copies; numpy's complex scalar negation flips both sign bits, as
    the ufunc does, and on a 2-D y the same lines copy rows. b' and c'
    share one multiply of the contiguous [b, c] by
    [a_{n+1} - a_n, a_{n+2} - a_n]. A corruption's
    scalar is a 0-d complex128 array, the operand a Python float becomes
    in numpy's complex multiply anyway. Columns of a 2-D y are rows.
    """
    add, subtract, multiply = np.add, np.subtract, np.multiply
    a, b, c = unpack_bands(y, m)
    da, db, dc = unpack_bands(dy, m)
    bc, dbc = y[len(a) :], dy[len(a) :]  # [b, c]: the row past a
    a_hi1, a_lo1, a_hi2, a_lo2 = a[1:], a[:-1], a[2:], a[:-2]
    b_hi, b_lo, da_mid = b[1:], b[:-1], da[1:-1]
    db_lo, db_hi = db[:-1], db[1:]
    # a's differences beside b and c, then mag * c in the c part
    diff = np.empty(bc.shape, dtype=np.complex128)
    diff_b, diff_c = diff[: len(b)], diff[len(b) :]

    kind = scale = None
    if corruption is not None:
        kind, mag = corruption.kind, corruption.magnitude
        if kind == "freeze-b":
            mag = 1.0 - mag
        elif kind == "scale-c-rhs":
            mag = 1.0 + mag
        scale = np.array(mag, dtype=np.complex128)

    def flow():
        da[0] = b[0]
        subtract(b_hi, b_lo, da_mid)
        da[-1] = -b[-1]

        subtract(a_hi1, a_lo1, diff_b)
        subtract(a_hi2, a_lo2, diff_c)
        multiply(bc, diff, dbc)
        add(db_lo, c, db_lo)
        subtract(db_hi, c, db_hi)

        if kind is not None:
            if kind == "freeze-b":
                multiply(db, scale, db)
            elif kind == "scale-c-rhs":
                multiply(dc, scale, dc)
            else:  # drop-commutator-term
                multiply(scale, c, diff_c)
                subtract(db_lo, diff_c, db_lo)
                add(db_hi, diff_c, db_hi)

    return flow


def _rhs(y, dy, m, corruption):
    """Write the derivative of packed row y into dy (columns of a 2-D y are rows)."""
    _flow(y, dy, m, corruption)()


def rk4_trajectory(y0, m, n_steps, h, corruption=None, out=None, on_rows=None):
    """Integrate the packed state; returns (samples, status).

    samples has shape (n_steps + 1, len(y0)); status is 0 on success or the
    1-based step index at which min |c| fell below C_FLOOR or turned NaN, as
    it does when the bands overflow (rows past that index are unspecified).
    Overflow is reported by status alone: numpy's warnings are silenced.
    samples is out when given, a complex128 array of that shape whose rows
    may be strided; else a new array, and one too big to allocate raises
    ValueError naming its size. on_rows, when given, is called once per
    block of FLOOR_BLOCK steps that passes the floor test, with the count
    c of rows now final: rows [0, c) keep their values.
    """
    y0 = np.ascontiguousarray(y0, dtype=np.complex128)
    L = y0.size
    if L != 3 * m - 3:
        raise ValueError(f"packed state length {L} != 3*m - 3 = {3 * m - 3}")
    if out is None:
        try:
            out = np.empty((n_steps + 1, L), dtype=np.complex128)
        except MemoryError as exc:  # numpy's message names the shape and the size
            raise ValueError(f"cannot store the trajectory: {exc}") from None
    out[0] = y0
    y = y0.copy()
    K = np.empty((4, L), dtype=np.complex128)
    k1, k2, k3, k4 = K
    k23 = K[1:3]
    stage = np.empty(L, dtype=np.complex128)
    f1 = _flow(y, k1, m, corruption)
    f2, f3, f4 = (_flow(stage, k, m, corruption) for k in (k2, k3, k4))
    # 0-d complex128 operands: the Python floats' own conversion, done once
    half, full, two, sixth = (
        np.array(x, dtype=np.complex128) for x in (0.5 * h, h, 2.0, h / 6.0)
    )
    add, multiply = np.add, np.multiply
    c_rows = unpack_bands(out.T, m)[2].T
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_steps, FLOOR_BLOCK):
            hi = min(lo + FLOOR_BLOCK, n_steps)
            for k in range(lo + 1, hi + 1):
                f1()
                multiply(half, k1, stage)
                add(y, stage, stage)
                f2()
                multiply(half, k2, stage)
                add(y, stage, stage)
                f3()
                multiply(full, k3, stage)
                add(y, stage, stage)
                f4()
                # y + (h/6) * (((k1 + 2 k2) + 2 k3) + k4), accumulated in k1
                multiply(two, k23, k23)
                add(k1, k2, k1)
                add(k1, k3, k1)
                add(k1, k4, k1)
                multiply(sixth, k1, k1)
                add(y, k1, y)
                out[k] = y
            cmin = np.abs(c_rows[lo + 1 : hi + 1]).min(axis=1)
            failed = np.flatnonzero(~(cmin >= C_FLOOR))
            if failed.size:
                return out, lo + 1 + int(failed[0])
            if on_rows is not None:
                on_rows(hi + 1)
    return out, 0
