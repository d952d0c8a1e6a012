"""Monic polynomial sequence of the lattice and its 2-vector regrouping.

The scalar sequence is generated by the four-term recurrence

    P_{n+1}(z) = (z - a_{n+1}) P_n(z) - b_n P_{n-1}(z) - c_{n-1} P_{n-2}(z)

with P_0 = 1 and P_{-1} = P_{-2} = 0 (indices follow the 1-based
coefficient convention, so a_{n+1} is a[n] in array terms). Consecutive
pairs stack into vector polynomials Bv_n = (P_{2n}, P_{2n+1})^T which
satisfy a three-term block recurrence driven by the 2x2 blocks of J, and,
along the flow, the first-order derivative law checked by
`derivative_law_residual`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .core import LatticeState, a_block, b_block, c_block, d_block
from .dynamics import Trajectory, central_diff

__all__ = [
    "VectorPolynomial",
    "derivative_law_residual",
    "scalar_polys",
    "shift_coeffs",
    "stacked_eigen_residual",
    "vector_polys",
    "vector_recurrence_residual",
]


def scalar_polys(state: LatticeState, count: int) -> list[np.ndarray]:
    """Ascending coefficient arrays of P_0 .. P_count."""
    if not 0 <= count <= state.m:
        raise ValueError(f"count={count} out of range for m={state.m}")
    a, b, c = state.a, state.b, state.c
    polys = [np.array([1.0 + 0.0j])]
    for n in range(count):
        p = np.zeros(n + 2, dtype=np.complex128)
        p[1:] += polys[n]
        p[: n + 1] -= a[n] * polys[n]
        if n >= 1:
            p[:n] -= b[n - 1] * polys[n - 1]
        if n >= 2:
            p[: n - 1] -= c[n - 2] * polys[n - 2]
        polys.append(p)
    return polys


def shift_coeffs(coeffs: np.ndarray, j: int = 1) -> np.ndarray:
    """Coefficients of z^j * p."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    return np.concatenate([np.zeros(j, dtype=np.complex128), coeffs])


@dataclass(frozen=True)
class VectorPolynomial:
    """Pair (top, bottom) of ascending coefficient arrays, top = P_{2n}."""

    n: int
    top: np.ndarray
    bottom: np.ndarray

    def eval(self, z: complex) -> np.ndarray:
        return np.array(
            [npoly.polyval(z, self.top), npoly.polyval(z, self.bottom)],
            dtype=np.complex128,
        )


def vector_polys(state: LatticeState, n_max: int) -> list[VectorPolynomial]:
    """Bv_0 .. Bv_{n_max}; requires 2 n_max + 1 < m."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > state.m // 2 - 1:
        raise ValueError(
            f"n_max={n_max} needs 2*n_max+1 < m, got m={state.m}"
        )
    ps = scalar_polys(state, 2 * n_max + 1)
    return [VectorPolynomial(n, ps[2 * n], ps[2 * n + 1]) for n in range(n_max + 1)]


def vector_recurrence_residual(state: LatticeState, n: int, z: complex) -> float:
    """Block recurrence defect at index n and point z (0 up to roundoff).

    C_n Bv_{n-1}(z) + (B_{n+1} - z I) Bv_n(z) + A Bv_{n+1}(z) = 0,
    with Bv_{-1} = 0 and C_0 the normalization block.
    """
    polys = vector_polys(state, n + 1)
    prev = np.zeros(2, dtype=np.complex128) if n == 0 else polys[n - 1].eval(z)
    cur = polys[n].eval(z)
    nxt = polys[n + 1].eval(z)
    res = (
        c_block(state, n) @ prev
        + (b_block(state, n + 1) - z * np.eye(2)) @ cur
        + a_block() @ nxt
    )
    return float(np.max(np.abs(res)))


def stacked_eigen_residual(state: LatticeState, z: complex) -> float:
    """Defect of J p(z) = z p(z) on rows 1..m-1, p = (P_0(z), ..., P_{m-1}(z)).

    The last row is excluded: it reaches the coefficient P_m that the
    truncation cuts off.
    """
    ps = scalar_polys(state, state.m - 1)
    vec = np.array([npoly.polyval(z, p) for p in ps], dtype=np.complex128)
    res = state.dense() @ vec - z * vec
    return float(np.max(np.abs(res[: state.m - 1])))


def derivative_law_residual(
    traj: Trajectory, n: int, t: float, z0: complex
) -> np.ndarray:
    """Defect (2,) of d/dt Bv_n(z0) = -C_n Bv_{n-1}(z0) - D_n Bv_n(z0) at time t.

    The time derivative is taken by central differences of the polynomial
    coefficients on the trajectory grid (delta = 2h), so on the
    true flow the residual is limited by the delta^2 stencil error.
    """
    st, points = traj.stencil(t)
    # coefficients of P_{2n} then P_{2n+1}, in one array per stencil point
    coeffs = [np.concatenate(scalar_polys(s, 2 * n + 1)[2 * n :]) for s in points]
    dcoeffs = central_diff(coeffs, traj.h)
    dtop, dbot = dcoeffs[: 2 * n + 1], dcoeffs[2 * n + 1 :]
    dval = np.array(
        [npoly.polyval(z0, dtop), npoly.polyval(z0, dbot)], dtype=np.complex128
    )

    polys = vector_polys(st, n)
    cur = polys[n].eval(z0)
    prev = np.zeros(2, dtype=np.complex128) if n == 0 else polys[n - 1].eval(z0)
    return dval - (-(c_block(st, n) @ prev) - d_block(st, n) @ cur)
