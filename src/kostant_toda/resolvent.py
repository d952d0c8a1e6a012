"""Resolvent block, generating function, and the closed-form representation.

For |z| > ||J|| the (1,1) block of the resolvent of J expands as

    R(z) = sum_{n >= 0} (J^n)_11 / z^{n+1},

summed here with a certified geometric tail bound derived from the norm
bound rho: stopping after terms 0..K leaves at most
(rho/|z|)^{K+1} / (|z| - rho). All entry points enforce the safety margin
|z| >= 1.5 rho. The conjugated block F(z) = C0^{-1} R(z) C0 is the
generating function of the moment blocks.

Along the flow, R satisfies a first-order matrix ODE whose solution has
the closed form

    R(t, z) = exp(z t) C0(t) X(t, z) N(t)^{-1},

where N is the upper triangular matrix built from the trajectory
quadratures q1, q2, q3 and X is the per-z quadrature block integrated
jointly with the flow (see dynamics.integrate). `closed_form_resolvent`
assembles that product; on the true flow it reproduces the directly
computed resolvent to integrator accuracy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LatticeState,
    b_block,
    c0_block,
    c0_block_inv,
    commutator,
    d_block,
    leading_power_blocks,
    norm_bound,
)
from .dynamics import STENCIL_HALFWIDTH, IntegratorConfig, Trajectory, integrate
from .moments import moments_from_j

__all__ = [
    "ResolventBlock",
    "ZTooSmallError",
    "closed_form_resolvent",
    "dense_resolvent_block",
    "generating_function",
    "generating_ode_residual",
    "integrate_with_closed_form",
    "neumann_terms_needed",
    "resolvent_block",
    "resolvent_ode_residual",
]

MARGIN = 1.5


class ZTooSmallError(ValueError):
    """|z| is inside the safety margin MARGIN * rho of the series bound."""


@dataclass(frozen=True)
class ResolventBlock:
    """Certified partial sum: value, term count, and geometric tail bound."""

    value: np.ndarray
    z: complex
    rho: float
    terms_used: int
    tail_bound: float


def _check_margin(z: complex, rho: float, where: str = "") -> None:
    if not abs(z) >= MARGIN * rho:
        raise ZTooSmallError(
            f"|z| = {abs(z):.6g} is below the safety margin "
            f"{MARGIN} * rho = {MARGIN * rho:.6g}{where}"
        )


def neumann_terms_needed(rho: float, z_abs: float, tol: float) -> int:
    """Smallest K with (rho/z_abs)^{K+1} / (z_abs - rho) < tol; tol must be > 0."""
    if not tol > 0:
        raise ValueError(f"series tolerance must be > 0, got {tol}")
    if z_abs <= rho:
        raise ZTooSmallError(f"|z| = {z_abs:.6g} <= rho = {rho:.6g}")
    r = rho / z_abs
    bound = 1.0 / (z_abs - rho)
    K = -1
    while bound >= tol:
        K += 1
        bound *= r
        if K > 100000:
            raise RuntimeError(f"series needs more than 100000 terms for tol={tol}")
    return max(K, 0)


def resolvent_block(
    state: LatticeState,
    z: complex,
    tol: float = 1e-10,
    terms: int | None = None,
) -> ResolventBlock:
    """Partial Neumann sum of the (1,1) resolvent block with tail certificate.

    terms pins the number of summed powers (K + 1 with exponents 0..K),
    which residual stencils use to keep the truncation error a smooth
    function of time; by default K is the smallest index certified by tol.
    """
    rho = norm_bound(state)
    _check_margin(z, rho)
    K = terms - 1 if terms is not None else neumann_terms_needed(rho, abs(z), tol)
    S = np.zeros((2, 2), dtype=np.complex128)
    zinv = 1.0 / z
    zp = zinv
    for block in leading_power_blocks(state, K):
        S += block * zp
        zp *= zinv
    tail = (rho / abs(z)) ** (K + 1) / (abs(z) - rho)
    return ResolventBlock(S, z, rho, K + 1, float(tail))


def dense_resolvent_block(state: LatticeState, z: complex) -> np.ndarray:
    """(1,1) block of (zI - J)^{-1} by dense solve (reference oracle)."""
    m = state.m
    rhs = np.zeros((m, 2), dtype=np.complex128)
    rhs[0, 0] = 1.0
    rhs[1, 1] = 1.0
    sol = np.linalg.solve(z * np.eye(m, dtype=np.complex128) - state.dense(), rhs)
    return sol[:2, :]


def generating_function(
    state: LatticeState,
    z: complex,
    tol: float = 1e-10,
    terms: int | None = None,
) -> ResolventBlock:
    """F(z) = C0^{-1} R(z) C0, the moment generating block.

    The tail bound is the resolvent bound scaled by the condition factor
    (1 + |a_1|)^2 of the conjugation.
    """
    rb = resolvent_block(state, z, tol=tol, terms=terms)
    a1 = state.a[0]
    F = c0_block_inv(a1) @ rb.value @ c0_block(a1)
    kappa = (1.0 + abs(a1)) ** 2
    return ResolventBlock(F, z, rb.rho, rb.terms_used, rb.tail_bound * kappa)


def _series_stencil(traj: Trajectory, z: complex, t: float, tol: float, series):
    """State at t, series value there, and its central time derivative.

    series is resolvent_block or generating_function. All three stencil
    points sum the same number of terms, the smallest that certifies tol
    at each of them, so the truncation error is smooth in time.
    """
    i = traj.index_of(t)
    # state_at refuses indices off the trajectory, so a stencil that leaves
    # the grid fails here, before any series is summed.
    k = STENCIL_HALFWIDTH
    states = {j: traj.state_at(j) for j in (i - k, i, i + k)}
    needed = 0
    for st in states.values():
        rho = norm_bound(st)
        _check_margin(z, rho, " along the stencil")
        needed = max(needed, neumann_terms_needed(rho, abs(z), tol))

    def value(j):
        return series(states[j], z, terms=needed + 1).value

    _, dv = traj.central_diff(t, value)
    return states[i], value(i), dv


def _resolvent_ode_residual_matrix(
    traj: Trajectory, z: complex, t: float, tol: float = 1e-12
) -> np.ndarray:
    st, r, dr = _series_stencil(traj, z, t, tol, resolvent_block)
    eye = np.eye(2, dtype=np.complex128)
    rhs = r @ (z * eye - b_block(st, 1)) - eye + commutator(r, d_block(st, 0))
    return dr - rhs


def resolvent_ode_residual(
    traj: Trajectory, z: complex, t: float, tol: float = 1e-12
) -> float:
    """Defect of R' = R (zI - B_1) - I + [R, (J_lower)_11] at time t."""
    res = _resolvent_ode_residual_matrix(traj, z, t, tol)
    return float(np.max(np.abs(res)))


def _generating_ode_residual_matrix(
    traj: Trajectory, zeta: complex, t: float, tol: float = 1e-12
) -> np.ndarray:
    st, f, df = _series_stencil(traj, zeta, t, tol, generating_function)
    m1 = moments_from_j(st, 1).moments[1]
    eye = np.eye(2, dtype=np.complex128)
    rhs = f @ (zeta * eye - m1) - eye
    return df - rhs


def generating_ode_residual(
    traj: Trajectory, zeta: complex, t: float, tol: float = 1e-12
) -> float:
    """Defect of F' = F (zeta I - moment_1) - I at time t."""
    res = _generating_ode_residual_matrix(traj, zeta, t, tol)
    return float(np.max(np.abs(res)))


def spectral_ring(traj: Trajectory, n_angles: int, mult: float = 2.0) -> np.ndarray:
    """Points z = mult * rho_max * exp(2 pi i k / n_angles), k = 0..n_angles-1.

    rho_max is the largest norm bound along traj, so with mult >= MARGIN every
    z respects the margin at every sample. Kept out of __all__ so that
    tracers time it as part of its caller.
    """
    rho_max = float(np.max(traj.norm_bounds()))
    return mult * rho_max * np.exp(2j * np.pi * np.arange(n_angles) / n_angles)


def integrate_with_closed_form(
    state: LatticeState, cfg: IntegratorConfig, zs
) -> Trajectory:
    """Integrate the flow with per-z closed-form quadrature blocks attached.

    Initial blocks are X(0) = C0(0)^{-1} R(0, z) with R(0, z) from the
    dense solve; each requested z must respect the margin at t = 0.
    """
    zs = np.ascontiguousarray(zs, dtype=np.complex128)
    rho0 = norm_bound(state)
    x0 = np.empty((zs.size, 2, 2), dtype=np.complex128)
    c0i = c0_block_inv(state.a[0])
    for k, z in enumerate(zs):
        _check_margin(z, rho0, " at t = 0")
        x0[k] = c0i @ dense_resolvent_block(state, z)
    return integrate(state, cfg, resolvent_zs=zs, x0_blocks=x0)


def closed_form_resolvent(traj: Trajectory, z: complex) -> np.ndarray:
    """R(t, z) = exp(zt) C0(t) X(t, z) N(t)^{-1} at every sample, (k, 2, 2).

    The trajectory must carry the quadrature block for z (see
    integrate_with_closed_form). N is assembled from q1, q2, q3; its
    determinant exp(q1 + q2) never vanishes, so the explicit triangular
    inverse is used.
    """
    matches = np.nonzero(np.abs(traj.zs - z) <= 1e-12 * max(1.0, abs(z)))[0]
    if matches.size == 0:
        raise ValueError(
            f"trajectory carries no closed-form quadrature for z = {z}; "
            "integrate with integrate_with_closed_form"
        )
    X = traj.x_blocks(int(matches[0]))
    n = traj.n_samples
    a1 = traj.a[:, 0]
    q1 = traj.q[:, 0]
    q2 = traj.q[:, 1]
    q3 = traj.q[:, 2]

    c0 = np.zeros((n, 2, 2), dtype=np.complex128)
    c0[:, 0, 0] = 1.0
    c0[:, 1, 0] = -a1
    c0[:, 1, 1] = 1.0

    ninv = np.zeros((n, 2, 2), dtype=np.complex128)
    ninv[:, 0, 0] = np.exp(-q1)
    ninv[:, 0, 1] = -q3 * np.exp(-q2)
    ninv[:, 1, 1] = np.exp(-q2)

    phase = np.exp(z * traj.ts)[:, None, None]
    return phase * (c0 @ X @ ninv)
