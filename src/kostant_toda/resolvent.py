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
quadratures q1, q2, q3 and X is the per-z quadrature of
X' = -exp(-z t) C0^{-1} N. X' does not depend on X, so
`closed_form_resolvent` integrates it after the flow: it replays the RK4
stages of every step from the stored samples and sums them as the RK4
loop would have. On the true flow the product reproduces the directly
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
from . import backends

# integrate is not called here; perfbench's tracer wraps it in every package
# namespace that holds it, and its tests assert resolvent.integrate is it.
from .dynamics import Trajectory, central_diff, integrate  # noqa: F401
from .moments import moments_from_j

__all__ = [
    "ResolventBlock",
    "ZTooSmallError",
    "closed_form_resolvent",
    "dense_resolvent_block",
    "generating_function",
    "generating_ode_residual",
    "neumann_terms_needed",
    "resolvent_block",
    "resolvent_ode_residual",
]

MARGIN = 1.5
# Steps of X replayed side by side: bounds the replay's scratch arrays to
# a few times 3m * REPLAY_STEPS entries, whatever the trajectory's length.
REPLAY_STEPS = 256


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
    st, (before, after) = traj.stencil(t)
    needed = 0
    for s in (before, st, after):
        rho = norm_bound(s)
        _check_margin(z, rho, " along the stencil")
        needed = max(needed, neumann_terms_needed(rho, abs(z), tol))
    dv = central_diff(
        [series(s, z, terms=needed + 1).value for s in (before, after)], traj.h
    )
    return st, series(st, z, terms=needed + 1).value, dv


def resolvent_ode_residual(
    traj: Trajectory, z: complex, t: float, tol: float = 1e-12
) -> float:
    """Defect of R' = R (zI - B_1) - I + [R, (J_lower)_11] at time t."""
    st, r, dr = _series_stencil(traj, z, t, tol, resolvent_block)
    eye = np.eye(2, dtype=np.complex128)
    rhs = r @ (z * eye - b_block(st, 1)) - eye + commutator(r, d_block(st, 0))
    return float(np.max(np.abs(dr - rhs)))


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


def _scalar_mul(x, y):
    """x * y elementwise, rounded as numpy's complex scalars round it.

    numpy's array loop may fuse a product into the sum that follows it;
    its scalars round the four real products and the two sums one by one.
    X' keeps the bits of the RK4 loop that formed it on scalars (the
    reference in tests/test_resolvent.py).
    """
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=np.complex128)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def _x_rhs(y, m, zs, t):
    """X' = -exp(-z t) C0^{-1} N, (nz, 4, n), at rows y (3m, n) and times t.

    C0^{-1} N is [[e1, e1 q3], [a1 e1, a1 e1 q3 + e2]] with e_k = exp(q_k).
    """
    a1, q1, q2, q3 = y[0], y[3 * m - 3], y[3 * m - 2], y[3 * m - 1]
    e1 = np.exp(q1)
    a1e1 = _scalar_mul(a1, e1)
    cn = np.stack([e1, _scalar_mul(e1, q3), a1e1, _scalar_mul(a1e1, q3) + np.exp(q2)])
    return -np.exp(-zs[:, None] * t)[:, None, :] * cn[None, :, :]


def _x_blocks(traj: Trajectory, zs: np.ndarray) -> np.ndarray:
    """X(t, z) at every sample, (n_samples, nz, 4), each block row-major.

    X(t0) = exp(-z t0) C0(t0)^{-1} R(t0, z), R(t0, z) by the dense solve, so
    each z must respect the margin at t0. A step's RK4 stages depend on its
    stored row alone, so REPLAY_STEPS steps at a time are replayed side by
    side, each stage folded into the increment (h/6)(((k1 + 2 k2) + 2 k3) + k4)
    in the RK4 loop's order; np.cumsum adds the increments in sequence.
    """
    state = traj.state_at(0)
    rho0 = norm_bound(state)
    x = np.empty((traj.n_samples, zs.size, 4), dtype=np.complex128)
    c0i = c0_block_inv(state.a[0])
    for k, z in enumerate(zs):
        _check_margin(z, rho0, f" at t = {state.t:.6g}")
        x[0, k] = (c0i @ dense_resolvent_block(state, z)).ravel()
    if state.t != 0:  # at t0 = 0 the factor is 1; skipping it keeps signed zeros
        x[0] *= np.exp(-zs * state.t)[:, None]

    m, h, starts, ts = traj.m, traj.h, traj.samples[:-1], traj.ts[:-1]
    with np.errstate(over="ignore", invalid="ignore"):  # as in the RK4 loop
        for lo in range(0, ts.size, REPLAY_STEPS):
            rows = slice(lo, lo + REPLAY_STEPS)
            y, t = np.ascontiguousarray(starts[rows].T), ts[rows]  # a step per column
            dy = np.empty_like(y)
            incr, stage = _x_rhs(y, m, zs, t), y
            for advance, weight in ((0.5 * h, 2.0), (0.5 * h, 2.0), (h, 1.0)):
                backends._rhs(stage, dy, m, traj.corruption)
                stage = y + advance * dy
                k = _x_rhs(stage, m, zs, t + advance)
                if weight != 1.0:
                    k *= weight
                incr += k
            x[1 + lo : 1 + lo + t.size] = ((h / 6.0) * incr).transpose(2, 0, 1)
    return np.cumsum(x, axis=0, out=x)


def closed_form_resolvent(traj: Trajectory, zs) -> np.ndarray:
    """R(t, z) = exp(zt) C0(t) X(t, z) N(t)^{-1}, (n_samples, nz, 2, 2).

    X is integrated on the trajectory's grid with its RK4 rule and its
    corruption (see _x_blocks). N is assembled from q1, q2, q3; its
    determinant exp(q1 + q2) never vanishes, so the explicit triangular
    inverse is used.
    """
    zs = np.ascontiguousarray(zs, dtype=np.complex128)
    n = traj.n_samples
    q1, q2, q3 = traj.q.T

    c0 = np.zeros((n, 1, 2, 2), dtype=np.complex128)
    c0[:, 0, 0, 0] = 1.0
    c0[:, 0, 1, 0] = -traj.a[:, 0]
    c0[:, 0, 1, 1] = 1.0

    ninv = np.zeros((n, 1, 2, 2), dtype=np.complex128)
    ninv[:, 0, 0, 0] = np.exp(-q1)
    ninv[:, 0, 0, 1] = -q3 * np.exp(-q2)
    ninv[:, 0, 1, 1] = np.exp(-q2)

    # at most two (n, nz, 2, 2) arrays live; phase stays the left operand,
    # since numpy's loop rounds a broadcast operand's products by its side
    r = c0 @ _x_blocks(traj, zs).reshape(n, zs.size, 2, 2) @ ninv
    phase = np.exp(zs[None, :] * traj.ts[:, None])[:, :, None, None]
    return np.multiply(phase, r, out=r)
