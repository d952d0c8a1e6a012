"""Resolvent block, generating function, and the closed-form representation.

For |z| > ||J|| the (1,1) block of the resolvent of J expands as

    R(z) = sum_{n >= 0} (J^n)_11 / z^{n+1},

summed here with a certified geometric tail bound derived from the norm
bound rho: stopping after terms 0..K leaves at most
(rho/|z|)^{K+1} / (|z| - rho). All entry points enforce the safety margin
|z| >= 1.5 rho. A tolerance whose bound stops shrinking before it is
reached, or powers of J that leave the float range, raise SeriesCapError.
Every sum comes from one kernel over band rows: `resolvent_block` runs it
on one state, `resolvent_sweep` on many, and the ODE residuals on the
three states at t and t -+ delta whose sums Trajectory.derivative
differences. The conjugated block F(z) = C0^{-1} R(z) C0 is the
generating function of the moment blocks.

Along the flow, R satisfies a first-order matrix ODE whose solution has
the closed form

    R(t, z) = exp(z t) C0(t) X(t, z) N(t)^{-1},

where N is the upper triangular normalization of the paper and X solves
X' = -exp(-z t) C0^{-1} N. None of the three needs the integrator: with
J0 = J(t0), the factorization e^{(t - t0) J0} = n(t) b(t) into a unit
lower and an upper triangular factor (Kostant, Adv. Math. 34, 1979;
Symes, Physica D 4, 1982) has J(t) = n^{-1} J0 n, n_11 = C0(t)^{-1} C0(t0)
and b_11 = N(t), so that

    R(t, z) = n_11^{-1} [(zI - J0)^{-1} e^{(t - t0) J0}]_11 b_11^{-1}.

`closed_form_resolvent` evaluates this from J0 alone. On the true flow it
equals the directly computed resolvent, so against the RK4 trajectory it
differs by the integrator's own error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    LatticeState,
    b_block,
    c0_conjugate,
    commutator,
    d_block,
    dense_stack,
    expm,
    leading_power_blocks,
    norm_bound,
    norm_bound_stack,
)

# integrate is not called here; perfbench's tracer wraps it in every package
# namespace that holds it, and its tests assert resolvent.integrate is it.
from .dynamics import Trajectory, integrate  # noqa: F401
from .moments import SeriesCapError, moments_from_j

__all__ = [
    "MARGIN",
    "ResolventBlock",
    "ZTooSmallError",
    "closed_form_resolvent",
    "dense_resolvent_block",
    "generating_ode_residual",
    "resolvent_block",
    "resolvent_ode_residual",
    "resolvent_sweep",
]

MARGIN = 1.5
# Bytes of leading operator rows _neumann_sums stacks for one power loop,
# sized by the rows the largest order of its call reads; a stack holds at
# least one state.
STACK_BYTES = 1 << 20


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


def _check_margin(zs, rho, where: str = "") -> list:
    """The moduli [abs(z) for z in zs], each in z's own scalar type, once
    every z clears the margin MARGIN * rho of every norm bound in rho (a
    float or an array). ZTooSmallError names the first (row, z) inside it,
    rows outermost, and where follows the message."""
    abs_zs = [abs(z) for z in zs]
    rho = np.reshape(rho, (-1, 1))
    inside = ~(np.array(abs_zs) >= MARGIN * rho)
    if inside.any():
        i, j = np.unravel_index(np.argmax(inside), inside.shape)
        raise ZTooSmallError(
            f"|z| = {abs_zs[j]:.6g} is below the safety margin "
            f"{MARGIN} * rho = {MARGIN * float(rho[i, 0]):.6g}{where}"
        )
    return abs_zs


def _terms_needed(rho: np.ndarray, z_abs: np.ndarray, tol: float) -> np.ndarray:
    """Smallest K with (rho/z_abs)^{K+1} / (z_abs - rho) < tol at every
    (row, z), (S, nz), for norm bounds rho (S, 1) and moduli z_abs (nz,)
    with z_abs > rho; tol must be > 0.

    Each count comes from the scalar loop's float operations, run over
    every (row, z) at once. The first pass that leaves a bound at or above
    tol unchanged raises SeriesCapError, since no later pass would move
    it: the bound stalls so at the smallest subnormal when ratio > 1/2, and
    at inf. Every other pass shrinks each such bound, so the loop ends.
    """
    if not tol > 0:
        raise ValueError(f"series tolerance must be > 0, got {tol}")
    ratio, bound = rho / z_abs, 1.0 / (z_abs - rho)
    K = np.full(bound.shape, -1)
    more = bound >= tol
    while more.any():
        K += more
        shrunk = bound * ratio
        stalled = more & (shrunk == bound)
        if stalled.any():
            i = np.argmax(stalled)
            raise SeriesCapError(
                f"the series tail bound stops shrinking at {bound.flat[i]:.3g} "
                f">= tol={tol} after {K.flat[i] + 1} terms"
            )
        bound = shrunk
        more = bound >= tol
    return np.maximum(K, 0, out=K)


def _tail_bound(rho: float, z_abs: float, K: int) -> float:
    """Geometric bound on the terms past power K. K is a Python int: a numpy
    integer exponent rounds the power differently."""
    return float((rho / z_abs) ** (K + 1) / (z_abs - rho))


@np.errstate(over="ignore", invalid="ignore")
def _neumann_sums(a, b, c, zs, terms: np.ndarray) -> np.ndarray:
    """Sums of (J^k)_11 / z^{k+1} over k < terms, (S, nz, 2, 2), for the
    operators J of the band rows a (S, m), b (S, m - 1), c (S, m - 2), the
    points zs and the term counts terms (S, nz), each at least 1.

    The rows share a stacked power loop, as many as fit STACK_BYTES with
    min(m, n + 1) rows of J each, n the largest order of all; each stack
    builds the slab of the leading min(m, n_s + 1) rows its own largest
    order n_s reads (dense_stack). Then one pass over k serves every row.
    The powers of 1/z are formed in each z's own scalar type, 1.0 / z and
    then zp *= 1/z, and each sum adds its terms in increasing k, so a sum
    is bit for bit that of a lone row and z. Powers that overflow leave a
    sum that is not finite, without a warning; callers test the sums.
    """
    S, nz = terms.shape
    m = a.shape[1]
    n_max = int(terms.max(initial=1)) - 1
    # every stack's blocks up to its own largest order, zero past it; the
    # zeros are never read
    blocks = np.zeros((S, n_max + 1, 1, 4), dtype=np.complex128)
    size = max(1, STACK_BYTES // (16 * m * min(m, n_max + 1)))
    for lo in range(0, S, size):
        hi = lo + size
        n = int(terms[lo:hi].max(initial=1)) - 1
        slab = dense_stack(a[lo:hi], b[lo:hi], c[lo:hi], min(m, n + 1))
        blocks[lo:hi, : n + 1] = leading_power_blocks(slab, n).reshape(-1, n + 1, 1, 4)
    sums = np.zeros((S, nz, 4), dtype=np.complex128)
    zinv = [1.0 / z for z in zs]
    zp = list(zinv)
    coef = np.empty((nz, 1), dtype=np.complex128)
    for k in range(n_max + 1):
        # each product runs over one block's 4 entries times one scalar,
        # whatever S and nz are, so its rounding does not depend on them
        coef[:, 0] = zp
        np.add(sums, blocks[:, k] * coef, out=sums, where=(k < terms)[:, :, None])
        zp = [p * q for p, q in zip(zp, zinv)]
    return sums.reshape(S, nz, 2, 2)


def _refuse_nonfinite(values, zs, K, where) -> None:
    """Raise SeriesCapError at the first (row, z) whose sum in values
    (S, nz, 2, 2) is not finite; where(i) names row i, K (S, nz) holds the
    largest powers summed."""
    finite = np.isfinite(values).all(axis=(2, 3))
    if not finite.all():
        i, j = np.unravel_index(np.argmin(finite), finite.shape)
        raise SeriesCapError(
            f"the Neumann sum at {where(i)}, z = {zs[j]:.6g} is not finite: "
            f"the powers J^k, k <= {K[i, j]}, leave the float range"
        )


def _neumann_rows(a, b, c, zs, tol: float, ts=None):
    """The certified Neumann sums of the band rows a (S, m), b (S, m - 1),
    c (S, m - 2) at the points zs: values (S, nz, 2, 2), tail bounds
    (S, nz), norm bounds (S,) and the largest powers summed K (S, nz).

    A row that is not finite raises ValueError, and _check_margin refuses
    a point inside the margin before any sum. The norm bounds come from
    norm_bound_stack, the counts from _terms_needed and the tails from
    _tail_bound, with each |z| in z's own scalar type. A sum that is not
    finite, its powers of J past the float range, raises SeriesCapError
    naming the first such (row, z): the row by its time in ts when given,
    else by its index.
    """
    a, b, c = (np.asarray(x, dtype=np.complex128) for x in (a, b, c))
    finite = np.isfinite(np.hstack((a, b, c))).all(axis=1)
    if not finite.all():
        raise ValueError(f"a, b and c entries must be finite (row {np.argmin(finite)})")
    rho = norm_bound_stack(a, b, c)[:, None]
    abs_zs = _check_margin(zs, rho)
    # the margin keeps rho / |z| <= 1 / MARGIN < 1, so every count is finite
    K = _terms_needed(rho, np.array(abs_zs), tol)
    tails = np.array([
        [_tail_bound(p, za, k) for za, k in zip(abs_zs, row)]
        for p, row in zip(rho[:, 0].tolist(), K.tolist())
    ]).reshape(K.shape)
    values = _neumann_sums(a, b, c, zs, K + 1)
    if ts is None:
        _refuse_nonfinite(values, zs, K, lambda i: f"row {i}")
    else:
        _refuse_nonfinite(values, zs, K, lambda i: f"t = {ts[i]:.6g}")
    return values, tails, rho[:, 0], K


def resolvent_block(
    state: LatticeState, z: complex, tol: float = 1e-10
) -> ResolventBlock:
    """Partial Neumann sum of the (1,1) resolvent block with tail certificate.

    It sums the powers 0..K, K the smallest index certified by tol, with z
    in its own scalar type.
    """
    values, tails, rho, K = _neumann_rows(
        state.a[None], state.b[None], state.c[None], [z], tol
    )
    return ResolventBlock(
        values[0, 0], z, float(rho[0]), int(K[0, 0]) + 1, float(tails[0, 0])
    )


def resolvent_sweep(
    a, b, c, zs, tol: float, ts=None
) -> tuple[np.ndarray, np.ndarray]:
    """resolvent_block(state, complex(z), tol) at every band row and point z.

    Row i of the bands a (S, m), b (S, m - 1) and c (S, m - 2) is one state,
    at time ts[i] if the times ts (S,) are given; an abort names the time,
    else the row. Returns the values (S, nz, 2, 2) and tail bounds (S, nz)
    of those calls, bit for bit, from one pass of the kernel they share
    (_neumann_rows).
    """
    values, tails, _, _ = _neumann_rows(a, b, c, [complex(z) for z in zs], tol, ts)
    return values, tails


def dense_resolvent_block(state: LatticeState, z: complex) -> np.ndarray:
    """(1,1) block of (zI - J)^{-1} by dense solve (reference oracle)."""
    m = state.m
    rhs = np.zeros((m, 2), dtype=np.complex128)
    rhs[0, 0] = 1.0
    rhs[1, 1] = 1.0
    sol = np.linalg.solve(z * np.eye(m, dtype=np.complex128) - state.dense(), rhs)
    return sol[:2, :]


def _series_derivative(traj, z: complex, t: float, tol: float, conjugate: bool):
    """State st at t, the series value there, and its time derivative from
    the flow traj (Trajectory.derivative).

    The value is R(z), or with conjugate F(z) = C0^{-1} R(z) C0
    (c0_conjugate). The band rows of the derivative's states are summed
    by _neumann_sums, each with the same number of terms: the smallest
    that certifies tol at all of them, so the truncation error is smooth
    in time. A sum that is not finite raises SeriesCapError naming t and z.
    """

    def values_of(states):
        a, b, c = (np.stack([getattr(s, x) for s in states]) for x in "abc")
        rho = norm_bound_stack(a, b, c)
        abs_z = _check_margin([z], rho, " along the stencil")
        needed = int(_terms_needed(rho[:, None], np.array(abs_z), tol).max())
        K = np.full((len(states), 1), needed)
        values = _neumann_sums(a, b, c, [z], K + 1)
        _refuse_nonfinite(values, [z], K, lambda i: f"t = {t:.6g}")
        values = values[:, 0]
        if conjugate:
            values = [c0_conjugate(v, s.a[0]) for s, v in zip(states, values)]
        return values

    return traj.derivative(t, values_of)


def resolvent_ode_residual(traj, z: complex, t: float, tol: float = 1e-12) -> np.ndarray:
    """Defect (2, 2) of R' = R (zI - B_1) - I + [R, (J_lower)_11] at time t,
    with R' from the flow traj (Trajectory.derivative)."""
    st, r, dr = _series_derivative(traj, z, t, tol, conjugate=False)
    eye = np.eye(2, dtype=np.complex128)
    return dr - (r @ (z * eye - b_block(st, 1)) - eye + commutator(r, d_block(st, 0)))


def generating_ode_residual(
    traj, zeta: complex, t: float, tol: float = 1e-12
) -> np.ndarray:
    """Defect (2, 2) of F' = F (zeta I - moment_1) - I at time t, with F'
    from the flow traj (Trajectory.derivative)."""
    st, f, df = _series_derivative(traj, zeta, t, tol, conjugate=True)
    m1 = moments_from_j(st, 1).moments[1]
    eye = np.eye(2, dtype=np.complex128)
    return df - (f @ (zeta * eye - m1) - eye)


def outside_margin(r: float, phase, rho: float):
    """r * phase, with r stepped up by ulps until |r * phase| >= MARGIN * rho.

    A radius of exactly MARGIN * rho can round to a point just inside the
    margin. Kept out of __all__ with spectral_ring.
    """
    while abs(r * phase) < MARGIN * rho:
        r = np.nextafter(r, np.inf)
    return r * phase


def spectral_ring(traj: Trajectory, n_angles: int, mult: float = 2.0) -> np.ndarray:
    """Points z = mult * rho_max * exp(2 pi i k / n_angles), k = 0..n_angles-1.

    rho_max is the largest norm bound along traj. With mult >= MARGIN every
    z respects the margin against norm_bound at every sample: a point that
    rounds inside it has its radius stepped up by outside_margin, and the
    other points keep their value. A radius mult * rho_max that is not
    finite, or a ring too big to allocate, raises ValueError naming it. Kept
    out of __all__ so that tracers time it as part of its caller.
    """
    rho_max = float(np.max(traj.norm_bounds()))
    radius = mult * rho_max
    if not math.isfinite(radius):
        raise ValueError(f"ring radius {mult!r} * {rho_max!r} = {radius} is not finite")
    try:
        phases = np.exp(2j * np.pi * np.arange(n_angles) / n_angles)
    except MemoryError as exc:  # numpy's message names the shape and the size
        raise ValueError(f"cannot store the ring: {exc}") from None
    zs = radius * phases
    if mult >= MARGIN:
        for k, z in enumerate(zs):
            if abs(z) < MARGIN * rho_max:
                zs[k] = outside_margin(radius, phases[k], rho_max)
    return zs


def closed_form_resolvent(traj: Trajectory, zs) -> np.ndarray:
    """R(t, z) = n_11^{-1} [(zI - J0)^{-1} e^{(t - t0) J0}]_11 b_11^{-1} at
    every sample time and point z, (n_samples, nz, 2, 2).

    J0 is the operator at the first sample, and it and the time grid are
    all that is read; each z must respect the margin at J0. The first two
    columns of the exponential, the only ones that enter, advance by one
    product with G = e^{h (J0 - sigma I)}, sigma = tr J0 / m, per sample.
    They hold e^{-sigma (t - t0)} e^{(t - t0) J0}: the scalar leaves n
    unchanged, cancels in b_11^{-1}, and keeps the columns finite while the
    diagonal is large. Their leading 2x2 block is n_11 b_11, whose
    unpivoted LU gives n_11 = [[1, 0], [l, 1]] and b_11 = [[e00, e01],
    [0, u]], inverted explicitly. The leading two rows of every
    (zI - J0)^{-1} come from one batched solve of the transposed systems.
    Raises LinAlgError naming the first sample time at which R is not
    finite, as when the pivot u cancels to zero.
    """
    zs = np.ascontiguousarray(zs, dtype=np.complex128)
    state = traj.state_at(0)
    _check_margin(zs, norm_bound(state), f" at t = {state.t:.6g}")
    m, n = traj.m, traj.n_samples
    J0 = state.dense()
    first_two = np.eye(m, 2, dtype=np.complex128)
    cols = np.empty((n, m, 2), dtype=np.complex128)  # of e^{(t - t0)(J0 - sigma I)}
    cols[0] = first_two
    binv = np.zeros((n, 2, 2), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        G = expm(traj.h * (J0 - np.trace(J0) / m * np.eye(m)))
        for k in range(1, n):
            np.matmul(G, cols[k - 1], out=cols[k])
        (e00, e01), (e10, e11) = cols[:, 0].T, cols[:, 1].T
        l = e10 / e00
        u = e11 - l * e01
        binv[:, 0, 0] = 1.0 / e00
        binv[:, 0, 1] = -e01 / (e00 * u)
        binv[:, 1, 1] = 1.0 / u
        rows = np.linalg.solve(zs[:, None, None] * np.eye(m) - J0.T, first_two)
        r = rows.transpose(0, 2, 1)[None] @ (cols @ binv)[:, None]
        # C0(t) C0(t0)^{-1} = n_11^{-1} = [[1, 0], [-l, 1]] on the left
        r[:, :, 1] -= l[:, None, None] * r[:, :, 0]

    finite = np.isfinite(r).all(axis=(1, 2, 3))
    if not finite.all():
        t = traj.ts[np.argmin(finite)]
        raise np.linalg.LinAlgError(
            f"the closed-form resolvent leaves the finite range at t = {t:.6g}"
        )
    return r
