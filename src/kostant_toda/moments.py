"""Matrix moment functional of a lattice instance and its evolution laws.

The functional U maps a polynomial 2-vector Q = (Q1, Q2)^T to the 2x2
matrix [[u1[Q1], u2[Q1]], [u1[Q2], u2[Q2]]], where u1, u2 are the scalar
functionals attached to the lattice. It is fully described by the moment
blocks

    moment_k = U(z^k P0) = C0^{-1} (J^k)_11 C0,      P0 = (1, z)^T,

whose rows overlap: row 2 of moment_k equals row 1 of moment_{k+1}. Two
independent constructions are provided: `moments_from_j` reads blocks of
dense powers, `moments_from_recurrence` solves the defining orthogonality
conditions degree by degree and never touches J. Along the flow the
moments obey

    d/dt moment_n = moment_{n+1} - moment_n moment_1,

and the whole functional advances by multiplication with exp(z t) followed
by renormalization. `exponential_moments(state, t, n_max)` sums that as a
truncated series whose tail it certifies from the state alone: its norm
bound rho and the entry bound (1 + |a_1|)^2 rho^q on moment_q.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LatticeState,
    TruncationTooSmallError,
    c0_block,
    c0_conjugate,
    c_block,
    leading_power_blocks,
    norm_bound,
)
from .polynomials import VectorPolynomial, scalar_polys, shift_coeffs

__all__ = [
    "ExponentialMoments",
    "MomentFunctional",
    "OrderOverflowError",
    "SeriesCapError",
    "SingularBlockError",
    "apply_u",
    "exponential_moments",
    "functional_derivative_residual",
    "moment_ode_residual",
    "moments_from_j",
    "moments_from_recurrence",
    "reconstruct_blocks",
]


# Highest initial moment order the exponential series reads.
SERIES_ORDERS = 60


class OrderOverflowError(ValueError):
    """A moment order above the stored or allowed ones was asked for."""


class SeriesCapError(RuntimeError):
    """A certified series did not reach its tolerance within its term cap."""


class SingularBlockError(np.linalg.LinAlgError):
    """A 2x2 block that the theory guarantees invertible came out singular."""


def _inv2(M: np.ndarray, what: str) -> np.ndarray:
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if det == 0 or not np.isfinite(det):
        raise SingularBlockError(f"{what} is singular (det = {det})")
    return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]], dtype=np.complex128) / det


@dataclass(frozen=True)
class MomentFunctional:
    """Moment blocks moment_0 .. moment_{n_max}, shape (n_max+1, 2, 2)."""

    moments: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.moments, dtype=np.complex128)
        if M.ndim != 3 or M.shape[0] < 1 or M.shape[1:] != (2, 2):
            raise ValueError(f"moments must have shape (k, 2, 2), got {M.shape}")
        object.__setattr__(self, "moments", M)

    @property
    def n_max(self) -> int:
        return self.moments.shape[0] - 1

    def scalar_rows(self) -> np.ndarray:
        """mu[i, k] = u^{i+1}[z^k] for k = 0 .. n_max + 1.

        Rows of consecutive moment blocks overlap, so n_max blocks carry
        scalar moments one order further.
        """
        K = self.n_max
        mu = np.empty((2, K + 2), dtype=np.complex128)
        mu[:, : K + 1] = self.moments[:, 0, :].T
        mu[:, K + 1] = self.moments[K, 1, :]
        return mu

    def overlap_defect(self) -> float:
        """Max |row 2 of moment_k - row 1 of moment_{k+1}| (roundoff scale)."""
        if self.n_max == 0:
            return 0.0
        return float(
            np.max(np.abs(self.moments[:-1, 1, :] - self.moments[1:, 0, :]))
        )

    def apply(self, top, bottom) -> np.ndarray:
        """U(Q) for Q with the given ascending coefficient arrays."""
        mu = self.scalar_rows()
        top = np.asarray(top, dtype=np.complex128)
        bottom = np.asarray(bottom, dtype=np.complex128)
        hi = max(top.size, bottom.size) - 1
        if hi > self.n_max + 1:
            raise OrderOverflowError(
                f"degree {hi} exceeds stored scalar moments (<= {self.n_max + 1})"
            )
        r1 = mu[:, : top.size] @ top
        r2 = mu[:, : bottom.size] @ bottom
        return np.array([[r1[0], r1[1]], [r2[0], r2[1]]], dtype=np.complex128)


def apply_u(u: MomentFunctional, q: VectorPolynomial, shift: int = 0) -> np.ndarray:
    """U(z^shift * Q) for a vector polynomial Q."""
    top, bottom = q.top, q.bottom
    if shift:
        top = shift_coeffs(top, shift)
        bottom = shift_coeffs(bottom, shift)
    return u.apply(top, bottom)


def moments_from_j(state: LatticeState, n_max: int) -> MomentFunctional:
    """Moment blocks via powers of the dense operator.

    The order is capped at m - 2, the range over which the m x m truncation
    reproduces every larger truncation exactly.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if n_max > state.m - 2:
        raise TruncationTooSmallError(
            f"order n_max={n_max} needs m >= n_max + 2 = {n_max + 2}, got m={state.m}"
        )
    blocks = leading_power_blocks(state.dense()[None], n_max)[0]
    return MomentFunctional(c0_conjugate(blocks, state.a[0]))


def moments_from_recurrence(state: LatticeState, n_max: int) -> MomentFunctional:
    """Moment blocks solved from the defining conditions, independent of J.

    The conditions U(z^j Bv_n) = 0 for j < n, U(z^n Bv_n) = C_n ... C_0
    (including U(Bv_0) = C_0) give, ordered by polynomial degree, a
    triangular linear system for the scalar moments: each condition's
    polynomial is monic, so its leading-degree moment is determined by
    lower ones. This is the brute-force route used to pin uniqueness.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    N = n_max + 1  # highest scalar moment index needed
    M = 0 if N <= 1 else -(-(N - 1) // 3)  # smallest M with 3M + 1 >= N
    if 2 * M + 1 > state.m or (M >= 1 and state.m < 2 * M + 2):
        raise TruncationTooSmallError(
            f"n_max={n_max} needs blocks up to {M}, lattice m={state.m} too small"
        )
    ps = scalar_polys(state, 2 * M + 1)

    cprod = [c0_block(state.a[0])]
    for n in range(1, M + 1):
        cprod.append(c_block(state, n) @ cprod[n - 1])

    mu = np.zeros((2, N + 1), dtype=np.complex128)
    known = np.zeros(N + 1, dtype=bool)
    for n in range(M + 1):
        for j in range(n + 1):
            rhs = cprod[n] if j == n else np.zeros((2, 2), dtype=np.complex128)
            for r in (0, 1):
                poly = shift_coeffs(ps[2 * n + r], j)
                D = poly.size - 1
                if D > N or known[D]:
                    continue
                for i in (0, 1):
                    mu[i, D] = rhs[r, i] - poly[:D] @ mu[i, :D]
                known[D] = True
    if not known.all():
        raise RuntimeError("internal: degree coverage gap in moment conditions")

    out = np.empty((n_max + 1, 2, 2), dtype=np.complex128)
    for k in range(n_max + 1):
        out[k, 0, :] = mu[:, k]
        out[k, 1, :] = mu[:, k + 1]
    return MomentFunctional(out)


def moment_ode_residual(traj, n: int, t: float) -> np.ndarray:
    """Defect (2, 2) of d/dt moment_n = moment_{n+1} - moment_n moment_1 at
    time t, with the derivative from the flow traj (Trajectory.derivative)."""
    _, u, du = traj.derivative(
        t, lambda states: [moments_from_j(s, n + 1).moments for s in states]
    )
    return du[n] - (u[n + 1] - u[n] @ u[1])


def functional_derivative_residual(traj, q: VectorPolynomial, t: float) -> np.ndarray:
    """Defect (2, 2) of d/dt U(Q) = U(zQ) - U(Q) moment_1 for a fixed Q at
    time t, with the derivative from the flow traj (Trajectory.derivative)."""
    deg = max(q.top.size, q.bottom.size) - 1
    n_ord = deg + 1  # U(zQ) reaches one scalar order higher

    def values_of(states):
        # U(Q), U(zQ) and moment_1 at each state
        us = [moments_from_j(s, n_ord) for s in states]
        return [np.stack([apply_u(u, q), apply_u(u, q, shift=1), u.moments[1]]) for u in us]

    _, (uq, uzq, m1), (duq, _, _) = traj.derivative(t, values_of)
    return duq - (uzq - uq @ m1)


@dataclass(frozen=True)
class ExponentialMoments:
    """Result of the exponential advance: moments plus the certificate."""

    functional: MomentFunctional
    t: float
    rho: float
    terms_used: int
    tail_bound: float


def exponential_moments(state: LatticeState, t: float, n_max: int) -> ExponentialMoments:
    """Moment blocks at time state.t + t of the flow through state.

    Computes raw_k = sum_l (t^l / l!) moment0_{k+l}, moment0_q the moments
    C0^{-1} (J^q)_11 C0 of state, and returns the normalized blocks
    raw_k raw_0^{-1}. Every entry of moment0_q is at most (1 + |a_1|)^2 rho^q,
    rho = norm_bound(state), since ||(J^q)_11|| <= rho^q and C0, C0^{-1}
    have infinity norm 1 + |a_1|. The truncation index K is chosen so that
    the certified remainder

        (1 + |a_1|)^2 rho^n_max * sum_{l > K} (|t| rho)^l / l!

    falls below 1e-12 within 200 terms, else SeriesCapError. The orders
    moment0_0 .. moment0_{K + n_max}, which may pass the locality range of
    moments_from_j, come from the same power loop; more than SERIES_ORDERS
    raise OrderOverflowError.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    rho = norm_bound(state)
    x = abs(t) * rho
    lead = (1.0 + abs(state.a[0])) ** 2 * rho**n_max
    nt = x  # x^{K+1} / (K+1)! for K = 0
    K = 0
    tail = None  # the bound holds only once the terms shrink, at K + 2 > x
    while K <= 200:
        if K + 2 > x:
            tail = lead * nt / (1.0 - x / (K + 2))
            if tail < 1e-12:
                break
        K += 1
        nt *= x / (K + 1)
    else:
        why = (
            "the terms were still growing at the cap"
            if tail is None
            else f"last bound {tail:.3g}, tol 1e-12"
        )
        raise SeriesCapError(
            f"no certified truncation within 200 terms (|t| rho = {x:.3g}, {why})"
        )

    if K + n_max > SERIES_ORDERS:
        raise OrderOverflowError(
            f"series needs moments up to order {K + n_max}, "
            f"above the limit of {SERIES_ORDERS}"
        )
    blocks = leading_power_blocks(state.dense()[None], K + n_max)[0]
    moments0 = c0_conjugate(blocks, state.a[0])

    w = np.empty(K + 1)
    w[0] = 1.0
    for l in range(1, K + 1):
        w[l] = w[l - 1] * t / l
    raws = np.empty((n_max + 1, 2, 2), dtype=np.complex128)
    for k in range(n_max + 1):
        raws[k] = np.tensordot(w, moments0[k : k + K + 1], axes=(0, 0))
    inv0 = _inv2(raws[0], f"normalization block raw_0 at t={t}")
    out = raws @ inv0
    return ExponentialMoments(MomentFunctional(out), t, rho, K + 1, float(tail))


def reconstruct_blocks(u: MomentFunctional, polys: list[VectorPolynomial]):
    """Recover the 2x2 blocks of J from the functional and its polynomials.

    Returns (b_blocks, c_blocks): c_blocks[n] for n = 0..N with
    c_blocks[0] = U(Bv_0), and b_blocks[n] for n = 1..N (index 0 unused,
    kept None), via the quotient identities

        C_n = U(z^n Bv_n) [U(z^{n-1} Bv_{n-1})]^{-1}
        B_n = (U(z^n Bv_{n-1}) - C_{n-1} U(z^{n-1} Bv_{n-2}))
              [U(z^{n-1} Bv_{n-1})]^{-1}.
    """
    N = len(polys) - 1
    c_blocks: list[np.ndarray] = [apply_u(u, polys[0])]
    b_blocks: list[np.ndarray | None] = [None]
    for n in range(1, N + 1):
        denom = _inv2(
            apply_u(u, polys[n - 1], shift=n - 1), f"U(z^{n - 1} Bv_{n - 1})"
        )
        c_blocks.append(apply_u(u, polys[n], shift=n) @ denom)
        prev2 = (
            np.zeros((2, 2), dtype=np.complex128)
            if n == 1
            else apply_u(u, polys[n - 2], shift=n - 1)
        )
        b_blocks.append(
            (apply_u(u, polys[n - 1], shift=n) - c_blocks[n - 1] @ prev2) @ denom
        )
    return b_blocks, c_blocks
