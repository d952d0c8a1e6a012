"""Matrix moment functional of a lattice instance and its evolution laws.

The functional U maps a polynomial 2-vector Q = (q1, q2)^T to the 2x2
matrix [[u1[q1], u2[q1]], [u1[q2], u2[q2]]], where u1, u2 are the scalar
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
by renormalization, which `exponential_moments` implements as a certified
truncated series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LatticeState,
    TruncationTooSmallError,
    c0_block,
    c0_block_inv,
    c_block,
    leading_power_blocks,
)
from .dynamics import Trajectory
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


class OrderOverflowError(ValueError):
    """A polynomial of higher degree than the stored moments was applied."""


class SeriesCapError(RuntimeError):
    """The exponential series did not certify convergence within the cap."""


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


def moments_from_j(
    state: LatticeState, n_max: int, require_locality: bool = True
) -> MomentFunctional:
    """Moment blocks via powers of the dense operator.

    With require_locality (default) the order is capped at m - 2, the range
    over which the m x m truncation reproduces every larger truncation
    exactly. Orders beyond that are still well defined for the finite
    system itself and are needed by the exponential series; pass
    require_locality=False to allow them.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if require_locality and n_max > state.m - 2:
        raise TruncationTooSmallError(
            f"order n_max={n_max} needs m >= n_max + 2 = {n_max + 2}, got m={state.m}"
        )
    c0 = c0_block(state.a[0])
    c0i = c0_block_inv(state.a[0])
    return MomentFunctional(c0i @ leading_power_blocks(state, n_max) @ c0)


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


def _moments_at(traj: Trajectory, i: int, n_max: int) -> MomentFunctional:
    return moments_from_j(traj.state_at(i), n_max)


def moment_ode_residual(traj: Trajectory, n: int, t: float) -> float:
    """Defect of d/dt moment_n = moment_{n+1} - moment_n moment_1 at time t."""
    res = _moment_ode_residual_matrix(traj, n, t)
    return float(np.max(np.abs(res)))


def _moment_ode_residual_matrix(traj: Trajectory, n: int, t: float) -> np.ndarray:
    i, dm = traj.central_diff(t, lambda j: _moments_at(traj, j, n).moments[n])
    u = _moments_at(traj, i, n + 1)
    rhs = u.moments[n + 1] - u.moments[n] @ u.moments[1]
    return dm - rhs


def functional_derivative_residual(
    traj: Trajectory, q: VectorPolynomial, t: float
) -> float:
    """Defect of d/dt U(Q) = U(zQ) - U(Q) moment_1 for a fixed Q at time t."""
    deg = max(q.top.size, q.bottom.size) - 1
    n_ord = deg + 1  # U(zQ) reaches one scalar order higher
    i, du = traj.central_diff(
        t, lambda j: _moments_at(traj, j, n_ord).apply(q.top, q.bottom)
    )
    u = _moments_at(traj, i, n_ord)
    rhs = apply_u(u, q, shift=1) - apply_u(u, q) @ u.moments[1]
    return float(np.max(np.abs(du - rhs)))


@dataclass(frozen=True)
class ExponentialMoments:
    """Result of the exponential advance: moments plus the certificate."""

    functional: MomentFunctional
    t: float
    rho: float
    terms_used: int
    tail_bound: float


def exponential_moments(
    u0: MomentFunctional,
    t: float,
    n_max: int,
    rho: float,
    entry_coeff: float | None = None,
) -> ExponentialMoments:
    """Moments at time t from the initial functional alone.

    Computes raw_k = sum_l (t^l / l!) moment0_{k+l} and returns the
    normalized blocks raw_k raw_0^{-1}. The truncation index is chosen so
    that the certified remainder

        entry_coeff * rho^n_max * sum_{l > K} (|t| rho)^l / l!

    falls below 1e-12 within 200 terms, else SeriesCapError; entry_coeff
    must dominate |moment0_q| / rho^q for all q (for blocks built from a
    lattice state this holds with (1 + |a_1|)^2). When omitted it is
    estimated from the stored orders.
    """
    if rho <= 0:
        raise ValueError("rho must be > 0")
    if not np.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    x = abs(t) * rho
    if entry_coeff is None:
        orders = np.arange(u0.n_max + 1, dtype=float)
        scale = np.max(np.abs(u0.moments), axis=(1, 2)) / rho**orders
        entry_coeff = float(max(1.0, np.max(scale)))

    lead = entry_coeff * rho**n_max
    nt = x  # x^{K+1} / (K+1)! for K = 0
    K = 0
    tail = np.inf
    while K <= 200:
        if K + 2 > x:
            tail = lead * nt / (1.0 - x / (K + 2))
            if tail < 1e-12:
                break
        K += 1
        nt *= x / (K + 1)
    else:
        raise SeriesCapError(
            "no certified truncation within 200 terms "
            f"(|t| rho = {x:.3g}, last bound {tail:.3g}, tol 1e-12)"
        )

    if u0.n_max < K + n_max:
        raise OrderOverflowError(
            f"series needs initial moments up to order {K + n_max}, "
            f"got n_max={u0.n_max}"
        )

    w = np.empty(K + 1)
    w[0] = 1.0
    for l in range(1, K + 1):
        w[l] = w[l - 1] * t / l
    raws = np.empty((n_max + 1, 2, 2), dtype=np.complex128)
    for k in range(n_max + 1):
        raws[k] = np.tensordot(w, u0.moments[k : k + K + 1], axes=(0, 0))
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
