"""Core state and block-matrix primitives for finite full Kostant-Toda lattices.

A lattice instance of even size m >= 4 is described by three complex
coefficient arrays: the diagonal a (length m), the first subdiagonal b
(length m-1) and the second subdiagonal c (length m-2). The associated
operator J is four banded: unit superdiagonal, diagonal a, subdiagonals
b and c. Everything downstream (polynomials, moments, resolvents) views
J through its 2x2 block partition, where block (i, j) covers rows
2i-1, 2i and columns 2j-1, 2j in 1-based matrix terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatticeState",
    "TruncationTooSmallError",
    "a_block",
    "b_block",
    "block_at",
    "c0_block",
    "c0_block_inv",
    "c_block",
    "commutator",
    "d_block",
    "norm_bound",
    "random_state",
]


class TruncationTooSmallError(ValueError):
    """The truncation size m cannot support the requested order exactly.

    Powers (J^n)_11 computed on the m x m truncation agree with any larger
    truncation only while n <= m - 2 (the unit superdiagonal moves column
    reach right by one per power). Operations that promise
    truncation-independent output raise this when the guarantee is gone.
    """


@dataclass
class LatticeState:
    """Coefficient arrays (a, b, c) of one truncated lattice at time t."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.complex128)
        self.b = np.asarray(self.b, dtype=np.complex128)
        self.c = np.asarray(self.c, dtype=np.complex128)
        m = self.a.size
        if m < 4 or m % 2 != 0:
            raise ValueError(f"lattice size m={m} must be even and >= 4")
        if self.b.size != m - 1:
            raise ValueError(f"b must have length m-1={m - 1}, got {self.b.size}")
        if self.c.size != m - 2:
            raise ValueError(f"c must have length m-2={m - 2}, got {self.c.size}")
        if not all(np.isfinite(x).all() for x in (self.a, self.b, self.c)):
            raise ValueError("a, b and c entries must be finite")
        if np.any(self.c == 0):
            raise ValueError("all c entries must be nonzero")

    @property
    def m(self) -> int:
        return self.a.size

    def dense(self) -> np.ndarray:
        """Dense m x m operator: unit superdiagonal, bands a, b, c."""
        m = self.m
        J = np.zeros((m, m), dtype=np.complex128)
        idx = np.arange(m)
        J[idx, idx] = self.a
        J[idx[:-1], idx[1:]] = 1.0
        J[idx[1:], idx[:-1]] = self.b
        J[idx[2:], idx[:-2]] = self.c
        return J

    def lower_dense(self) -> np.ndarray:
        """Strictly lower part of the operator (the b and c bands)."""
        return np.tril(self.dense(), -1)

    def copy(self) -> "LatticeState":
        return LatticeState(self.a.copy(), self.b.copy(), self.c.copy(), self.t)


def block_at(M: np.ndarray, i: int, j: int) -> np.ndarray:
    """2x2 block (i, j) of a dense matrix, 1-based block indices."""
    m = M.shape[0]
    if not (1 <= i <= m // 2 and 1 <= j <= m // 2):
        raise IndexError(f"block index ({i}, {j}) out of range for m={m}")
    return np.array(M[2 * i - 2 : 2 * i, 2 * j - 2 : 2 * j])


# Kept out of __all__ like backends._rhs: it runs inside moments_from_j and
# resolvent_block, and tracers that wrap public functions should leave it alone.
def leading_power_blocks(state: LatticeState, n_max: int) -> np.ndarray:
    """Blocks (J^k)_11 for k = 0 .. n_max, shape (n_max + 1, 2, 2).

    The leading two rows W of J^k advance by one dense product W <- W J
    per power.
    """
    J = state.dense()
    W = np.zeros((2, state.m), dtype=np.complex128)
    W[0, 0] = 1.0
    W[1, 1] = 1.0
    out = np.empty((n_max + 1, 2, 2), dtype=np.complex128)
    out[0] = W[:, :2]
    for k in range(1, n_max + 1):
        W = W @ J
        out[k] = W[:, :2]
    return out


def commutator(M: np.ndarray, N: np.ndarray) -> np.ndarray:
    return M @ N - N @ M


def norm_bound(state: LatticeState) -> float:
    """Upper bound rho >= ||J|| in the induced infinity norm.

    Row n of J holds c_{n-2}, b_{n-1}, a_n and the superdiagonal 1, so the
    max absolute row sum is bounded by max_n(|c| + |b| + |a| + 1). The +1 is
    kept for every row, which keeps the bound independent of where the
    truncation cuts off.
    """
    cpad = np.concatenate([[0.0], [0.0], np.abs(state.c)])
    bpad = np.concatenate([[0.0], np.abs(state.b)])
    rows = cpad + bpad + np.abs(state.a) + 1.0
    return float(np.max(rows))


# Fixed 2x2 blocks of the partition. A is the constant superdiagonal block;
# C0 is the normalization block attached to the first diagonal entry.

_A = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128)


def a_block() -> np.ndarray:
    return _A.copy()


def c0_block(a1: complex) -> np.ndarray:
    return np.array([[1.0, 0.0], [-a1, 1.0]], dtype=np.complex128)


def c0_block_inv(a1: complex) -> np.ndarray:
    return np.array([[1.0, 0.0], [a1, 1.0]], dtype=np.complex128)


def b_block(state: LatticeState, n: int) -> np.ndarray:
    """Diagonal block n >= 1: [[a_{2n-1}, 1], [b_{2n-1}, a_{2n}]]."""
    if not 1 <= n <= state.m // 2:
        raise IndexError(f"diagonal block index {n} out of range")
    a, b = state.a, state.b
    return np.array(
        [[a[2 * n - 2], 1.0], [b[2 * n - 2], a[2 * n - 1]]], dtype=np.complex128
    )

def c_block(state: LatticeState, n: int) -> np.ndarray:
    """Subdiagonal block: [[c_{2n-1}, b_{2n}], [0, c_{2n}]] for n >= 1.

    n = 0 returns the normalization block C0 = [[1, 0], [-a_1, 1]] so that
    products C_n ... C_0 can be formed uniformly.
    """
    if n == 0:
        return c0_block(state.a[0])
    if not 1 <= n <= state.m // 2 - 1:
        raise IndexError(f"subdiagonal block index {n} out of range")
    b, c = state.b, state.c
    return np.array(
        [[c[2 * n - 2], b[2 * n - 1]], [0.0, c[2 * n - 1]]], dtype=np.complex128
    )


def d_block(state: LatticeState, n: int) -> np.ndarray:
    """Strictly-lower diagonal block n >= 0: [[0, 0], [b_{2n+1}, 0]]."""
    if not 0 <= n <= state.m // 2 - 1:
        raise IndexError(f"lower diagonal block index {n} out of range")
    return np.array([[0.0, 0.0], [state.b[2 * n], 0.0]], dtype=np.complex128)


def random_state(seed: int, m: int = 12) -> LatticeState:
    """Random instance: entries uniform in the unit disk, |c| >= 0.2.

    Draw order is fixed (a, then b, then c, rejection sampling per entry)
    so a seed pins the instance bit-for-bit.
    """
    rng = np.random.default_rng(seed)

    def draw(n, r_min=0.0):
        out = np.empty(n, dtype=np.complex128)
        k = 0
        while k < n:
            z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
            if r_min <= abs(z) <= 1.0:
                out[k] = z
                k += 1
        return out

    a = draw(m)
    b = draw(m - 1)
    c = draw(m - 2, r_min=0.2)
    return LatticeState(a, b, c)
