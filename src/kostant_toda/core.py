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

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LatticeState",
    "TruncationTooSmallError",
    "b_block",
    "c0_block",
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


def _check_size(m: int) -> None:
    if m < 4 or m % 2 != 0:
        raise ValueError(f"lattice size m={m} must be even and >= 4")


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
        _check_size(m)
        if self.b.size != m - 1:
            raise ValueError(f"b must have length m-1={m - 1}, got {self.b.size}")
        if self.c.size != m - 2:
            raise ValueError(f"c must have length m-2={m - 2}, got {self.c.size}")
        if not all(np.isfinite(x).all() for x in (self.a, self.b, self.c)):
            raise ValueError("a, b and c entries must be finite")
        if not np.isfinite(self.t):
            raise ValueError(f"t must be finite, got {self.t}")
        if np.any(self.c == 0):
            raise ValueError("all c entries must be nonzero")

    @property
    def m(self) -> int:
        return self.a.size

    def dense(self) -> np.ndarray:
        """Dense m x m operator: unit superdiagonal, bands a, b, c."""
        return dense_stack(self.a[None], self.b[None], self.c[None])[0]

    def copy(self) -> "LatticeState":
        return LatticeState(self.a.copy(), self.b.copy(), self.c.copy(), self.t)


# Kept out of __all__ like backends._rhs: they run inside moments_from_j and
# the resolvent sums, and tracers that wrap public functions should leave
# them alone.
def dense_stack(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, rows: int | None = None
) -> np.ndarray:
    """Leading rows of the dense operators of S states, (S, rows, m), from
    bands (S, m), (S, m-1), (S, m-2); rows is 1 .. m, all m when None.

    A power loop for J^k reads only J's first min(m, k + 1) rows
    (leading_power_blocks), so a slab of those rows gives its blocks.
    """
    S, m = a.shape
    rows = m if rows is None else rows
    J = np.zeros((S, rows, m), dtype=np.complex128)
    # entry (i, j) of a row-major slab is flat[i * m + j], and each band
    # steps by m + 1; the slices stop at the slab's last row
    flat, end, step = J.reshape(S, rows * m), rows * m, m + 1
    flat[:, 0:end:step] = a[:, :rows]
    flat[:, 1:end:step] = 1.0
    flat[:, m:end:step] = b[:, : rows - 1]
    flat[:, 2 * m : end : step] = c[:, : max(rows - 2, 0)]
    return J


def leading_power_blocks(J: np.ndarray, n_max: int) -> np.ndarray:
    """Blocks (J^k)_11 of a stack J (S, r, m), k = 0 .. n_max: (S, n_max + 1, 2, 2).

    J holds the leading r >= min(m, n_max + 1) rows of each operator (all
    m rows, or a slab of dense_stack). The leading two rows W of J^k
    advance by one stacked product W <- W J per power. The leading two
    rows of J^{k-1} are exactly zero past their first k + 1 columns, since
    the unit superdiagonal moves the reach right by one per power, so the
    product for power k runs over the first s = min(m, k + 1) columns of W
    and rows of J only. J must be finite: then every term left out is an
    exact zero times a finite entry, which leaves a sum added in order
    unchanged, and the blocks keep the bits of the product over all m
    columns (the dense loop is the oracle in tests/test_core.py). Each
    state's blocks are bit-identical alone and in a stack.
    """
    S, _, m = J.shape
    W = np.zeros((S, 2, m), dtype=np.complex128)
    W[:, 0, 0] = 1.0
    W[:, 1, 1] = 1.0
    out = np.empty((S, n_max + 1, 2, 2), dtype=np.complex128)
    out[:, 0] = W[:, :, :2]
    for k in range(1, n_max + 1):
        s = min(m, k + 1)
        W = W[:, :, :s] @ J[:, :s, :]
        out[:, k] = W[:, :, :2]
    return out


def expm(A: np.ndarray) -> np.ndarray:
    """e^A of a square matrix by Taylor scaling and squaring.

    B = A / 2^s with the least s >= 0 that makes ||B||_1 <= 1/2; the Taylor
    polynomial T(B) = sum_{k <= 16} B^k / k! is evaluated by Horner's rule
    and squared s times. Its remainder is at most
    sum_{k > 16} ||B||_1^k / k! <= (1/2)^17 / 17! / (1 - 1/36) < 2.3e-20,
    against ||e^B||_1 >= e^{-1/2}, so the rounding of the Horner steps and
    the squarings sets the error (Higham, SIAM J. Matrix Anal. Appl. 26,
    2005; Moler & Van Loan, SIAM Rev. 45, 2003). A must be finite. Kept out
    of __all__ with dense_stack.
    """
    A = np.asarray(A, dtype=np.complex128)
    norm = float(np.linalg.norm(A, 1))
    s = math.ceil(math.log2(norm / 0.5)) if norm > 0.5 else 0
    B = A / 2.0**s
    eye = np.eye(A.shape[0], dtype=np.complex128)
    T = eye
    for k in range(16, 0, -1):
        T = eye + (B @ T) / k
    for _ in range(s):
        T = T @ T
    return T


def commutator(M: np.ndarray, N: np.ndarray) -> np.ndarray:
    return M @ N - N @ M


def norm_bound(state: LatticeState) -> float:
    """Upper bound rho >= ||J|| in the induced infinity norm.

    Row n of J holds c_{n-2}, b_{n-1}, a_n and the superdiagonal 1, so the
    max absolute row sum is bounded by max_n(|c| + |b| + |a| + 1). The +1 is
    kept for every row, which keeps the bound independent of where the
    truncation cuts off.
    """
    return float(norm_bound_stack(state.a[None], state.b[None], state.c[None])[0])


def norm_bound_stack(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """norm_bound of S states, (S,), from bands (S, m), (S, m-1), (S, m-2).

    Each row sum adds |c|, |b|, |a| and 1 in that order, so every value is
    norm_bound's bit for bit. Kept out of __all__ with dense_stack.
    """
    rows = np.zeros(a.shape)
    rows[:, 2:] = np.abs(c)
    rows[:, 1:] += np.abs(b)
    rows += np.abs(a)
    rows += 1.0
    return np.max(rows, axis=1)


# C0 is the normalization block attached to the first diagonal entry.
def c0_block(a1: complex) -> np.ndarray:
    return np.array([[1.0, 0.0], [-a1, 1.0]], dtype=np.complex128)


def c0_conjugate(blocks: np.ndarray, a1: complex) -> np.ndarray:
    """C0^{-1} X C0 for each 2x2 block X of blocks, C0 = c0_block(a1):
    the normalization of moments and of the generating function.

    C0^{-1} is c0_block(-a1) exactly, and the products run left to right.
    Kept out of __all__ with dense_stack.
    """
    return c0_block(-a1) @ blocks @ c0_block(a1)


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

    Each entry is complex(u, v) for the next pair (u, v) of rng.uniform(-1, 1)
    draws, in stream order, with r_min <= abs(complex(u, v)) <= 1 (r_min is
    0.2 for c, else 0); a is drawn, then b, then c, so a seed pins the
    instance bit for bit. The pairs come in batches of one per entry still
    missing, so none is drawn past the last one kept, and a batch gives the
    doubles of as many scalar draws. A size LatticeState refuses, or an
    instance too big to allocate, raises ValueError naming the size.
    """
    _check_size(m)
    rng = np.random.default_rng(seed)
    try:
        bands = [np.empty(n, dtype=np.complex128) for n in (m, m - 1, m - 2)]
    except MemoryError as exc:  # numpy's message names the shape and the size
        raise ValueError(f"cannot store the instance: {exc}") from None
    for band, r_min in zip(bands, (0.0, 0.0, 0.2)):
        k = 0
        while k < band.size:
            pairs = rng.uniform(-1.0, 1.0, (band.size - k, 2)).tolist()
            kept = [z for u, v in pairs if r_min <= abs(z := complex(u, v)) <= 1.0]
            band[k : k + len(kept)] = kept
            k += len(kept)
    return LatticeState(*bands)
