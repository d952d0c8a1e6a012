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

A sample array of PREFAULT_BYTES (32 MiB) or more, on Linux, in a
process allowed two CPUs, has its pages faulted in ahead of the loop by
one helper thread: madvise(MADV_POPULATE_WRITE) through ctypes, which
releases the GIL, a PREFAULT_CHUNK at a time. The advice maps pages and
writes nothing to them, so every sample keeps its bits; a kernel before
5.14 refuses it, and RK4 then faults the pages in itself as before. The
thread is stopped and joined before rk4_trajectory returns or raises.
`_two_cpus` is the package's one test of how many CPUs it may use.

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

import contextlib
import ctypes
import functools
import importlib.util
import os
import sys
import threading

import numpy as np

# Run records report this flag; the package never imports the module.
HAS_NUMBA = importlib.util.find_spec("numba") is not None

C_FLOOR = 1e-12  # the integrator aborts once some |c_n| falls below this
FLOOR_BLOCK = 64  # stored steps per test of the c floor
# Sample arrays this large are faulted in ahead of RK4. glibc maps a block of
# 32 MiB or more afresh on every allocation; a smaller one can reuse heap
# pages already mapped, where the helper thread only costs time.
PREFAULT_BYTES = 32 << 20
PREFAULT_CHUNK = 4 << 20  # bytes per madvise call; the stop flag is read between calls
MADV_POPULATE_WRITE = 23  # Linux 5.14 and later; older kernels answer EINVAL

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


def _two_cpus() -> bool:
    """Whether this process may run on more than one CPU."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


@functools.cache
def _libc_madvise():
    f = ctypes.CDLL(None, use_errno=True).madvise
    f.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    f.restype = ctypes.c_int
    return f


def _madvise(addr: int, length: int, advice: int) -> int:
    """madvise(2) through ctypes, which releases the GIL: 0, or the errno."""
    return ctypes.get_errno() if _libc_madvise()(addr, length, advice) else 0


def _populate(addr: int, end: int, stop: threading.Event) -> None:
    """Fault in the pages [addr, end) a chunk at a time until stop is set."""
    while addr < end and not stop.is_set():
        n = min(PREFAULT_CHUNK, end - addr)
        if _madvise(addr, n, MADV_POPULATE_WRITE):  # refused: RK4 faults them in
            return
        addr += n


@contextlib.contextmanager
def _faulted_in(out: np.ndarray):
    """Fault in the pages of out on a helper thread for the body's duration.

    Only for an out of PREFAULT_BYTES or more, on Linux, in a process
    allowed two CPUs; the advice maps pages without writing to them, so no
    stored value can change. On exit the helper is stopped and joined: it
    finishes at most the chunk it is in.
    """
    helper = stop = None
    if out.nbytes >= PREFAULT_BYTES and sys.platform.startswith("linux") and _two_cpus():
        page = os.sysconf("SC_PAGESIZE")
        start = -(-out.ctypes.data // page) * page
        end = (out.ctypes.data + out.nbytes) // page * page
        stop = threading.Event()
        helper = threading.Thread(target=_populate, args=(start, end, stop), daemon=True)
        try:
            helper.start()
        except RuntimeError:  # no thread to spare: RK4 faults the pages in itself
            helper = None
    try:
        yield
    finally:
        if helper is not None:
            stop.set()
            helper.join()


def rk4_trajectory(y0, m, n_steps, h, corruption=None):
    """Integrate the packed state; returns (samples, status).

    samples has shape (n_steps + 1, len(y0)); status is 0 on success or the
    1-based step index at which min |c| fell below C_FLOOR or turned NaN, as
    it does when the bands overflow (rows past that index are unspecified).
    Overflow is reported by status alone: numpy's warnings are silenced.
    A samples array too big to allocate raises ValueError naming its size.
    One of PREFAULT_BYTES or more, on Linux with two CPUs allowed, is
    faulted in by a helper thread while the loop fills it; the helper writes
    nothing, so the samples keep their bits, and it is joined before this
    function returns or raises.
    """
    y0 = np.ascontiguousarray(y0, dtype=np.complex128)
    L = y0.size
    if L != 3 * m - 3:
        raise ValueError(f"packed state length {L} != 3*m - 3 = {3 * m - 3}")
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
    with _faulted_in(out), np.errstate(over="ignore", invalid="ignore"):
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
    return out, 0
