"""Lattice flow: coefficient ODE, Lax form, and the RK4 trajectory object.

The flow integrated here is

    a_n' = b_n - b_{n-1}
    b_n' = b_n (a_{n+1} - a_n) + c_n - c_{n-1}
    c_n' = c_n (a_{n+2} - a_n)

with b_0 = 0 and all coefficients beyond the truncation treated as absent.
Written on the dense operator this is exactly J' = [J, J_lower], so the
truncated flow is an honest Lax pair and the spectrum of J is conserved.

A trajectory stores the bands and nothing else. The closed-form
resolvent reads all it needs off the exponential of the operator at the
first sample (resolvent.closed_form_resolvent), not off the integrator.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass

import numpy as np

from . import backends
from .core import LatticeState, commutator, norm_bound_stack

__all__ = [
    "CNearZeroError",
    "CorruptionSpec",
    "IntegratorConfig",
    "Trajectory",
    "central_diff",
    "integrate",
    "kostant_rhs",
    "lax_rhs",
]

# Central differences span delta = STENCIL_HALFWIDTH * h on each side of the
# sample, so the stencil stays on the stored grid.
STENCIL_HALFWIDTH = 2

# The deliberate defects CorruptionSpec can inject, in report order.
CORRUPTION_KINDS = ("freeze-b", "scale-c-rhs", "drop-commutator-term")


class CNearZeroError(RuntimeError):
    """Raised when some |c_n| falls below the floor backends.C_FLOOR or turns NaN.

    The c band must stay away from zero for the block partition to remain
    invertible; the integrator refuses to continue past that point. A NaN
    c_min means the bands overflowed: the flow left the finite range.
    """

    def __init__(self, t: float, step: int, c_min: float):
        self.t = t
        self.step = step
        self.c_min = c_min
        what = (
            f"min |c| = {c_min:.3e} fell below floor {backends.C_FLOOR:.3e}"
            if np.isfinite(c_min)
            else "the flow left the finite range"
        )
        super().__init__(f"{what} at t = {t:.6g} (step {step})")


@dataclass(frozen=True)
class CorruptionSpec:
    """Deliberate defect injected into the flow (negative controls).

    kind: 'freeze-b' scales b' by (1 - magnitude), 'scale-c-rhs' scales c'
    by (1 + magnitude), 'drop-commutator-term' removes magnitude * (c_n -
    c_{n-1}) from b_n'. magnitude must be finite and positive.
    """

    kind: str
    magnitude: float = 1.0

    def __post_init__(self):
        if self.kind not in CORRUPTION_KINDS:
            raise ValueError(
                f"unknown corruption kind {self.kind!r}; "
                f"expected one of {sorted(CORRUPTION_KINDS)}"
            )
        if not (self.magnitude > 0 and np.isfinite(self.magnitude)):
            raise ValueError(
                f"corruption magnitude must be finite and > 0, got {self.magnitude}"
            )


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 configuration; t_end must sit on the step grid."""

    t_end: float = 1.0
    h: float = 1e-3

    def __post_init__(self):
        if not (self.h > 0 and np.isfinite(self.h)):
            raise ValueError(f"h must be finite and > 0, got {self.h}")
        if not (self.t_end >= 0 and np.isfinite(self.t_end)):
            raise ValueError(
                f"integration horizon must be finite and >= 0, got {self.t_end}"
            )
        if _grid_index(self.t_end, 0.0, self.h) is None:
            raise ValueError(
                f"integration horizon {self.t_end} is not an integer multiple "
                f"of h={self.h}"
            )

    @property
    def n_steps(self) -> int:
        return _grid_index(self.t_end, 0.0, self.h)


def _grid_index(t: float, t0: float, h: float) -> int | None:
    """The k with t = t0 + k h to within 1e-9 relative, or None.

    A quotient (t - t0) / h that is not finite, as when it overflows, has
    no such k and raises ValueError naming the step count.
    """
    q = (t - t0) / h
    if not np.isfinite(q):
        raise ValueError(f"the step count ({t} - {t0}) / {h} is not finite")
    k = round(q)
    if abs(t0 + k * h - t) > 1e-9 * max(1.0, abs(t)):
        return None
    return k


def kostant_rhs(state: LatticeState):
    """Time derivatives (a', b', c') of the coefficient arrays."""
    y = backends.pack_state(state.a, state.b, state.c)
    dy = np.empty_like(y)
    backends._rhs(y, dy, state.m, None)
    return backends.unpack_bands(dy, state.m)


def lax_rhs(J: np.ndarray) -> np.ndarray:
    """Dense right hand side [J, J_lower] of the Lax form."""
    return commutator(J, np.tril(J, -1))


class Trajectory:
    """Sampled solution on the uniform grid t0 + k h, k = 0..n_steps.

    samples holds the packed rows described in backends; the bands a, b
    and c are views into it, bound once.
    """

    def __init__(self, samples, m, h, t0):
        self.samples = samples
        self.m = m
        self.h = h
        self.t0 = t0
        self.ts = t0 + h * np.arange(samples.shape[0])
        self.a, self.b, self.c = (x.T for x in backends.unpack_bands(samples.T, m))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]

    def index_of(self, t: float) -> int:
        """Grid index of time t; t must lie on the grid."""
        i = _grid_index(t, self.t0, self.h)
        if i is None or not 0 <= i < self.n_samples:
            raise ValueError(f"t={t} is not on the integration grid")
        return i

    def norm_bounds(self) -> np.ndarray:
        """norm_bound of the operator at every sample (float array)."""
        return norm_bound_stack(self.a, self.b, self.c)

    def state_at(self, i: int) -> LatticeState:
        if not 0 <= i < self.n_samples:
            raise ValueError(
                f"sample index {i} is not on the trajectory (0..{self.n_samples - 1})"
            )
        return LatticeState(
            self.a[i].copy(), self.b[i].copy(), self.c[i].copy(), t=float(self.ts[i])
        )

    def stencil(self, t: float):
        """State at grid time t, and the states at the central_diff points.

        The points are t - delta and t + delta, delta = STENCIL_HALFWIDTH * h.
        A stencil that leaves the grid raises ValueError from state_at.
        """
        i = self.index_of(t)
        k = STENCIL_HALFWIDTH
        before, state, after = (self.state_at(j) for j in (i - k, i, i + k))
        return state, (before, after)

    def to_csv(self, stream) -> None:
        """Write t, Re/Im of every band entry to a text stream, one row per sample."""
        m = self.m
        cols = ["t"]
        for name, count in (("a", m), ("b", m - 1), ("c", m - 2)):
            for n in range(1, count + 1):
                cols += [f"{name}{n}_re", f"{name}{n}_im"]
        bands = self.samples.view(np.float64)  # re, im interleaved
        write_csv(stream, cols, np.column_stack([self.ts, bands]))


# A table of at least this many fields is formatted by two processes. With
# write_csv at about 0.15 us per field on one, fork, wait and the copy of the
# helper's text through the pipe cost more than the helper saves at 50,000
# fields and less from 60,000 on (alternating in-process write_csv runs to a
# file of simulate's table cut to size, medians of three rounds of 21-31,
# 2-core Linux box, CPython 3.11): one process against two took 7.4-8.1
# against 7.9-9.1 ms at 50k fields, 8.7-9.4 against 8.0-8.9 ms at 60k, and
# 51-57 against 40-43 ms for simulate's 374k. The resolvent CLI's 4,848-field
# tables at --angles 4 stay serial; its 68k-field --angles 32 sweeps split,
# 9.4-9.5 against 10.5 ms on one process.
FORK_FIELDS = 60_000

# Fields per _format_fields call: keeps every temporary cache-sized.
_BLOCK_FIELDS = 2048

# Decimal exponents X whose fields _format_fields decides itself: |X| <= 99,
# so the exponent form has two exponent digits.
_X_MAX = 99
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
# Half less the margin a decided fraction keeps from a tie.
_TIE = 0.5 - 2.0**-30


def _veltkamp(v):
    """Split doubles v into head + tail, each of at most 26 significant bits."""
    t = v * _SPLIT
    head = t - (t - v)
    return head, v - head


def _pow10_pairs():
    """(hi, lo, head, tail) of 10^q, q = 16 - X for X = -_X_MAX.._X_MAX.

    hi is 10^q rounded to a double and lo the rounded remainder 10^q - hi,
    both from exact integer arithmetic (int to float and int / int round
    correctly), so hi + lo is 10^q to a relative 2^-106; head and tail
    split hi for Dekker's product.
    """
    hi, lo = [], []
    for q in range(16 + _X_MAX, 15 - _X_MAX, -1):
        if q >= 0:
            n = 10**q
            hi.append(float(n))
            lo.append(float(n - int(hi[-1])))
        else:
            d = 10**-q
            hi.append(1 / d)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * d) / (d * den))
    hi = np.array(hi)
    return (hi, np.array(lo), *_veltkamp(hi))


def _templates():
    """Field templates by X (rows X + _X_MAX without the point, the next
    2 _X_MAX + 1 rows with it) and the digits each X never strips.

    A field is 44 cells: sign, five for %g's "0.000" prefix, 17 digits
    with a point cell after each of the first 16, four for "e+XX", and the
    separator. Unused cells hold 0.
    """
    xs = range(-_X_MAX, _X_MAX + 1)
    cells = np.zeros((2, len(xs), 44), dtype=np.uint8)
    int_digits = np.ones(len(xs), dtype=np.uint8)
    for i, x in enumerate(xs):
        if -4 <= x < 0:
            cells[:, i, 1 : 2 - x] = np.frombuffer(b"0." + b"0" * (-1 - x), np.uint8)
        elif 0 <= x < 17:
            int_digits[i] = x + 1
            if x < 16:
                cells[1, i, 7 + 2 * x] = ord(".")
        else:
            cells[1, i, 7] = ord(".")
            cells[:, i, 39:43] = np.frombuffer(b"e%+03d" % x, np.uint8)
    return cells.reshape(-1, 44), int_digits


def _digit_tables():
    """The text of 0..9999 as four digits, one uint32 each, and at
    j * 10,000 + g the digits of group j (digits 4j+1..4j+4 of 17) of value
    g up to its last nonzero one: 0 when g is 0."""
    g = np.arange(10_000.0)
    text = np.empty((g.size, 4), dtype=np.uint8)
    sig = np.zeros(g.size, dtype=np.intp)
    for i, d in enumerate((1000.0, 100.0, 10.0, 1.0)):
        digit = (np.floor(g / d) - 10 * np.floor(g / (10 * d))).astype(np.intp)
        text[:, i] = digit + ord("0")
        sig[digit > 0] = i + 1
    last = np.zeros((4, g.size), dtype=np.uint8)
    for j in range(4):
        last[j] = np.where(sig > 0, sig + 4 * j + 1, 0)
    return text.view(np.uint32).ravel(), last.ravel()


_HI, _LO, _HI_HEAD, _HI_TAIL = _pow10_pairs()
_TEMPLATES, _INT_DIGITS = _templates()
_DIGITS4, _LAST = _digit_tables()
_GROUP_BASE = np.array([0, 10_000, 20_000, 30_000])
# for k = 0..17 digits kept of 17, the masks of the bytes kept in the
# little-endian words of digits 1..8 and 9..16
_KEEP_BYTES = np.array(
    [[(1 << 8 * min(max(k - j, 0), 8)) - 1 for j in (1, 9)] for k in range(18)],
    dtype="<u8",
)


def _format_fields(x, sep) -> bytes:
    """The text of '%.17g' % x[i] + chr(sep[i]) for every i, joined, for
    doubles x and separator bytes sep; byte for byte that of %.

    Digits. With X the estimate floor(log10 |x|), q = 16 - X and 10^q =
    hi + lo (_pow10_pairs), v = |x| 10^q is formed as p + r: Dekker's exact
    product |x| hi = p + e (Numer. Math. 18, 1971) and r = e + |x| lo. The
    error of p + r is at most about 2^-104 v, so 2^-47 for v < 2^57. The
    17 digits N = round(v) are decided, as p + floor(r + 0.5), only when
    p lies in (10^16 + 64, 10^17 - 64), which proves that X is exact and
    N has 17 digits, and the fraction r - floor(r + 0.5) is farther than
    2^-30 from -1/2 and 1/2, which proves the rounding. Every other field
    is written by '%.17g' % x itself, as Grisu3 leaves the cases it cannot
    decide to an exact algorithm (Loitsch, PLDI 2010): non-finite,
    subnormal and |X| > 99 fields, near ties, powers of ten (v = 10^16, on
    the window's edge) and an estimate off by one near them. So the text
    is exact whenever the error bound holds. +-0 is written here as "0" and
    "-0". A field left to % costs 0.35-0.55 us against about 0.17 us.

    Text, as %g: fixed form for -4 <= X < 17 with trailing zeros and a
    bare point removed, else d.ddd then e and a signed exponent of at
    least two digits; "-" when the sign bit is set. Each field fills one
    44-cell template (_templates), its digits coming four at a time from
    _DIGITS4, and bytes.translate squeezes out the unused 0 cells.
    """
    n = x.size
    a = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        est = np.floor(np.log10(a))
    fast = np.abs(est) <= _X_MAX
    xi = (np.where(fast, est, 0.0) + _X_MAX).astype(np.intp)
    # the other fields go through as 1: 0 comes out as the digit 1, which
    # the first digit cell lowers to 0, and the rest are written by %
    a = np.where(fast, a, 1.0)
    a_head, a_tail = _veltkamp(a)
    head, tail = _HI_HEAD.take(xi), _HI_TAIL.take(xi)
    p = a * _HI.take(xi)
    r = (((a_head * head - p) + a_head * tail) + a_tail * head) + a_tail * tail
    r += a * _LO.take(xi)
    k = np.floor(r + 0.5)
    decided = fast & (np.abs(p - 5.5e16) < 4.5e16 - 64) & (np.abs(r - k) < _TIE)
    # N = p + k as its first digit and four groups of four, in exact float
    # operations: p / 1e8 may round up to the next integer, which the carry
    # mends, every other floor of a quotient is exact, each product of such
    # a floor and a power of ten has at most 53 significant bits, and each
    # difference is an integer below 2^53
    high = np.floor(p / 1e8)
    low = p - high * 1e8 + k
    carry = np.floor(low / 1e8)
    high += carry
    low -= carry * 1e8
    digits = np.empty((n, 5))
    digits[:, 0] = np.floor(high / 1e8)
    high -= digits[:, 0] * 1e8
    digits[:, 1] = np.floor(high / 1e4)
    digits[:, 2] = high - digits[:, 1] * 1e4
    digits[:, 3] = np.floor(low / 1e4)
    digits[:, 4] = low - digits[:, 3] * 1e4
    digits = digits.astype(np.intp)
    lead, groups = digits[:, 0], digits[:, 1:]
    last = _LAST.take(groups + _GROUP_BASE)
    kept = np.maximum(np.maximum(last[:, 0], last[:, 1]), np.maximum(last[:, 2], last[:, 3]))
    int_digits = _INT_DIGITS.take(xi)
    np.maximum(kept, int_digits, out=kept)
    words = _DIGITS4.take(groups).view("<u8")  # digits 1..8 and 9..16
    words &= _KEEP_BYTES.take(kept, axis=0)
    zero = x == 0
    # the template with the point when a digit after it is kept
    out = _TEMPLATES.take(xi + (kept > int_digits) * (2 * _X_MAX + 1), axis=0)
    out[:, 0] = np.signbit(x) * ord("-")
    out[:, 6] = lead + ord("0") - zero
    out[:, 8:39:2] = words.view(np.uint8)
    out[:, 43] = sep
    # each field left to % keeps only its separator and a 1 that marks it
    others = np.flatnonzero(~(decided | zero))
    out[others, :43] = 0
    out[others, 0] = 1
    text = out.tobytes().translate(None, b"\0")
    if not others.size:
        return text
    pieces = [None] * (2 * others.size + 1)
    pieces[0::2] = text.split(b"\1")
    pieces[1::2] = [b"%.17g" % v for v in x[others].tolist()]
    return b"".join(pieces)


def _csv_blocks(rows):
    """The CSV lines of the float rows (n, k) as bytes, about _BLOCK_FIELDS
    fields per block."""
    n_rows, n_cols = rows.shape
    step = max(1, _BLOCK_FIELDS // max(1, n_cols))
    sep = np.full((step, n_cols), ord(","), dtype=np.uint8)
    sep[:, -1] = ord("\n")
    sep = sep.ravel()
    for lo in range(0, n_rows, step):
        fields = rows[lo : lo + step].ravel()
        yield _format_fields(fields, sep[: fields.size])


def _write_rows(write, rows) -> None:
    """Write the CSV lines of the float rows (n, k) to write, as str."""
    for block in _csv_blocks(rows):
        write(block.decode("ascii"))
        # one block alive at a time: holding it while the next is formatted
        # raised resolvent-neumann's peak RSS by 3 MB
        del block


def _two_cpus() -> bool:
    """Whether this process may run on more than one CPU."""
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1


def write_csv(stream, columns, table) -> None:
    """Write a float table as CSV to a text stream: a header line, then
    %.17g per field.

    %.17g round-trips every double exactly. The fields are formatted a
    block of rows at a time by _format_fields, a numpy kernel whose text is
    byte for byte that of %, at about 0.14 us per field against about
    0.4 us for % on each row's Python floats. A table of FORK_FIELDS or
    more is formatted on two cores: after the header, a forked helper
    formats the rows from the middle one on with the same block loop and
    sends its bytes through a pipe, while this process writes the rows
    before the middle, then copies the helper's complete lines into the
    stream in 64 KiB chunks. The helper only formats text and calls
    os.write, and it leaves by os._exit on every path, so it never flushes
    the buffers it inherited.
    If it exits non-zero or sends fewer lines than it owes, this process
    formats the missing rows itself: a failed helper costs time, never
    bytes. On any exception, KeyboardInterrupt included, the helper is
    killed and reaped before the exception propagates, so no process
    outlives the call. Smaller tables, hosts without os.fork or
    os.sched_getaffinity, and processes allowed one CPU run the same block
    loop over all rows here.

    On CPython 3.12 and later, os.fork in a process that runs threads, such
    as numpy's BLAS pool, raises a DeprecationWarning; it is left
    unsilenced. The helper runs no code that could meet a lock held by such
    a thread. This path is tested on CPython 3.11; 3.12 is untested.

    Opening a file is the caller's (cli._emit). Kept out of __all__ so that
    tracers time it as part of its caller.
    """
    table = np.asarray(table, dtype=np.float64)
    stream.write(",".join(columns) + "\n")
    split = len(table) // 2
    helper = None
    if table.size >= FORK_FIELDS and hasattr(os, "fork") and _two_cpus():
        helper = _start_helper(table[split:])
    if helper is None:
        _write_rows(stream.write, table)
        return
    pid, r = helper
    try:
        _write_rows(stream.write, table[:split])
        done = _copy_lines(r, stream)
        os.waitpid(pid, 0)
        pid = None
        # A failed helper sent whole lines only; the rest are formatted here.
        _write_rows(stream.write, table[split + done :])
    finally:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        os.close(r)


def _start_helper(rows):
    """Fork a helper that sends the text of rows through a pipe and exits:
    (its pid, the pipe's read end), or None when no process can be made."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller formats every row
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            _send_rows(w, rows)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _send_rows(fd, rows) -> None:
    """Format rows in full, then write their text to fd (the helper's part).

    A pipe holds 64 KiB and the parent reads only after its own rows, so
    writing as it went would stall the helper for most of the parent's work.
    """
    data = memoryview(b"".join(_csv_blocks(rows)))
    while data:
        data = data[os.write(fd, data) :]


def _copy_lines(fd, stream) -> int:
    """Copy the complete lines read from fd until EOF to stream; their count."""
    lines, tail = 0, b""
    while chunk := os.read(fd, 1 << 16):
        cut = chunk.rfind(b"\n") + 1
        if not cut:  # the line goes on past this chunk
            tail += chunk
            continue
        # the line begun before, then this chunk's whole lines, decoded from
        # a view: the decoding is the chunk's one copy
        stream.write(tail.decode("ascii"))
        stream.write(str(memoryview(chunk)[:cut], "ascii"))
        lines += chunk.count(b"\n", 0, cut)
        tail = chunk[cut:]
    return lines


def integrate(
    state: LatticeState,
    cfg: IntegratorConfig,
    corruption: CorruptionSpec | None = None,
) -> Trajectory:
    """Run fixed-step RK4 from state.t over [t, t + t_end].

    Raises CNearZeroError if any |c_n| falls below backends.C_FLOOR or the
    bands overflow.
    """
    c_min0 = float(np.min(np.abs(state.c)))
    if c_min0 < backends.C_FLOOR:
        raise CNearZeroError(state.t, 0, c_min0)

    y0 = backends.pack_state(state.a, state.b, state.c)
    samples, status = backends.rk4_trajectory(
        y0, state.m, cfg.n_steps, cfg.h, corruption
    )
    if status:
        c = backends.unpack_bands(samples[status], state.m)[2]
        c_min = float(np.min(np.abs(c)))
        raise CNearZeroError(state.t + status * cfg.h, status, c_min)
    return Trajectory(samples, state.m, cfg.h, state.t)


def central_diff(values, h: float):
    """Time derivative from the values at the points of Trajectory.stencil.

    values holds f(t - delta) and f(t + delta), delta = STENCIL_HALFWIDTH * h.
    Truncation error is delta^2/6 times the third derivative.
    """
    k = STENCIL_HALFWIDTH
    return (values[1] - values[0]) / (2.0 * (k * h))
