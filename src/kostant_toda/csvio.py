"""CSV text of float tables (write_csv) and of trajectories
(write_trajectory, behind Trajectory.to_csv, and integrate_for_csv),
formatted by a %.17g kernel in one process, or in two when
integrate_for_csv forks a helper before RK4."""

from __future__ import annotations

import contextlib
import math
import mmap
import os
import signal

import numpy as np

from .dynamics import _integrate


# integrate_for_csv forks a helper for a table of at least this many fields.
# In fresh processes of simulate --t-end 1 --h 1e-3 (2-vCPU Linux box,
# CPython 3.11, 12 alternating pairs a size and seed), the overlap won 9-11
# of 12 pairs at 41,041 fields (m = 8, seeds 7, 12 and 23; medians 31-40
# against 35-51 ms) and 10-12 at 55,055 (m = 10); at seed 7 it won 10 at
# 67,067 (m = 12) and lost 10 at 31,031 (m = 6; 37.1 against 31.1 ms). So
# the threshold could come down to about 40,000; it stays where the
# two-process CSV tests straddle it.
FORK_FIELDS = 60_000

# Fields per _format_fields call. Its temporaries peak near 250 bytes a
# field, so a block of 8,192 takes about 2 MB, close to a core's 2 MiB L2
# on the 2-core Xeon this was measured on (lscpu's 4 MiB is both cores').
# In-process simulate passes (m = 32, t = 1, h = 5e-4, perfbench's
# reference kernel between them, 15 alternating rounds) took a median of
# 72, 68, 72, 71 and 73 ms at seed 7 and 64, 56, 54, 52 and 54 ms at seed
# 23 with 2k, 4k, 8k, 16k and 32k fields per block, and the kernel alone
# 74, 60, 56, 54 and 57 ms: 16k was 1-2 ms ahead of 8k, inside the
# quartiles of both, for twice the temporaries, so 8k stays.
_BLOCK_FIELDS = 8192

# Decimal exponents X whose fields _format_fields decides itself: |X| <= 99,
# so the exponent form has two exponent digits.
_X_MAX = 99
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
# Half less the margin a decided fraction keeps from a tie.
_TIE = 0.5 - 2.0**-30
# A field's 29 cells: its sign, five for %g's "0.000" prefix, the lead
# digit (digit 0 of 17), the point, digits 1..16, four for "e+XX" and the
# separator.
_CELLS = 29
_LEAD, _POINT, _DIGITS, _EXPONENT = 6, 7, slice(8, 24), slice(24, 28)
# rows per sign: X = -_X_MAX - 1 .. _X_MAX + 1
_SIGN_ROWS = 2 * _X_MAX + 3


def _veltkamp(v):
    """Split doubles v into head + tail, each of at most 26 significant bits."""
    t = v * _SPLIT
    head = t - (t - v)
    return head, v - head


def _rows():
    """The row of a field by the top 12 bits of its double (sign and biased
    exponent), and the least magnitude that moves it to the next row, inf
    where none does.

    A field's row is X + _X_MAX + 1 + s _SIGN_ROWS for its decimal
    exponent X and sign bit s. The rows of X = -_X_MAX - 1 and _X_MAX + 1
    stand for every field outside |X| <= _X_MAX, infinities and nans
    included; zeros and subnormals get the rows of X = 0. A binade
    [2^E, 2^(E + 1)) holds X0 = floor(log10 2^E) and perhaps X0 + 1, from
    10^(X0 + 1) up.
    """
    x0 = np.floor(np.arange(-1023.0, 1025.0) * math.log10(2.0))
    x0[0] = 0.0
    inside = np.abs(x0 + 0.5) < _X_MAX + 1  # -_X_MAX - 1 <= X0 <= _X_MAX
    inside[0] = False
    # 10^k for k = -_X_MAX .. _X_MAX + 1, each rounded once
    tens = np.array([float(f"1e{k}") for k in range(-_X_MAX, _X_MAX + 2)])
    up = np.full(x0.size, np.inf)
    up[inside] = tens.take((x0[inside] + _X_MAX).astype(np.intp) + 1)
    row = (np.minimum(np.maximum(x0, -_X_MAX - 1), _X_MAX + 1) + _X_MAX + 1).astype(np.intp)
    return np.concatenate([row, row + _SIGN_ROWS]), np.concatenate([up, up])


def _pow10_rows():
    """(hi, lo, head, tail) of 10^q, q = 16 - X, by row (_rows); 0 in the
    rows outside |X| <= _X_MAX.

    hi is 10^q rounded to a double and lo the rounded remainder 10^q - hi,
    both from exact integer arithmetic (int to float and int / int round
    correctly), so hi + lo is 10^q to a relative 2^-106; head and tail
    split hi for Dekker's product.
    """
    hi, lo = [0.0], [0.0]
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
    hi, lo = np.tile(hi + [0.0], 2), np.tile(lo + [0.0], 2)
    return (hi, lo, *_veltkamp(hi))


def _templates():
    """The cells of each row (_rows), the digits it never strips, and the
    digit its point follows.

    X = 0..15 and the exponent form have the point after the lead digit,
    where X = 1..15 move it after digit X (_point_masks); -4 <= X < 0 write
    "0." and zeros in the prefix and X = 16 no point. Unused cells hold 0.
    """
    x = np.arange(-_X_MAX - 1, _X_MAX + 2)
    prefix, fixed = (-4 <= x) & (x < 0), (0 <= x) & (x <= 16)
    point = (-_X_MAX <= x) & (x <= _X_MAX) & ~prefix  # % writes every field of the other rows
    expo = point & ~fixed
    point &= x != 16
    cells = np.zeros((2, x.size, _CELLS), dtype=np.uint8)
    cells[1, :, 0] = ord("-")
    text = b"".join(b"0.000"[: 1 - k].ljust(5, b"\0") for k in x[prefix].tolist())
    cells[:, prefix, 1:6] = np.frombuffer(text, np.uint8).reshape(-1, 5)
    text = b"".join(b"e%+03d" % k for k in x[expo].tolist())
    cells[:, expo, _EXPONENT] = np.frombuffer(text, np.uint8).reshape(-1, 4)
    cells[:, point, _POINT] = ord(".")
    int_digits = np.where(fixed, x + 1, 1).astype(np.uint8)
    point_after = np.where(fixed & (x < 16), x, 0)
    return cells.reshape(-1, _CELLS), np.tile(int_digits, 2), np.tile(point_after, 2)


def _point_masks():
    """For the point after digit X = 0..15, the masks below, point and
    above over the 16 cells from _POINT on, each a pair of little-endian
    words: digits 1..X, the point itself, and digits X + 1..15.

    With W the 16 bytes of digits 1..16, (W & below) | point | ((W << 8) &
    above) is the text of those cells with the point after digit X; digit
    16 keeps its cell."""
    cell, x = np.arange(16), np.arange(16)[:, None]
    masks = np.stack([(cell < x) * 255, (cell == x) * ord("."), (cell > x) * 255])
    return masks.astype(np.uint8).view("<u8")


def _digit_tables():
    """The text of 0..9999 as four digits, one little-endian uint32 each,
    and at j * 10,000 + g the digits of group j (digits 4j+1..4j+4 of 17)
    of value g up to its last nonzero one: 0 when g is 0."""
    text = np.empty((10_000, 4), dtype=np.uint8)
    sig = np.zeros(10_000, dtype=np.intp)  # the place of g's last nonzero digit
    for place in range(4):
        digit = np.tile(np.arange(10).repeat(10 ** (3 - place)), 10**place)  # of 0..9999
        text[:, place] = digit + ord("0")
        sig[digit > 0] = place + 1
    last = np.zeros((4, 10_000), dtype=np.uint8)
    for j in range(4):
        last[j] = np.where(sig > 0, sig + 4 * j + 1, 0)
    return text.view("<u4").ravel(), last.ravel()


_ROW, _UP = _rows()
_HI, _LO, _HI_HEAD, _HI_TAIL = _pow10_rows()
_TEMPLATES, _INT_DIGITS, _POINT_AFTER = _templates()
_BELOW, _DOT, _ABOVE = _point_masks()
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

    Digits. With X the decimal exponent floor(log10 |x|), q = 16 - X and
    10^q = hi + lo (_pow10_rows), v = |x| 10^q is formed as p + r: Dekker's
    exact product |x| hi = p + e (Numer. Math. 18, 1971) and r = e + |x|
    lo. The error of p + r is at most about 2^-104 v, so 2^-47 for v <
    2^57. The 17 digits N = round(v) are decided, as p + floor(r + 0.5),
    only when p lies in (10^16 + 64, 10^17 - 64), which proves that X is
    exact and N has 17 digits, and the fraction r - floor(r + 0.5) is
    farther than 2^-30 from -1/2 and 1/2, which proves the rounding. X is
    read off the exponent bits and one comparison (_rows), so the double
    nearest 10^X gets X even when it lies below 10^X; the window sends it
    to %. Every other field is written by '%.17g' % x itself, as Grisu3
    leaves the cases it cannot decide to an exact algorithm (Loitsch, PLDI
    2010): subnormal, infinite, nan and |X| > 99 fields, near ties, powers
    of ten (v = 10^16, on the window's edge) and an X off by one near them.
    So the text is exact whenever the error bound holds. +-0 are written
    from the rows of X = 0, as "0" and "-0". A field left to % costs
    0.35-0.55 us against about 0.09 us.

    Text, as %g: fixed form for -4 <= X < 17 with trailing zeros and a
    bare point removed, else d.ddd then e and a signed exponent of at
    least two digits; "-" when the sign bit is set. Each field fills one
    row of _CELLS cells: its row's template (_templates), which holds the
    sign, prefix, point and exponent, then the lead digit, digits 1..16
    four at a time from _DIGITS4 and the separator. Only a field whose
    last digit is 0 looks up its trailing zeros (_LAST), and only a field
    with 1 <= X <= 15 and a digit after its point moves the point, by word
    masks (_point_masks); bytes.translate squeezes out the unused 0 cells.
    """
    n = x.size
    # the top 12 bits, negative when the sign bit is set: take wraps them
    e = x.view(np.int64) >> 52
    row = _ROW.take(e)
    a = np.abs(x)
    np.fmin(a, 1e300, out=a)  # inf and nan are 1e300 in rows where 10^q = 0
    row += a >= _UP.take(e)
    a_head, a_tail = _veltkamp(a)
    head, tail = _HI_HEAD.take(row), _HI_TAIL.take(row)
    p = a * _HI.take(row)
    r = (((a_head * head - p) + a_head * tail) + a_tail * head) + a_tail * tail
    r += a * _LO.take(row)
    k = np.floor(r + 0.5)
    decided = (np.abs(p - 5.5e16) < 4.5e16 - 64) & (np.abs(r - k) < _TIE)
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
    lead = np.floor(high / 1e8)
    high -= lead * 1e8
    groups = np.empty((n, 4))
    np.floor(high / 1e4, out=groups[:, 0])
    np.subtract(high, groups[:, 0] * 1e4, out=groups[:, 1])
    np.floor(low / 1e4, out=groups[:, 2])
    np.subtract(low, groups[:, 2] * 1e4, out=groups[:, 3])
    groups = groups.astype(np.intp)
    words = _DIGITS4.take(groups)
    pairs = words.view("<u8")  # digits 1..8 and 9..16
    # a field whose last digit is 0 keeps its digits up to its last nonzero
    # one or the last before the point, and its point only before a digit
    ends_in_0 = np.flatnonzero(words.view(np.uint8)[:, 15] == ord("0"))
    last = _LAST.take(groups.take(ends_in_0, axis=0) + _GROUP_BASE)
    kept = np.maximum(np.maximum(last[:, 0], last[:, 1]), np.maximum(last[:, 2], last[:, 3]))
    int_digits = _INT_DIGITS.take(row.take(ends_in_0))
    np.maximum(kept, int_digits, out=kept)
    keep = np.full(n, 17, dtype=np.uint8)
    keep[ends_in_0] = kept
    pairs &= _KEEP_BYTES.take(keep, axis=0)
    out = _TEMPLATES.take(row, axis=0)
    out[:, _LEAD] = lead + ord("0")
    out[:, _DIGITS].view("V16")[:] = words.view("V16")  # 16 bytes a copy
    out[:, -1] = sep
    bare = ends_in_0[kept <= int_digits]
    out[bare, _POINT] = 0
    # a point with a digit after it moves after digit X for 1 <= X <= 15
    after = _POINT_AFTER.take(row)
    after[bare] = 0
    moves = np.flatnonzero(after)
    after = after.take(moves)
    w = pairs.take(moves, axis=0)
    above = w << 8
    above[:, 1] |= w[:, 0] >> 56
    above &= _ABOVE.take(after, axis=0)
    w &= _BELOW.take(after, axis=0)
    w |= _DOT.take(after, axis=0)
    w |= above
    out[:, _POINT : _DIGITS.stop - 1].view("V16")[moves] = w.view("V16")
    # each field left to % keeps only its separator and a 1 that marks it
    others = np.flatnonzero(~decided)
    others = others[x[others] != 0]
    out[others, :-1] = 0
    out[others, 0] = 1
    text = out.tobytes().translate(None, b"\0")
    if not others.size:
        return text
    pieces = [None] * (2 * others.size + 1)
    pieces[0::2] = text.split(b"\1")
    pieces[1::2] = [b"%.17g" % v for v in x[others].tolist()]
    return b"".join(pieces)


def _block_rows(n_cols):
    """Rows per block of a table n_cols wide: about _BLOCK_FIELDS fields."""
    return max(1, _BLOCK_FIELDS // max(1, n_cols))


def _csv_blocks(rows):
    """The CSV lines of the float rows (n, k) as bytes, about _BLOCK_FIELDS
    fields per block."""
    n_rows, n_cols = rows.shape
    step = _block_rows(n_cols)
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


def _forks(fields: int) -> bool:
    """Whether integrate_for_csv forks a helper for a table of this many
    fields: on a host with os.fork and os.memfd_create, in a process that
    may run on more than one CPU."""
    return (fields >= FORK_FIELDS and hasattr(os, "fork") and hasattr(os, "memfd_create")
            and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1)


def write_csv(stream, columns, table) -> None:
    """Write a float table as CSV to a text stream: a header line, then
    %.17g per field.

    %.17g round-trips every double exactly. The fields are formatted a
    block of rows at a time by _format_fields, a numpy kernel whose text is
    byte for byte that of %, at about 0.16 us per field in one process with
    the writes (simulate's 374,187-field table in 60 ms), against 0.8-1.0
    us for % on each row's Python floats (200,000 normal values).

    Opening a file is the caller's (cli._emit). The package does not export
    it, so tracers time it as part of its caller.
    """
    stream.write(",".join(columns) + "\n")
    _write_rows(stream.write, np.asarray(table, dtype=np.float64))


class _Helper:
    """A forked process that formats the leading rows of a float table
    while this one works on, writing their text to an anonymous in-memory
    file (os.memfd_create) a block at a time as it goes.

    This process talks to it over a pipe in 8-byte signed counts: c >= 0
    says that rows [0, c) are final, and the stop ~s (-1 - s) that every
    row is and that the helper's share is rows [0, s). The helper formats
    the rows in order and in whole blocks, each once it is final, writes
    each block to the file, and stores how many rows it has formatted in a
    shared slot, from which finish chooses s on a block edge or at the end.
    At the stop it cuts the file where block s begins, or at its end, and
    exits 0. It only formats text and calls os.read, os.write, os.ftruncate
    and fcntl, and it leaves by os._exit on every path, so it never flushes
    the buffers it inherited.
    """

    def __init__(self, table, pid, counts_fd, text_fd, progress):
        self.table, self.pid, self.progress = table, pid, progress
        self.counts_fd, self.text_fd = counts_fd, text_fd
        self._open = [counts_fd, text_fd]

    @classmethod
    def fork(cls, table):
        """A helper for table, or None when no process, file or mapping can
        be made."""
        fds = []
        try:
            progress = np.frombuffer(mmap.mmap(-1, 8), dtype=np.int64)
            fds += os.pipe()
            fds.append(os.memfd_create("csv"))
            pid = os.fork()
        except OSError:  # nothing to spare: the caller formats every row
            for fd in fds:
                os.close(fd)
            return None
        counts_r, counts_w, text_fd = fds
        if pid == 0:
            code = 1
            try:
                os.close(counts_w)
                _helper_rows(table, counts_r, text_fd, progress)
                code = 0
            finally:
                os._exit(code)
        os.close(counts_r)
        return cls(table, pid, counts_w, text_fd, progress)

    def announce(self, rows: int) -> None:
        """Tell the helper that rows [0, rows) are final."""
        # a helper that is gone already owes rows that finish formats
        with contextlib.suppress(BrokenPipeError):
            os.write(self.counts_fd, rows.to_bytes(8, "little", signed=True))

    def finish(self, stream, header) -> None:
        """Stop the helper and write header and every row to stream: the
        helper's rows [0, s), then this process's rows [s, n).

        This process reads how many rows the helper has formatted, p, and
        leaves it rows [0, s) with s = p + (n - p) // 2 rounded up to the
        next block edge, or n: the two format at about the same rate, so
        each takes half of what is left. The helper formats whole blocks
        only, so the stop never falls inside one (_helper_rows). This
        process formats rows [s, n) and holds their text, writes the
        header, reaps the helper, copies the helper's text into the stream
        in 64 KiB chunks, then writes its own. If the helper exits
        non-zero, this process formats rows [0, s) itself: a failed helper
        costs time, never bytes. Every byte goes through stream.write, so
        an append-mode file and a text stream's encoding and newline
        translation see what one process writes. The caller closes the
        helper on every path (contextlib.closing), so no process outlives
        an exception, KeyboardInterrupt included.
        """
        n, step = len(self.table), _block_rows(self.table.shape[1])
        p = int(self.progress[0])
        split = min(-(-(p + (n - p) // 2) // step) * step, n)
        self.announce(~split)
        own = list(_csv_blocks(self.table[split:]))
        stream.write(header)
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        if status:
            _write_rows(stream.write, self.table[:split])
        else:
            # one reused buffer: a new bytes object per chunk fragmented
            # the heap once the helper ran beside RK4
            buf = bytearray(1 << 16)
            view, at = memoryview(buf), 0
            while k := os.preadv(self.text_fd, [buf], at):
                stream.write(str(view[:k], "ascii"))
                at += k
        for block in own:
            stream.write(block.decode("ascii"))

    def close(self) -> None:
        """Kill and reap the helper unless finish reaped it; close the
        pipe and the file."""
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        while self._open:
            os.close(self._open.pop())


def _helper_rows(table, counts_fd, text_fd, progress) -> None:
    """Write the helper's text of rows [0, s) of table to text_fd, s from
    the stop.

    Rows are formatted in whole blocks [k step, min((k + 1) step, n)),
    step = _block_rows(width), each once the counts read from counts_fd
    cover it, and each block is written as soon as it is formatted; the
    helper waits on counts_fd only when the next block is not final. The
    stop s is a block edge or n, so the blocks formatted past it are whole
    and the other process's: the file is cut at the stored offset of block
    s // step, rounded up at n.
    """
    n, step = len(table), _block_rows(table.shape[1])
    # the byte offset of each block formatted, then the end
    offsets, done, ready, stop = [0], 0, 0, None
    while stop is None or done < stop:
        hi = min(done + step, n)
        os.set_blocking(counts_fd, not done < hi <= ready)
        try:
            data = os.read(counts_fd, 1 << 12)
        except BlockingIOError:
            data = None
        if data == b"":
            raise EOFError("the counts ended before the stop")
        for count in np.frombuffer(data or b"", dtype="<i8").tolist():
            if count < 0:
                ready = stop = ~count
            else:
                ready = count
        if done < hi <= ready:
            text = memoryview(next(_csv_blocks(table[done:hi])))
            offsets.append(offsets[-1] + len(text))
            while text:
                text = text[os.write(text_fd, text) :]
            del text  # an empty slice still holds the block
            done = progress[0] = hi
    os.ftruncate(text_fd, offsets[-(-stop // step)])


def write_trajectory(traj, stream) -> None:
    """Write t, Re/Im of every band entry to a text stream, one row per
    sample: through the helper that integrate_for_csv forked for traj, the
    first time, else in one process."""
    m = traj.m
    cols = ["t"]
    for name, count in (("a", m), ("b", m - 1), ("c", m - 2)):
        for n in range(1, count + 1):
            cols += [f"{name}{n}_re", f"{name}{n}_im"]
    helper, traj._helper = traj._helper, None  # a helper finishes once
    if helper is None:
        bands = traj.samples.view(np.float64)  # re, im interleaved
        write_csv(stream, cols, np.column_stack([traj.ts, bands]))
        return
    with contextlib.closing(helper):
        helper.finish(stream, ",".join(cols) + "\n")


@contextlib.contextmanager
def integrate_for_csv(state, cfg, corruption=None):
    """integrate(state, cfg, corruption) for a caller that writes the
    trajectory's CSV: yields the Trajectory, whose to_csv writes the bytes
    it writes for integrate's.

    When the table, n_steps + 1 rows of 1 + 2 (3m - 3) fields, has
    FORK_FIELDS or more and _forks allows it, it is laid out before RK4 in
    an anonymous mapping shared with a helper forked then, the samples
    being its columns after t. RK4 announces each block of FLOOR_BLOCK
    rows that passes the floor test, the helper formats each of its blocks
    once the announced rows cover it while RK4 goes on, and the first
    to_csv finishes the table (_Helper.finish). Where no helper can be
    made, to_csv formats every row in one process. A table too big to
    store raises ValueError before anything is allocated. Leaving the block
    on any path, an abort or a KeyboardInterrupt included, kills and reaps
    a helper that to_csv has not finished.

    On CPython 3.12 and later, os.fork in a process that runs threads, such
    as numpy's BLAS pool, raises a DeprecationWarning; it is left
    unsilenced. The helper runs no code that could meet a lock held by such
    a thread. This path is tested on CPython 3.11; 3.12 is untested.
    """
    n_rows, L = cfg.n_steps + 1, 3 * state.m - 3
    width = 1 + 2 * L
    if not _forks(n_rows * width):
        yield _integrate(state, cfg, corruption)
        return
    try:
        table = mmap.mmap(-1, 8 * n_rows * width)
    except (OSError, OverflowError) as exc:
        raise ValueError(
            f"cannot store the trajectory: samples of shape {(n_rows, L)} and "
            f"their times take {8 * n_rows * width} bytes: {exc}"
        ) from None
    table = np.frombuffer(table, dtype=np.float64).reshape(n_rows, width)
    table[:, 0] = state.t + cfg.h * np.arange(n_rows)
    # An 8 MiB buffer freed untouched raises glibc's dynamic mmap threshold
    # to 8 MiB and its trim threshold to 16 MiB (mallopt(3)), in both
    # processes, so that block temporaries stay on the heap rather than
    # being mapped and faulted in again block after block.
    np.empty(1 << 20)
    helper = _Helper.fork(table)
    traj = None
    try:
        traj = _integrate(
            state, cfg, corruption, out=table[:, 1:].view(np.complex128),
            on_rows=None if helper is None else helper.announce,
        )
        traj._helper = helper
        yield traj
    finally:
        if traj is not None:
            traj._helper = None  # a later to_csv formats the samples in one process
        if helper is not None:
            helper.close()
