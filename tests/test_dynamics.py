import ast
import contextlib
import errno
import io
import mmap
import os
import signal
import threading
import time

import numpy as np
import pytest

from kostant_toda import (
    CNearZeroError,
    CorruptionSpec,
    IntegratorConfig,
    LatticeState,
    Trajectory,
    integrate,
    kostant_rhs,
    lax_rhs,
    norm_bound,
    random_state,
)
from kostant_toda import backends, csvio, dynamics, moments, polynomials
from kostant_toda.core import expm
from kostant_toda.csvio import write_csv


def test_rhs_hand_value(unit_instance):
    # zero diagonal, unit bands: da = b-differences, db = c-differences,
    # dc = 0 since the diagonal is constant
    da, db, dc = kostant_rhs(unit_instance)
    assert np.array_equal(da, [1, 0, 0, 0, 0, -1])
    assert np.array_equal(db, [1, 0, 0, 0, -1])
    assert np.array_equal(dc, [0, 0, 0, 0])


@pytest.mark.parametrize("seed", range(5))
def test_rhs_matches_lax_commutator(seed):
    st = random_state(seed, 10)
    K = lax_rhs(st.dense())
    da, db, dc = kostant_rhs(st)
    assert np.max(np.abs(np.diagonal(K) - da)) < 1e-14
    assert np.max(np.abs(np.diagonal(K, -1) - db)) < 1e-14
    assert np.max(np.abs(np.diagonal(K, -2) - dc)) < 1e-14
    # the commutator never leaves the band structure
    K[np.arange(10), np.arange(10)] = 0
    K[np.arange(1, 10), np.arange(9)] = 0
    K[np.arange(2, 10), np.arange(8)] = 0
    assert np.max(np.abs(K)) < 1e-14


def test_integrator_config_validation():
    cfg = IntegratorConfig(t_end=1.0, h=1e-3)
    assert cfg.n_steps == 1000
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, h=3e-4)  # not on the grid
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=-1.0, h=1e-3)
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=1.0, h=0.0)


def test_step_count_that_overflows_is_refused():
    # 1 / 1e-320 and 1e308 / 1e-3 overflow to inf: no grid index exists
    with pytest.raises(ValueError, match="step count .* is not finite"):
        IntegratorConfig(t_end=1.0, h=1e-320)
    traj = integrate(random_state(4, 8), IntegratorConfig(t_end=0.01, h=1e-3))
    with pytest.raises(ValueError, match="step count .* is not finite"):
        traj.index_of(1e308)


def test_corruption_spec_validation():
    with pytest.raises(ValueError):
        CorruptionSpec("no-such-kind", 1.0)
    with pytest.raises(ValueError):
        CorruptionSpec("freeze-b", 0.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="must be finite and > 0"):
            CorruptionSpec("freeze-b", bad)


def test_trajectory_grid_and_views():
    st = random_state(4, 8)
    traj = integrate(st, IntegratorConfig(t_end=0.2, h=1e-3))
    assert traj.n_samples == 201
    assert traj.a.shape == (201, 8)
    assert traj.b.shape == (201, 7)
    assert traj.c.shape == (201, 6)
    assert np.array_equal(traj.a[0], st.a)
    assert traj.index_of(0.15) == 150
    with pytest.raises(ValueError):
        traj.index_of(0.15051)  # off the grid
    with pytest.raises(ValueError):
        traj.index_of(0.3)  # outside the horizon
    back = traj.state_at(0)
    assert np.array_equal(back.a, st.a)
    assert back.t == 0.0


def test_integration_conserves_spectrum():
    worst = 0.0
    for seed in range(4):
        st = random_state(seed, 8)
        traj = integrate(st, IntegratorConfig(t_end=1.0, h=1e-3))
        lam0 = np.sort_complex(np.linalg.eigvals(traj.state_at(0).dense()))
        lam1 = np.sort_complex(np.linalg.eigvals(traj.state_at(1000).dense()))
        worst = max(worst, float(np.max(np.abs(lam0 - lam1))))
    assert worst < 1e-6


def test_trace_powers_conserved():
    st = random_state(9, 10)
    traj = integrate(st, IntegratorConfig(t_end=0.5, h=1e-3))
    J0 = traj.state_at(0).dense()
    J1 = traj.state_at(500).dense()
    for p in range(1, 5):
        t0 = np.trace(np.linalg.matrix_power(J0, p))
        t1 = np.trace(np.linalg.matrix_power(J1, p))
        assert abs(t0 - t1) < 1e-9 * max(1.0, abs(t0))


def test_c_floor_abort():
    # c_1 decays like exp(-4t) from just above the floor, so the
    # integrator must refuse to continue shortly after t = ln(1.1)/4
    st = LatticeState(
        a=np.array([2, 0, -2, 0], dtype=complex),
        b=np.zeros(3, dtype=complex),
        c=np.array([1.1e-12, 1.0], dtype=complex),
    )
    with pytest.raises(CNearZeroError) as exc:
        integrate(st, IntegratorConfig(t_end=0.1, h=1e-3))
    assert abs(exc.value.t - np.log(1.1) / 4) < 2e-3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed,step", [(32, 1673), (33, 1556), (52, 1739)])
def test_overflowing_flow_aborts(seed, step):
    # the bands overflow and c turns NaN, which never compares below the
    # floor; the abort is the only signal, numpy warns about nothing
    with pytest.raises(CNearZeroError, match="left the finite range") as exc:
        integrate(random_state(seed, 32), IntegratorConfig(t_end=2.0, h=1e-3))
    assert exc.value.step == step
    assert np.isnan(exc.value.c_min)


def test_corrupted_flow_diverges_from_clean():
    st = random_state(0, 8)
    cfg = IntegratorConfig(t_end=0.5, h=1e-3)
    clean = integrate(st, cfg)
    bent = integrate(st, cfg, corruption=CorruptionSpec("freeze-b", 1.0))
    assert np.max(np.abs(clean.b[-1] - bent.b[-1])) > 1e-2
    # freeze-b with full magnitude pins b exactly
    assert np.array_equal(bent.b[0], bent.b[-1])


def test_norm_bounds_along_path():
    st = random_state(2, 10)
    traj = integrate(st, IntegratorConfig(t_end=0.2, h=1e-3))
    bounds = traj.norm_bounds()
    assert bounds.shape == (traj.n_samples,)
    assert bounds[0] == pytest.approx(norm_bound(st))
    assert np.all(bounds >= 1.0)


def _unit_lower_factor(E):
    """n of E = n b, n unit lower and b upper triangular: LU without pivoting."""
    U = E.copy()
    n = np.eye(E.shape[0], dtype=E.dtype)
    for k in range(E.shape[0] - 1):
        n[k + 1 :, k] = U[k + 1 :, k] / U[k, k]
        U[k + 1 :] -= n[k + 1 :, k, None] * U[k]
    return n


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flow_is_the_conjugation_by_the_factor_of_expm(seed):
    # e^{t J0} = n(t) b(t) gives J(t) = n^{-1} J0 n (Kostant, Adv. Math. 34,
    # 1979): an oracle for the flow that does not integrate it
    st = random_state(seed, 8)
    traj = integrate(st, IntegratorConfig(t_end=0.5, h=1.25e-4))
    J0 = st.dense()
    n = _unit_lower_factor(expm(0.5 * J0))
    exact = np.linalg.solve(n, J0 @ n)
    rk4 = traj.state_at(traj.n_samples - 1).dense()
    assert np.max(np.abs(rk4 - exact)) < 1e-13 * np.max(np.abs(exact))


def _top_imports(module):
    """The top-level names of the packages module imports by absolute name."""
    with open(module.__file__) as fh:
        tree = ast.parse(fh.read())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and not node.level}
    return {name.split(".")[0] for name in names}


def test_dynamics_imports_no_process_code():
    # the CSV writer's fork, pipe and mapping code stays in csvio
    assert _top_imports(dynamics).isdisjoint({"bisect", "contextlib", "mmap", "os", "signal"})


def _package_imports(module):
    """The package modules module imports by relative name."""
    with open(module.__file__) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names |= {alias.name for alias in node.names}
    return names


def test_moments_and_polynomials_import_nothing_from_dynamics():
    # the laws take their derivative from the flow object they are given,
    # so any flow with Trajectory's derivative method can stand in
    assert "core" in _package_imports(moments)
    for module in (moments, polynomials):
        assert "dynamics" not in _package_imports(module), module.__name__


def test_backends_imports_no_process_code():
    # RK4 calls no C library and asks the host nothing
    assert _top_imports(backends).isdisjoint({"ctypes", "os", "sys"})


def test_csv_round_trip():
    st = random_state(5, 6)
    traj = integrate(st, IntegratorConfig(t_end=0.01, h=1e-3))
    buf = io.StringIO()
    traj.to_csv(buf)
    text = buf.getvalue()
    lines = text.strip().split("\n")
    assert len(lines) == 12  # header + 11 samples
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[1] == "a1_re"
    assert len(header) == 1 + 2 * (6 + 5 + 4)
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert data.shape == (11, len(header))
    # %.17g keeps complex doubles exactly
    assert data[0, 1] == st.a[0].real
    assert data[0, 2] == st.a[0].imag


def test_derivative_on_cubic():
    traj = integrate(random_state(0, 8), IntegratorConfig(t_end=1.0, h=1e-2))
    t = traj.ts[50]
    st, v, d = traj.derivative(t, lambda states: np.array([s.a[0] for s in states]) ** 3)
    assert st.t == t and v == st.a[0] ** 3
    # a_1' = b_1, so (a_1^3)' = 3 a_1^2 b_1, which the ring's sum reads exactly
    assert d == pytest.approx(3 * st.a[0] ** 2 * st.b[0], rel=1e-13)


@pytest.mark.parametrize("t_end,h", [(np.inf, 1e-3), (np.nan, 1e-3),
                                     (1.0, np.inf), (1.0, np.nan)])
def test_integrator_config_rejects_nonfinite(t_end, h):
    with pytest.raises(ValueError, match="finite"):
        IntegratorConfig(t_end=t_end, h=h)


def test_write_csv_formats_every_double_like_17g():
    vals = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310, 1 / 3]
    table = np.array(vals).reshape(4, 2)
    buf = io.StringIO()
    write_csv(buf, ["x", "y"], table)
    expected = "x,y\n" + "".join(f"{x:.17g},{y:.17g}\n" for x, y in table.tolist())
    assert buf.getvalue() == expected


@pytest.mark.parametrize("n_rows", [0, 1, 100])
def test_write_csv_is_savetxt_byte_for_byte(n_rows):
    rng = np.random.default_rng(n_rows)
    table = rng.standard_normal((n_rows, 5)) * 10.0 ** rng.integers(-300, 300, (n_rows, 5))
    if n_rows:
        table[0, :3] = [np.nan, -np.inf, -0.0]
    cols = ["t", "x", "y", "z", "w"]
    want = io.StringIO()
    np.savetxt(want, table, fmt="%.17g", delimiter=",", header=",".join(cols), comments="")
    buf = io.StringIO()
    write_csv(buf, cols, table)
    assert buf.getvalue() == want.getvalue()


def _kernel_corpus(rng):
    """About 1.2 million doubles for the CSV field kernel, shuffled."""
    xs = np.arange(-99, 100)  # every decimal exponent the kernel decides
    parts = [
        # 17 digits at every X, in the fixed and the exponent form
        (rng.uniform(1, 10, (2_000, xs.size)) * 10.0**xs).ravel(),
        # short expansions: trailing zeros stripped, integer zeros kept
        np.ldexp(rng.integers(1, 2**20, 200_000), rng.integers(-40, 40, 200_000)),
        rng.integers(1, 10**5, 100_000) * 10.0 ** rng.integers(0, 12, 100_000),
    ]
    # exact ties m/4 and m/8, odd m < 2^53, and s 2^-(q+1) with s 5^q odd
    # and of 17 or 18 digits: 10^q |x| is then a half-integer
    odd = rng.integers(0, 2**52, 100_000) * 2 + 1
    parts += [odd / 4, odd / 8]
    for q in range(25):
        lo, hi = -(-2 * 10**16 // 5**q), 2 * 10**17 // 5**q
        if lo < min(hi, 2**53):
            s = rng.integers(lo // 2, min(hi, 2**53) // 2, 2_000) * 2 + 1
            parts.append(np.ldexp(s.astype(np.float64), -q - 1))
    # powers of ten, and 3 ulps either side of them
    near = [10.0 ** np.arange(-330, 309)]
    for direction in (np.inf, 0.0):
        x = near[0]
        for _ in range(3):
            x = np.nextafter(x, direction)
            near.append(x)
    parts += near
    parts += [
        np.array([0.0, np.inf, np.nan, 1e16, 1e17, 2.2250738585072014e-308]),
        rng.integers(1, 2**52, 50_000).view(np.float64),  # subnormals
        10.0 ** rng.uniform(100, 308, 50_000),  # outside the window
        10.0 ** rng.uniform(-307, -100, 50_000),
        rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64),
    ]
    x = np.concatenate(parts)
    x.view(np.uint64)[:] ^= rng.integers(0, 2, x.size, dtype=np.uint64) << np.uint64(63)
    return rng.permutation(np.concatenate([x, [-0.0, -np.inf]]))


def test_field_kernel_is_17g_byte_for_byte():
    # first, NaNs with seven payloads, quiet and signalling, and infinity,
    # each with either sign bit: 16 fields, so the corpus's own rows stay
    quiet = 0x7FF8 << 48
    bits = [quiet, quiet | 1, quiet | 2**50, quiet | 0xDEADBEEF, 2**63 - 1,
            (2**63 - 1) ^ 2**51, 0x7FF << 52 | 1, 0x7FF << 52]
    bits = np.array(bits + [b | 2**63 for b in bits], dtype=np.uint64)
    x = np.concatenate([bits.view(np.float64), _kernel_corpus(np.random.default_rng(20))])
    assert x.size >= 10**6
    table = x[: x.size - x.size % 8].reshape(-1, 8)
    row_fmt = ",".join(["%.17g"] * 8) + "\n"
    want = "".join(row_fmt % tuple(row) for row in table.tolist())
    parts = []
    csvio._write_rows(parts.append, table)
    got = "".join(parts)
    if got != want:
        bad = [(w, g) for w, g in zip(want.split("\n"), got.split("\n")) if w != g]
        pytest.fail(f"{len(bad)} rows differ, first {bad[0]}")


# Values whose text %.17g and savetxt must agree on, placed in both halves
SPECIALS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.5e-310]


def _table(n_rows, n_cols, seed=0):
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((n_rows, n_cols))
    table *= 10.0 ** rng.integers(-300, 300, (n_rows, n_cols))
    table[0, : len(SPECIALS)] = SPECIALS
    table[-1, -len(SPECIALS) :] = SPECIALS[::-1]
    return table


def _savetxt(cols, table):
    want = io.StringIO()
    np.savetxt(want, table, fmt="%.17g", delimiter=",", header=",".join(cols), comments="")
    return want.getvalue()


@pytest.fixture
def forks(monkeypatch):
    """Two CPUs whatever the host has, and the list of fork calls made."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted)
    return calls


def _two_process_csv(stream, cols, table):
    """Write table to stream through a helper forked with every row final."""
    helper = csvio._Helper.fork(table)
    with contextlib.closing(helper):
        helper.finish(stream, ",".join(cols) + "\n")


# 12 columns: 4,999 rows are just under FORK_FIELDS, 5,000 rows reach it,
# 5,001 rows are one more and odd, and 2 wide rows give each process one.
@pytest.mark.parametrize("shape", [(4_999, 12), (5_000, 12), (5_001, 12), (2, 30_000)])
@pytest.mark.parametrize("sink", ["string", "file"])
def test_two_process_write_csv_is_savetxt_byte_for_byte(forks, monkeypatch, tmp_path, shape, sink):
    stops, announce = [], csvio._Helper.announce
    monkeypatch.setattr(csvio._Helper, "announce",
                        lambda self, rows: (stops.append(~rows), announce(self, rows)))
    table = _table(*shape)
    cols = [f"x{j}" for j in range(shape[1])]

    def written(write):
        if sink == "string":
            buf = io.StringIO()
            write(buf, cols, table)
            return buf.getvalue()
        path = tmp_path / "table.csv"
        with open(path, "w") as fh:
            write(fh, cols, table)
        return path.read_text()

    # write_csv is one process at every size
    assert written(write_csv) == _savetxt(cols, table) and forks == []
    assert written(_two_process_csv) == _savetxt(cols, table) and forks == [1]
    # the sizes above straddle the table integrate_for_csv forks for
    assert csvio.FORK_FIELDS == 60_000
    assert csvio._forks(table.size) == (table.size >= csvio.FORK_FIELDS)
    # the helper's share ends on a block edge, or at the end: 2,728 of 5,001
    assert len(stops) == 1
    assert all(s % csvio._block_rows(shape[1]) == 0 or s == shape[0] for s in stops)


def test_no_process_to_spare_writes_serially(monkeypatch):
    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    assert csvio._Helper.fork(_table(5_001, 12)) is None
    with csvio.integrate_for_csv(CSV_STATE, CSV_CFG) as traj:
        got, want = _csv_of(traj)
    assert got == want


def _rows_formatted_here(monkeypatch):
    """The row count of each _csv_blocks call this process makes."""
    parent, real, calls = os.getpid(), csvio._csv_blocks, []

    def blocks(rows):
        if os.getpid() == parent:
            calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(csvio, "_csv_blocks", blocks)
    return calls


def _in_helper(monkeypatch, module, name, fake):
    """Run fake in place of module.<name> in the helper only."""
    parent, real = os.getpid(), getattr(module, name)
    monkeypatch.setattr(
        module, name, lambda *args: (real if os.getpid() == parent else fake)(*args)
    )


def _raise_in_helper(*args):
    raise RuntimeError("helper failed")


_write = os.write


def _killed_mid_line(fd, data):
    """Write three rows and a half of the first block, then die as a
    process killed from outside does."""
    text = bytes(data)
    end = 0
    for _ in range(3):
        end = text.index(b"\n", end) + 1
    _write(fd, text[: end + 5])
    os.kill(os.getpid(), signal.SIGKILL)


# where each failure is faked in the helper, and the fake
HELPER_FAILURES = {"_csv_blocks": (csvio, _raise_in_helper), "write": (os, _killed_mid_line)}


# The helper owes the first 2,728 rows of 5,001, four blocks of 682, and
# this process formats the other 2,273, then the 2,728 the failed helper
# did not hand over.
@pytest.mark.parametrize("name", HELPER_FAILURES)
def test_failed_helper_costs_time_not_bytes(forks, monkeypatch, name):
    calls = _rows_formatted_here(monkeypatch)
    module, fake = HELPER_FAILURES[name]
    _in_helper(monkeypatch, module, name, fake)
    table = _table(5_001, 12)
    cols = [f"x{j}" for j in range(12)]
    buf = io.StringIO()
    _two_process_csv(buf, cols, table)
    assert buf.getvalue() == _savetxt(cols, table)
    assert forks == [1] and calls == [2_273, 2_728]


class _BrokenStream(io.StringIO):
    def __init__(self, exc, writes):
        super().__init__()
        self.exc, self.writes = exc, writes

    def write(self, text):
        self.writes -= 1
        if self.writes < 0:
            raise self.exc
        return super().write(text)


# The stream fails at the first write of a phase: the header, written while
# the helper formats its share, the copy of the helper's text, or this
# process's own rows, written last.
@pytest.mark.parametrize("phase", ["header", "copy", "rows"])
@pytest.mark.parametrize("exc", [OSError(28, "No space left on device"), KeyboardInterrupt()])
def test_stream_error_reaches_the_caller_and_no_helper_outlives_it(forks, exc, phase):
    table, cols = _table(5_001, 12), [f"x{j}" for j in range(12)]
    # a clean run writes the header, the copy's chunks, then the blocks of
    # this process's rows [2728, 5001)
    clean = _BrokenStream(None, 10**9)
    _two_process_csv(clean, cols, table)
    own = len(list(csvio._csv_blocks(table[2_728:])))
    first = {"header": 0, "copy": 1, "rows": 10**9 - clean.writes - own}
    assert first["rows"] > first["copy"]
    with pytest.raises(type(exc)):
        _two_process_csv(_BrokenStream(exc, first[phase]), cols, table)
    assert forks == [1, 1]


def test_helper_cuts_rows_formatted_past_the_stop(monkeypatch):
    # the stop comes after the helper has formatted rows [0, 40) in blocks
    # of 10: it cuts its file where row s begins, on the edge of the block
    # [30, 40) or at the end, and reports 40 formatted; a stop at the end of
    # the 95-row table has it format the rest, a short block last
    monkeypatch.setattr(csvio, "_BLOCK_FIELDS", 120)
    table = _table(95, 12)
    cols = [f"x{j}" for j in range(12)]
    for stop in (30, 40, 95):
        progress = np.zeros(1, dtype=np.int64)
        r, w = os.pipe()
        text_fd = os.memfd_create("rows")

        def stop_after_40():
            while progress[0] < 40:
                time.sleep(1e-3)
            os.write(w, (~stop).to_bytes(8, "little", signed=True))

        os.write(w, (40).to_bytes(8, "little", signed=True))
        stopper = threading.Thread(target=stop_after_40)
        stopper.start()
        try:
            csvio._helper_rows(table, r, text_fd, progress)
            text = os.pread(text_fd, 1 << 20, 0)
        finally:
            stopper.join()
            for fd in (r, w, text_fd):
                os.close(fd)
        assert progress[0] == max(stop, 40)
        assert text.decode() == _savetxt(cols, table[:stop]).split("\n", 1)[1]


# integrate_for_csv at m = 12 and 1,000 steps: 1,001 rows of 67 fields, a
# table that reaches FORK_FIELDS
CSV_STATE, CSV_CFG = random_state(3, 12), IntegratorConfig(t_end=1.0, h=1e-3)


def _csv_of(traj):
    """to_csv's text, and the savetxt text of the trajectory's table."""
    buf = io.StringIO()
    traj.to_csv(buf)
    got = buf.getvalue()
    table = np.column_stack([traj.ts, traj.samples.view(np.float64)])
    return got, _savetxt(got[: got.index("\n")].split(","), table)


@pytest.mark.parametrize("cpus", [{0, 1}, {0}])
def test_csv_integration_keeps_the_samples_and_the_bytes(forks, monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    plain = integrate(CSV_STATE, CSV_CFG)
    with csvio.integrate_for_csv(CSV_STATE, CSV_CFG) as traj:
        assert traj.samples.tobytes() == plain.samples.tobytes()
        assert traj.ts.tobytes() == plain.ts.tobytes()
        assert (traj._helper is None) == (len(cpus) == 1)
        got, want = _csv_of(traj)
    plain_table = np.column_stack([plain.ts, plain.samples.view(np.float64)])
    assert got == want == _savetxt(got[: got.index("\n")].split(","), plain_table)
    # with two CPUs the one fork is the helper's, before RK4
    assert forks == [1] * (len(cpus) - 1)


# The helper dies after two blocks, or is killed after writing part of a line.
@pytest.mark.parametrize("name", HELPER_FAILURES)
def test_helper_that_dies_beside_rk4_costs_time_not_bytes(forks, monkeypatch, name):
    module, fake = HELPER_FAILURES[name]
    if name == "_csv_blocks":
        real, count = csvio._csv_blocks, []

        def fake(rows):
            count.append(1)
            return real(rows) if len(count) < 3 else _raise_in_helper()

    _in_helper(monkeypatch, module, name, fake)
    with csvio.integrate_for_csv(CSV_STATE, CSV_CFG) as traj:
        got, want = _csv_of(traj)
    assert got == want and forks == [1]


@pytest.mark.parametrize(
    "open_args", [{"mode": "a"}, {"mode": "w", "newline": "\r\n"}], ids=["append", "crlf"]
)
def test_forked_csv_goes_through_the_stream(forks, monkeypatch, tmp_path, open_args):
    # to_csv of a forked table writes what the serial path writes through
    # the same stream: an append-mode file keeps its text, and a newline
    # setting translates every line
    def to_csv(traj, name):
        path = tmp_path / name
        path.write_text("earlier text\n")
        with open(path, **open_args) as fh:
            traj.to_csv(fh)
        return path.read_bytes()

    with csvio.integrate_for_csv(CSV_STATE, CSV_CFG) as traj:
        forked = to_csv(traj, "forked.csv")
        serial = to_csv(traj, "serial.csv")  # the helper is spent
    assert forked == serial and forks == [1]
    if open_args["mode"] == "a":
        assert forked.startswith(b"earlier text\nt,")
    else:
        assert forked.count(b"\r\n") == forked.count(b"\n") == 1_002


@pytest.mark.parametrize("refusal", ["raises", "missing", "progress"])
def test_no_memfd_to_spare_writes_serially(forks, monkeypatch, refusal):
    made = []

    def memfd_create(name, flags=0):
        made.append(name)
        raise OSError(errno.EMFILE, "Too many open files")

    real_mmap = mmap.mmap

    def small_mmap(fileno, length, *args):
        # the helper's 8-byte progress slot is refused, the table is not
        if length == 8:
            raise OSError(errno.ENOMEM, "Cannot allocate memory")
        return real_mmap(fileno, length, *args)

    if refusal == "raises":
        monkeypatch.setattr(os, "memfd_create", memfd_create)
    elif refusal == "missing":
        monkeypatch.delattr(os, "memfd_create")
    else:
        monkeypatch.setattr(mmap, "mmap", small_mmap)
    with csvio.integrate_for_csv(CSV_STATE, CSV_CFG) as traj:
        got, want = _csv_of(traj)
    assert got == want and forks == []
    # integrate_for_csv asks once; to_csv of the refused table forks nothing
    assert len(made) == (refusal == "raises")


def test_interrupt_in_the_block_hook_reaches_the_caller(forks, monkeypatch):
    # the helper is reaped before the interrupt propagates (no_child_left)
    real = csvio._Helper.announce

    def announce(self, rows):
        if rows > 500:
            raise KeyboardInterrupt
        real(self, rows)

    monkeypatch.setattr(csvio._Helper, "announce", announce)
    with pytest.raises(KeyboardInterrupt):
        with csvio.integrate_for_csv(CSV_STATE, CSV_CFG):
            pytest.fail("RK4 ran to the end")
    assert forks == [1]
