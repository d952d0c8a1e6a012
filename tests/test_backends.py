import errno
import os
import sys
import threading

import numpy as np
import pytest

from kostant_toda import (
    CNearZeroError, CorruptionSpec, IntegratorConfig, LatticeState, integrate,
    random_state
)
from kostant_toda import backends
from kostant_toda.backends import pack_state, unpack_bands
from kostant_toda.dynamics import CORRUPTION_KINDS

CORRUPTIONS = [None] + [CorruptionSpec(kind, 0.7) for kind in CORRUPTION_KINDS]


def test_pack_unpack_round_trip():
    st = random_state(3, 8)
    y = pack_state(st.a, st.b, st.c)
    assert y.shape == (3 * 8 - 3,)
    a, b, c = unpack_bands(y, 8)
    assert np.array_equal(a, st.a)
    assert np.array_equal(b, st.b)
    assert np.array_equal(c, st.c)


def _frozen_rhs(y, dy, m, corruption):
    """The flow as it was written before its views were built once."""
    a = y[:m]
    b = y[m : 2 * m - 1]
    c = y[2 * m - 1 : 3 * m - 3]
    da = dy[:m]
    db = dy[m : 2 * m - 1]
    dc = dy[2 * m - 1 : 3 * m - 3]

    da[0] = b[0]
    da[1 : m - 1] = b[1:] - b[:-1]
    da[m - 1] = -b[m - 2]

    db[:] = b * (a[1:] - a[:-1])
    db[: m - 2] += c
    db[1:] -= c

    dc[:] = c * (a[2:] - a[:-2])

    if corruption is not None:
        mag = corruption.magnitude
        if corruption.kind == "freeze-b":
            db *= 1.0 - mag
        elif corruption.kind == "scale-c-rhs":
            dc *= 1.0 + mag
        else:  # drop-commutator-term
            db[: m - 2] -= mag * c
            db[1:] += mag * c


def _frozen_rk4(y0, m, n_steps, h, corruption):
    """The RK4 loop that tested the c floor after every step: the oracle."""
    L = y0.size
    out = np.empty((n_steps + 1, L), dtype=np.complex128)
    out[0] = y0
    y = y0.copy()
    k1, k2, k3, k4 = (np.empty(L, dtype=np.complex128) for _ in range(4))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            _frozen_rhs(y, k1, m, corruption)
            _frozen_rhs(y + (0.5 * h) * k1, k2, m, corruption)
            _frozen_rhs(y + (0.5 * h) * k2, k3, m, corruption)
            _frozen_rhs(y + h * k3, k4, m, corruption)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[k + 1] = y
            cmin = np.min(np.abs(y[2 * m - 1 : 3 * m - 3]))
            if not cmin >= backends.C_FLOOR:
                return out, k + 1
    return out, 0


def _assert_same_run(y0, m, n_steps, h, corruption):
    got, status = backends.rk4_trajectory(y0, m, n_steps, h, corruption)
    want, want_status = _frozen_rk4(y0, m, n_steps, h, corruption)
    assert status == want_status
    stored = status if status else n_steps
    assert got[: stored + 1].tobytes() == want[: stored + 1].tobytes()
    return status


@pytest.mark.parametrize("corruption", CORRUPTIONS, ids=lambda c: c and c.kind)
@pytest.mark.parametrize("m", [4, 12, 64])
def test_kernel_is_the_frozen_loop_bit_for_bit(m, corruption):
    st = random_state(816 + m, m)
    y0 = pack_state(st.a, st.b, st.c)
    # 63..65 and 130 straddle the blocks of stored steps the floor is tested on
    for n_steps in (0, 1, 63, 64, 65, 130):
        assert _assert_same_run(y0, m, n_steps, 1e-3, corruption) == 0


@pytest.mark.parametrize("corruption", CORRUPTIONS, ids=lambda c: c and c.kind)
def test_long_trajectory_size_is_the_frozen_loop_bit_for_bit(corruption):
    # m = 1024 as in perfbench's long-trajectory; 70 steps straddle the
    # first block of stored steps the floor is tested on
    st = random_state(1024, 1024)
    y0 = pack_state(st.a, st.b, st.c)
    assert _assert_same_run(y0, 1024, 70, 1e-4, corruption) == 0


@pytest.mark.parametrize("corruption", CORRUPTIONS, ids=lambda c: c and c.kind)
def test_signed_zeros_are_the_frozen_loop_bit_for_bit(corruption):
    # a real state whose imaginary parts are +0 and -0, where the samples
    # of the kernel and the oracle can differ only in the signs of zeros
    st = random_state(7, 12)
    y0 = pack_state(st.a.real, st.b.real, st.c.real)
    y0.imag = np.copysign(0.0, np.resize([1.0, -1.0, -1.0], y0.size))
    assert _assert_same_run(y0, 12, 130, 1e-3, corruption) == 0
    got, _ = backends.rk4_trajectory(y0, 12, 130, 1e-3, corruption)
    assert not got.imag.any()  # the flow stays real: every imaginary part is a zero


@pytest.mark.parametrize("seed,step", [(32, 1673), (33, 1556)])
def test_overflowing_kernel_is_the_frozen_loop_bit_for_bit(seed, step):
    st = random_state(seed, 32)
    y0 = pack_state(st.a, st.b, st.c)
    assert _assert_same_run(y0, 32, 2000, 1e-3, None) == step


@pytest.mark.parametrize("n_steps", [120, 200])
def test_floor_crossed_inside_a_block_names_the_first_failing_step(n_steps):
    # c_n' = c_n (a_{n+2} - a_n) = -c_n here, so |c| decays like exp(-t) and
    # crosses the floor near t = 0.1, step 100: inside the block 65..128,
    # which is cut short at 120 steps
    st = LatticeState(
        np.array([0.0, 0.0, -1.0, -1.0], dtype=complex),
        np.full(3, 1e-3, dtype=complex),
        np.full(2, backends.C_FLOOR * np.exp(0.1), dtype=complex),
    )
    y0 = pack_state(st.a, st.b, st.c)
    status = _assert_same_run(y0, 4, n_steps, 1e-3, None)
    assert 64 < status < 120
    want, _ = _frozen_rk4(y0, 4, n_steps, 1e-3, None)
    c_min = float(np.min(np.abs(unpack_bands(want[status], 4)[2])))
    with pytest.raises(CNearZeroError) as exc:
        integrate(st, IntegratorConfig(t_end=n_steps * 1e-3, h=1e-3))
    assert str(exc.value) == str(CNearZeroError(status * 1e-3, status, c_min))


@pytest.mark.parametrize("corruption", CORRUPTIONS, ids=lambda c: c and c.kind)
def test_rhs_on_side_by_side_rows_is_each_row_alone(corruption):
    # _rhs takes a (3m - 3, n) array as n rows side by side
    m = 12
    traj = integrate(random_state(5, m), IntegratorConfig(t_end=0.05, h=1e-3))
    rows = np.ascontiguousarray(traj.samples.T)
    d_rows = np.empty_like(rows)
    backends._rhs(rows, d_rows, m, corruption)
    for j, y in enumerate(traj.samples):
        dy = np.empty_like(y)
        backends._rhs(y, dy, m, corruption)
        assert d_rows[:, j].tobytes() == dy.tobytes(), j


@pytest.mark.parametrize("corruption", CORRUPTIONS, ids=lambda c: c and c.kind)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_flow_keeps_the_signs_of_zeros_at_the_band_ends(corruption, sign):
    # a' at the band ends is an item copy and a scalar negation: on a real
    # row whose imaginary parts are all +0 or all -0 it writes the zeros'
    # signs the frozen flow's ufuncs write
    st = random_state(7, 12)
    y = pack_state(st.a.real, st.b.real, st.c.real)
    y.imag = np.copysign(0.0, sign)
    got, want = np.empty_like(y), np.empty_like(y)
    backends._rhs(y, got, 12, corruption)
    _frozen_rhs(y, want, 12, corruption)
    assert got.tobytes() == want.tobytes()


def test_flow_stays_out_of_the_traced_names():
    assert "_flow" not in backends.__all__
    assert "_rhs" not in backends.__all__


@pytest.mark.parametrize("n_steps", [1, 64, 130])
def test_clean_step_stays_within_its_ufunc_budget(monkeypatch, n_steps):
    # 6 calls in each of the four flows and 12 to form the stages and the
    # increment: a count, unlike a timing, shows any call an edit adds
    calls = []
    for name in ("add", "subtract", "multiply", "negative", "positive"):
        ufunc = getattr(np, name)

        def counted(*args, _ufunc=ufunc, **kwargs):
            calls.append(_ufunc.__name__)
            return _ufunc(*args, **kwargs)

        monkeypatch.setattr(np, name, counted)
    st = random_state(816, 12)
    y0 = pack_state(st.a, st.b, st.c)
    _, status = backends.rk4_trajectory(y0, 12, n_steps, 1e-3)
    assert status == 0
    assert 0 < len(calls) <= 36 * n_steps


@pytest.fixture
def prefault(monkeypatch):
    """Every sample array takes the prefault path; returns the ranges its
    helper threads were started on."""
    monkeypatch.setattr(backends, "PREFAULT_BYTES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = []
    populate = backends._populate

    def counted(addr, end, stop):
        started.append((addr, end))
        populate(addr, end, stop)

    monkeypatch.setattr(backends, "_populate", counted)
    return started


linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="pages are faulted in ahead on Linux only"
)


@linux_only
@pytest.mark.parametrize("corruption", CORRUPTIONS, ids=lambda c: c and c.kind)
def test_prefaulted_kernel_is_the_frozen_loop_bit_for_bit(prefault, corruption):
    st = random_state(828, 12)
    y0 = pack_state(st.a, st.b, st.c)
    for n_steps in (0, 1, 65, 130):
        assert _assert_same_run(y0, 12, n_steps, 1e-3, corruption) == 0
    st = random_state(1024, 1024)
    y0 = pack_state(st.a, st.b, st.c)
    assert _assert_same_run(y0, 1024, 70, 1e-4, corruption) == 0
    assert len(prefault) == 5


@linux_only
def test_prefault_advises_the_page_aligned_interior_in_chunks(prefault, monkeypatch):
    calls = []
    monkeypatch.setattr(backends, "PREFAULT_CHUNK", 1 << 20)
    monkeypatch.setattr(backends, "_madvise", lambda *call: calls.append(call) or 0)
    st = random_state(1024, 1024)
    out, status = backends.rk4_trajectory(pack_state(st.a, st.b, st.c), 1024, 70, 1e-4)
    assert status == 0
    page = os.sysconf("SC_PAGESIZE")
    (start, end), = prefault
    assert out.ctypes.data <= start < out.ctypes.data + page
    assert out.ctypes.data + out.nbytes - page < end <= out.ctypes.data + out.nbytes
    assert start % page == end % page == 0
    # 3.5 MB in chunks of 1 MiB, each starting where the last ended
    assert [c[0] for c in calls] == list(range(start, end, 1 << 20))
    assert sum(c[1] for c in calls) == end - start
    assert all(c[2] == backends.MADV_POPULATE_WRITE for c in calls)


@linux_only
def test_refused_advice_leaves_the_samples_and_stops_the_helper(prefault, monkeypatch):
    # a kernel before 5.14 answers MADV_POPULATE_WRITE with EINVAL
    calls = []
    monkeypatch.setattr(backends, "PREFAULT_CHUNK", 1 << 20)
    monkeypatch.setattr(backends, "_madvise", lambda *call: calls.append(call) or errno.EINVAL)
    st = random_state(1024, 1024)
    assert _assert_same_run(pack_state(st.a, st.b, st.c), 1024, 70, 1e-4, None) == 0
    assert len(prefault) == 1
    assert len(calls) == 1


@linux_only
def test_advice_maps_pages_without_writing_to_them():
    page = os.sysconf("SC_PAGESIZE")
    x = np.arange(4 * page, dtype=np.float64)
    start = -(-x.ctypes.data // page) * page
    before = x.tobytes()
    err = backends._madvise(start, 2 * page, backends.MADV_POPULATE_WRITE)
    assert err in (0, errno.EINVAL)
    assert x.tobytes() == before


@pytest.fixture
def held_helper(prefault, monkeypatch):
    """A helper that holds on until it is told to stop, so a call that
    returned without stopping and joining it leaves it running."""

    def hold(addr, end, stop):
        prefault.append((addr, end))
        assert stop.wait(10)

    monkeypatch.setattr(backends, "_populate", hold)
    return prefault


@linux_only
def test_no_helper_outlives_a_return(held_helper):
    before = threading.active_count()
    st = random_state(816, 12)
    _, status = backends.rk4_trajectory(pack_state(st.a, st.b, st.c), 12, 130, 1e-3)
    assert status == 0
    assert held_helper and threading.active_count() == before


@linux_only
def test_no_helper_outlives_a_floor_abort(held_helper):
    before = threading.active_count()
    test_floor_crossed_inside_a_block_names_the_first_failing_step(120)
    assert len(held_helper) == 2  # the kernel's run and integrate's
    assert threading.active_count() == before


@linux_only
def test_no_helper_outlives_an_exception_in_the_loop(held_helper, monkeypatch):
    before = threading.active_count()

    def broken(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(np, "abs", broken)  # the floor test of the first block
    st = random_state(816, 12)
    with pytest.raises(KeyboardInterrupt):
        backends.rk4_trajectory(pack_state(st.a, st.b, st.c), 12, 130, 1e-3)
    assert held_helper and threading.active_count() == before


def test_one_cpu_starts_no_helper(held_helper, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    before = threading.active_count()
    st = random_state(1024, 1024)
    assert _assert_same_run(pack_state(st.a, st.b, st.c), 1024, 70, 1e-4, None) == 0
    assert not held_helper
    assert threading.active_count() == before
