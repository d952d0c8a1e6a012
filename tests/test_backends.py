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


@pytest.mark.parametrize("corruption", CORRUPTIONS, ids=lambda c: c and c.kind)
def test_strided_out_and_block_hook_keep_the_samples(corruption):
    # the sample columns of a CSV table after its t column, as
    # csvio.integrate_for_csv lays them out
    st = random_state(830, 12)
    y0 = pack_state(st.a, st.b, st.c)
    want, _ = backends.rk4_trajectory(y0, 12, 130, 1e-3, corruption)
    table = np.zeros((131, 1 + 2 * y0.size))
    out = table[:, 1:].view(np.complex128)
    counts = []
    got, status = backends.rk4_trajectory(y0, 12, 130, 1e-3, corruption, out, counts.append)
    assert status == 0 and got is out and not table[:, 0].any()
    assert got.tobytes() == want.tobytes()
    assert counts == [65, 129, 131]


@pytest.mark.parametrize("seed", [32, 816])
def test_block_hook_hears_only_rows_past_the_floor_test(seed):
    # seed 32 leaves the finite range at step 1673, inside the block of
    # steps 1665..1728: the hook hears of rows [0, 1665) at most
    st = random_state(seed, 32)
    y0 = pack_state(st.a, st.b, st.c)
    counts = []
    samples, status = backends.rk4_trajectory(y0, 32, 2000, 1e-3, None, None, counts.append)
    assert all(a < b for a, b in zip(counts, counts[1:]))
    assert counts[-1] == (1665 if seed == 32 else 2001) and status == (1673 if seed == 32 else 0)
    c_min = np.abs(unpack_bands(samples[: counts[-1]].T, 32)[2]).min(axis=0)
    assert np.all(c_min >= backends.C_FLOOR)


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
