import numpy as np
import pytest

from kostant_toda import (
    MARGIN,
    CorruptionSpec,
    IntegratorConfig,
    LatticeState,
    ZTooSmallError,
    c0_block,
    c0_block_inv,
    closed_form_resolvent,
    dense_resolvent_block,
    generating_function,
    generating_ode_residual,
    integrate,
    moments_from_j,
    neumann_terms_needed,
    norm_bound,
    random_state,
    resolvent_block,
    resolvent_ode_residual,
)
from kostant_toda import backends
from kostant_toda.resolvent import spectral_ring


def test_series_matches_dense_solve():
    for seed in range(5):
        st = random_state(seed, 12)
        rho = norm_bound(st)
        for z in (2 * rho, 3j * rho, rho * (1.6 - 1.1j)):
            rb = resolvent_block(st, z, tol=1e-12)
            ref = dense_resolvent_block(st, z)
            assert np.max(np.abs(rb.value - ref)) < 1e-11


def test_tail_bound_is_certified():
    st = random_state(1, 16)
    rho = norm_bound(st)
    for tol in (1e-4, 1e-8, 1e-12):
        rb = resolvent_block(st, 1.8 * rho, tol=tol)
        err = np.max(np.abs(rb.value - dense_resolvent_block(st, 1.8 * rho)))
        assert err <= rb.tail_bound
        assert rb.tail_bound <= tol


def test_margin_enforced():
    st = random_state(0, 10)
    rho = norm_bound(st)
    with pytest.raises(ZTooSmallError):
        resolvent_block(st, (MARGIN - 0.01) * rho)
    resolvent_block(st, MARGIN * rho * 1.001)  # just inside is fine


def test_terms_needed_monotone():
    n_loose = neumann_terms_needed(2.0, 5.0, 1e-6)
    n_tight = neumann_terms_needed(2.0, 5.0, 1e-12)
    n_far = neumann_terms_needed(2.0, 50.0, 1e-12)
    assert n_loose < n_tight
    assert n_far < n_tight
    # the advertised count really reaches the tolerance
    assert (2.0 / 5.0) ** (n_tight + 1) / (5.0 - 2.0) < 1e-12


def test_generating_function_conjugation():
    st = random_state(3, 12)
    z = 2.2 * norm_bound(st)
    F = generating_function(st, z, tol=1e-12).value
    R = resolvent_block(st, z, tol=1e-12).value
    c0 = c0_block(st.a[0])
    assert np.max(np.abs(F - c0_block_inv(st.a[0]) @ R @ c0)) < 1e-12


def test_generating_function_is_moment_series():
    # F(zeta) = sum_k moment_k / zeta^{k+1}, checked against partial sums
    st = random_state(6, 12)
    rho = norm_bound(st)
    zeta = 4.0 * rho
    u = moments_from_j(st, 10)
    partial = np.zeros((2, 2), dtype=complex)
    for k in range(11):
        partial += u.moments[k] / zeta ** (k + 1)
    F = generating_function(st, zeta, tol=1e-14).value
    # the partial sum truncates at order 10, so agreement follows the tail
    assert np.max(np.abs(F - partial)) < (1 / 4.0) ** 11 / (zeta - rho) * rho * 3


def test_resolvent_ode_residual_small():
    st = random_state(0, 12)
    traj = integrate(st, IntegratorConfig(t_end=0.2, h=1.25e-4))
    z = 2.0 * float(np.max(traj.norm_bounds()))
    assert resolvent_ode_residual(traj, z, 0.1) < 1e-5
    assert generating_ode_residual(traj, z, 0.1) < 1e-5


def test_closed_form_matches_dense_along_path():
    st = random_state(2, 12)
    traj = integrate(st, IntegratorConfig(t_end=0.5, h=1e-3))
    rho = float(np.max(traj.norm_bounds()))
    zs = 2 * rho * np.exp(2j * np.pi * np.arange(4) / 4)
    paths = closed_form_resolvent(traj, zs)
    assert paths.shape == (traj.n_samples, 4, 2, 2)
    for iz, z in enumerate(zs):
        for i in (0, 250, 500):
            ref = dense_resolvent_block(traj.state_at(i), z)
            assert np.max(np.abs(paths[i, iz] - ref)) < 1e-9


def test_closed_form_from_a_later_start_time():
    # X starts at exp(-z t0) C0^{-1} R(t0): X' is integrated in absolute
    # time, and closed_form_resolvent multiplies by exp(z t)
    st0 = random_state(0, 12)
    st = LatticeState(st0.a, st0.b, st0.c, t=0.5)
    traj = integrate(st, IntegratorConfig(t_end=0.5, h=1.25e-4))
    zs = spectral_ring(traj, 4)
    paths = closed_form_resolvent(traj, zs)
    end = traj.state_at(traj.n_samples - 1)
    for iz, z in enumerate(zs):
        assert np.max(np.abs(paths[0, iz] - dense_resolvent_block(st, z))) < 1e-12
        assert np.max(np.abs(paths[-1, iz] - dense_resolvent_block(end, z))) < 1e-4


def test_closed_form_margin_at_start():
    st = random_state(2, 10)
    traj = integrate(st, IntegratorConfig(t_end=0.01, h=1e-3))
    with pytest.raises(ZTooSmallError):
        closed_form_resolvent(traj, [0.5 * norm_bound(st)])


def _jointly_stepped_closed_form(traj, zs):
    """The closed form by the RK4 loop that carried X in the packed row.

    Bands and X are stepped together on one vector, X' is formed on numpy
    complex scalars at each stage time, and R is assembled one z at a time.
    """
    m, h = traj.m, traj.h
    st = traj.state_at(0)
    x0 = np.array([c0_block_inv(st.a[0]) @ dense_resolvent_block(st, z) for z in zs])
    if st.t != 0:
        x0 *= np.exp(-zs * st.t)[:, None, None]

    def rhs(t, y, dy):
        backends._rhs(y[: 3 * m], dy[: 3 * m], m, traj.corruption)
        a1, q1, q2, q3 = y[0], y[3 * m - 3], y[3 * m - 2], y[3 * m - 1]
        e1 = np.exp(q1)
        e2 = np.exp(q2)
        cn = np.array([e1, e1 * q3, a1 * e1, a1 * e1 * q3 + e2], dtype=np.complex128)
        w = -np.exp(-zs * t)
        dy[3 * m :] = (w[:, None] * cn[None, :]).ravel()

    y = np.concatenate([traj.samples[0], x0.ravel()])
    k1, k2, k3, k4 = (np.empty_like(y) for _ in range(4))
    rows = [y]
    for k in range(traj.n_samples - 1):
        t = st.t + k * h
        rhs(t, y, k1)
        rhs(t + 0.5 * h, y + (0.5 * h) * k1, k2)
        rhs(t + 0.5 * h, y + (0.5 * h) * k2, k3)
        rhs(t + h, y + h * k3, k4)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rows.append(y)
    rows = np.array(rows)
    assert rows[:, : 3 * m].tobytes() == traj.samples.tobytes()

    c0 = np.zeros((traj.n_samples, 2, 2), dtype=np.complex128)
    c0[:, 0, 0] = 1.0
    c0[:, 1, 0] = -traj.a[:, 0]
    c0[:, 1, 1] = 1.0
    q1, q2, q3 = traj.q.T
    ninv = np.zeros((traj.n_samples, 2, 2), dtype=np.complex128)
    ninv[:, 0, 0] = np.exp(-q1)
    ninv[:, 0, 1] = -q3 * np.exp(-q2)
    ninv[:, 1, 1] = np.exp(-q2)
    out = []
    for iz, z in enumerate(zs):
        X = rows[:, 3 * m + 4 * iz : 3 * m + 4 * iz + 4].reshape(-1, 2, 2)
        out.append(np.exp(z * traj.ts)[:, None, None] * (c0 @ X @ ninv))
    return np.stack(out, axis=1)


@pytest.mark.parametrize("t0", [0.0, 0.5])
@pytest.mark.parametrize("corruption", [None, CorruptionSpec("scale-c-rhs", 2.0)],
                         ids=["clean", "scale-c-rhs"])
def test_closed_form_is_bit_identical_to_joint_stepping(t0, corruption):
    # 800 steps: with X' formed by numpy's array multiply in place of its
    # scalar one, the four cases first differ in a last bit at steps 292,
    # 716, 118 and 598
    st0 = random_state(0, 12)
    st = LatticeState(st0.a, st0.b, st0.c, t=t0)
    traj = integrate(st, IntegratorConfig(t_end=0.1, h=1.25e-4), corruption)
    assert traj.n_samples == 801
    zs = spectral_ring(traj, 6)
    assert closed_form_resolvent(traj, zs).tobytes() == (
        _jointly_stepped_closed_form(traj, zs).tobytes()
    )


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_neumann_terms_need_a_positive_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance must be > 0"):
        neumann_terms_needed(2.0, 5.0, tol)


def test_nan_z_is_refused_by_the_margin():
    st = random_state(0, 10)
    with pytest.raises(ZTooSmallError):
        resolvent_block(st, complex(float("nan"), 0.0))
