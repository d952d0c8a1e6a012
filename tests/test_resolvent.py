import numpy as np
import pytest

from kostant_toda import (
    MARGIN,
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
    integrate_with_closed_form,
    moments_from_j,
    neumann_terms_needed,
    norm_bound,
    random_state,
    resolvent_block,
    resolvent_ode_residual,
)
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


def test_closed_form_requires_registered_z():
    st = random_state(2, 10)
    traj = integrate(st, IntegratorConfig(t_end=0.01, h=1e-3))
    with pytest.raises(ValueError):
        closed_form_resolvent(traj, 100.0 + 0j)


def test_closed_form_matches_dense_along_path():
    st = random_state(2, 12)
    cfg = IntegratorConfig(t_end=0.5, h=1e-3)
    probe = integrate(st, cfg)
    rho = float(np.max(probe.norm_bounds()))
    zs = 2 * rho * np.exp(2j * np.pi * np.arange(4) / 4)
    traj = integrate_with_closed_form(st, cfg, zs)
    for z in zs:
        path = closed_form_resolvent(traj, z)
        assert path.shape == (traj.n_samples, 2, 2)
        for i in (0, 250, 500):
            ref = dense_resolvent_block(traj.state_at(i), z)
            assert np.max(np.abs(path[i] - ref)) < 1e-9


def test_closed_form_from_a_later_start_time():
    # X starts at exp(-z t0) C0^{-1} R(t0): the kernel integrates X' in
    # absolute time, and closed_form_resolvent multiplies by exp(z t)
    st0 = random_state(0, 12)
    st = LatticeState(st0.a, st0.b, st0.c, t=0.5)
    cfg = IntegratorConfig(t_end=0.5, h=1.25e-4)
    zs = spectral_ring(integrate(st, cfg), 4)
    traj = integrate_with_closed_form(st, cfg, zs)
    end = traj.state_at(traj.n_samples - 1)
    for z in zs:
        path = closed_form_resolvent(traj, z)
        assert np.max(np.abs(path[0] - dense_resolvent_block(st, z))) < 1e-12
        assert np.max(np.abs(path[-1] - dense_resolvent_block(end, z))) < 1e-4


def test_closed_form_margin_at_start():
    st = random_state(2, 10)
    with pytest.raises(ZTooSmallError):
        integrate_with_closed_form(
            st, IntegratorConfig(t_end=0.01, h=1e-3), [0.5 * norm_bound(st)]
        )


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_neumann_terms_need_a_positive_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance must be > 0"):
        neumann_terms_needed(2.0, 5.0, tol)


def test_nan_z_is_refused_by_the_margin():
    st = random_state(0, 10)
    with pytest.raises(ZTooSmallError):
        resolvent_block(st, complex(float("nan"), 0.0))
