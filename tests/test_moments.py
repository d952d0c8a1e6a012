import numpy as np
import pytest

from kostant_toda import (
    IntegratorConfig,
    LatticeState,
    MomentFunctional,
    OrderOverflowError,
    SeriesCapError,
    apply_u,
    b_block,
    c0_block,
    c_block,
    exponential_moments,
    functional_derivative_residual,
    integrate,
    moment_ode_residual,
    moments_from_j,
    moments_from_recurrence,
    norm_bound,
    random_state,
    reconstruct_blocks,
    vector_polys,
)
from kostant_toda.polynomials import VectorPolynomial


def test_moment_hand_values(unit_instance):
    # zero diagonal, unit bands: moment_0 = I, moment_1 = [[0,1],[1,0]],
    # moment_2 = [[1,0],[1,2]]
    u = moments_from_j(unit_instance, 2)
    assert np.allclose(u.moments[0], np.eye(2), atol=1e-15)
    assert np.allclose(u.moments[1], [[0, 1], [1, 0]], atol=1e-15)
    assert np.allclose(u.moments[2], [[1, 0], [1, 2]], atol=1e-15)


def test_normalization_is_identity():
    for seed in range(5):
        u = moments_from_j(random_state(seed, 10), 6)
        assert np.allclose(u.moments[0], np.eye(2), atol=1e-13)


def test_row_overlap():
    u = moments_from_j(random_state(1, 12), 8)
    assert u.overlap_defect() < 1e-12
    mu = u.scalar_rows()
    assert mu.shape == (2, 10)
    assert np.allclose(mu[:, :9], u.moments[:, 0, :].T)


def test_constructions_agree():
    for seed in range(5):
        st = random_state(seed, 12)
        ua = moments_from_j(st, 6)
        ub = moments_from_recurrence(st, 6)
        assert np.max(np.abs(ua.moments - ub.moments)) < 1e-11


def test_locality_under_extension():
    # deepening the truncation must not change the low-order moments
    rng = np.random.default_rng(42)
    st = random_state(0, 10)
    ext = lambda v, k: np.concatenate(
        [v, 0.5 + 0.3 * rng.standard_normal(k) + 0.2j * rng.standard_normal(k)]
    )
    big = LatticeState(a=ext(st.a, 4), b=ext(st.b, 4), c=ext(st.c, 4))
    small_u = moments_from_j(st, 8)
    big_u = moments_from_j(big, 8)
    assert np.max(np.abs(small_u.moments - big_u.moments)) < 1e-10


def test_locality_cap_enforced():
    st = random_state(0, 10)
    with pytest.raises(ValueError):
        moments_from_j(st, 9)  # > m - 2
    deep = moments_from_j(st, 20, require_locality=False)
    assert deep.n_max == 20


def test_apply_and_order_overflow():
    st = random_state(3, 10)
    u = moments_from_j(st, 4)
    polys = vector_polys(st, 2)
    # applying z^j Bv_n via shifted coefficients stays within order 5
    apply_u(u, polys[2], shift=0)
    with pytest.raises(OrderOverflowError):
        apply_u(u, polys[2], shift=1)  # degree 6 > 5
    with pytest.raises(ValueError):
        MomentFunctional(np.zeros((2, 3, 3)))


def test_orthogonality_conditions():
    st = random_state(5, 14)
    u = moments_from_j(st, 12)
    polys = vector_polys(st, 4)
    cprod = c0_block(st.a[0])
    assert np.max(np.abs(apply_u(u, polys[0]) - cprod)) < 1e-11
    for n in range(1, 5):
        for j in range(n):
            assert np.max(np.abs(apply_u(u, polys[n], shift=j))) < 1e-11
        cprod = c_block(st, n) @ cprod
        assert np.max(np.abs(apply_u(u, polys[n], shift=n) - cprod)) < 1e-11


def test_reconstruction_recovers_bands():
    st = random_state(8, 14)
    u = moments_from_j(st, 12)
    polys = vector_polys(st, 4)
    b_rec, c_rec = reconstruct_blocks(u, polys)
    assert b_rec[0] is None
    assert np.max(np.abs(c_rec[0] - c0_block(st.a[0]))) < 1e-11
    for n in range(1, 5):
        assert np.max(np.abs(b_rec[n] - b_block(st, n))) < 1e-11
        assert np.max(np.abs(c_rec[n] - c_block(st, n))) < 1e-11


def test_moment_ode_along_flow():
    st = random_state(0, 12)
    traj = integrate(st, IntegratorConfig(t_end=0.2, h=1.25e-4))
    for n in range(4):
        assert np.max(np.abs(moment_ode_residual(traj, n, 0.1))) < 1e-5


def test_functional_derivative_along_flow():
    st = random_state(1, 12)
    traj = integrate(st, IntegratorConfig(t_end=0.2, h=1.25e-4))
    q = VectorPolynomial(
        0,
        np.array([0.3, -1.0 + 0.2j]),
        np.array([1.0j, 0.0, 0.5]),
    )
    assert np.max(np.abs(functional_derivative_residual(traj, q, 0.1))) < 1e-5


def test_exponential_moments_match_flow():
    st = random_state(2, 12)
    u0 = moments_from_j(st, 60, require_locality=False)
    rho = norm_bound(st)
    traj = integrate(st, IntegratorConfig(t_end=1.0, h=1e-3))
    for t in (0.25, 1.0):
        em = exponential_moments(u0, t, 5, rho)
        direct = moments_from_j(traj.state_at(traj.index_of(t)), 5)
        assert np.max(np.abs(em.functional.moments - direct.moments)) < 1e-6
        assert em.tail_bound < 1e-12
        assert em.terms_used <= u0.n_max - 5


def test_exponential_moments_need_depth():
    st = random_state(2, 12)
    shallow = moments_from_j(st, 8)
    with pytest.raises(OrderOverflowError):
        exponential_moments(shallow, 1.0, 5, norm_bound(st))


def test_exponential_series_cap():
    # |t| rho far beyond the term cap: no truncation can be certified
    st = random_state(2, 12)
    u0 = moments_from_j(st, 60, require_locality=False)
    with pytest.raises(SeriesCapError, match="still growing at the cap") as exc:
        exponential_moments(u0, 100.0, 5, norm_bound(st))
    assert "inf" not in str(exc.value)


def test_exponential_moments_at_zero_time():
    st = random_state(4, 12)
    u0 = moments_from_j(st, 30, require_locality=False)
    em = exponential_moments(u0, 0.0, 4, norm_bound(st))
    assert np.max(np.abs(em.functional.moments - u0.moments[:5])) < 1e-14


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_exponential_moments_need_a_finite_time(t):
    st = random_state(2, 12)
    u0 = moments_from_j(st, 60, require_locality=False)
    with pytest.raises(ValueError, match="t must be finite"):
        exponential_moments(u0, t, 5, norm_bound(st))


@pytest.mark.parametrize("n_max", [-1, -2])
def test_exponential_moments_refuse_a_negative_order(n_max):
    st = random_state(2, 12)
    u0 = moments_from_j(st, 60, require_locality=False)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        exponential_moments(u0, 0.5, n_max, norm_bound(st))
