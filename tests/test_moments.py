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
from kostant_toda.core import leading_power_blocks
from kostant_toda.moments import SERIES_ORDERS
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


def _series_of_a_prefix(state, t, n_max):
    """The exponential series as the package summed it from a prefix of 61
    moment orders built by hand, with the entry bound (1 + |a_1|)^2: a
    frozen oracle. Returns (moments, terms_used, tail_bound)."""
    rho = norm_bound(state)
    c0 = c0_block(state.a[0])
    prefix = c0_block(-state.a[0]) @ leading_power_blocks(state.dense()[None], 60)[0] @ c0
    x = abs(t) * rho
    lead = (1.0 + abs(state.a[0])) ** 2 * rho**n_max
    nt, K = x, 0
    while not (K + 2 > x and lead * nt / (1.0 - x / (K + 2)) < 1e-12):
        K += 1
        nt *= x / (K + 1)
    w = np.empty(K + 1)
    w[0] = 1.0
    for l in range(1, K + 1):
        w[l] = w[l - 1] * t / l
    raws = np.array(
        [np.tensordot(w, prefix[k : k + K + 1], axes=(0, 0)) for k in range(n_max + 1)]
    )
    (p, q), (r, s) = raws[0]
    inv0 = np.array([[s, -q], [-r, p]], dtype=np.complex128) / (p * s - q * r)
    return raws @ inv0, K + 1, float(lead * nt / (1.0 - x / (K + 2)))


@pytest.mark.parametrize("seed", range(20))
def test_exponential_moments_are_the_prefix_series_bit_for_bit(seed):
    st = random_state(seed, 12)
    for t in (-0.5, 0.0, 0.25, 1.0):
        for n_max in (0, 5):
            em = exponential_moments(st, t, n_max)
            moments, terms, tail = _series_of_a_prefix(st, t, n_max)
            assert em.functional.moments.tobytes() == moments.tobytes()
            assert (em.terms_used, em.tail_bound) == (terms, tail)
            assert em.rho == norm_bound(st)


@pytest.mark.parametrize("m", [4, 12, 32, 64])
def test_moment_entries_obey_the_series_entry_bound(m):
    # every entry of moment0_q is at most (1 + |a_1|)^2 rho^q, q <= 60: the
    # bound exponential_moments certifies its tail with
    for seed in range(50):
        st = random_state(seed, m)
        c0 = c0_block(st.a[0])
        blocks = c0_block(-st.a[0]) @ leading_power_blocks(st.dense()[None], 60)[0] @ c0
        bound = (1.0 + abs(st.a[0])) ** 2 * norm_bound(st) ** np.arange(61)
        assert np.all(np.max(np.abs(blocks), axis=(1, 2)) <= bound), seed


def test_exponential_moments_match_flow():
    st = random_state(2, 12)
    traj = integrate(st, IntegratorConfig(t_end=1.0, h=1e-3))
    for t in (0.25, 1.0):
        em = exponential_moments(st, t, 5)
        direct = moments_from_j(traj.state_at(traj.index_of(t)), 5)
        assert np.max(np.abs(em.functional.moments - direct.moments)) < 1e-6
        assert em.tail_bound < 1e-12
        assert em.terms_used <= SERIES_ORDERS - 5


def test_exponential_moments_need_depth():
    # K + n_max orders past the SERIES_ORDERS limit
    st = random_state(2, 12)
    with pytest.raises(OrderOverflowError, match="above the limit of 60"):
        exponential_moments(st, 0.5, 56)


def test_exponential_series_cap():
    # |t| rho far beyond the term cap: no truncation can be certified
    st = random_state(2, 12)
    with pytest.raises(SeriesCapError, match="still growing at the cap") as exc:
        exponential_moments(st, 100.0, 5)
    assert "inf" not in str(exc.value)


def test_exponential_moments_at_zero_time():
    st = random_state(4, 12)
    em = exponential_moments(st, 0.0, 4)
    assert np.max(np.abs(em.functional.moments - moments_from_j(st, 4).moments)) < 1e-14


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_exponential_moments_need_a_finite_time(t):
    st = random_state(2, 12)
    with pytest.raises(ValueError, match="t must be finite"):
        exponential_moments(st, t, 5)


@pytest.mark.parametrize("n_max", [-1, -2])
def test_exponential_moments_refuse_a_negative_order(n_max):
    st = random_state(2, 12)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        exponential_moments(st, 0.5, n_max)
