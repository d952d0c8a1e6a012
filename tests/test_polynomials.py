import numpy as np
import pytest

from kostant_toda import (
    IntegratorConfig,
    LatticeState,
    characteristic_identity,
    derivative_law_residual,
    integrate,
    norm_bound,
    polynomials,
    random_state,
    scalar_polys,
    shift_coeffs,
    vector_polys,
)
from kostant_toda.polynomials import VectorPolynomial


def test_scalar_polys_hand_values(unit_instance):
    # zero diagonal, unit bands: P2 = z^2 - 1, P3 = z^3 - 2z - 1
    polys = scalar_polys(unit_instance, 3)
    assert np.array_equal(polys[0], [1])
    assert np.array_equal(polys[1], [0, 1])
    assert np.array_equal(polys[2], [-1, 0, 1])
    assert np.array_equal(polys[3], [-1, -2, 0, 1])


def test_scalar_polys_monic():
    st = random_state(0, 10)
    for n, p in enumerate(scalar_polys(st, 7)):
        assert p.size == n + 1
        assert p[-1] == 1.0


def test_scalar_recurrence_at_random_points():
    st = random_state(4, 10)
    polys = scalar_polys(st, 6)
    rng = np.random.default_rng(0)
    zs = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    from numpy.polynomial import polynomial as npoly

    for n in range(2, 6):
        for z in zs:
            lhs = npoly.polyval(z, polys[n + 1])
            rhs = (z - st.a[n]) * npoly.polyval(z, polys[n])
            rhs -= st.b[n - 1] * npoly.polyval(z, polys[n - 1])
            rhs -= st.c[n - 2] * npoly.polyval(z, polys[n - 2])
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def test_shift_coeffs():
    assert np.array_equal(shift_coeffs(np.array([2.0, 3.0]), 2), [0, 0, 2, 3])
    assert np.array_equal(shift_coeffs(np.array([1.0]), 0), [1.0])


def test_vector_polys_pair_scalar_rows():
    st = random_state(2, 12)
    vps = vector_polys(st, 4)
    sps = scalar_polys(st, 9)
    for n, vp in enumerate(vps):
        assert vp.n == n
        assert np.array_equal(vp.top, sps[2 * n])
        assert np.array_equal(vp.bottom, sps[2 * n + 1])
    z = 0.7 - 0.2j
    v = vps[1].eval(z)
    from numpy.polynomial import polynomial as npoly

    assert v[0] == npoly.polyval(z, sps[2])
    assert v[1] == npoly.polyval(z, sps[3])


def test_vector_polys_length_cap():
    st = random_state(2, 8)
    vector_polys(st, 3)  # m/2 - 1 is fine
    with pytest.raises(ValueError):
        vector_polys(st, 4)


def _ring(state):
    # the isospectrality check's 16 points at |z| = 1.5 rho
    return 1.5 * norm_bound(state) * np.exp(2j * np.pi * np.arange(16) / 16)


@pytest.mark.parametrize("seed", range(4))
def test_characteristic_identity_gives_the_determinant(seed):
    # P_m is det(zI - J), on the verify ring and at random points nearer the spectrum
    st = random_state(seed, 12)
    rng = np.random.default_rng(seed)
    inside = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    zs = np.concatenate([_ring(st), inside])
    p_m, defect = characteristic_identity(st, zs)
    det = np.array([np.linalg.det(z * np.eye(st.m) - st.dense()) for z in zs])
    assert np.max(np.abs(p_m - det) / np.abs(det)) < 1e-11
    assert np.max(defect[:16]) < 1e-14
    assert np.max(defect) < 1e-10


def test_characteristic_identity_sees_b_read_one_index_off(monkeypatch):
    # a recurrence that reads b[n] where it should read b[n - 1] puts the
    # identity's defect at 2e-2..5e-2 on the ring, against 4e-16 unmutated
    states = [random_state(seed, 8) for seed in range(4)]
    for st in states:
        assert np.max(characteristic_identity(st, _ring(st))[1]) < 1e-14
    exact = polynomials.scalar_polys

    def shifted_b(state, count):
        return exact(LatticeState(state.a, np.roll(state.b, -1), state.c, state.t), count)

    monkeypatch.setattr(polynomials, "scalar_polys", shifted_b)
    for st in states:
        assert np.min(characteristic_identity(st, _ring(st))[1]) > 1e-2


def test_eigenvector_from_characteristic_root():
    # at a root of P_m the stacked vector is an actual eigenvector
    st = random_state(7, 8)
    lam = np.linalg.eigvals(st.dense())[0]
    polys = scalar_polys(st, 7)
    from numpy.polynomial import polynomial as npoly

    v = np.array([npoly.polyval(lam, p) for p in polys])
    r = st.dense() @ v - lam * v
    assert np.max(np.abs(r)) < 1e-8 * max(1.0, np.max(np.abs(v)))


def test_derivative_law_on_trajectory():
    st = random_state(0, 12)
    traj = integrate(st, IntegratorConfig(t_end=0.2, h=1.25e-4))
    for n in range(4):
        assert np.max(np.abs(derivative_law_residual(traj, n, 0.1, 1.0))) < 1e-5


def test_vector_polynomial_is_frozen():
    vp = VectorPolynomial(0, np.array([1.0 + 0j]), np.array([0.0, 1.0 + 0j]))
    with pytest.raises(AttributeError):
        vp.n = 3
