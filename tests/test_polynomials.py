import numpy as np
import pytest

from kostant_toda import (
    IntegratorConfig,
    derivative_law_residual,
    integrate,
    random_state,
    scalar_polys,
    shift_coeffs,
    stacked_eigen_residual,
    vector_polys,
    vector_recurrence_residual,
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


@pytest.mark.parametrize("seed", range(4))
def test_block_recurrence(seed):
    st = random_state(seed, 12)
    vps = vector_polys(st, 5)
    rng = np.random.default_rng(seed)
    for _ in range(3):
        z = 2 * (rng.standard_normal() + 1j * rng.standard_normal())
        for n in range(1, 5):
            # exact identity, so the defect must sit at roundoff relative
            # to the size of the polynomial values entering it
            scale = max(
                float(np.max(np.abs(vps[k].eval(z)))) for k in (n - 1, n, n + 1)
            )
            scale = max(1.0, scale * (abs(z) + 3.0))
            assert vector_recurrence_residual(st, n, z) < 1e-13 * scale


@pytest.mark.parametrize("seed", range(4))
def test_stacked_eigen_relation(seed):
    # (J - zI) applied to the stacked polynomial vector vanishes on all
    # rows but the last
    st = random_state(seed, 12)
    z = 0.4 + 1.1j
    assert stacked_eigen_residual(st, z) < 1e-10


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
