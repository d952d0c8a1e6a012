"""The derivative-law residuals read the flow only through its derivative
method, whose whole stencil must lie on the stored grid."""

import numpy as np
import pytest

from kostant_toda import (
    IntegratorConfig,
    VectorPolynomial,
    derivative_law_residual,
    functional_derivative_residual,
    generating_ode_residual,
    integrate,
    moment_ode_residual,
    random_state,
    resolvent_ode_residual,
)

T_END = 0.05
H = 1e-3
Q = VectorPolynomial(0, np.array([1.0, 0.5j]), np.array([0.25, 1.0, -0.5]))


def _z(traj):
    return 2.0 * float(np.max(traj.norm_bounds())) * np.exp(0.3j)


RESIDUALS = {
    "moment_ode": lambda traj, t: moment_ode_residual(traj, 2, t),
    "functional_derivative": lambda traj, t: functional_derivative_residual(traj, Q, t),
    "derivative_law": lambda traj, t: derivative_law_residual(traj, 2, t, 0.8),
    "resolvent_ode": lambda traj, t: resolvent_ode_residual(traj, _z(traj), t),
    "generating_ode": lambda traj, t: generating_ode_residual(traj, _z(traj), t),
}


@pytest.fixture(scope="module")
def traj():
    return integrate(random_state(0, 12), IntegratorConfig(t_end=T_END, h=H))


@pytest.mark.parametrize("t", [0.0, H, T_END], ids=["t0", "t0_plus_h", "t_end"])
@pytest.mark.parametrize("name", sorted(RESIDUALS))
def test_stencil_off_the_grid_is_refused(traj, name, t):
    # a stencil reaching before t0 must not wrap round to the end of the
    # trajectory, and one reaching past t_end must not raise IndexError
    with pytest.raises(ValueError):
        RESIDUALS[name](traj, t)


@pytest.mark.parametrize("t", [2 * H, T_END - 2 * H], ids=["first", "last"])
@pytest.mark.parametrize("name", sorted(RESIDUALS))
def test_stencil_fits_at_the_grid_edges(traj, name, t):
    assert np.max(np.abs(RESIDUALS[name](traj, t))) < 1e-4


class StandInFlow:
    """A flow exposing only derivative, delegated to a Trajectory."""

    __slots__ = ("derivative",)

    def __init__(self, traj):
        self.derivative = traj.derivative


@pytest.mark.parametrize("seed", [0, 1])
def test_laws_read_the_flow_only_through_derivative(seed):
    traj = integrate(random_state(seed, 12), IntegratorConfig(t_end=0.2, h=H))
    z, t = _z(traj), 0.1
    laws = [
        lambda flow: moment_ode_residual(flow, 2, t),
        lambda flow: functional_derivative_residual(flow, Q, t),
        lambda flow: derivative_law_residual(flow, 2, t, 0.8),
        lambda flow: resolvent_ode_residual(flow, z, t),
        lambda flow: generating_ode_residual(flow, z, t),
    ]
    for law in laws:
        assert np.array_equal(law(StandInFlow(traj)), law(traj))
