import io

import numpy as np
import pytest

from kostant_toda import (
    CNearZeroError,
    CorruptionSpec,
    IntegratorConfig,
    LatticeState,
    Trajectory,
    grid_central_diff,
    integrate,
    kostant_rhs,
    lax_rhs,
    norm_bound,
    random_state,
)
from kostant_toda.dynamics import write_csv


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


def test_corruption_spec_validation():
    with pytest.raises(ValueError):
        CorruptionSpec("no-such-kind", 1.0)
    with pytest.raises(ValueError):
        CorruptionSpec("freeze-b", 0.0)


def test_trajectory_grid_and_views():
    st = random_state(4, 8)
    traj = integrate(st, IntegratorConfig(t_end=0.2, h=1e-3))
    assert traj.n_samples == 201
    assert traj.a.shape == (201, 8)
    assert traj.b.shape == (201, 7)
    assert traj.c.shape == (201, 6)
    assert traj.q.shape == (201, 3)
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


def test_quadrature_states():
    # q1' = a_1, q2' = a_2, q3' = exp(q2 - q1), all from zero
    st = random_state(6, 8)
    traj = integrate(st, IntegratorConfig(t_end=0.3, h=1e-3))
    i = traj.index_of(0.2)
    dq = grid_central_diff(traj.q, i, traj.h)
    assert abs(dq[0] - traj.a[i, 0]) < 1e-4
    assert abs(dq[1] - traj.a[i, 1]) < 1e-4
    assert abs(dq[2] - np.exp(traj.q[i, 1] - traj.q[i, 0])) < 1e-4
    assert np.array_equal(traj.q[0], [0, 0, 0])


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


def test_csv_round_trip():
    st = random_state(5, 6)
    traj = integrate(st, IntegratorConfig(t_end=0.01, h=1e-3))
    text = traj.to_csv_string()
    lines = text.strip().split("\n")
    assert len(lines) == 12  # header + 11 samples
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[1] == "a1_re"
    assert len(header) == 1 + 2 * (6 + 5 + 4 + 3)
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert data.shape == (11, len(header))
    # %.17g keeps complex doubles exactly
    assert data[0, 1] == st.a[0].real
    assert data[0, 2] == st.a[0].imag


def test_central_diff_on_cubic():
    h = 1e-2
    ts = h * np.arange(101)
    vals = ts**3
    d = grid_central_diff(vals, 50, h)
    t = ts[50]
    # exact for the 2h stencil applied to t^3 up to the delta^2 term
    assert d == pytest.approx(3 * t**2 + (2 * h) ** 2, rel=1e-10)


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
