import warnings

import numpy as np
import pytest

from kostant_toda import (
    MARGIN,
    IntegratorConfig,
    LatticeState,
    SeriesCapError,
    ZTooSmallError,
    b_block,
    c0_block,
    closed_form_resolvent,
    commutator,
    d_block,
    dense_resolvent_block,
    generating_ode_residual,
    integrate,
    moments_from_j,
    norm_bound,
    random_state,
    resolvent_block,
    resolvent_ode_residual,
    resolvent_sweep,
)
from kostant_toda import core, dynamics, resolvent
from kostant_toda.backends import pack_state
from kostant_toda.dynamics import Trajectory, kostant_rhs
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
    st = random_state(0, 12)
    rho = norm_bound(st)
    loose = resolvent_block(st, 2.5 * rho, tol=1e-6)
    tight = resolvent_block(st, 2.5 * rho, tol=1e-12)
    far = resolvent_block(st, 25.0 * rho, tol=1e-12)
    assert loose.terms_used < tight.terms_used
    assert far.terms_used < tight.terms_used
    # each count is the least whose geometric bound reaches the tolerance
    for rb, tol in ((loose, 1e-6), (tight, 1e-12), (far, 1e-12)):
        ratio, gap = rho / abs(rb.z), abs(rb.z) - rho
        assert ratio ** rb.terms_used / gap < tol <= ratio ** (rb.terms_used - 1) / gap
        assert rb.tail_bound == ratio ** rb.terms_used / gap


def test_generating_function_conjugation():
    # F = C0^{-1} R C0, C0 = [[1, 0], [-a_1, 1]], written out by a solve: its
    # inverse is c0_block(-a_1), and F is the dense resolvent conjugated
    st = random_state(3, 12)
    z = 2.2 * norm_bound(st)
    c0 = c0_block(st.a[0])
    R = resolvent_block(st, z, tol=1e-12).value
    F = np.linalg.solve(c0, R @ c0)
    assert np.max(np.abs(F - c0_block(-st.a[0]) @ R @ c0)) < 1e-12
    dense = np.linalg.solve(c0, dense_resolvent_block(st, z) @ c0)
    assert np.max(np.abs(F - dense)) < 1e-11


def test_generating_function_is_moment_series():
    # F(zeta) = C0^{-1} R(zeta) C0 = sum_k moment_k / zeta^{k+1}, checked
    # against partial sums
    st = random_state(6, 12)
    rho = norm_bound(st)
    zeta = 4.0 * rho
    u = moments_from_j(st, 10)
    partial = np.zeros((2, 2), dtype=complex)
    for k in range(11):
        partial += u.moments[k] / zeta ** (k + 1)
    R = resolvent_block(st, zeta, tol=1e-14).value
    F = c0_block(-st.a[0]) @ R @ c0_block(st.a[0])
    # the partial sum truncates at order 10, so agreement follows the tail
    assert np.max(np.abs(F - partial)) < (1 / 4.0) ** 11 / (zeta - rho) * rho * 3


def test_resolvent_ode_residual_small():
    st = random_state(0, 12)
    traj = integrate(st, IntegratorConfig(t_end=0.2, h=1.25e-4))
    z = 2.0 * float(np.max(traj.norm_bounds()))
    assert np.max(np.abs(resolvent_ode_residual(traj, z, 0.1))) < 1e-5
    assert np.max(np.abs(generating_ode_residual(traj, z, 0.1))) < 1e-5


def _ring(traj, t):
    """The state at t, the ring states Trajectory.derivative reads around it
    (J + r w_j V, r = 0.1 / max |V|), and the ring's weights 1 / (N r w_j)."""
    st = traj.state_at(traj.index_of(t))
    da, db, dc = kostant_rhs(st)
    r = 0.1 / max(np.max(np.abs(x)) for x in (da, db, dc))
    ring = [LatticeState(st.a + s * da, st.b + s * db, st.c + s * dc, st.t)
            for s in r * dynamics._RING]
    return st, ring, 1.0 / (len(ring) * r * dynamics._RING)


@pytest.mark.parametrize("seed", [0, 1])
def test_laws_are_the_ring_sum_over_dense_blocks_bit_for_bit(seed):
    # R at the state at t and at each ring state by dense solve, weighed by
    # hand, then the two laws written out again, on both rings the suite reads
    traj = integrate(random_state(seed, 12), IntegratorConfig(t_end=0.2, h=1.25e-4))
    t = 0.1
    st, ring, weights = _ring(traj, t)
    states = [st, *ring]
    eye = np.eye(2, dtype=np.complex128)
    for z in (spectral_ring(traj, 4)[1], spectral_ring(traj, 4, 0.5)[1]):
        r = [dense_resolvent_block(s, z) for s in states]
        f = [c0_block(-s.a[0]) @ v @ c0_block(s.a[0]) for s, v in zip(states, r)]
        rhs = r[0] @ (z * eye - b_block(st, 1)) - eye + commutator(r[0], d_block(st, 0))
        want_r = np.tensordot(weights, r[1:], axes=1) - rhs
        want_f = np.tensordot(weights, f[1:], axes=1) - (
            f[0] @ (z * eye - moments_from_j(st, 1).moments[1]) - eye
        )
        assert np.array_equal(resolvent_ode_residual(traj, z, t), want_r)
        assert np.array_equal(generating_ode_residual(traj, z, t), want_f)


@pytest.mark.parametrize("mult", [1.2, 0.5])
@pytest.mark.parametrize("law", [resolvent_ode_residual, generating_ode_residual])
def test_laws_hold_inside_the_series_margin(law, mult):
    # the Neumann sums refused every point inside 1.5 rho; the dense block
    # is R wherever R exists
    traj = integrate(random_state(0, 12), IntegratorConfig(t_end=0.2, h=1.25e-4))
    for z in spectral_ring(traj, 4, mult):
        assert abs(z) < MARGIN * norm_bound(traj.state_at(traj.index_of(0.1)))
        assert np.max(np.abs(law(traj, z, 0.1))) < 1e-12


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
    # the exponential runs over t - t0 from J(t0), and C0(t0) cancels the
    # first sample's C0
    st0 = random_state(0, 12)
    st = LatticeState(st0.a, st0.b, st0.c, t=0.5)
    traj = integrate(st, IntegratorConfig(t_end=0.5, h=1.25e-4))
    zs = spectral_ring(traj, 4)
    paths = closed_form_resolvent(traj, zs)
    end = traj.state_at(traj.n_samples - 1)
    for iz, z in enumerate(zs):
        assert np.max(np.abs(paths[0, iz] - dense_resolvent_block(st, z))) < 1e-12
        assert np.max(np.abs(paths[-1, iz] - dense_resolvent_block(end, z))) < 1e-4


def _margin_message(z_abs, rho, where):
    return (
        f"|z| = {z_abs:.6g} is below the safety margin "
        f"{MARGIN} * rho = {MARGIN * rho:.6g}{where}"
    )


def test_closed_form_margin_at_start():
    # the first point inside the margin of J0 is named, with J0's time
    st = random_state(2, 10)
    traj = integrate(st, IntegratorConfig(t_end=0.01, h=1e-3))
    rho = norm_bound(st)
    with pytest.raises(ZTooSmallError) as refused:
        closed_form_resolvent(traj, [2.0 * rho, 0.5 * rho, 0.4 * rho])
    assert str(refused.value) == _margin_message(0.5 * rho, rho, " at t = 0")


@pytest.mark.parametrize("seed", [0, 830])
def test_closed_form_matches_dense_on_the_wide_ring_at_m64(seed):
    # the ring's real point has Re z = 44 at seed 0 and about 2,050 at
    # seed 830: an error in X would be amplified by e^{Re z t}, and exp(z t)
    # itself overflows, so the closed form must carry neither
    traj = integrate(random_state(seed, 64), IntegratorConfig(t_end=1.0, h=1e-3))
    zs = spectral_ring(traj, 32)
    paths = closed_form_resolvent(traj, zs)
    worst = 0.0
    for i in range(0, traj.n_samples, 10):
        st = traj.state_at(i)
        for iz, z in enumerate(zs):
            worst = max(worst, np.max(np.abs(paths[i, iz] - dense_resolvent_block(st, z))))
    assert worst < 1e-10


def test_closed_form_with_a_large_diagonal_stays_finite():
    # shifting a by 400 leaves the flow's b and c alone, and e^{(t - t0) J0}
    # grows like e^{400 t}, past the finite range before t = 2, while R stays
    # O(1/|z|): the shifted exponential the closed form carries does not
    st = random_state(0, 8)
    shifted = LatticeState(st.a + 400, st.b, st.c)
    traj = integrate(shifted, IntegratorConfig(t_end=2.0, h=1e-3))
    zs = spectral_ring(traj, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        paths = closed_form_resolvent(traj, zs)
    assert np.isfinite(paths).all()
    for i in range(0, traj.n_samples, 50):
        st_i = traj.state_at(i)
        for iz, z in enumerate(zs):
            assert np.max(np.abs(paths[i, iz] - dense_resolvent_block(st_i, z))) < 1e-12


def test_nonfinite_closed_form_is_refused_at_its_first_sample():
    # a trajectory built by hand from a state with a[0] shifted by 400, of
    # which the closed form reads only the first row: the RK4 flow of that
    # state hits the c floor at t = 0.067, and the pivot u of the leading
    # block of e^{(t - t0) J0} is then lost to cancellation until, near
    # t = 0.2, it rounds to zero
    st = random_state(0, 8)
    y0 = pack_state(st.a, st.b, st.c)
    y0[0] += 400
    traj = Trajectory(np.repeat(y0[None], 2001, axis=0), 8, 1e-3, 0.0)
    zs = spectral_ring(traj, 4)
    with warnings.catch_warnings(), pytest.raises(np.linalg.LinAlgError) as exc:
        warnings.simplefilter("error")
        closed_form_resolvent(traj, zs)
    t = float(str(exc.value).rsplit("t = ", 1)[1])
    assert 0.1 < t < 2.0
    # every sample before the named one is finite
    k = traj.index_of(t)
    before = Trajectory(traj.samples[:k], 8, 1e-3, 0.0)
    assert np.isfinite(closed_form_resolvent(before, zs)).all()


def test_closed_form_reads_only_the_first_sample_and_converges_at_fourth_order():
    # the rows after the first do not enter the closed form
    traj = integrate(random_state(0, 8), IntegratorConfig(t_end=0.1, h=1e-3))
    zs = spectral_ring(traj, 4)
    want = closed_form_resolvent(traj, zs)
    traj.samples[1:] = traj.samples[1:][::-1] + 1.0
    assert closed_form_resolvent(traj, zs).tobytes() == want.tobytes()
    # so its gap to the RK4 end state is RK4's global error, O(h^4)
    for seed in (0, 1):
        st = random_state(seed, 8)
        zs = 2.0 * norm_bound(st) * np.exp(2j * np.pi * np.arange(4) / 4)
        gaps = []
        for h in (0.04, 0.02, 0.01):
            traj = integrate(st, IntegratorConfig(t_end=1.0, h=h))
            end = traj.state_at(traj.n_samples - 1)
            cf = closed_form_resolvent(traj, zs)[-1]
            gaps.append(max(np.max(np.abs(r - dense_resolvent_block(end, z)))
                            for z, r in zip(zs, cf)))
        for coarse, fine in zip(gaps, gaps[1:]):
            assert 14.0 < coarse / fine < 18.0, gaps


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_neumann_terms_need_a_positive_tolerance(tol):
    st = random_state(0, 10)
    with pytest.raises(ValueError, match="tolerance must be > 0"):
        resolvent_block(st, 2.0 * norm_bound(st), tol=tol)


def _at_the_margin(m):
    st = random_state(0, m)
    rho = norm_bound(st)
    return st, resolvent.outside_margin(MARGIN * rho, 1.0, rho)


def test_neumann_terms_are_capped():
    # rho / |z| = 2/3 at the margin: the bound stalls at 5e-324, since
    # 5e-324 * 2/3 rounds back up to it, and would need endless terms
    st, z = _at_the_margin(12)
    with pytest.raises(SeriesCapError, match="stops shrinking at 4.94e-324"):
        resolvent_block(st, z, tol=5e-324)


def test_stalled_bound_is_refused_at_the_pass_that_stalls():
    # the scalar loop's passes up to the first that leaves the bound as it
    # was: about 1,900 at the margin, where the cap ran 100,001
    st, z = _at_the_margin(12)
    rho = norm_bound(st)
    ratio, bound, passes = rho / abs(z), 1.0 / (abs(z) - rho), 0
    while bound * ratio != bound:
        bound *= ratio
        passes += 1
    assert bound == 5e-324 and 1_000 < passes < 3_000
    with pytest.raises(SeriesCapError, match=f"after {passes + 1} terms"):
        resolvent_block(st, z, tol=5e-324)


def test_neumann_sum_past_the_float_range_is_refused_quietly():
    # about 1,400 powers of J at m = 64 overflow, and 0 * inf summed to NaN
    # under a finite tail bound
    st, z = _at_the_margin(64)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SeriesCapError, match="row 0, z = .* is not finite"):
            resolvent_block(st, z, tol=1e-250)
        with pytest.raises(SeriesCapError, match="row 1, z = .* is not finite"):
            resolvent_sweep(
                np.stack([st.a / 4, st.a]), np.stack([st.b / 4, st.b]),
                np.stack([st.c / 4, st.c]), [z], 1e-250,
            )


def test_nan_z_is_refused_by_the_margin():
    st = random_state(0, 10)
    with pytest.raises(ZTooSmallError):
        resolvent_block(st, complex(float("nan"), 0.0))


def _bands(states):
    """The band rows (a, b, c) of a list of states, one row per state."""
    return tuple(np.stack([getattr(s, x) for s in states]) for x in "abc")


@pytest.mark.parametrize("stack", [1, 3, 64])
def test_sweep_is_single_calls_bit_for_bit_in_stacks_of_any_size(
    monkeypatch, neumann_by_hand, stack
):
    # stacks of 1 and 3 rows (the last one short) and all 11 in one, swept
    # on the trajectory's band rows as the command line sweeps them. Rows
    # 3..5 and 9..10 are scaled by 2, so the stacks of 3 differ in their
    # term counts. At m = 24 and tol 1e-9 every slab is shorter than J, at
    # tol 1e-14 the scaled rows' slabs are the whole J, and at m = 12 all are
    slabs = []

    def dense_stack(*args):
        slabs.append(core.dense_stack(*args).shape)
        return core.dense_stack(*args)

    monkeypatch.setattr(resolvent, "dense_stack", dense_stack)
    for m, tol in ((24, 1e-9), (24, 1e-14), (12, 1e-14)):
        traj = integrate(random_state(2, m), IntegratorConfig(t_end=0.05, h=1e-3))
        states = [traj.state_at(k) for k in range(0, traj.n_samples, 5)]
        states = [
            LatticeState(2 * s.a, 2 * s.b, 2 * s.c) if i // 3 % 2 else s
            for i, s in enumerate(states)
        ]
        rho = [norm_bound(s) for s in states]
        zs = 2.5 * max(rho) * np.exp(2j * np.pi * np.arange(7) / 7)
        n = [max(resolvent_block(s, complex(z), tol).terms_used - 1 for z in zs)
             for s in states]
        assert (max(n) + 1 >= m) == (tol == 1e-14)
        lows = range(0, len(states), stack)
        if stack == 3:
            assert len({max(n[lo : lo + 3]) for lo in lows}) > 1
        monkeypatch.setattr(resolvent, "STACK_BYTES", stack * 16 * m * min(m, max(n) + 1))
        slabs.clear()
        values, tails = resolvent_sweep(*_bands(states), zs, tol)
        swept = list(slabs)
        expect = [[neumann_by_hand(s, complex(z), tol) for z in zs] for s in states]
        want_values = np.array([[v for v, _ in row] for row in expect])
        want_tails = np.array([[t for _, t in row] for row in expect])
        assert values.tobytes() == want_values.tobytes()
        assert tails.tobytes() == want_tails.tobytes()
        # each stack's slab holds the leading rows its own largest order reads
        assert swept == [
            (len(n[lo : lo + stack]), min(m, max(n[lo : lo + stack]) + 1), m)
            for lo in lows
        ]


def test_sweep_of_no_rows_or_no_points_is_empty():
    traj = integrate(random_state(2, 12), IntegratorConfig(t_end=0.01, h=1e-3))
    values, tails = resolvent_sweep(
        traj.a[:0], traj.b[:0], traj.c[:0], spectral_ring(traj, 3), 1e-10
    )
    assert values.shape == (0, 3, 2, 2) and tails.shape == (0, 3)
    values, tails = resolvent_sweep(traj.a, traj.b, traj.c, [], 1e-10)
    assert values.shape == (traj.n_samples, 0, 2, 2) and tails.shape == (traj.n_samples, 0)


def test_sweep_refuses_the_margin_where_single_calls_first_do():
    # (state 0, z 1) is inside the margin and comes first in (state, z)
    # order; in (z, state) order (state 1, z 0) would come first. Then two
    # states that clear the margin at every z go in front of both
    st = random_state(0, 12)
    big = LatticeState(2 * st.a, 2 * st.b, 2 * st.c)
    small = LatticeState(0.5 * st.a, 0.5 * st.b, 0.5 * st.c)
    r0, r1 = norm_bound(st), norm_bound(big)
    zs = [1.6 * r0, 1.4 * r0]
    assert 1.6 * r0 < MARGIN * r1 and 1.4 * r0 >= MARGIN * norm_bound(small)
    want = (
        f"|z| = {1.4 * r0:.6g} is below the safety margin "
        f"{MARGIN} * rho = {MARGIN * r0:.6g}"
    )
    for states in ([st, big], [small, small, st, big]):
        with pytest.raises(ZTooSmallError) as swept:
            resolvent_sweep(*_bands(states), zs, 1e-10)
        assert str(swept.value) == want


@pytest.mark.parametrize("band", ["a", "b", "c"])
def test_sweep_refuses_a_row_that_is_not_finite(band):
    # before any margin check: the inf row is also inside the margin
    traj = integrate(random_state(2, 12), IntegratorConfig(t_end=0.01, h=1e-3))
    bands = {x: getattr(traj, x)[[0, 5, 10]] for x in "abc"}
    bands[band][1, 3] = np.inf
    with pytest.raises(ValueError, match=r"must be finite \(row 1\)"):
        resolvent_sweep(bands["a"], bands["b"], bands["c"], spectral_ring(traj, 4), 1e-10)


@pytest.mark.parametrize("seed", [0, 1])
def test_ring_at_the_margin_clears_it_at_every_sample(seed):
    # mult = MARGIN rounds a point of these rings one ulp inside the margin
    # of norm_bound at some sample, and the resolvent sweep refused it
    traj = integrate(random_state(seed, 12), IntegratorConfig(t_end=0.01, h=1e-3))
    zs = spectral_ring(traj, 16, MARGIN)
    resolvent_sweep(traj.a, traj.b, traj.c, zs, 1e-10)
    rho_max = float(np.max(traj.norm_bounds()))
    plain = MARGIN * rho_max * np.exp(2j * np.pi * np.arange(16) / 16)
    moved = zs != plain
    assert moved.any()
    assert (np.abs(zs[moved]) > np.abs(plain[moved])).all()
    assert np.all(np.abs(zs[moved] - plain[moved]) < 1e-14 * rho_max)


def test_ring_away_from_the_margin_keeps_its_points():
    traj = integrate(random_state(0, 12), IntegratorConfig(t_end=0.01, h=1e-3))
    rho_max = float(np.max(traj.norm_bounds()))
    for mult, n in ((2.0, 32), (1.2, 8)):
        plain = mult * rho_max * np.exp(2j * np.pi * np.arange(n) / n)
        assert spectral_ring(traj, n, mult).tobytes() == plain.tobytes()
