import functools
import inspect
import json
import math
from collections import Counter

import numpy as np
import pytest

from kostant_toda import backends, resolvent, verify
from kostant_toda.dynamics import CorruptionSpec
from kostant_toda.moments import MomentFunctional, moments_from_recurrence
from kostant_toda.verify import (
    CONTROL_FLOOR,
    CONTROL_KINDS,
    CheckReport,
    reports_to_json,
    run_control,
    run_suite,
)

EXPECTED_IDS = [
    "lax_vs_coefficient_rhs",
    "isospectrality",
    "block_power_ode",
    "resolvent_ode",
    "polynomial_derivative_law",
    "moment_ode",
    "generating_ode",
    "functional_derivative",
    "laurent_consistency",
    "orthogonality",
    "chain_identity",
    "block_reconstruction",
    "moment_uniqueness",
    "closed_form_initial",
    "closed_form_resolvent",
    "exponential_moments",
    "exponential_tail_certificate",
    "neumann_tail_certificate",
    "fd_convergence_order",
    "control_freeze_b",
    "control_scale_c_rhs",
    "control_drop_commutator_term",
]


@pytest.fixture(scope="module")
def quick_reports():
    return run_suite(seeds=[0, 1])


def test_suite_passes_and_covers_everything(quick_reports):
    assert [r.id for r in quick_reports] == EXPECTED_IDS
    bad = [r.id for r in quick_reports if not r.passed]
    assert not bad, f"failing checks: {bad}"


def test_controls_detect_their_corruption(quick_reports):
    controls = [r for r in quick_reports if r.control]
    assert len(controls) == 3
    for r in controls:
        assert r.max_residual >= CONTROL_FLOOR
        assert r.threshold == CONTROL_FLOOR


def test_positive_margins_are_not_hollow(quick_reports):
    # every positive check must sit strictly below threshold, controls above
    for r in quick_reports:
        if r.control:
            assert r.max_residual > r.threshold
        else:
            assert r.max_residual <= r.threshold


def test_single_control_selection():
    reports = run_suite(seeds=[0], control="freeze-b")
    controls = [r for r in reports if r.control]
    assert [r.id for r in controls] == ["control_freeze_b"]
    with pytest.raises(ValueError):
        run_suite(seeds=[0], control="coffee")


def test_report_json_shape(quick_reports):
    doc = json.loads(reports_to_json(quick_reports))
    assert doc["schema"] == "kostant-toda-verify/1"
    assert doc["all_passed"] is True
    assert doc["backend"] == "numpy"
    assert len(doc["checks"]) == len(EXPECTED_IDS)
    for row in doc["checks"]:
        assert "runtime_s" not in row
        assert set(row) == {
            "id",
            "instance",
            "max_residual",
            "threshold",
            "passed",
            "control",
        }
    with_rt = json.loads(reports_to_json(quick_reports, include_runtime=True))
    assert "runtime_s" in with_rt["checks"][0]


def test_report_runtime_recorded(quick_reports):
    assert all(r.runtime_s >= 0 for r in quick_reports)


def test_run_control_rewrites_report():
    rep = run_control("scale-c-rhs", verify._flow_traj, [0])
    assert isinstance(rep, CheckReport)
    assert rep.id == "control_scale_c_rhs"
    assert rep.control
    assert rep.instance["corruption"] == "scale-c-rhs"
    assert rep.passed == (rep.max_residual >= CONTROL_FLOOR)


def test_control_kind_listing():
    assert CONTROL_KINDS == ("freeze-b", "scale-c-rhs", "drop-commutator-term")


@pytest.mark.parametrize("jobs", [0, -1])
def test_jobs_below_one_rejected(jobs):
    with pytest.raises(ValueError, match="jobs"):
        run_suite(seeds=[0], jobs=jobs)


def test_empty_seed_list_rejected():
    with pytest.raises(ValueError, match="seeds"):
        run_suite(seeds=[])


# every check_<name> that _check builds: all but the two with their own loop
BUILT_CHECKS = sorted(
    name for name in vars(verify)
    if name.startswith("check_")
    and name not in ("check_exponential_moments", "check_fd_convergence")
)


def _no_flow(seed):
    raise AssertionError("a check on no seeds read a flow")


@pytest.mark.parametrize("name", BUILT_CHECKS)
def test_check_with_no_residual_fails(name):
    check = getattr(verify, name)
    flow = (_no_flow,) * ("flow" in inspect.signature(check).parameters)
    rep = check([], *flow)
    assert rep.passed is False
    assert math.isnan(rep.max_residual)
    assert rep.instance["seeds"] == []


def test_check_folds_every_defect_of_every_seed():
    @verify._check("toy", 7.0, m=3, orders=[0, 2])
    def check_toy(seed, flow):
        """A toy law."""
        yield flow(seed)
        yield np.array([0.5, -2.0 * seed])

    rep = check_toy(range(4), lambda seed: 7.0 * (seed == 1))
    assert list(inspect.signature(check_toy).parameters) == ["seeds", "flow"]
    assert check_toy.__name__ == "check_toy" and check_toy.__doc__ == "A toy law."
    assert rep.id == "toy" and rep.threshold == 7.0
    assert list(rep.instance) == ["seeds", "m", "orders"]
    assert rep.instance == {"seeds": [0, 1, 2, 3], "m": 3, "orders": [0, 2]}
    assert rep.max_residual == 7.0  # the first yield of seed 1
    assert rep.passed is True
    assert rep.runtime_s >= 0
    assert rep.control is False
    # |-2 * 3|, the last entry of the second yield of the last seed
    assert check_toy([2, 3], lambda seed: 1.0).max_residual == 6.0


def test_check_keeps_a_nan_seen_after_finite_defects():
    @verify._check("toy", 1.0)
    def check_toy(seed):
        yield 0.25
        yield float("nan") if seed == 1 else 0.5
        yield 0.75

    assert list(inspect.signature(check_toy).parameters) == ["seeds"]
    rep = check_toy([0, 1, 2])
    assert math.isnan(rep.max_residual)
    assert rep.passed is False
    empty = check_toy([])
    assert math.isnan(empty.max_residual) and empty.passed is False
    assert empty.instance == {"seeds": []}


def _nan_residual(*args, **kwargs):
    return float("nan")


def _nan_recurrence(state, n_max):
    u = moments_from_recurrence(state, n_max)
    return MomentFunctional(np.full_like(u.moments, np.nan))


@pytest.mark.parametrize(
    "attr,fake,check",
    [
        pytest.param("moment_ode_residual", _nan_residual,
                     lambda: verify.check_moment_ode([0], verify._flow_traj),
                     id="moment_ode"),
        pytest.param("moment_ode_residual", _nan_residual,
                     lambda: verify.check_fd_convergence([0], verify._flow_traj),
                     id="fd_convergence"),
        pytest.param("moments_from_recurrence", _nan_recurrence,
                     lambda: verify.check_moment_uniqueness([0]), id="moment_uniqueness"),
        pytest.param("moment_ode_residual", _nan_residual,
                     lambda: run_control("scale-c-rhs", verify._flow_traj, [0]),
                     id="control_scale_c_rhs"),
    ],
)
def test_nan_residual_fails_the_check(monkeypatch, attr, fake, check):
    monkeypatch.setattr(verify, attr, fake)
    rep = check()
    assert rep.passed is False
    assert math.isnan(rep.max_residual)


def test_neumann_tail_probes_clear_the_margin_on_every_seed():
    # rounding put |z| = 1.5 rho e^{1.7i} one ulp inside the margin on 38
    # of these seeds, and the check raised ZTooSmallError
    r = verify.check_neumann_tail(range(100))
    assert r.passed, r.max_residual
    assert r.instance["multipliers"] == [1.5, 2.0, 4.0, 10.0]
    assert r.instance["tol"] == 1e-8


def test_closed_form_check_integrates_nothing(monkeypatch):
    traj = verify._flow_traj(0)

    def refuse(*args, **kwargs):
        raise AssertionError("the closed form integrated a flow of its own")

    monkeypatch.setattr(verify, "integrate", refuse)
    monkeypatch.setattr(resolvent, "integrate", refuse)
    assert verify.check_closed_form_resolvent([0], lambda seed: traj).passed


def test_suite_integrates_each_flow_once(monkeypatch):
    # every check that reads a seed's m = 12 flow shares one integration, and
    # no flow that takes a step is begun twice from one start: a longer
    # horizon continues the shared flow instead of repeating its prefix
    calls, starts = Counter(), Counter()

    def counting(integrate):
        def call(state, cfg, corruption=None):
            start = (state.a.tobytes(), state.b.tobytes(), state.c.tobytes(), state.t)
            calls[start + (cfg, corruption)] += 1
            if cfg.n_steps:
                starts[start + (cfg.h, corruption)] += 1
            return integrate(state, cfg, corruption)

        return call

    monkeypatch.setattr(verify, "integrate", counting(verify.integrate))
    monkeypatch.setattr(resolvent, "integrate", counting(resolvent.integrate))
    run_suite(seeds=[0, 1], control="freeze-b")
    assert calls and max(calls.values()) == 1, [n for n in calls.values() if n > 1]
    assert max(starts.values()) == 1, [n for n in starts.values() if n > 1]


def test_suite_on_one_seed_stays_within_its_step_budget(monkeypatch):
    # base flow 4,000 steps, its continuation to t = 1 4,000, the clean flow
    # of control seed 1 4,000 (the controls bend the vector field, not the
    # flow) and the isospectrality flow 1,000: a check that integrates a
    # side flow of its own shows up here
    steps = []
    rk4 = backends.rk4_trajectory

    def counting(y0, m, n_steps, h, corruption=None):
        steps.append(n_steps)
        return rk4(y0, m, n_steps, h, corruption)

    monkeypatch.setattr(backends, "rk4_trajectory", counting)
    run_suite(seeds=[0])
    assert 0 < sum(steps) <= 13_000, steps


def test_polynomial_derivative_law_holds_at_seed_494():
    # the central difference of the samples 2h apart read 1.2258e-5 here,
    # its own truncation error, against the threshold 1e-5
    r = verify.check_polynomial_derivative_law([494], verify._flow_traj)
    assert r.passed and r.max_residual <= 1e-11, r.max_residual


def test_controls_resolve_a_small_corruption(monkeypatch):
    # at magnitude 2e-3 each control reads at least 100x its paired check's
    # clean worst on the control seeds: 6.4e-2, 4.3e-3 and 4.0e-4 against
    # 8.2e-14, 1.3e-14 and 3.5e-15
    monkeypatch.setattr(verify, "CONTROL_MAGNITUDE", 2e-3)
    flow = functools.cache(verify._flow_traj)
    for kind, (_, check) in verify._CONTROL_PAIRING.items():
        clean = check(list(verify._CONTROL_SEEDS), flow).max_residual
        rep = run_control(kind, flow)
        assert rep.instance["magnitude"] == 2e-3
        assert rep.max_residual >= 100 * clean, (kind, rep.max_residual, clean)


def test_drop_commutator_control_clears_its_floor_tenfold():
    # the 0.5 rho ring reads 0.3995 at magnitude 2.0, where the 2 rho ring
    # alone read 0.01637, 1.64x the floor
    rep = run_control("drop-commutator-term", functools.cache(verify._flow_traj))
    assert rep.instance["z"] == "2 rho and 0.5 rho rings"
    assert rep.max_residual >= 10 * CONTROL_FLOOR


def test_isospectrality_on_100_seeds_holds_the_identity_at_roundoff(monkeypatch):
    # the check passes on seeds 0..99, and the identity behind it holds to
    # 1e-14 at t = 0 and t = 1 on every one of them
    defects = []
    exact = verify.characteristic_identity

    def recording(state, zs):
        p_m, defect = exact(state, zs)
        defects.append(defect)
        return p_m, defect

    monkeypatch.setattr(verify, "characteristic_identity", recording)
    r = verify.check_isospectrality(range(100))
    assert r.passed and r.threshold == 1e-6, r.max_residual
    assert r.instance["n_angles"] == 16 and r.instance["z"] == "1.5 rho(J(0)) ring"
    assert len(defects) == 200
    assert np.max(defects) <= 1e-14


@pytest.fixture(scope="module")
def clean_drift():
    return {seed: verify.check_isospectrality([seed]).max_residual for seed in (0, 1)}


@pytest.mark.parametrize("kind", CONTROL_KINDS)
def test_isospectrality_detects_a_corrupted_flow(monkeypatch, clean_drift, kind):
    # a 2e-3 defect in the flow moves P_m at least 1e4 times further than
    # RK4's own error does: 2.9e-5..4.3e-4 against 1.6e-13 and 7.1e-13
    spec = CorruptionSpec(kind, 2e-3)
    integrate = verify.integrate
    monkeypatch.setattr(
        verify, "integrate", lambda state, cfg: integrate(state, cfg, corruption=spec)
    )
    for seed, clean in clean_drift.items():
        assert verify.check_isospectrality([seed]).max_residual >= 1e4 * clean
