import json
import math
from collections import Counter

import numpy as np
import pytest

from kostant_toda import resolvent, verify
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
    rep = run_control("scale-c-rhs", [0])
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


def test_check_with_no_residual_fails():
    rep = verify.check_moment_uniqueness([])
    assert rep.passed is False
    assert math.isnan(rep.max_residual)


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
                     lambda: run_control("scale-c-rhs", [0]), id="control_scale_c_rhs"),
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
