"""Acceptance gate: ten criteria, one pass/fail line each.

Each criterion runs against the full default suite (ten seeds) at the
advertised tolerances. A criterion prints its verdict line and then
asserts, so `pytest -v` shows one PASSED/FAILED row per criterion and
`pytest -s` additionally shows the measured residuals.
"""

import numpy as np
import pytest

from kostant_toda.verify import (
    CONTROL_FLOOR,
    reports_to_json,
    run_suite,
)

EQUIVALENCE_IDS = (
    "block_power_ode",
    "resolvent_ode",
    "polynomial_derivative_law",
    "moment_ode",
    "generating_ode",
    "functional_derivative",
)

CONTROL_PAIRING = {
    "control_freeze_b": "polynomial_derivative_law",
    "control_scale_c_rhs": "moment_ode",
    "control_drop_commutator_term": "resolvent_ode",
}


@pytest.fixture(scope="module")
def reports():
    return {r.id: r for r in run_suite(seeds=list(range(10)))}


def _verdict(ok: bool, label: str, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_01_isospectrality(reports):
    r = reports["isospectrality"]
    _verdict(
        r.passed and r.threshold == 1e-6,
        "criterion 1 spectrum preserved along the flow",
        f"max relative det(zI - J) drift or (zI - J) p = P_m e_m defect "
        f"{r.max_residual:.3e} <= 1e-06 "
        f"(m=8, h=1e-3, t in [0,1], 16 points at |z| = 1.5 rho, 10 seeds)",
    )


def test_criterion_02_lax_equals_coefficient_rhs(reports):
    r = reports["lax_vs_coefficient_rhs"]
    _verdict(
        r.passed and r.threshold == 1e-14,
        "criterion 2 commutator matches the coefficient equations",
        f"max band/off-band defect {r.max_residual:.3e} <= 1e-14",
    )


def test_criterion_03_evolution_law_equivalences(reports):
    worst = {cid: reports[cid].max_residual for cid in EQUIVALENCE_IDS}
    ok = all(reports[cid].passed and reports[cid].threshold == 1e-5
             for cid in EQUIVALENCE_IDS)
    controls_ok = True
    for control_id, paired in CONTROL_PAIRING.items():
        r = reports[control_id]
        controls_ok &= r.passed and r.threshold == CONTROL_FLOOR and r.control
        assert paired in EQUIVALENCE_IDS
    _verdict(
        ok and controls_ok,
        "criterion 3 derivative-law suite with negative controls",
        "residuals "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + " all <= 1e-05; corrupted flows detected at >= 1e-02",
    )


def test_criterion_04_laurent_consistency(reports):
    r = reports["laurent_consistency"]
    _verdict(
        r.passed and r.threshold == 1e-8,
        "criterion 4 ring-sampled generating defect matches moment defects",
        f"max coefficient mismatch {r.max_residual:.3e} <= 1e-08 "
        f"(orders 0..3, 32-point ring)",
    )


def test_criterion_05_orthogonality_chain_reconstruction(reports):
    ids = ("orthogonality", "chain_identity", "block_reconstruction",
           "moment_uniqueness")
    ok = all(reports[i].passed and reports[i].threshold == 1e-10 for i in ids)
    detail = ", ".join(f"{i}={reports[i].max_residual:.2e}" for i in ids)
    _verdict(
        ok,
        "criterion 5 moment functional structure",
        detail + " all <= 1e-10",
    )


def test_criterion_06_closed_form_resolvent(reports):
    r0 = reports["closed_form_initial"]
    rt = reports["closed_form_resolvent"]
    _verdict(
        r0.passed and r0.threshold == 1e-12
        and rt.passed and rt.threshold == 1e-4
        and rt.instance["n_angles"] == 16 and rt.instance["t"] == 0.5,
        "criterion 6 closed form reproduces the resolvent",
        f"t=0 defect {r0.max_residual:.3e} <= 1e-12, "
        f"t=0.5 defect {rt.max_residual:.3e} <= 1e-04 on 16 ring points",
    )


def test_criterion_07_exponential_moments(reports):
    rm = reports["exponential_moments"]
    rt = reports["exponential_tail_certificate"]
    _verdict(
        rm.passed and rm.threshold == 1e-5
        and rt.passed and rt.threshold == 1e-12
        and rm.instance["orders"] == [0, 5] and max(rm.instance["ts"]) == 1.0,
        "criterion 7 exponential series evolves the moments",
        f"max mismatch {rm.max_residual:.3e} <= 1e-05 for t <= 1, k <= 5; "
        f"series tails {rt.max_residual:.3e} <= 1e-12",
    )


def test_criterion_08_neumann_tail_certificate(reports):
    r = reports["neumann_tail_certificate"]
    _verdict(
        r.passed and r.threshold == 1.0,
        "criterion 8 truncation error stays inside the certified tail",
        f"worst error/bound ratio {r.max_residual:.3e} <= 1",
    )


def test_criterion_09_step_halving_convergence(reports):
    r = reports["fd_convergence_order"]
    ratios = r.instance["ratios"]
    _verdict(
        r.passed and all(2.5 <= x <= 6.0 for x in ratios),
        "criterion 9 residuals scale like the square of the step",
        f"halving ratios {[round(x, 2) for x in ratios]} inside [2.5, 6]",
    )


def test_criterion_10_deterministic_reports():
    doc1 = reports_to_json(run_suite(seeds=[0, 1], jobs=4))
    doc2 = reports_to_json(run_suite(seeds=[0, 1]))
    _verdict(
        doc1 == doc2,
        "criterion 10 byte-identical reports for identical configuration",
        f"{len(doc1)} bytes, jobs=4 and jobs=1 runs agree",
    )
