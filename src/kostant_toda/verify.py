"""Cross-verification harness: every law the flow must satisfy, plus controls.

Each check measures the worst residual of one identity on seeded random
instances. A check that reads the m = 12 flow takes it as flow(seed), so
run_suite integrates each seed's flow once for all of them. Positive
checks must come in under their threshold; negative controls rerun a
paired check on a deliberately corrupted flow and must detect it
(residual at least CONTROL_FLOOR).
A NaN residual, or none at all, fails either kind. All checks are
deterministic given the seeds.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from .backends import active_backend
from .core import (
    b_block,
    c0_block,
    c_block,
    commutator,
    d_block,
    leading_power_blocks,
    norm_bound,
    random_state,
)
from .dynamics import (
    CORRUPTION_KINDS,
    CorruptionSpec,
    IntegratorConfig,
    central_diff,
    integrate,
    kostant_rhs,
    lax_rhs,
)
from .moments import (
    _moment_ode_residual_matrix,
    apply_u,
    exponential_moments,
    functional_derivative_residual,
    moment_ode_residual,
    moments_from_j,
    moments_from_recurrence,
    reconstruct_blocks,
)
from .polynomials import VectorPolynomial, derivative_law_residual, vector_polys
from .resolvent import (
    MARGIN,
    _generating_ode_residual_matrix,
    closed_form_resolvent,
    dense_resolvent_block,
    generating_ode_residual,
    resolvent_block,
    resolvent_ode_residual,
    spectral_ring,
)

__all__ = [
    "CheckReport",
    "CONTROL_FLOOR",
    "CONTROL_KINDS",
    "reports_to_json",
    "run_suite",
]

CONTROL_FLOOR = 1e-2
CONTROL_KINDS = CORRUPTION_KINDS
CONTROL_MAGNITUDE = 2.0
_CONTROL_SEEDS = (0, 1)

_FLOW = dict(m=12, t_end=0.5, h=1.25e-4)
_T_SAMPLES = (0.1, 0.25, 0.4)


@dataclass
class CheckReport:
    """Outcome of one check.

    For positive checks passed means max_residual <= threshold. For
    controls (control=True) passed means the corruption was detected,
    i.e. max_residual >= threshold.
    """

    id: str
    instance: dict
    max_residual: float
    threshold: float
    passed: bool
    runtime_s: float
    control: bool = False


class _Worst:
    """Worst |residual| seen by one check, and the check's wall clock.

    add() folds with np.maximum, so a NaN, once seen, stays. A fold that saw
    no residual reports NaN. Either way the check cannot pass.
    """

    def __init__(self):
        self.t0 = time.perf_counter()
        self.value = -np.inf

    def add(self, residual):
        self.value = np.maximum(self.value, np.max(np.abs(residual)))

    def report(self, check_id, instance, threshold):
        worst = float(self.value) if self.value >= 0 else float("nan")
        return CheckReport(
            id=check_id,
            instance=instance,
            max_residual=worst,
            threshold=threshold,
            passed=worst <= threshold,
            runtime_s=time.perf_counter() - self.t0,
        )


def _flow_traj(seed, corruption=None, h=_FLOW["h"]):
    cfg = IntegratorConfig(t_end=_FLOW["t_end"], h=h)
    return integrate(random_state(seed, _FLOW["m"]), cfg, corruption=corruption)


# ----------------------------------------------------------------------
# positive checks


def check_rhs_equivalence(seeds):
    worst = _Worst()
    for seed in seeds:
        st = random_state(seed, 10)
        K = lax_rhs(st.dense())
        da, db, dc = kostant_rhs(st)
        worst.add(np.diagonal(K) - da)
        worst.add(np.diagonal(K, -1) - db)
        worst.add(np.diagonal(K, -2) - dc)
        mask = np.ones_like(K, dtype=bool)
        idx = np.arange(10)
        mask[idx, idx] = False
        mask[idx[1:], idx[:-1]] = False
        mask[idx[2:], idx[:-2]] = False
        worst.add(K[mask])
    return worst.report("lax_vs_coefficient_rhs", {"seeds": list(seeds), "m": 10}, 1e-14)


def check_isospectrality(seeds):
    worst = _Worst()
    for seed in seeds:
        state = random_state(seed, 8)
        traj = integrate(state, IntegratorConfig(t_end=1.0, h=1e-3))
        lam0 = np.linalg.eigvals(traj.state_at(0).dense())
        lam1 = np.linalg.eigvals(traj.state_at(traj.n_samples - 1).dense())
        scale = max(1.0, float(np.max(np.abs(lam0))))
        used = np.zeros(lam1.size, dtype=bool)
        for lv in lam0:
            d = np.abs(lam1 - lv)
            d[used] = np.inf
            j = int(np.argmin(d))
            used[j] = True
            worst.add(float(d[j]) / scale)
    return worst.report(
        "isospectrality",
        {"seeds": list(seeds), "m": 8, "h": 1e-3, "t_range": [0.0, 1.0]},
        1e-6,
    )


def check_block_power_ode(seeds, flow):
    worst = _Worst()
    for seed in seeds:
        traj = flow(seed)
        for t in _T_SAMPLES:
            st, points = traj.stencil(t)
            dp = central_diff([leading_power_blocks(s, 4) for s in points], traj.h)
            b1 = b_block(st, 1)
            d0 = d_block(st, 0)
            p = leading_power_blocks(st, 5)
            for n in range(1, 5):
                worst.add(dp[n] - (p[n + 1] - p[n] @ b1 + commutator(p[n], d0)))
    return worst.report(
        "block_power_ode",
        {"seeds": list(seeds), **_FLOW, "orders": [1, 4], "t_samples": list(_T_SAMPLES)},
        1e-5,
    )


def check_resolvent_ode(seeds, flow):
    worst = _Worst()
    n_angles = 4
    for seed in seeds:
        traj = flow(seed)
        for z in spectral_ring(traj, n_angles):
            for t in (0.1, 0.4):
                worst.add(resolvent_ode_residual(traj, z, t))
    return worst.report(
        "resolvent_ode",
        {"seeds": list(seeds), **_FLOW, "n_angles": n_angles, "z": "2 rho ring"},
        1e-5,
    )


def check_polynomial_derivative_law(seeds, flow):
    worst = _Worst()
    z0s = np.exp(2j * np.pi * np.array([0.0, 1 / 3, 2 / 3]))
    for seed in seeds:
        traj = flow(seed)
        for t in _T_SAMPLES:
            for n in range(5):
                for z0 in z0s:
                    worst.add(derivative_law_residual(traj, n, t, z0))
    return worst.report(
        "polynomial_derivative_law",
        {"seeds": list(seeds), **_FLOW, "orders": [0, 4], "z0": "unit ring"},
        1e-5,
    )


def check_moment_ode(seeds, flow):
    worst = _Worst()
    for seed in seeds:
        traj = flow(seed)
        for t in _T_SAMPLES:
            for n in range(5):
                worst.add(moment_ode_residual(traj, n, t))
    return worst.report(
        "moment_ode", {"seeds": list(seeds), **_FLOW, "orders": [0, 4]}, 1e-5
    )


def check_generating_ode(seeds, flow):
    worst = _Worst()
    n_angles = 4
    for seed in seeds:
        traj = flow(seed)
        for zeta in spectral_ring(traj, n_angles):
            for t in (0.1, 0.4):
                worst.add(generating_ode_residual(traj, zeta, t))
    return worst.report(
        "generating_ode", {"seeds": list(seeds), **_FLOW, "n_angles": n_angles}, 1e-5
    )


def check_functional_derivative(seeds, flow):
    worst = _Worst()
    for seed in seeds:
        traj = flow(seed)
        rng = np.random.default_rng(1000 + seed)
        top = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        bottom = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        q = VectorPolynomial(0, top, bottom)
        for t in _T_SAMPLES:
            worst.add(functional_derivative_residual(traj, q, t))
    return worst.report(
        "functional_derivative",
        {"seeds": list(seeds), **_FLOW, "q_degrees": [3, 4]},
        1e-5,
    )


def check_laurent_consistency(seeds, flow):
    """Ring-sampled expansion coefficients of the generating-function ODE
    defect must match the per-order moment ODE defects."""
    worst = _Worst()
    t, n_orders, n_ring = 0.25, 4, 32
    for seed in seeds:
        traj = flow(seed)
        R = float(np.max(traj.norm_bounds())) * 2.0
        thetas = 2.0 * np.pi * np.arange(n_ring) / n_ring
        samples = np.empty((n_ring, 2, 2), dtype=np.complex128)
        for j, th in enumerate(thetas):
            zeta = R * np.exp(1j * th)
            samples[j] = _generating_ode_residual_matrix(traj, zeta, t, tol=1e-14)
        for n in range(n_orders):
            phase = np.exp(1j * (n + 1) * thetas)
            coeff = R ** (n + 1) * np.tensordot(phase, samples, axes=(0, 0)) / n_ring
            worst.add(coeff - _moment_ode_residual_matrix(traj, n, t))
    return worst.report(
        "laurent_consistency",
        {"seeds": list(seeds), **_FLOW, "orders": [0, n_orders - 1], "ring": n_ring},
        1e-8,
    )


def check_orthogonality(seeds):
    """U(z^j Bv_n) vanishes for j < n and equals C_n ... C_0 at j = n."""
    worst = _Worst()
    for seed in seeds:
        st = random_state(seed, 14)
        u = moments_from_j(st, 12)
        polys = vector_polys(st, 4)
        worst.add(u.apply([1.0], [0.0, 1.0]) - np.eye(2, dtype=np.complex128))
        cprod = c0_block(st.a[0])
        worst.add(apply_u(u, polys[0]) - cprod)
        for n in range(1, 5):
            for j in range(n):
                worst.add(apply_u(u, polys[n], shift=j))
            cprod = c_block(st, n) @ cprod
            worst.add(apply_u(u, polys[n], shift=n) - cprod)
    return worst.report(
        "orthogonality", {"seeds": list(seeds), "m": 14, "orders": [0, 4]}, 1e-10
    )


def check_chain_identity(seeds):
    """U(z^n Bv_n) = C_n U(z^{n-1} Bv_{n-1}) for n = 1..4."""
    worst = _Worst()
    for seed in seeds:
        st = random_state(seed, 14)
        u = moments_from_j(st, 12)
        polys = vector_polys(st, 4)
        for n in range(1, 5):
            lhs = apply_u(u, polys[n], shift=n)
            rhs = c_block(st, n) @ apply_u(u, polys[n - 1], shift=n - 1)
            worst.add(lhs - rhs)
    return worst.report(
        "chain_identity", {"seeds": list(seeds), "m": 14, "orders": [1, 4]}, 1e-10
    )


def check_block_reconstruction(seeds):
    worst = _Worst()
    for seed in seeds:
        st = random_state(seed, 14)
        u = moments_from_j(st, 12)
        polys = vector_polys(st, 4)
        b_rec, c_rec = reconstruct_blocks(u, polys)
        worst.add(c_rec[0] - c0_block(st.a[0]))
        for n in range(1, 5):
            worst.add(b_rec[n] - b_block(st, n))
            worst.add(c_rec[n] - c_block(st, n))
    return worst.report(
        "block_reconstruction",
        {"seeds": list(seeds), "m": 14, "orders": [1, 4]},
        1e-10,
    )


def check_moment_uniqueness(seeds):
    """The J-power and recurrence-condition constructions must agree."""
    worst = _Worst()
    for seed in seeds:
        st = random_state(seed, 12)
        ua = moments_from_j(st, 6)
        ub = moments_from_recurrence(st, 6)
        worst.add(ua.moments - ub.moments)
        worst.add(ua.overlap_defect())
    return worst.report(
        "moment_uniqueness", {"seeds": list(seeds), "m": 12, "n_max": 6}, 1e-10
    )


def check_closed_form_initial(seeds):
    worst = _Worst()
    n_angles = 16
    for seed in seeds:
        state = random_state(seed, _FLOW["m"])
        rho0 = norm_bound(state)
        zs = 2.0 * rho0 * np.exp(2j * np.pi * np.arange(n_angles) / n_angles)
        traj = integrate(state, IntegratorConfig(t_end=0.0, h=_FLOW["h"]))
        for z, r in zip(zs, closed_form_resolvent(traj, zs)[0]):
            worst.add(r - dense_resolvent_block(state, z))
    return worst.report(
        "closed_form_initial",
        {"seeds": list(seeds), "m": _FLOW["m"], "n_angles": n_angles, "t": 0.0},
        1e-12,
    )


def check_closed_form_resolvent(seeds, flow):
    worst = _Worst()
    n_angles, t = 16, _FLOW["t_end"]
    for seed in seeds:
        traj = flow(seed)
        zs = spectral_ring(traj, n_angles)
        end = traj.state_at(traj.n_samples - 1)
        for z, r in zip(zs, closed_form_resolvent(traj, zs)[-1]):
            worst.add(r - dense_resolvent_block(end, z))
    return worst.report(
        "closed_form_resolvent",
        {"seeds": list(seeds), "m": _FLOW["m"], "n_angles": n_angles, "t": t},
        1e-4,
    )


def check_exponential_moments(seeds, flow):
    """Series moments at t = 0.25 and 1 against moments_from_j on the flow.
    t = 1 is read from the shared flow continued from its last sample; the
    bands' derivative reads neither t nor q, so they equal a direct run."""
    worst, tail = _Worst(), _Worst()
    n_max, ts = 5, (0.25, 1.0)
    for seed in seeds:
        traj = flow(seed)
        state = traj.state_at(0)
        rho = norm_bound(state)
        entry = (1.0 + abs(state.a[0])) ** 2
        u0 = moments_from_j(state, 60, require_locality=False)
        rest = IntegratorConfig(t_end=max(ts) - _FLOW["t_end"], h=_FLOW["h"])
        later = integrate(traj.state_at(traj.n_samples - 1), rest)
        for t in ts:
            em = exponential_moments(u0, t, n_max, rho, entry_coeff=entry)
            on = traj if t <= _FLOW["t_end"] else later
            direct = moments_from_j(on.state_at(on.index_of(t)), n_max)
            worst.add(em.functional.moments - direct.moments)
            tail.add(em.tail_bound)
    instance = {
        "seeds": list(seeds), "m": _FLOW["m"], "orders": [0, n_max], "ts": list(ts)
    }
    return [
        worst.report("exponential_moments", instance, 1e-5),
        tail.report("exponential_tail_certificate", dict(instance), 1e-12),
    ]


def check_neumann_tail(seeds):
    """Dense-solve oracle must sit inside the reported tail bound. Probes
    at |z| = mult * rho rounded inside MARGIN * rho step |z| up to clear it."""
    worst = _Worst()
    multipliers, tol = (1.5, 2.0, 4.0, 10.0), 1e-8
    for seed in seeds:
        st = random_state(seed, 32)
        rho = norm_bound(st)
        for mult in multipliers:
            for phase in (1.0, np.exp(1.7j)):
                r = mult * rho
                while abs(r * phase) < MARGIN * rho:
                    r = np.nextafter(r, np.inf)
                z = r * phase
                rb = resolvent_block(st, z, tol=tol)
                err = np.max(np.abs(rb.value - dense_resolvent_block(st, z)))
                worst.add(err / rb.tail_bound)
    return worst.report(
        "neumann_tail_certificate",
        {"seeds": list(seeds), "m": 32, "multipliers": list(multipliers), "tol": tol},
        1.0,
    )


def check_fd_convergence(seeds, flow):
    """Halving h must cut the stencil-limited residuals by about 4."""
    worst = _Worst()
    ratios = []
    for seed in seeds:
        coarse = flow(seed)
        fine = _flow_traj(seed, h=_FLOW["h"] / 2)
        t = 0.25
        for fn in (
            lambda tr: moment_ode_residual(tr, 2, t),
            lambda tr: derivative_law_residual(tr, 2, t, 0.8),
        ):
            ratio = fn(coarse) / fn(fine)
            ratios.append(float(ratio))
            # distance outside the window [2.5, 6]; np.max keeps a NaN ratio
            worst.add(np.max([2.5 - ratio, ratio - 6.0, 0.0]))
    return worst.report(
        "fd_convergence_order",
        {"seeds": list(seeds), **_FLOW, "ratios": ratios, "window": [2.5, 6.0]},
        0.0,
    )


# ----------------------------------------------------------------------
# negative controls: corrupted flows must be detected by the paired check

_CONTROL_PAIRING = {
    "freeze-b": ("control_freeze_b", check_polynomial_derivative_law),
    "scale-c-rhs": ("control_scale_c_rhs", check_moment_ode),
    "drop-commutator-term": ("control_drop_commutator_term", check_resolvent_ode),
}


def run_control(kind, seeds=_CONTROL_SEEDS):
    check_id, fn = _CONTROL_PAIRING[kind]
    spec = CorruptionSpec(kind, CONTROL_MAGNITUDE)
    rep = fn(list(seeds), functools.partial(_flow_traj, corruption=spec))
    rep.id = check_id
    rep.threshold = CONTROL_FLOOR
    rep.passed = rep.max_residual >= CONTROL_FLOOR
    rep.control = True
    rep.instance = {
        **rep.instance,
        "corruption": kind,
        "magnitude": CONTROL_MAGNITUDE,
    }
    return rep


# ----------------------------------------------------------------------


def run_suite(seeds=None, quick=False, control=None, jobs=1):
    """Run every check; returns the list of CheckReports in a fixed order.

    control restricts the negative controls to one kind (default all).
    Controls always run on fixed probe seeds so their detection margin
    does not depend on the seed list. seeds must not be empty. jobs must
    be >= 1 and is otherwise ignored: checks run serially, because numpy's
    small operations hold the GIL and a thread pool made the suite no
    faster.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if seeds is None:
        seeds = list(range(3 if quick else 10))
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must not be empty")
    control_kinds = CONTROL_KINDS if control is None else (control,)
    if any(k not in CONTROL_KINDS for k in control_kinds):
        raise ValueError(f"unknown control kind {control!r}")

    # each seed's flow is integrated by the first check that reads it and
    # freed when the suite returns; checks only read it
    flow = functools.cache(_flow_traj)
    return [
        check_rhs_equivalence(seeds),
        check_isospectrality(seeds),
        check_block_power_ode(seeds, flow),
        check_resolvent_ode(seeds, flow),
        check_polynomial_derivative_law(seeds, flow),
        check_moment_ode(seeds, flow),
        check_generating_ode(seeds, flow),
        check_functional_derivative(seeds, flow),
        check_laurent_consistency(seeds[:3], flow),
        check_orthogonality(seeds),
        check_chain_identity(seeds),
        check_block_reconstruction(seeds),
        check_moment_uniqueness(seeds),
        check_closed_form_initial(seeds),
        check_closed_form_resolvent(seeds, flow),
        *check_exponential_moments(seeds, flow),
        check_neumann_tail(seeds[:3]),
        check_fd_convergence(seeds[:2], flow),
        *(run_control(kind) for kind in control_kinds),
    ]


def reports_to_json(reports, include_runtime: bool = False) -> str:
    """Serialize reports deterministically; wall-clock is omitted by default
    so identical runs produce identical bytes."""
    rows = []
    for r in reports:
        d = asdict(r)
        if not include_runtime:
            d.pop("runtime_s")
        rows.append(d)
    doc = {
        "schema": "kostant-toda-verify/1",
        "backend": active_backend(),
        "all_passed": all(r.passed for r in reports),
        "checks": rows,
    }
    return json.dumps(doc, indent=2)
