"""Cross-verification harness: every law the flow must satisfy, plus controls.

Each check measures the worst residual of one identity on seeded random
instances. A check is one generator of a seed's defects, decorated with
_check, which loops over the seeds and folds every defect into one worst
value. check_exponential_moments (two reports) and check_fd_convergence
(whose instance lists the ratios it measured) keep their own seed loop.
A check that reads the m = 12 flow takes it as flow(seed), so run_suite
integrates each seed's flow once for all of them. Positive checks must
come in under their threshold; negative controls rerun a paired check on
those flows read with a deliberately corrupted vector field and must
detect it (residual at least CONTROL_FLOOR). A NaN residual, or none at
all, fails either kind. All checks are deterministic given the seeds.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass
from types import SimpleNamespace

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
    Trajectory,
    integrate,
    kostant_rhs,
    lax_rhs,
)
from .moments import (
    apply_u,
    exponential_moments,
    functional_derivative_residual,
    moment_ode_residual,
    moments_from_j,
    moments_from_recurrence,
    reconstruct_blocks,
)
from .polynomials import (
    VectorPolynomial,
    characteristic_identity,
    derivative_law_residual,
    vector_polys,
)
from .resolvent import (
    closed_form_resolvent,
    dense_resolvent_block,
    generating_ode_residual,
    outside_margin,
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

    add() takes a defect (a number or an array) and folds its largest
    entry in absolute value with np.maximum, so a NaN, once seen, stays. A
    fold that saw no residual reports NaN. Either way the check cannot pass.
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


def _flow_traj(seed):
    cfg = IntegratorConfig(t_end=_FLOW["t_end"], h=_FLOW["h"])
    return integrate(random_state(seed, _FLOW["m"]), cfg)


def _check(check_id, threshold, **instance):
    """Make check(seeds[, flow]) from law(seed[, flow]), a generator of one
    seed's defects: the worst defect over all seeds, reported against
    threshold with instance {"seeds": list(seeds), **instance}. The check
    keeps the law's name and docstring, not its signature."""

    def decorate(law):
        def fold(seeds, *flow):
            worst = _Worst()
            for seed in seeds:
                for defect in law(seed, *flow):
                    worst.add(defect)
            return worst.report(check_id, {"seeds": list(seeds), **instance}, threshold)

        if law.__code__.co_argcount == 1:
            def check(seeds):
                return fold(seeds)
        else:
            def check(seeds, flow):
                return fold(seeds, flow)
        check.__name__ = check.__qualname__ = law.__name__
        check.__doc__ = law.__doc__
        return check

    return decorate


# ----------------------------------------------------------------------
# positive checks


@_check("lax_vs_coefficient_rhs", 1e-14, m=10)
def check_rhs_equivalence(seed):
    st = random_state(seed, 10)
    K = lax_rhs(st.dense())
    da, db, dc = kostant_rhs(st)
    yield K - (np.diag(da) + np.diag(db, -1) + np.diag(dc, -2))


@_check("isospectrality", 1e-6, m=8, h=1e-3, t_range=[0.0, 1.0], n_angles=16,
        z="1.5 rho(J(0)) ring")
def check_isospectrality(seed):
    """The flow conserves P_m = det(zI - J), so the spectrum with multiplicity.

    On 16 points at |z| = 1.5 rho, rho = norm_bound(J(0)): the larger of the
    defect of (zI - J) p(z) = P_m(z) e_m at t = 0 and 1 and the drift
    |P_m(z, 1) - P_m(z, 0)| / |P_m(z, 0)|. No eigenvalue exceeds rho, so
    |P_m(z, 0)| >= (0.5 rho)^m on the ring, and two monic polynomials of
    degree m < 16 that agree there are equal."""
    state = random_state(seed, 8)
    traj = integrate(state, IntegratorConfig(t_end=1.0, h=1e-3))
    zs = 1.5 * norm_bound(state) * np.exp(2j * np.pi * np.arange(16) / 16)
    p0, defect0 = characteristic_identity(state, zs)
    p1, defect1 = characteristic_identity(traj.state_at(traj.n_samples - 1), zs)
    yield [defect0, defect1, np.abs(p1 - p0) / np.abs(p0)]


@_check("block_power_ode", 1e-5, **_FLOW, orders=[1, 4], t_samples=list(_T_SAMPLES))
def check_block_power_ode(seed, flow):
    traj = flow(seed)
    for t in _T_SAMPLES:
        st, p, dp = traj.derivative(
            t, lambda states: leading_power_blocks(np.stack([s.dense() for s in states]), 5)
        )
        b1 = b_block(st, 1)
        d0 = d_block(st, 0)
        for n in range(1, 5):
            yield dp[n] - (p[n + 1] - p[n] @ b1 + commutator(p[n], d0))


def _rings(traj):
    """The 4 points on each of the 2 rho and 0.5 rho rings (spectral_ring) at
    which the resolvent laws are read, the inner ones inside the margin."""
    return np.concatenate([spectral_ring(traj, 4, mult) for mult in (2.0, 0.5)])


@_check("resolvent_ode", 1e-5, **_FLOW, n_angles=4, z="2 rho and 0.5 rho rings")
def check_resolvent_ode(seed, flow):
    traj = flow(seed)
    for z in _rings(traj):
        for t in (0.1, 0.4):
            yield resolvent_ode_residual(traj, z, t)


@_check("polynomial_derivative_law", 1e-5, **_FLOW, orders=[0, 4], z0="unit ring")
def check_polynomial_derivative_law(seed, flow):
    traj = flow(seed)
    z0s = np.exp(2j * np.pi * np.array([0.0, 1 / 3, 2 / 3]))
    for t in _T_SAMPLES:
        for n in range(5):
            yield derivative_law_residual(traj, n, t, z0s)


@_check("moment_ode", 1e-5, **_FLOW, orders=[0, 4])
def check_moment_ode(seed, flow):
    traj = flow(seed)
    for t in _T_SAMPLES:
        for n in range(5):
            yield moment_ode_residual(traj, n, t)


@_check("generating_ode", 1e-5, **_FLOW, n_angles=4, z="2 rho and 0.5 rho rings")
def check_generating_ode(seed, flow):
    traj = flow(seed)
    for zeta in _rings(traj):
        for t in (0.1, 0.4):
            yield generating_ode_residual(traj, zeta, t)


@_check("functional_derivative", 1e-5, **_FLOW, q_degrees=[3, 4])
def check_functional_derivative(seed, flow):
    traj = flow(seed)
    rng = np.random.default_rng(1000 + seed)
    top = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    bottom = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    q = VectorPolynomial(0, top, bottom)
    for t in _T_SAMPLES:
        yield functional_derivative_residual(traj, q, t)


@_check("laurent_consistency", 1e-8, **_FLOW, orders=[0, 3], ring=32)
def check_laurent_consistency(seed, flow):
    """Ring-sampled expansion coefficients of the generating-function ODE
    defect must match the per-order moment ODE defects."""
    traj = flow(seed)
    t, n_ring = 0.25, 32
    R = float(np.max(traj.norm_bounds())) * 2.0
    thetas = 2.0 * np.pi * np.arange(n_ring) / n_ring
    samples = np.array(
        [generating_ode_residual(traj, R * np.exp(1j * th), t) for th in thetas]
    )
    for n in range(4):
        phase = np.exp(1j * (n + 1) * thetas)
        coeff = R ** (n + 1) * np.tensordot(phase, samples, axes=(0, 0)) / n_ring
        yield coeff - moment_ode_residual(traj, n, t)


@_check("orthogonality", 1e-10, m=14, orders=[0, 4])
def check_orthogonality(seed):
    """U(z^j Bv_n) vanishes for j < n and equals C_n ... C_0 at j = n."""
    st = random_state(seed, 14)
    u = moments_from_j(st, 12)
    polys = vector_polys(st, 4)
    yield u.apply([1.0], [0.0, 1.0]) - np.eye(2, dtype=np.complex128)
    cprod = c0_block(st.a[0])
    yield apply_u(u, polys[0]) - cprod
    for n in range(1, 5):
        for j in range(n):
            yield apply_u(u, polys[n], shift=j)
        cprod = c_block(st, n) @ cprod
        yield apply_u(u, polys[n], shift=n) - cprod


@_check("chain_identity", 1e-10, m=14, orders=[1, 4])
def check_chain_identity(seed):
    """U(z^n Bv_n) = C_n U(z^{n-1} Bv_{n-1}) for n = 1..4."""
    st = random_state(seed, 14)
    u = moments_from_j(st, 12)
    polys = vector_polys(st, 4)
    for n in range(1, 5):
        lhs = apply_u(u, polys[n], shift=n)
        yield lhs - c_block(st, n) @ apply_u(u, polys[n - 1], shift=n - 1)


@_check("block_reconstruction", 1e-10, m=14, orders=[1, 4])
def check_block_reconstruction(seed):
    st = random_state(seed, 14)
    u = moments_from_j(st, 12)
    b_rec, c_rec = reconstruct_blocks(u, vector_polys(st, 4))
    yield c_rec[0] - c0_block(st.a[0])
    for n in range(1, 5):
        yield b_rec[n] - b_block(st, n)
        yield c_rec[n] - c_block(st, n)


@_check("moment_uniqueness", 1e-10, m=12, n_max=6)
def check_moment_uniqueness(seed):
    """The J-power and recurrence-condition constructions must agree."""
    st = random_state(seed, 12)
    ua = moments_from_j(st, 6)
    ub = moments_from_recurrence(st, 6)
    yield ua.moments - ub.moments
    yield ua.overlap_defect()


@_check("closed_form_initial", 1e-12, m=_FLOW["m"], n_angles=16, t=0.0)
def check_closed_form_initial(seed):
    state = random_state(seed, _FLOW["m"])
    traj = integrate(state, IntegratorConfig(t_end=0.0, h=_FLOW["h"]))
    zs = spectral_ring(traj, 16)
    for z, r in zip(zs, closed_form_resolvent(traj, zs)[0]):
        yield r - dense_resolvent_block(state, z)


@_check("closed_form_resolvent", 1e-4, m=_FLOW["m"], n_angles=16, t=_FLOW["t_end"])
def check_closed_form_resolvent(seed, flow):
    traj = flow(seed)
    zs = spectral_ring(traj, 16)
    end = traj.state_at(traj.n_samples - 1)
    for z, r in zip(zs, closed_form_resolvent(traj, zs)[-1]):
        yield r - dense_resolvent_block(end, z)


def check_exponential_moments(seeds, flow):
    """Series moments at t = 0.25 and 1 against moments_from_j on the flow.
    t = 1 is read from the shared flow continued from its last sample; the
    bands' derivative does not read t, so they equal a direct run. Two
    reports, so the check keeps its own seed loop."""
    worst, tail = _Worst(), _Worst()
    n_max, ts = 5, (0.25, 1.0)
    for seed in seeds:
        traj = flow(seed)
        state = traj.state_at(0)
        rest = IntegratorConfig(t_end=max(ts) - _FLOW["t_end"], h=_FLOW["h"])
        later = integrate(traj.state_at(traj.n_samples - 1), rest)
        for t in ts:
            em = exponential_moments(state, t, n_max)
            on = traj if t <= _FLOW["t_end"] else later
            direct = moments_from_j(on.state_at(on.index_of(t)), n_max)
            worst.add(em.functional.moments - direct.moments)
            tail.add(em.tail_bound)
    instance = {"seeds": list(seeds), "m": _FLOW["m"], "orders": [0, n_max], "ts": list(ts)}
    return [
        worst.report("exponential_moments", instance, 1e-5),
        tail.report("exponential_tail_certificate", dict(instance), 1e-12),
    ]


@_check("neumann_tail_certificate", 1.0, m=32, multipliers=[1.5, 2.0, 4.0, 10.0], tol=1e-8)
def check_neumann_tail(seed):
    """Dense-solve oracle must sit inside the reported tail bound. Probes
    at |z| = mult * rho that round inside the margin step |z| up to clear
    it (outside_margin)."""
    st = random_state(seed, 32)
    rho = norm_bound(st)
    for mult in (1.5, 2.0, 4.0, 10.0):
        for phase in (1.0, np.exp(1.7j)):
            z = outside_margin(mult * rho, phase, rho)
            rb = resolvent_block(st, z, tol=1e-8)
            err = np.max(np.abs(rb.value - dense_resolvent_block(st, z)))
            yield err / rb.tail_bound


def check_fd_convergence(seeds, flow):
    """The error of the samples' central difference against the exact
    derivative must fall about 4x from half-width 4h to 2h. The laws read
    the difference through a stand-in flow. The instance lists the ratios
    measured, so the check keeps its own seed loop."""

    def stencil(traj, k):
        def derivative(t, values_of):
            i = traj.index_of(t)
            values = values_of([traj.state_at(j) for j in (i, i - k, i + k)])
            return traj.state_at(i), values[0], (values[2] - values[1]) / (2 * k * traj.h)

        return SimpleNamespace(derivative=derivative)

    worst = _Worst()
    ratios = []
    for seed in seeds:
        traj = flow(seed)
        t = 0.25
        for fn in (
            lambda tr: moment_ode_residual(tr, 2, t),
            lambda tr: derivative_law_residual(tr, 2, t, [0.8]),
        ):
            exact = fn(traj)
            fine, coarse = (np.max(np.abs(fn(stencil(traj, k)) - exact)) for k in (2, 4))
            ratio = coarse / fine
            ratios.append(float(ratio))
            # distance outside the window [2.5, 6]; np.max keeps a NaN ratio
            worst.add(np.max([2.5 - ratio, ratio - 6.0, 0.0]))
    instance = {"seeds": list(seeds), **_FLOW, "ratios": ratios, "window": [2.5, 6.0]}
    return worst.report("fd_convergence_order", instance, 0.0)


# ----------------------------------------------------------------------
# negative controls: a corrupted vector field must be detected by the paired check

_CONTROL_PAIRING = {
    "freeze-b": ("control_freeze_b", check_polynomial_derivative_law),
    "scale-c-rhs": ("control_scale_c_rhs", check_moment_ode),
    "drop-commutator-term": ("control_drop_commutator_term", check_resolvent_ode),
}


def run_control(kind, flow, seeds=_CONTROL_SEEDS):
    check_id, fn = _CONTROL_PAIRING[kind]
    spec = CorruptionSpec(kind, CONTROL_MAGNITUDE)

    def bent(seed):  # the clean flow, read with the corrupted vector field
        traj = flow(seed)
        return Trajectory(traj.samples, traj.m, traj.h, traj.t0, spec)

    rep = fn(list(seeds), bent)
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
        *(run_control(kind, flow) for kind in control_kinds),
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
