"""Per-layer metrics of a traced run, named after the package's modules.

Times and counts are per pass: totals over the traced passes divided by
their number. A layer a workload never enters reads 0. pass.wall_s and
pass.reference_s are the untraced median pass time and the median time of
the reference kernel beside it, the two numbers wall_rel divides.
"""

from __future__ import annotations

import statistics

from harness import run_passes
from tracer import Tracer

CHECKS = (
    "rhs_equivalence", "isospectrality", "block_power_ode", "resolvent_ode",
    "polynomial_derivative_law", "moment_ode", "generating_ode", "functional_derivative",
    "laurent_consistency", "orthogonality", "chain_identity", "block_reconstruction",
    "moment_uniqueness", "closed_form_initial", "closed_form_resolvent",
    "exponential_moments", "neumann_tail", "fd_convergence",
)
CONTROLS = ("freeze-b", "scale-c-rhs", "drop-commutator-term")

# (span name, metrics of that span): calls, self time, or total time as wall_s
SPANS = (
    ("backends.rk4_trajectory", ("calls", "self_s")),
    ("dynamics.integrate", ("calls", "self_s")),
    ("dynamics.Trajectory.state_at", ("calls", "self_s")),
    ("dynamics.Trajectory.to_csv", ("self_s",)),
    ("core.LatticeState.dense", ("calls", "self_s")),
    ("core.norm_bound", ("calls",)),
    ("core.random_state", ("self_s",)),
    ("moments.moments_from_j", ("calls", "self_s")),
    ("moments.moment_ode_residual", ("self_s",)),
    ("moments.functional_derivative_residual", ("self_s",)),
    ("moments.exponential_moments", ("self_s",)),
    ("polynomials.scalar_polys", ("calls", "self_s")),
    ("polynomials.derivative_law_residual", ("self_s",)),
    ("resolvent.resolvent_block", ("calls", "self_s")),
    ("resolvent.dense_resolvent_block", ("calls", "self_s")),
    ("resolvent.integrate_with_closed_form", ("self_s",)),
    ("resolvent.closed_form_resolvent", ("self_s",)),
    ("resolvent.resolvent_ode_residual", ("self_s",)),
    ("resolvent.generating_ode_residual", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
    *((f"verify.check_{c}", ("wall_s",)) for c in CHECKS),
    *((f"verify.run_control.{k}", ("wall_s",)) for k in CONTROLS),
)
UNITS = {"calls": "count", "self_s": "s", "wall_s": "s"}

# Counters measured by tracer hooks (summed per pass) and by the oracles.
HOOK_COUNTS = (
    ("backends.rk4_trajectory.steps", "count"),
    ("resolvent.resolvent_block.terms", "count"),
    ("moments.exponential_moments.terms_used", "count"),
)
ORACLE_COUNTS = (
    ("resolvent.closed_form_resolvent.rows_over_tol", "count"),
    ("resolvent.closed_form_resolvent.rows_nonfinite", "count"),
    ("resolvent.closed_form_resolvent.max_diff", "1"),
)
DERIVED = (
    ("backends.rk4_trajectory.us_per_step", "us"),
    ("backends.rk4_trajectory.samples_mb", "MB"),
    ("dynamics.integrate.distinct", "count"),
    ("dynamics.integrate.useful_frac", "1"),
    ("trace.overhead_s", "s"),
    ("pass.wall_s", "s"),
    ("pass.reference_s", "s"),
)


def names():
    """Every per-layer metric with its unit, in report order."""
    out = [(f"{span}.{kind}", UNITS[kind]) for span, kinds in SPANS for kind in kinds]
    return out + list(HOOK_COUNTS) + list(ORACLE_COUNTS) + list(DERIVED)


def traced_run(workload, seconds):
    """Passes for seconds with the tracer installed; returns (tracer, record)."""
    tracer = Tracer()
    tracer.install()
    try:
        record = run_passes(workload, seconds, tracer)
    finally:
        tracer.uninstall()
    return tracer, record


def metrics(tracer, traced, untraced, oracle_counts):
    """The per-layer metrics object of a traced run."""
    n = max(traced.passes, 1)
    summary = tracer.summary()
    values = {}
    for span, kinds in SPANS:
        row = summary.get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for kind in kinds:
            values[f"{span}.{kind}"] = row["total_s" if kind == "wall_s" else kind] / n
    for key, _unit in HOOK_COUNTS:
        values[key] = tracer.counts[key] / n
    for key, _unit in ORACLE_COUNTS:
        values[key] = oracle_counts.get(key, 0)
    steps = values["backends.rk4_trajectory.steps"]
    calls = values["dynamics.integrate.calls"]
    distinct = len(tracer.distinct["dynamics.integrate"])
    values.update({
        "backends.rk4_trajectory.us_per_step": values["backends.rk4_trajectory.self_s"] / steps * 1e6 if steps else 0.0,
        "backends.rk4_trajectory.samples_mb": tracer.counts["backends.rk4_trajectory.samples_bytes"] / n / 1e6,
        "dynamics.integrate.distinct": distinct,
        "dynamics.integrate.useful_frac": distinct / calls if calls else 0.0,
        "trace.overhead_s": _median(traced.pass_s) - _median(untraced.pass_s),
        "pass.wall_s": _median(untraced.pass_s),
        "pass.reference_s": _median(untraced.ref_s),
    })
    return {key: {"value": values[key], "unit": unit} for key, unit in names()}


def _median(xs):
    return statistics.median(xs) if xs else 0.0
