"""Command line front end.

Subcommands:
  simulate   integrate an instance and write the trajectory as CSV
  verify     run the cross-verification suite, optionally writing a report
  resolvent  sweep the leading 2x2 resolvent block over a spectral ring
  moments    dump moment blocks as JSON (power, conditions, or series method)
  polys      dump scalar and vector polynomial coefficients as JSON

Options may come from a JSON file via --config; explicit flags win.
Complex values in JSON are [re, im] pairs; floats in CSV use %.17g.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical abort (subdiagonal underflow, series cap, margin violation).
"""

from __future__ import annotations

import argparse
import json
import sys
from types import SimpleNamespace

import numpy as np

from .core import LatticeState, norm_bound, random_state
from .dynamics import CNearZeroError, CorruptionSpec, IntegratorConfig, integrate
from .moments import (
    SeriesCapError,
    exponential_moments,
    moments_from_j,
    moments_from_recurrence,
)
from .polynomials import scalar_polys, vector_polys
from .resolvent import (
    ZTooSmallError,
    closed_form_resolvent,
    integrate_with_closed_form,
    resolvent_block,
)
from .verify import CONTROL_KINDS, reports_to_json, run_suite

__all__ = ["main"]

_SPECS = {
    "simulate": {
        "seed": 0,
        "m": 12,
        "t_end": 1.0,
        "h": 1e-3,
        "state": None,
        "corruption": None,
        "magnitude": 0.1,
        "out": None,
    },
    "verify": {
        "quick": False,
        "seeds": None,
        "control": None,
        "jobs": 1,
        "report": None,
    },
    "resolvent": {
        "seed": 0,
        "m": 12,
        "state": None,
        "t_end": 1.0,
        "h": 1e-3,
        "angles": 8,
        "radius_mult": 2.0,
        "tol": 1e-10,
        "stride": None,
        "closed_form": False,
        "out": None,
    },
    "moments": {
        "seed": 0,
        "m": 12,
        "state": None,
        "n_max": 6,
        "method": "power",
        "t": 0.0,
        "h": 1e-3,
        "out": None,
    },
    "polys": {
        "seed": 0,
        "m": 12,
        "state": None,
        "count": 4,
        "out": None,
    },
}


def _pair(z) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _pairs(arr):
    a = np.asarray(arr)
    if a.ndim == 0:
        return _pair(a[()])
    return [_pairs(x) for x in a]


def _parse_complex(x) -> complex:
    if isinstance(x, (list, tuple)):
        if len(x) != 2:
            raise ValueError(f"complex entries must be [re, im] pairs, got {x!r}")
        return complex(float(x[0]), float(x[1]))
    if isinstance(x, (int, float)):
        return complex(float(x), 0.0)
    raise ValueError(f"cannot read {x!r} as a complex number")


def _load_state(path: str) -> LatticeState:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("state file must hold a JSON object")
    extra = set(doc) - {"a", "b", "c", "t"}
    if extra:
        raise ValueError(f"unknown state field {sorted(extra)[0]!r}")
    for key in ("a", "b", "c"):
        if key not in doc:
            raise ValueError(f"state file missing field {key!r}")
    return LatticeState(
        a=np.array([_parse_complex(x) for x in doc["a"]], dtype=np.complex128),
        b=np.array([_parse_complex(x) for x in doc["b"]], dtype=np.complex128),
        c=np.array([_parse_complex(x) for x in doc["c"]], dtype=np.complex128),
        t=float(doc.get("t", 0.0)),
    )


def _instance(ns) -> LatticeState:
    if getattr(ns, "state", None):
        return _load_state(ns.state)
    return random_state(ns.seed, ns.m)


def _emit(text: str, out: str | None, what: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {what} to {out}")


def _merged(args: argparse.Namespace, command: str) -> SimpleNamespace:
    spec = _SPECS[command]
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
        for key in cfg:
            if key not in spec:
                raise ValueError(f"unknown config field {key!r} for {command}")
    merged = {}
    for key, default in spec.items():
        cli_val = getattr(args, key)
        merged[key] = cli_val if cli_val is not None else cfg.get(key, default)
    return SimpleNamespace(**merged)


# ----------------------------------------------------------------------
# subcommand bodies


def _cmd_simulate(ns) -> int:
    state = _instance(ns)
    corruption = (
        CorruptionSpec(ns.corruption, float(ns.magnitude)) if ns.corruption else None
    )
    traj = integrate(
        state, IntegratorConfig(t_end=float(ns.t_end), h=float(ns.h)), corruption
    )
    _emit(traj.to_csv_string(), ns.out, f"{traj.n_samples} samples")
    return 0


def _cmd_verify(ns) -> int:
    seeds = ns.seeds
    if isinstance(seeds, str):
        seeds = [int(s) for s in seeds.split(",") if s.strip()]
    if ns.control is not None and ns.control not in CONTROL_KINDS:
        raise ValueError(
            f"unknown control {ns.control!r}; pick one of {', '.join(CONTROL_KINDS)}"
        )
    reports = run_suite(
        seeds=seeds, quick=bool(ns.quick), control=ns.control, jobs=int(ns.jobs)
    )
    for r in reports:
        tag = "PASS" if r.passed else "FAIL"
        kind = "  [control]" if r.control else ""
        print(
            f"[{tag}] {r.id:<32s} max_residual={r.max_residual:.3e} "
            f"threshold={r.threshold:.1e}  ({r.runtime_s:.2f}s){kind}"
        )
    n_fail = sum(not r.passed for r in reports)
    print(f"{len(reports)} checks: {len(reports) - n_fail} passed, {n_fail} failed")
    if ns.report:
        with open(ns.report, "w") as fh:
            fh.write(reports_to_json(reports))
        print(f"wrote report to {ns.report}")
    return 1 if n_fail else 0


def _cmd_resolvent(ns) -> int:
    state = _instance(ns)
    cfg = IntegratorConfig(t_end=float(ns.t_end), h=float(ns.h))
    probe = integrate(state, cfg)
    rho_max = float(np.max(probe.norm_bounds()))
    n_angles = int(ns.angles)
    zs = (
        float(ns.radius_mult)
        * rho_max
        * np.exp(2j * np.pi * np.arange(n_angles) / n_angles)
    )
    traj = (
        integrate_with_closed_form(state, cfg, zs) if ns.closed_form else probe
    )
    closed = {z: closed_form_resolvent(traj, z) for z in zs} if ns.closed_form else {}
    stride = int(ns.stride) if ns.stride else max(1, traj.n_samples // 10)
    rows = list(range(0, traj.n_samples, stride))
    if rows[-1] != traj.n_samples - 1:
        rows.append(traj.n_samples - 1)

    cols = ["t", "z_re", "z_im"]
    for i in (1, 2):
        for j in (1, 2):
            cols += [f"r{i}{j}_re", f"r{i}{j}_im"]
    cols.append("tail_bound")
    if ns.closed_form:
        for i in (1, 2):
            for j in (1, 2):
                cols += [f"cf{i}{j}_re", f"cf{i}{j}_im"]
        cols.append("max_diff")

    lines = [",".join(cols)]
    g = "{:.17g}".format
    for k in rows:
        st = traj.state_at(k)
        for iz, z in enumerate(zs):
            rb = resolvent_block(st, complex(z), tol=float(ns.tol))
            vals = [g(traj.ts[k]), g(z.real), g(z.imag)]
            vals += [g(x) for entry in rb.value.ravel() for x in (entry.real, entry.imag)]
            vals.append(g(rb.tail_bound))
            if ns.closed_form:
                cf = closed[z][k]
                vals += [g(x) for entry in cf.ravel() for x in (entry.real, entry.imag)]
                vals.append(g(float(np.max(np.abs(cf - rb.value)))))
            lines.append(",".join(vals))
    _emit("\n".join(lines) + "\n", ns.out, f"{len(lines) - 1} resolvent rows")
    return 0


def _cmd_moments(ns) -> int:
    state = _instance(ns)
    n_max = int(ns.n_max)
    t = float(ns.t)
    doc = {"m": state.m, "n_max": n_max, "method": ns.method, "t": t}
    if ns.method == "series":
        u0 = moments_from_j(state, 60, require_locality=False)
        em = exponential_moments(u0, t, n_max, norm_bound(state))
        doc["moments"] = _pairs(em.functional.moments)
        doc["tail_bound"] = em.tail_bound
        doc["terms_used"] = em.terms_used
    else:
        if t != 0.0:
            traj = integrate(state, IntegratorConfig(t_end=t, h=float(ns.h)))
            state = traj.state_at(traj.n_samples - 1)
        if ns.method == "power":
            u = moments_from_j(state, n_max)
        elif ns.method == "conditions":
            u = moments_from_recurrence(state, n_max)
        else:
            raise ValueError(
                f"unknown method {ns.method!r}; pick power, conditions, or series"
            )
        doc["moments"] = _pairs(u.moments)
    _emit(json.dumps(doc, indent=2), ns.out, "moment blocks")
    return 0


def _cmd_polys(ns) -> int:
    state = _instance(ns)
    count = int(ns.count)
    vps = vector_polys(state, count)
    scalars = scalar_polys(state, 2 * count + 1)
    doc = {
        "m": state.m,
        "count": count,
        "scalar": [_pairs(p) for p in scalars],
        "vector": [
            {"n": vp.n, "top": _pairs(vp.top), "bottom": _pairs(vp.bottom)}
            for vp in vps
        ],
    }
    _emit(json.dumps(doc, indent=2), ns.out, "polynomial coefficients")
    return 0


# ----------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kostant-toda",
        description="Simulate finite full Kostant-Toda lattices and cross-check "
        "the moment, resolvent, and polynomial laws they satisfy.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="JSON file of option defaults; flags win")
        return sp

    sp = add("simulate", "integrate an instance and write the trajectory as CSV")
    sp.add_argument("--seed", type=int, help="seed for the random instance")
    sp.add_argument("--m", type=int, help="truncation size (even, >= 4)")
    sp.add_argument("--t-end", type=float, dest="t_end", help="integration horizon")
    sp.add_argument("--h", type=float, help="RK4 step size")
    sp.add_argument("--state", help="JSON state file (overrides --seed/--m)")
    sp.add_argument(
        "--corruption", choices=CONTROL_KINDS, help="corrupt the flow on purpose"
    )
    sp.add_argument("--magnitude", type=float, help="corruption magnitude")
    sp.add_argument("--out", help="CSV path (default stdout)")

    sp = add("verify", "run the cross-verification suite")
    sp.add_argument("--quick", action="store_true", default=None, help="3 seeds")
    sp.add_argument("--seeds", help="comma separated seed list, e.g. 0,1,2")
    sp.add_argument(
        "--control", choices=CONTROL_KINDS, help="run only this negative control"
    )
    sp.add_argument("--jobs", type=int, help="must be >= 1; checks always run serially")
    sp.add_argument("--report", help="write a deterministic JSON report here")

    sp = add("resolvent", "sweep the leading resolvent block over a spectral ring")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--state", help="JSON state file (overrides --seed/--m)")
    sp.add_argument("--t-end", type=float, dest="t_end")
    sp.add_argument("--h", type=float)
    sp.add_argument("--angles", type=int, help="ring points per time sample")
    sp.add_argument(
        "--radius-mult",
        type=float,
        dest="radius_mult",
        help="ring radius as a multiple of the worst-case norm bound",
    )
    sp.add_argument("--tol", type=float, help="series tail target")
    sp.add_argument("--stride", type=int, help="write every Nth time sample")
    sp.add_argument(
        "--closed-form",
        action="store_true",
        default=None,
        dest="closed_form",
        help="also tabulate the quadrature closed form and the difference",
    )
    sp.add_argument("--out", help="CSV path (default stdout)")

    sp = add("moments", "dump moment blocks as JSON")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--state", help="JSON state file (overrides --seed/--m)")
    sp.add_argument("--n-max", type=int, dest="n_max", help="highest block order")
    sp.add_argument(
        "--method",
        choices=("power", "conditions", "series"),
        help="power: matrix powers; conditions: solved from the recurrence "
        "conditions; series: exponential series evolved to --t",
    )
    sp.add_argument("--t", type=float, help="report at this time (grid aligned)")
    sp.add_argument("--h", type=float, help="step size when --t > 0")
    sp.add_argument("--out", help="JSON path (default stdout)")

    sp = add("polys", "dump scalar and vector polynomial coefficients as JSON")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--state", help="JSON state file (overrides --seed/--m)")
    sp.add_argument("--count", type=int, help="highest vector block index")
    sp.add_argument("--out", help="JSON path (default stdout)")

    return p


_HANDLERS = {
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "resolvent": _cmd_resolvent,
    "moments": _cmd_moments,
    "polys": _cmd_polys,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else (0 if e.code is None else 2)
    try:
        ns = _merged(args, args.command)
        return _HANDLERS[args.command](ns)
    except (CNearZeroError, SeriesCapError, ZTooSmallError, np.linalg.LinAlgError) as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
