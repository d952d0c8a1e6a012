"""Command line front end.

Subcommands:
  simulate   integrate an instance and write the trajectory as CSV
  verify     run the cross-verification suite, optionally writing a report
  resolvent  sweep the leading 2x2 resolvent block over a spectral ring
  moments    dump moment blocks as JSON (power, conditions, or series method)
  polys      dump scalar and vector polynomial coefficients as JSON

Options may come from a JSON file via --config, checked like their flags;
explicit flags win. Complex values in JSON are [re, im] pairs; floats in
CSV use %.17g.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical abort (subdiagonal underflow or overflow, series cap, margin
violation).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .core import LatticeState, random_state
from .csvio import integrate_for_csv, write_csv
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
    resolvent_sweep,
    spectral_ring,
)
from .verify import CONTROL_KINDS, reports_to_json, run_suite

__all__ = ["main"]

_INSTANCE = "simulate resolvent moments polys"
_METHODS = ("power", "conditions", "series")


def _seed_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s.strip()]


def _at_least_one(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _finite_positive(text: str) -> float:
    x = float(text)
    if not (np.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {x}")
    return x


# One row per option: name, the subcommands that take it, its type (bool
# means an on/off flag, a tuple lists the choices), default and help. The
# flag is --name with "-" for "_"; a --config key is the name and goes
# through the same conversion as the flag.
_OPTIONS = (
    ("seed", _INSTANCE, int, 0, "seed for the random instance"),
    ("m", _INSTANCE, int, 12, "truncation size (even, >= 4)"),
    ("state", _INSTANCE, str, None, "JSON state file (overrides --seed/--m)"),
    ("t_end", "simulate resolvent", float, 1.0, "integration horizon"),
    ("h", "simulate resolvent moments", float, 1e-3, "RK4 step size"),
    ("corruption", "simulate", CONTROL_KINDS, None, "corrupt the flow on purpose"),
    ("magnitude", "simulate", float, 0.1, "corruption magnitude"),
    ("quick", "verify", bool, False, "3 seeds"),
    ("seeds", "verify", _seed_list, None, "comma separated seed list, e.g. 0,1,2"),
    ("control", "verify", CONTROL_KINDS, None, "run only this negative control"),
    ("report", "verify", str, None, "write a deterministic JSON report here"),
    ("angles", "resolvent", _at_least_one, 8, "ring points per time sample"),
    ("radius_mult", "resolvent", _finite_positive, 2.0,
     "ring radius over the largest norm bound"),
    ("tol", "resolvent", _finite_positive, 1e-10, "series tail target"),
    ("stride", "resolvent", _at_least_one, None, "write every Nth time sample"),
    ("closed_form", "resolvent", bool, False, "also tabulate the closed form"),
    ("n_max", "moments", int, 6, "highest block order"),
    ("method", "moments", _METHODS, "power", "matrix powers, recurrence, or series"),
    ("t", "moments", float, 0.0, "report at this time (grid aligned)"),
    ("count", "polys", int, 4, "highest vector block index"),
    ("out", _INSTANCE, str, None, "output file (default stdout)"),
)


def _options_of(command: str) -> list[tuple]:
    return [row for row in _OPTIONS if command in row[1].split()]


def _pair(z) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def _pairs(arr):
    a = np.asarray(arr)
    if a.ndim == 0:
        return _pair(a[()])
    return [_pairs(x) for x in a]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _band(doc: dict, key: str) -> np.ndarray:
    """State field key: a list of JSON numbers or [re, im] pairs of them."""
    entries = doc[key]
    if not isinstance(entries, list):
        raise ValueError(f"state field {key!r} must be a list, got {entries!r}")
    band = np.empty(len(entries), dtype=np.complex128)
    for i, x in enumerate(entries):
        parts = x if isinstance(x, list) else [x, 0.0]
        if len(parts) != 2 or not all(map(_is_number, parts)):
            raise ValueError(
                f"state field {key!r} entry {i}: expected a number or an "
                f"[re, im] pair of numbers, got {x!r}"
            )
        band[i] = complex(float(parts[0]), float(parts[1]))
    return band


def _load_state(path: str) -> LatticeState:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("state file must hold a JSON object")
    extra = set(doc) - {"a", "b", "c", "t"}
    if extra:
        raise ValueError(f"unknown state field {sorted(extra)[0]!r}")
    missing = [key for key in ("a", "b", "c") if key not in doc]
    if missing:
        raise ValueError(f"state file missing field {missing[0]!r}")
    t = doc.get("t", 0.0)
    if not _is_number(t):
        raise ValueError(f"state field 't' must be a number, got {t!r}")
    return LatticeState(*(_band(doc, key) for key in ("a", "b", "c")), t=float(t))


def _instance(ns) -> LatticeState:
    if ns.state:
        return _load_state(ns.state)
    return random_state(ns.seed, ns.m)


def _emit(out: str | None, what: str, write, *args) -> None:
    """write(stream, *args) to stdout when out is None or "-", else to file out."""
    if out is None or out == "-":
        write(sys.stdout, *args)
        return
    with open(out, "w") as fh:
        write(fh, *args)
    print(f"wrote {what} to {out}")


def _write_json(stream, text: str) -> None:
    stream.write(text + "\n")


def _config_flags(path: str, command: str) -> list[str]:
    """The options in JSON file path, spelled as flags of command."""
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    kinds = {name: kind for name, _, kind, _, _ in _options_of(command)}
    flags = []
    for key, value in cfg.items():
        if key not in kinds:
            raise ValueError(f"unknown config field {key!r} for {command}")
        if value is None:
            continue
        if kinds[key] is _seed_list and isinstance(value, list):
            value = ",".join(map(str, value))
        is_bool = isinstance(value, bool)
        if is_bool != (kinds[key] is bool) or not isinstance(value, (str, int, float)):
            raise ValueError(f"config field {key!r} cannot be {value!r}")
        flag = "--" + key.replace("_", "-")
        if value is not False:
            flags.append(flag if value is True else f"{flag}={value}")
    return flags


# ----------------------------------------------------------------------
# subcommand bodies


def _cmd_simulate(ns) -> int:
    state = _instance(ns)
    corruption = CorruptionSpec(ns.corruption, ns.magnitude) if ns.corruption else None
    cfg = IntegratorConfig(t_end=ns.t_end, h=ns.h)
    with integrate_for_csv(state, cfg, corruption) as traj:
        _emit(ns.out, f"{traj.n_samples} samples", traj.to_csv)
    return 0


def _cmd_verify(ns) -> int:
    reports = run_suite(seeds=ns.seeds, quick=ns.quick, control=ns.control)
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
        _emit(ns.report, "report", _write_json, reports_to_json(reports))
    return 1 if n_fail else 0


def _cmd_resolvent(ns) -> int:
    state = _instance(ns)
    traj = integrate(state, IntegratorConfig(t_end=ns.t_end, h=ns.h))
    zs = spectral_ring(traj, ns.angles, ns.radius_mult)
    closed = closed_form_resolvent(traj, zs) if ns.closed_form else None
    stride = ns.stride or max(1, traj.n_samples // 10)
    rows = list(range(0, traj.n_samples, stride))
    if rows[-1] != traj.n_samples - 1:
        rows.append(traj.n_samples - 1)

    block = [f"{i}{j}_{x}" for i in (1, 2) for j in (1, 2) for x in ("re", "im")]
    cols = ["t", "z_re", "z_im", *("r" + c for c in block), "tail_bound"]
    if ns.closed_form:
        cols += ["cf" + c for c in block] + ["max_diff"]
    values, tails = resolvent_sweep(
        traj.a[rows], traj.b[rows], traj.c[rows], zs, ns.tol, traj.ts[rows]
    )
    cells = [
        np.repeat(traj.ts[rows], zs.size),
        np.tile(zs.real, len(rows)),
        np.tile(zs.imag, len(rows)),
        values.reshape(-1, 4).view(np.float64),
        tails.ravel(),
    ]
    if ns.closed_form:
        cf = closed[rows]
        diff = np.max(np.abs(cf - values), axis=(2, 3))
        cells += [cf.reshape(-1, 4).view(np.float64), diff.ravel()]
    table = np.column_stack(cells)
    _emit(ns.out, f"{len(table)} resolvent rows", write_csv, cols, table)
    return 0


def _cmd_moments(ns) -> int:
    state = _instance(ns)
    doc = {"m": state.m, "n_max": ns.n_max, "method": ns.method, "t": ns.t}
    if ns.method == "series":
        em = exponential_moments(state, ns.t, ns.n_max)
        doc["moments"] = _pairs(em.functional.moments)
        doc["tail_bound"] = em.tail_bound
        doc["terms_used"] = em.terms_used
    else:
        if ns.t != 0.0:
            traj = integrate(state, IntegratorConfig(t_end=ns.t, h=ns.h))
            state = traj.state_at(traj.n_samples - 1)
        solve = moments_from_j if ns.method == "power" else moments_from_recurrence
        doc["moments"] = _pairs(solve(state, ns.n_max).moments)
    _emit(ns.out, "moment blocks", _write_json, json.dumps(doc, indent=2))
    return 0


def _cmd_polys(ns) -> int:
    state = _instance(ns)
    vps = vector_polys(state, ns.count)
    scalars = scalar_polys(state, 2 * ns.count + 1)
    doc = {
        "m": state.m,
        "count": ns.count,
        "scalar": [_pairs(p) for p in scalars],
        "vector": [
            {"n": vp.n, "top": _pairs(vp.top), "bottom": _pairs(vp.bottom)}
            for vp in vps
        ],
    }
    _emit(ns.out, "polynomial coefficients", _write_json, json.dumps(doc, indent=2))
    return 0


# ----------------------------------------------------------------------
# parser

_COMMANDS = {
    "simulate": (_cmd_simulate, "integrate an instance, write the trajectory as CSV"),
    "verify": (_cmd_verify, "run the cross-verification suite"),
    "resolvent": (_cmd_resolvent, "sweep the leading resolvent block over a ring"),
    "moments": (_cmd_moments, "dump moment blocks as JSON"),
    "polys": (_cmd_polys, "dump scalar and vector polynomial coefficients as JSON"),
}


@functools.cache  # one tree per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="kostant-toda",
        description="Simulate finite full Kostant-Toda lattices and cross-check "
        "the moment, resolvent, and polynomial laws they satisfy.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        sp.add_argument("--config", help="JSON file of option values; flags win")
        for name, _, kind, default, help_text in _options_of(command):
            if kind is bool:
                how = {"action": "store_true"}
            else:
                how = {"choices": kind} if isinstance(kind, tuple) else {"type": kind}
            flag = "--" + name.replace("_", "-")
            sp.add_argument(flag, dest=name, default=default, help=help_text, **how)
    return p


def _parse(argv: list[str]) -> argparse.Namespace:
    """Options of argv; --config values go in before the flags, so flags win."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:
        i = argv.index(args.command) + 1
        args = parser.parse_args(
            argv[:i] + _config_flags(args.config, args.command) + argv[i:]
        )
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        return _COMMANDS[args.command][0](args)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else (0 if e.code is None else 2)
    except (CNearZeroError, SeriesCapError, ZTooSmallError, np.linalg.LinAlgError) as e:
        print(f"numerical abort: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
