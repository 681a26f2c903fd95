"""Command-line front end: sweeps, audits, searches, simulations.

Structured results print as JSON; sweep-style outputs print as CSV rows for
plotting.  All floats are serialized with 12 significant digits, every
randomized command takes an explicit --seed (default 1729), and files are
written atomically (temp file + rename).  TABLEMECH_THREADS, a positive
integer (default 1), sets Monte Carlo worker threads; results do not depend
on it, and any other value is an error.

Exit codes: 0 success; audit returns 1 when the mechanism is not incentive
compatible; 2 for any error (bad flags, malformed files, bracket failure).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .analytic import optimal_single_cutoff
from .audit import audit_ic
from .core import CutoffVector, cutoff_to_grid
from .dynamics import dynamic_cutoffs, dynamic_profit
from .evaluation import GridMechanism
from .montecarlo import DEFAULT_SEED, estimate_agent_payoff, estimate_eu
# transfers_eu is not called here, but bench/tracer.py rebinds it by this name
from .regimes import expected_max_surplus, no_verifiability_eu, transfers_eu
from .search import best_table_mechanism_n2
from .serialize import _write_atomic, load_mechanism

__all__ = ["main"]

_DEFAULTS = {"tol": 1e-12, "samples": 100_000, "seed": DEFAULT_SEED, "grid": 7}


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _round12(obj):
    """Round every float in a JSON-ready structure to 12 significant digits."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _write_out(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        _write_atomic(out, text)


def _emit_json(obj, out) -> None:
    _write_out(json.dumps(_round12(obj), indent=2) + "\n", out)


def _emit_rows(header: list[str], rows: list[list], fmt: str, out) -> None:
    if fmt == "json":
        _emit_json([dict(zip(header, row)) for row in rows], out)
        return
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)
        )
    _write_out("\n".join(lines) + "\n", out)


def _load_config(path: str | None) -> dict:
    """key=value lines; '#' comments and blanks ignored."""
    if path is None:
        return {}
    cfg = {}
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line!r} is not key=value")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in _DEFAULTS:
            raise ValueError(f"unknown config key {key!r}")
        cfg[key] = float(val) if key == "tol" else _config_int(key, val)
    return cfg


def _config_int(key: str, val: str) -> int:
    """Exact integer value; an integral exponent form such as 1e5 also passes."""
    try:
        return int(val)
    except ValueError:
        if float(val).is_integer():
            return int(float(val))
    raise ValueError(f"config key {key!r} needs an integer, got {val!r}")


def _resolve(args, key: str):
    """Flag beats config file beats builtin default."""
    flag = getattr(args, key, None)
    return args.config_values[key] if flag is None else flag


def _static_profit(n: int, tol: float) -> float:
    """Best single-cutoff profit; one project leaves only the default, worth 1/2."""
    return optimal_single_cutoff(n, tol).expected_utility if n >= 2 else 0.5


def _range(args) -> range:
    if args.n_min < 1 or args.n_max < args.n_min:
        raise ValueError(f"bad range {args.n_min}..{args.n_max}")
    return range(args.n_min, args.n_max + 1)


def cmd_optimize(args) -> int:
    tol = _resolve(args, "tol")
    res = optimal_single_cutoff(args.n, tol)
    payload = {
        "n_projects": res.n_projects,
        "cutoff": res.cutoff,
        "expected_utility": res.expected_utility,
        "residual": res.residual,
    }
    if args.format == "csv":
        _emit_rows(
            list(payload),
            [[res.n_projects, res.cutoff, res.expected_utility, res.residual]],
            "csv",
            args.out,
        )
    else:
        _emit_json(payload, args.out)
    return 0


def cmd_sweep(args) -> int:
    tol = _resolve(args, "tol")
    rows = []
    for n in _range(args):
        res = optimal_single_cutoff(n, tol)
        gap = math.sqrt(n) * (1.0 - res.cutoff)
        rows.append([n, res.cutoff, res.expected_utility, gap])
    _emit_rows(["n", "cutoff", "eu", "sqrtn_times_gap"], rows, args.format, args.out)
    return 0


def cmd_compare(args) -> int:
    tol = _resolve(args, "tol")
    rows = []
    for n in _range(args):
        rows.append(
            [
                n,
                no_verifiability_eu(n),
                dynamic_profit(n),
                _static_profit(n, tol),
                expected_max_surplus(n),
            ]
        )
    _emit_rows(
        ["n", "no_verif", "dynamic", "static", "transfers"], rows, args.format, args.out
    )
    return 0


def cmd_dynamics(args) -> int:
    tol = _resolve(args, "tol")
    rows = []
    for n in _range(args):
        static = _static_profit(n, tol)
        ladder = dynamic_cutoffs(n + 1)  # [0] is the profit, as in dynamic_profit
        rows.append([n, float(ladder[1]), float(ladder[0]), static])
    _emit_rows(["n", "c1", "dynamic", "static"], rows, args.format, args.out)
    return 0


def cmd_audit(args) -> int:
    mech = load_mechanism(args.mechanism)
    if isinstance(mech, CutoffVector):
        mech = cutoff_to_grid(mech, _resolve(args, "grid"))
    report = audit_ic(mech)
    witness = None
    if report.witness is not None:
        truth, dev, gain = report.witness
        witness = {
            "profits": list(truth.profits),
            "payoffs": list(truth.payoffs),
            "reported_profits": list(dev.reported_profits),
            "reported_payoffs": list(dev.reported_payoffs),
            "gain": gain,
        }
    _emit_json(
        {
            "verdict": report.verdict,
            "exhaustive": report.exhaustive,
            "checked": report.checked,
            "witness": witness,
        },
        args.out,
    )
    return 0 if report.verdict else 1


def cmd_search(args) -> int:
    k = _resolve(args, "grid")
    res = best_table_mechanism_n2(k)
    _emit_json(
        {
            "grid_resolution": res.grid_resolution,
            "n_candidates": res.n_candidates,
            "eu": res.eu,
            "eu_exact": f"{res.eu_exact.numerator}/{res.eu_exact.denominator}",
            "is_cutoff_shaped": res.is_cutoff_shaped,
            "best_cutoff": res.best_cutoff,
            "n_maximizers": len(res.maximizers),
            "maximizers": [m.astype(int).tolist() for m in res.maximizers],
        },
        args.out,
    )
    return 0


def cmd_simulate(args) -> int:
    mech = load_mechanism(args.mechanism)
    if isinstance(mech, GridMechanism):
        raise ValueError("simulate wants a cutoff or table mechanism")
    samples = _resolve(args, "samples")
    seed = _resolve(args, "seed")
    estimator = estimate_agent_payoff if args.agent else estimate_eu
    est = estimator(mech, mech.n_projects, samples, seed)
    _emit_json(
        {
            "mean": est.mean,
            "std_error": est.std_error,
            "n_samples": est.n_samples,
            "seed": est.seed,
        },
        args.out,
    )
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process: ``parse_args`` keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="tablemech",
        description="Project-selection mechanisms: optimize, audit, compare.",
        epilog="TABLEMECH_THREADS: Monte Carlo threads, a positive integer, default 1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, out=True, config=True, fmt=None):
        if out:
            p.add_argument("--out", help="output path (default stdout)")
        if config:
            p.add_argument("--config", help="key=value defaults file")
        if fmt:
            p.add_argument("--format", choices=["json", "csv"], default=fmt)

    p = sub.add_parser("optimize", help="optimal single cutoff for n projects")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float)
    common(p, fmt="json")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sweep", help="optimal cutoff and value over a range of n")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--tol", type=float)
    common(p, fmt="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("compare", help="regime values per n, no sampling")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--tol", type=float)
    for flag in ("--samples", "--seed"):
        p.add_argument(flag, type=int, help="accepted; no longer changes the output")
    common(p, fmt="csv")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("dynamics", help="sequential benchmark per n")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--tol", type=float)
    common(p, fmt="csv")
    p.set_defaults(func=cmd_dynamics)

    p = sub.add_parser("audit", help="incentive-compatibility audit of a mechanism file")
    p.add_argument("mechanism", help="mechanism JSON (cutoff, table, or grid)")
    p.add_argument("--grid", type=int, help="grid resolution for cutoff files")
    common(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("search", help="exact n=2 search over all C(2k,k) tables")
    p.add_argument("--grid", type=int, help="grid resolution k")
    common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("simulate", help="Monte Carlo estimate for a mechanism file")
    p.add_argument("mechanism", help="mechanism JSON (cutoff or table)")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--agent", action="store_true", help="estimate agent payoff instead of profit"
    )
    common(p)
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.config_values = {**_DEFAULTS, **_load_config(args.config)}
        return args.func(args)
    except Exception as exc:  # malformed files, bad ranges, bracket failures
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
