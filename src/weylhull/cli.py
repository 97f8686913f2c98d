"""Command-line interface.

Subcommands expose every module: exact absorption values, coefficient rows,
Monte Carlo simulation, arrangement queries, conic geometry, asymptotic
tables, and the self-verification suites.  All randomized commands default
to a fixed seed so bare invocations are byte-for-byte reproducible; pass
``--seed random`` to opt into entropy.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction

# only what the parser and the exact commands need, so that a child of
# `exact`, `coeffs` or `arrangement` loads no NumPy; every other module is
# imported by the commands that use it
from . import mc
from .absorption import KINDS, WalkFamily, absorption_probability, float_tails
from .coefficients import EXACT_N_CAP, TYPES

#: largest n for which a command builds a full exact row (``coeffs`` without
#: ``--kmax`` and every ``cone`` action); past it a row takes many seconds,
#: while prefixes stay cheap up to EXACT_N_CAP
FULL_ROW_N_CAP = 2000


def _check_full_row(n: int, hint: str = "") -> None:
    if n > FULL_ROW_N_CAP:
        raise ValueError(f"full exact rows are capped at n={FULL_ROW_N_CAP}; got n={n}{hint}")


def _seed_value(raw: str) -> int:
    if raw == "random":
        import secrets

        return secrets.randbits(63)
    try:
        return mc.check_seed(int(raw))
    except ValueError:
        raise argparse.ArgumentTypeError("seed must be an integer in [0, 2**64) or 'random'")


def _steps_value(raw: str):
    parts = [p for p in raw.split(",") if p]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError("steps must be an integer or comma list")
    if not values or any(v < 1 for v in values):
        raise argparse.ArgumentTypeError("steps must be positive")
    return values[0] if len(values) == 1 else tuple(values)


def _json_safe(value):
    """JSON with exact values kept exact: big integers and rationals become
    decimal strings so nothing silently truncates to 64-bit floats."""
    if isinstance(value, bool):
        return value
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return value if abs(value) < 2**53 else str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if hasattr(value, "tolist"):  # NumPy arrays and scalars
        return _json_safe(value.tolist())
    return value


def _emit(config: dict, result: dict, fmt: str, csv_rows=None) -> None:
    # exact values up to EXACT_N_CAP run past Python's default limit on
    # int -> str digits (absent before 3.10.7); lift it only while printing
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            print(json.dumps({"config": _json_safe(config), "result": _json_safe(result)}, indent=2))
            return
        for key, val in config.items():
            print(f"# {key}={val}")
        if fmt == "csv":
            if csv_rows is None:
                csv_rows = [list(result.keys()), [result[k] for k in result]]
            for row in csv_rows:
                print(",".join(str(x) for x in row))
        else:
            for key, val in result.items():
                print(f"{key}: {_plain(val)}")
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def _plain(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(str(_plain(v)) for v in value) + "]"
    return value


def _cmd_exact(args) -> int:
    family = WalkFamily(args.family, args.steps, args.dim)
    config = {
        "subcommand": "exact",
        "family": args.family,
        "steps": args.steps,
        "dim": args.dim,
        "format": args.format,
    }
    if args.float_mode:
        absorb, non_absorb = float_tails(family)
        result = {
            "absorb_float": absorb,
            "non_absorb_float": non_absorb,
            "within_hypotheses": family.within_hypotheses,
        }
        # the absorb tail is exactly 0 when n <= d + lineality; any other
        # tail below the smallest normal double has lost accuracy or underflowed
        exact_zero = family.n_total <= family.dimension + family.lineality
        for key in ("absorb_float", "non_absorb_float"):
            if result[key] < sys.float_info.min and not (exact_zero and result[key] == 0):
                print(f"warning: {key} {result[key]!r} is below the smallest normal double and has "
                      f"lost accuracy or underflowed; `weylhull exact` without --float gives it "
                      f"exactly up to n={EXACT_N_CAP}", file=sys.stderr)
    else:
        res = absorption_probability(family)
        result = {
            "absorb": res.absorb,
            "non_absorb": res.non_absorb,
            "absorb_float": float(res.absorb),
            "non_absorb_float": float(res.non_absorb),
            "within_hypotheses": res.within_hypotheses,
        }
    _emit(config, result, args.format)
    return 0


def _cmd_coeffs(args) -> int:
    t = TYPES[args.type]
    config = {
        "subcommand": "coeffs",
        "type": args.type,
        "n": args.n,
        "kmax": args.kmax,
        "format": args.format,
    }
    if args.kmax is not None:
        coeffs = list(t.prefix(args.n, args.kmax))
    else:
        _check_full_row(args.n, f" (pass --kmax for a prefix, up to n={EXACT_N_CAP})")
        coeffs = list(t.row(args.n).coeffs)
    result = {"coefficients": coeffs}
    rows = [["k", "coefficient"]] + list(enumerate(coeffs))
    _emit(config, result, args.format, csv_rows=rows)
    return 0


def _cmd_simulate(args) -> int:
    from . import walks

    family = WalkFamily(args.family, args.steps, args.dim)
    model = walks.IncrementModel(args.model, args.dim)
    config = {
        "subcommand": "simulate",
        "model": args.model,
        "family": args.family,
        "steps": args.steps,
        "dim": args.dim,
        "samples": args.samples,
        "seed": args.seed,
        "tol": args.tol,
        "threads": mc.resolve_threads(args.threads),
        "format": args.format,
    }
    # first: it draws no random numbers, and past EXACT_N_CAP it fails at once
    exact = float(absorption_probability(family).absorb)
    est = walks.estimate_absorption(
        model, family, args.samples, seed=args.seed, tol=args.tol, threads=args.threads
    )
    lo, hi = est.ci()
    result = {
        "family": args.family,
        "n": family.n_total,
        "d": args.dim,
        "model": args.model,
        "samples": est.samples,
        "seed": est.seed,
        "p_hat": est.estimate,
        "stderr": est.stderr,
        "ci_lo": lo,
        "ci_hi": hi,
        "exact": exact,
        "z_score": est.z_score(exact),
        "ambiguous_fraction": est.ambiguous_fraction,
    }
    _emit(config, result, args.format)
    return 0


def _cmd_arrangement(args) -> int:
    from . import arrangements as arr_mod

    if args.file:
        with open(args.file) as fh:
            arr = arr_mod.parse_arrangement(fh.read())
    elif args.type and args.n:
        arr = arr_mod.build_reflection_arrangement(args.type, args.n)
    else:
        raise ValueError("arrangement commands need --file or --type with --n")
    config = {
        "subcommand": f"arrangement {args.action}",
        "source": args.file or f"{args.type}{args.n}",
        "format": args.format,
    }
    if args.action == "intersect" and args.codim is None:
        raise ValueError("intersect needs --codim")
    chi = arr_mod.characteristic_polynomial(arr)
    if args.action == "charpoly":
        result = {"a": list(chi.a), "regions": arr_mod.zaslavsky_region_count(chi)}
    elif args.action == "regions":
        result = {
            "zaslavsky": arr_mod.zaslavsky_region_count(chi),
            "enumerated": len(arr_mod.enumerate_regions(arr)),
        }
    else:  # intersect
        config["codim"] = args.codim
        result = {"count": arr_mod.intersected_region_count(chi, args.codim)}
    _emit(config, result, args.format)
    return 0


def _cmd_cone(args) -> int:
    from . import cones

    config = {
        "subcommand": f"cone {args.action}",
        "type": args.type,
        "n": args.n,
        "format": args.format,
    }
    _check_full_row(args.n)
    v = cones.weyl_intrinsic_volumes(args.type, args.n)
    if args.action == "volumes":
        result = {"v": list(v.v), "v_float": v.as_floats()}
    elif args.action == "steiner":
        import numpy as np

        grid = np.linspace(0.0, 1.0, args.grid)
        config["grid"] = args.grid
        rows = [["lambda", "cdf"]]
        rows += [[f"{x:.6f}", f"{c:.10f}"] for x, c in zip(grid, cones.steiner_tail_cdf(v, grid))]
        result = {r[0]: r[1] for r in rows[1:]}
        _emit(config, result, args.format, csv_rows=rows)
        return 0
    else:  # crofton
        if args.codim is None:
            raise ValueError("crofton needs --codim")
        config.update(
            {
                "codim": args.codim,
                "samples": args.samples,
                "seed": args.seed,
                "threads": mc.resolve_threads(args.threads),
            }
        )
        chamber = cones.WeylChamber(args.type, args.n)
        est = cones.crofton_mc_estimate(
            chamber, args.codim, args.samples, seed=args.seed, threads=args.threads
        )
        exact = float(cones.half_tail(v, args.codim + 1))
        result = {
            "h_estimate": est.estimate,
            "stderr": est.stderr,
            "exact": exact,
            "z_score": est.z_score(exact),
            "samples": est.samples,
            "seed": est.seed,
            "ambiguous_fraction": est.ambiguous_fraction,
        }
    _emit(config, result, args.format)
    return 0


def _cmd_asympt(args) -> int:
    from . import asymptotics as asy

    if args.regime == "fixed" and args.d is None:
        raise ValueError("the fixed regime needs --d")
    if args.regime == "ld" and args.d is not None:
        raise ValueError("the ld regime sets d from --x; it takes no --d")
    if args.regime != "ld" and args.x is not None:
        raise ValueError(f"only the ld regime uses --x; the {args.regime} regime takes none")
    x = 0.5 if args.x is None else args.x
    if not (math.isfinite(x) and x > 0):
        raise ValueError(f"--x must be a positive finite number, got {x}")
    grid = [float(tok) for tok in args.n_grid.split(",") if tok]
    if not grid or not all(map(math.isfinite, grid)):
        raise ValueError(f"--n-grid must list finite step counts; got {args.n_grid!r}")
    ns = [int(v) for v in grid]
    config = {
        "subcommand": "asympt",
        "case": args.case,
        "regime": args.regime,
        "d": args.d,
        **({"x": x} if args.regime == "ld" else {}),
        "n_grid": args.n_grid,
        "format": args.format,
    }
    rows = [["n", "d", "exact_float", "asymptotic", "ratio"]]
    for n in ns:
        # nothing is printed before the table is complete
        d, exact, approx = asy.regime_comparison(args.case, args.regime, n, args.d, x)
        rows.append([n, d, f"{exact:.6e}", f"{approx:.6e}", f"{exact / approx:.6f}"])
    result = {f"n={r[0]}": dict(zip(rows[0][1:], r[1:])) for r in rows[1:]}
    _emit(config, result, args.format, csv_rows=rows)
    return 0


def _cmd_verify(args) -> int:
    from . import verify

    config = {
        "subcommand": "verify",
        "suite": args.suite,
        "samples": args.samples,
        "seed": args.seed,
        "threads": mc.resolve_threads(args.threads),
        "format": args.format,
    }
    report = {}
    for number in verify.SUITES[args.suite]:
        began = time.perf_counter()
        report[number] = verify.run_criterion(
            number, samples=args.samples, seed=args.seed, threads=args.threads)
        # on stderr, so stdout stays byte-identical for fixed seeds
        print(f"criterion {number}: {time.perf_counter() - began:.2f} s", file=sys.stderr)
    failures = sum(not r.passed for results in report.values() for r in results)
    if args.format == "json":
        payload = {
            f"{number}: {verify.CRITERIA[number][0]}": [
                {"check": r.name, "expected": r.expected, "observed": r.observed,
                 "verdict": "pass" if r.passed else "FAIL"} for r in results]
            for number, results in report.items()
        }
        _emit(config, payload, "json")
    else:
        _emit(config, {}, "plain")
        for number, results in report.items():
            name = verify.CRITERIA[number][0]
            bad = [r for r in results if not r.passed]
            verdict = "pass" if not bad else "FAIL"
            print(f"[{verdict}] criterion {number} ({name}): {len(results) - len(bad)}/{len(results)}")
            for r in bad:
                print(f"    FAIL {r.name}: expected {r.expected}, observed {r.observed}")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylhull",
        description="Convex hulls of random walks, reflection arrangements, conic geometry.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, formats=("json", "csv", "plain")):
        p.add_argument("--format", choices=formats, default="plain")

    def add_sampling(p):
        p.add_argument("--samples", type=int, default=100000)
        p.add_argument("--seed", type=_seed_value, default=mc.DEFAULT_SEED)
        p.add_argument("--threads", type=int, default=None)

    p = sub.add_parser("exact", help="exact absorption probabilities")
    p.add_argument("--family", choices=KINDS, required=True)
    p.add_argument("--steps", type=_steps_value, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--float", dest="float_mode", action="store_true",
                   help="float evaluation only (for very large n)")
    add_common(p)
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("coeffs", help="coefficient rows of the three families")
    p.add_argument("--type", choices=tuple(TYPES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kmax", type=int, default=None, help="emit only indices 0..kmax")
    add_common(p)
    p.set_defaults(fn=_cmd_coeffs)

    p = sub.add_parser("simulate", help="Monte Carlo absorption estimate")
    p.add_argument("--model", choices=mc.MODEL_FAMILIES, required=True)
    p.add_argument("--family", choices=KINDS, required=True)
    p.add_argument("--steps", type=_steps_value, required=True)
    p.add_argument("--dim", type=int, required=True)
    add_sampling(p)
    p.add_argument("--tol", type=float, default=mc.DEFAULT_TOL)
    add_common(p)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("arrangement", help="hyperplane arrangement queries")
    p.add_argument("action", choices=("charpoly", "regions", "intersect"))
    p.add_argument("--file", default=None, help="arrangement file ('dim n' + integer rows)")
    p.add_argument("--type", choices=tuple(TYPES), default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--codim", type=int, default=None)
    add_common(p)
    p.set_defaults(fn=_cmd_arrangement)

    p = sub.add_parser("cone", help="conic intrinsic volume queries")
    p.add_argument("action", choices=("volumes", "steiner", "crofton"))
    p.add_argument("--type", choices=tuple(TYPES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--codim", type=int, default=None)
    p.add_argument("--grid", type=int, default=11, help="lambda grid size for steiner")
    add_sampling(p)
    add_common(p)
    p.set_defaults(fn=_cmd_cone)

    p = sub.add_parser("asympt", help="asymptotic comparison tables")
    p.add_argument("--case", choices=tuple(TYPES), required=True)
    p.add_argument("--regime", choices=("fixed", "clt", "ld"), required=True)
    p.add_argument("--d", type=int, default=None)
    # None marks an --x that was not given; the ld regime then uses 0.5
    p.add_argument("--x", type=float, default=None, help="tail parameter for the ld regime")
    p.add_argument("--n-grid", default="1000,10000,100000,1000000")
    add_common(p)
    p.set_defaults(fn=_cmd_asympt)

    p = sub.add_parser("verify", help="self-verification suites")
    p.add_argument("--suite", choices=tuple(mc.SUITES), default="all")
    add_sampling(p)
    add_common(p, formats=("json", "plain"))
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
