"""Command-line entry points.

Exit codes: 0 = everything verified, 1 = a mathematical check failed,
2 = usage or budget error.  Reports go to stdout as canonical JSON (or a
pretty rendering with --format pretty); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from fractions import Fraction

from .arith import NonUnitError, gamma_p, gamma_ratio_check, odd_prime
from .laurent import (
    FrobeniusLift,
    LaurentPoly,
    family_from_json,
    family_poly,
    poly_from_json,
)
from .polytope import (
    DegenerateSupportError,
    interior,
    newton_polytope,
    vertex_star,
    whole_polytope,
)
from .hasse_witt import (
    HWConditionError,
    beta_matrix,
    higher_hw_condition,
    lambda_unit_root,
)
from .cartier import MAX_ROUTE_BOX, ResidualError, route_rows
from .linalg import RankDeficiencyError, InconsistentSystemError
from .zeta import BudgetExceededError, count_torus_points, eigenvalue_crosscheck
from .cy import (
    canonical_coordinate,
    excellent_lift_check,
    frobenius_lambda0,
    preset_family,
    preset_operator,
    standard_solutions,
    yukawa_and_instantons,
)
from .harness import SUITES, JobSpec, canonical_json

USAGE_ERRORS = (
    argparse.ArgumentError,
    BudgetExceededError,
    DegenerateSupportError,
    OverflowError,  # a size guard such as laurent.EXPONENT_LIMIT, not a failed theorem
    ValueError,
    FileNotFoundError,
    json.JSONDecodeError,
)
MATH_ERRORS = (
    HWConditionError,
    ResidualError,
    RankDeficiencyError,
    InconsistentSystemError,
    NonUnitError,
    ArithmeticError,
)


def _emit(obj, fmt: str):
    if fmt == "pretty":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(canonical_json(obj))


def _read_poly_file(path: str) -> tuple[LaurentPoly, LaurentPoly | None]:
    """(f, g) from a polynomial or family JSON file; g is None unless the
    file holds a family 1 - t*g."""
    with open(path) as fh:
        obj = json.load(fh)
    if isinstance(obj, dict) and obj.get("form") == "1-t*g":
        return family_from_json(obj)
    return poly_from_json(obj), None


def _load_poly(args) -> tuple[LaurentPoly, LaurentPoly | None]:
    """(f, g) from --preset or --poly; g is set for 1 - t*g families."""
    if getattr(args, "preset", None):
        preset = preset_family(args.preset, args.dim)
        return family_poly(preset.g), preset.g
    if not getattr(args, "poly", None):
        raise ValueError("provide --poly FILE or --preset NAME --dim N")
    return _read_poly_file(args.poly)


def _select_mu(P, name: str):
    if name == "interior":
        return interior(P)
    if name == "whole":
        return whole_polytope(P)
    if name.startswith("star:"):
        v = tuple(int(x) for x in name[5:].split(","))
        return vertex_star(P, v)
    raise ValueError(f"unknown mu selector {name!r}")


def _load_mu(args):
    """(f, mu): the polynomial of `_load_poly` and the --mu subset of its
    Newton polytope, which for a family 1 - t*g also holds the origin."""
    f, g = _load_poly(args)
    support = f.support()
    if g is not None:
        support.add((0,) * f.n)
    return f, _select_mu(newton_polytope(support), args.mu)


def cmd_hw(args, fmt):
    f, mu = _load_mu(args)
    M = beta_matrix(f, mu, args.prime, args.prime, args.precision)
    _emit(M.to_json(), fmt)
    return 0


def cmd_lambda(args, fmt):
    f, mu = _load_mu(args)
    sigma = FrobeniusLift.t_power(args.prime)
    M = lambda_unit_root(f, mu, args.prime, sigma, args.steps, t_trunc=args.t_trunc)[-1]
    _emit(M.to_json(), fmt)
    return 0


def cmd_higher_hw(args, fmt):
    f, mu = _load_mu(args)
    sigma = FrobeniusLift.t_power(args.prime)
    ok, report = higher_hw_condition(f, mu, args.level, args.prime, sigma)
    out = {
        "schema": 1,
        "condition_holds": ok,
        "levels": {
            str(l): {k: v for k, v in data.items()} for l, data in report.items()
        },
    }
    _emit(out, fmt)
    return 0 if ok else 1


def cmd_cartier(args, fmt):
    """Route-equivalence check: the rational-function form of the Cartier
    operation against decimation of the formal expansion."""
    f, g = _load_poly(args)
    if g is not None:
        raise ValueError("the cartier oracle works on integer polynomials")
    if args.bound < 0:
        raise ValueError(f"--bound must be >= 0, not {args.bound}")
    if (2 * args.bound + 1) ** f.n > MAX_ROUTE_BOX:
        raise ValueError(f"--bound {args.bound} gives a box of more than {MAX_ROUTE_BOX} indices")
    box = list(itertools.product(range(-args.bound, args.bound + 1), repeat=f.n))
    rows = route_rows(f, args.pole, args.prime, args.precision, box)
    mismatches = [{"v": list(v), "shift": a, "formula": b} for v, a, b in rows if a != b]
    out = {
        "schema": 1,
        "checked": len(rows),
        "agree": not mismatches,
        "mismatches": mismatches[:10],
    }
    _emit(out, fmt)
    return 0 if not mismatches and rows else 1


def cmd_zeta_count(args, fmt):
    f, g = _load_poly(args)
    if g is not None:
        raise ValueError("point counting needs an integer polynomial")
    count = count_torus_points(f, args.prime, args.ext)
    _emit({"schema": 1, "p": args.prime, "s": args.ext, "torus_points": count}, fmt)
    return 0


def cmd_crosscheck(args, fmt):
    f, g = _load_poly(args)
    if g is not None:
        raise ValueError("crosscheck needs an integer polynomial")
    report = eigenvalue_crosscheck(f, args.prime, args.smax)
    report["schema"] = 1
    _emit(report, fmt)
    return 0 if report["pass"] else 1


# `verify`'s grid flags and the JobSpec fields they set; they default to
# None, so that one given beside --job can be refused
VERIFY_GRID = {"primes": "primes", "smax": "s_max", "bound": "bound", "dims": "dimensions"}


def cmd_verify(args, fmt):
    suite = SUITES.get(args.suite)
    if suite is None:
        raise ValueError(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}")
    given = {flag: getattr(args, flag) for flag in VERIFY_GRID if getattr(args, flag) is not None}
    if args.job:
        if given:
            flags = ", ".join(f"--{flag}" for flag in given)
            raise ValueError(f"{flags} not allowed with --job: the job file sets the grid")
        with open(args.job) as fh:
            job = JobSpec.from_json(fh.read())
    else:
        fields = {VERIFY_GRID[flag]: value for flag, value in given.items()}
        if args.poly:
            f, g = _read_poly_file(args.poly)
            key, value = ("polynomials", f) if g is None else ("families", g)
            fields[key] = ((args.poly, value),)
        job = JobSpec(seed=args.seed, **fields)
    t0 = time.perf_counter()
    report = suite(job)
    report.elapsed = time.perf_counter() - t0
    _emit(report.to_json(include_timing=args.timing), fmt)
    return 0 if report.passed else 1


def _mirror_data(args):
    """(T, solutions, q, mirror map) of the --family operator to degree
    --degree + 1."""
    op = preset_operator(args.family, args.dim if args.family != "quintic" else None)
    T = args.degree + 2
    sols = standard_solutions(op, T)
    return (T, sols, *canonical_coordinate(sols, T))


def cmd_cy(args, fmt):
    if args.action == "instanton":
        T, sols, q, mirror = _mirror_data(args)
        Y, N = yukawa_and_instantons(sols, mirror, T)
        table = [
            {
                "d": d + 1,
                "Nd_num": str(N[d].numerator),
                "Nd_den": str(N[d].denominator),
            }
            for d in range(min(args.degree, len(N)))
        ]
        out = {
            "schema": 1,
            "family": args.family,
            "yukawa": [str(Y[i]) for i in range(min(6, T))],
            "instantons": table,
        }
        _emit(out, fmt)
        return 0
    if args.action == "mirror":
        T, _, q, mirror = _mirror_data(args)
        out = {
            "schema": 1,
            "family": args.family,
            "q_coefficients": [str(q[d]) for d in range(T)],
            "mirror_coefficients": [str(mirror[d]) for d in range(T)],
        }
        _emit(out, fmt)
        return 0
    if args.action == "frobenius":
        rep = frobenius_lambda0(args.family, args.dim, args.prime, s=args.steps)
        ok = (
            rep.ell_cancellation
            and rep.ode_residual_ok
            and all(d["ok"] for d in rep.t_constancy)
        )
        out = {
            "schema": 1,
            "family": rep.family,
            "p": rep.p,
            "precision": f"{rep.p}^{rep.precision}",
            "lambda0": rep.lambda0,
            "alphas": [
                {"j": j, "value": v, "mod": f"{rep.p}^{e}"} for j, v, e in rep.alphas
            ],
            "log_cancellation": rep.ell_cancellation,
            "ode_residual_zero": rep.ode_residual_ok,
            "t_constancy": rep.t_constancy,
            "pass": ok,
        }
        _emit(out, fmt)
        return 0 if ok else 1
    if args.action == "excellent":
        rep = excellent_lift_check(args.family, args.dim, args.prime)
        rep["schema"] = 1
        _emit(rep, fmt)
        return 0 if rep["passed"] else 1
    raise ValueError(f"unknown cy action {args.action!r}")


def cmd_gamma_p(args, fmt):
    if args.ratio_check is not None:
        ok = gamma_ratio_check(args.prime, args.ratio_check, args.precision)
        _emit(
            {
                "schema": 1,
                "p": args.prime,
                "s": args.ratio_check,
                "ratio_congruence": ok,
            },
            fmt,
        )
        return 0 if ok else 1
    text, x = args.x
    val = gamma_p(x, args.prime, args.precision)
    _emit(
        {
            "schema": 1,
            "x": text,
            "p": args.prime,
            "N": args.precision,
            "value": val,
        },
        fmt,
    )
    return 0


def _odd_prime(text: str) -> int:
    """argparse type for every prime option: an odd prime, else exit 2."""
    try:
        return odd_prime(int(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text} is not an odd prime") from None


def _degree(text: str) -> int:
    """argparse type for cy --degree: an int >= 0, else exit 2."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be an integer >= 0, not {text}")
    return int(text)


def _rational(text: str) -> tuple[str, int | Fraction]:
    """argparse type for gamma-p --x: (text, value) for an integer or a/b
    with b != 0, else exit 2.  The text is echoed in the report."""
    num, slash, den = text.partition("/")
    try:
        return text, Fraction(int(num), int(den)) if slash else int(num)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"{text} is not an integer or a fraction a/b with b != 0"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dworklab",
        description="Exact p-adic Frobenius data for toric hypersurfaces",
    )
    ap.add_argument("--format", choices=("json", "pretty"), default="json")
    ap.add_argument("--seed", type=int, default=0, help="recorded in verify reports")
    ap.add_argument("--timing", action="store_true", help="include timings in reports")
    sub = ap.add_subparsers(dest="command", required=True)

    def poly_opts(p):  # the polynomial and the prime of every command that reads one
        p.add_argument("--poly", help="polynomial or family JSON file")
        p.add_argument("--preset", help="family preset name")
        p.add_argument("--dim", type=int, default=2)
        p.add_argument("--prime", type=_odd_prime, required=True)

    p = sub.add_parser("hw", help="Hasse-Witt matrix")
    poly_opts(p)
    p.add_argument("--mu", default="interior")
    p.add_argument("--precision", type=int, default=1)
    p.set_defaults(fn=cmd_hw)

    p = sub.add_parser("lambda", help="unit-root matrix")
    poly_opts(p)
    p.add_argument("--mu", default="interior")
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--t-trunc", type=int, default=None, dest="t_trunc")
    p.set_defaults(fn=cmd_lambda)

    p = sub.add_parser("higher-hw", help="higher Hasse-Witt condition report")
    poly_opts(p)
    p.add_argument("--mu", default="whole")
    p.add_argument("--level", type=int, default=2)
    p.set_defaults(fn=cmd_higher_hw)

    p = sub.add_parser("cartier", help="Cartier route-equivalence oracle")
    poly_opts(p)
    p.add_argument("--pole", type=int, default=1)
    p.add_argument("--precision", type=int, default=2)
    p.add_argument("--bound", type=int, default=2)
    p.set_defaults(fn=cmd_cartier)

    p = sub.add_parser("zeta-count", help="brute-force torus point count")
    poly_opts(p)
    p.add_argument("--ext", type=int, default=1)
    p.set_defaults(fn=cmd_zeta_count)

    p = sub.add_parser("crosscheck", help="trace vs point-count comparison")
    poly_opts(p)
    p.add_argument("--smax", type=int, default=2)
    p.set_defaults(fn=cmd_crosscheck)

    p = sub.add_parser("verify", help="run a congruence verification suite")
    p.add_argument("suite")
    source = p.add_mutually_exclusive_group()  # a job file names its own polynomials
    source.add_argument("--poly")
    source.add_argument("--job", help="JobSpec JSON file")
    p.add_argument("--primes", type=lambda s: tuple(_odd_prime(x) for x in s.split(",")))
    p.add_argument("--smax", type=int)
    p.add_argument("--bound", type=int)
    p.add_argument("--dims", type=lambda s: tuple(int(x) for x in s.split(",")))
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("cy", help="Calabi-Yau family pipeline")
    p.add_argument("action", choices=("instanton", "frobenius", "excellent", "mirror"))
    p.add_argument("--family", default="quintic")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--degree", type=_degree, default=10)
    p.add_argument("--prime", type=_odd_prime, default=7)
    p.add_argument("--steps", type=int, default=1)
    p.set_defaults(fn=cmd_cy)

    p = sub.add_parser("gamma-p", help="Morita p-adic gamma values")
    p.add_argument("--x", type=_rational, default="1")
    p.add_argument("--prime", type=_odd_prime, required=True)
    p.add_argument("--precision", type=int, default=2)
    p.add_argument("--ratio-check", type=int, default=None, dest="ratio_check")
    p.set_defaults(fn=cmd_gamma_p)

    return ap


def cli_main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    try:
        return args.fn(args, args.format)
    except USAGE_ERRORS as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2
    except MATH_ERRORS as ex:
        print(f"verification failure: {ex}", file=sys.stderr)
        return 1


def main():  # console entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
