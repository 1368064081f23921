"""Command-line entry points.

Exit codes: 0 = everything verified, 1 = a mathematical check failed,
2 = usage or budget error.  Reports go to stdout as canonical JSON (or a
pretty rendering with --format pretty); diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

from .arith import NonUnitError, gamma_p, gamma_ratio_check, teichmuller
from .laurent import (
    FrobeniusLift,
    LaurentPoly,
    family_from_json,
    poly_from_json,
    poly_to_json,
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
    higher_hw_condition,
    hw_matrix,
    lambda_unit_root,
)
from .cartier import (
    ResidualError,
    cartier_shift,
    cartier_via_formula,
    expand_vertex,
    unit_vertex,
    vertex_budget,
)
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


def _load_poly(args) -> tuple[LaurentPoly, object]:
    """Returns (f, g_or_None); g is set for 1 - t*g families."""
    if getattr(args, "preset", None):
        preset = preset_family(args.preset, args.dim)
        from .laurent import family_poly

        return family_poly(preset.g), preset.g
    if not getattr(args, "poly", None):
        raise ValueError("provide --poly FILE or --preset NAME --dim N")
    with open(args.poly) as fh:
        obj = json.load(fh)
    if isinstance(obj, dict) and obj.get("form") == "1-t*g":
        f, g = family_from_json(obj)
        return f, g
    return poly_from_json(obj), None


def _select_mu(P, f, name: str):
    if name == "interior":
        return interior(P)
    if name == "whole":
        return whole_polytope(P)
    if name.startswith("star:"):
        v = tuple(int(x) for x in name[5:].split(","))
        return vertex_star(P, v)
    raise ValueError(f"unknown mu selector {name!r}")


def _poly_hull(f):
    support = set(f.support())
    support.add((0,) * f.n)
    return newton_polytope(support)


def cmd_hw(args, fmt):
    f, g = _load_poly(args)
    P = _poly_hull(f) if g is not None else newton_polytope(f.support())
    mu = _select_mu(P, f, args.mu)
    M = hw_matrix(f, mu, args.prime, args.precision)
    _emit(M.to_json(), fmt)
    return 0


def cmd_lambda(args, fmt):
    f, g = _load_poly(args)
    P = _poly_hull(f) if g is not None else newton_polytope(f.support())
    mu = _select_mu(P, f, args.mu)
    sigma = (
        FrobeniusLift.t_power(args.prime, args.t_trunc)
        if g is not None
        else FrobeniusLift.identity()
    )
    M = lambda_unit_root(f, mu, args.prime, sigma, args.steps, t_trunc=args.t_trunc)
    _emit(M.to_json(), fmt)
    return 0


def cmd_higher_hw(args, fmt):
    f, g = _load_poly(args)
    P = _poly_hull(f) if g is not None else newton_polytope(f.support())
    mu = _select_mu(P, f, args.mu)
    sigma = (
        FrobeniusLift.t_power(args.prime) if g is not None else FrobeniusLift.identity()
    )
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
    p, N, m = args.prime, args.precision, args.pole
    one = LaurentPoly.constant(f.n, 1)
    image = cartier_via_formula(one, f, m, p, FrobeniusLift.identity(), N)
    base = unit_vertex(f, p)
    import itertools

    box = list(itertools.product(range(-args.bound, args.bound + 1), repeat=f.n))
    S = vertex_budget(f, base, m, one, [tuple(p * x for x in v) for v in box])
    E = expand_vertex(one, f, m, base, S, p**N)
    direct = cartier_shift(E, p)
    formula = image.expansion(base, S)
    mismatches = []
    checked = 0
    for v in box:
        if direct.is_complete(v) and formula.is_complete(v):
            checked += 1
            a = direct.coefficient(v) % p**N
            b = formula.coefficient(v) % p**N
            if a != b:
                mismatches.append({"v": list(v), "shift": a, "formula": b})
    out = {
        "schema": 1,
        "checked": checked,
        "agree": not mismatches,
        "mismatches": mismatches[:10],
    }
    _emit(out, fmt)
    return 0 if not mismatches and checked else 1


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


def cmd_verify(args, fmt):
    suite = SUITES.get(args.suite)
    if suite is None:
        raise ValueError(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}")
    kwargs = {}
    if args.job:
        with open(args.job) as fh:
            job = JobSpec.from_json(fh.read())
    else:
        job = JobSpec(
            primes=tuple(args.primes),
            s_max=args.smax,
            bound=args.bound,
            seed=args.seed,
            dimensions=tuple(args.dims),
        )
        if args.poly:
            with open(args.poly) as fh:
                obj = json.load(fh)
            if isinstance(obj, dict) and obj.get("form") == "1-t*g":
                _, g = family_from_json(obj)
                job = JobSpec(**{**job.__dict__, "families": ((args.poly, g),)})
            else:
                f = poly_from_json(obj)
                job = JobSpec(**{**job.__dict__, "polynomials": ((args.poly, f),)})
    report = suite(job)
    _emit(report.to_json(include_timing=args.timing), fmt)
    return 0 if report.passed else 1


def cmd_cy(args, fmt):
    if args.action == "instanton":
        if args.family == "quintic":
            op = preset_operator("quintic")
        else:
            op = preset_operator(args.family, args.dim)
        T = args.degree + 2
        sols = standard_solutions(op, T)
        q, mirror = canonical_coordinate(sols, T)
        Y, N = yukawa_and_instantons(sols, mirror, T)
        table = [
            {
                "d": d + 1,
                "Nd_num": str(Fraction(N[d]).numerator),
                "Nd_den": str(Fraction(N[d]).denominator),
            }
            for d in range(min(args.degree, len(N)))
        ]
        out = {
            "schema": 1,
            "family": args.family,
            "yukawa": [str(Fraction(Y[i])) for i in range(min(6, T))],
            "instantons": table,
        }
        _emit(out, fmt)
        return 0
    if args.action == "mirror":
        op = preset_operator(args.family, args.dim if args.family != "quintic" else None)
        T = args.degree + 2
        sols = standard_solutions(op, T)
        q, mirror = canonical_coordinate(sols, T)
        out = {
            "schema": 1,
            "family": args.family,
            "q_coefficients": [str(Fraction(c)) for c in q.coeffs],
            "mirror_coefficients": [str(Fraction(c)) for c in mirror.coeffs],
        }
        _emit(out, fmt)
        return 0
    if args.action == "frobenius":
        rep = frobenius_lambda0(
            args.family, args.dim, args.prime, s=args.steps, seed=args.seed
        )
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
        rep = excellent_lift_check(args.family, args.dim, args.prime, seed=args.seed)
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
    num, _, den = args.x.partition("/")
    x = Fraction(int(num), int(den)) if den else int(num)
    val = gamma_p(x, args.prime, args.precision)
    _emit(
        {
            "schema": 1,
            "x": args.x,
            "p": args.prime,
            "N": args.precision,
            "value": val.value,
        },
        fmt,
    )
    return 0


def _odd_prime(text: str) -> int:
    """argparse type for every prime option: an odd prime, else exit 2."""
    p = int(text)
    if p < 3 or p % 2 == 0 or any(p % q == 0 for q in range(3, math.isqrt(p) + 1, 2)):
        raise argparse.ArgumentTypeError(f"{text} is not an odd prime")
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dworklab",
        description="Exact p-adic Frobenius data for toric hypersurfaces",
    )
    ap.add_argument("--format", choices=("json", "pretty"), default="json")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--timing", action="store_true", help="include timings in reports")
    sub = ap.add_subparsers(dest="command", required=True)

    def poly_opts(p):
        p.add_argument("--poly", help="polynomial or family JSON file")
        p.add_argument("--preset", help="family preset name")
        p.add_argument("--dim", type=int, default=2)

    p = sub.add_parser("hw", help="Hasse-Witt matrix")
    poly_opts(p)
    p.add_argument("--prime", type=_odd_prime, required=True)
    p.add_argument("--mu", default="interior")
    p.add_argument("--precision", type=int, default=1)
    p.set_defaults(fn=cmd_hw)

    p = sub.add_parser("lambda", help="unit-root matrix")
    poly_opts(p)
    p.add_argument("--prime", type=_odd_prime, required=True)
    p.add_argument("--mu", default="interior")
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--t-trunc", type=int, default=None, dest="t_trunc")
    p.set_defaults(fn=cmd_lambda)

    p = sub.add_parser("higher-hw", help="higher Hasse-Witt condition report")
    poly_opts(p)
    p.add_argument("--prime", type=_odd_prime, required=True)
    p.add_argument("--mu", default="whole")
    p.add_argument("--level", type=int, default=2)
    p.set_defaults(fn=cmd_higher_hw)

    p = sub.add_parser("cartier", help="Cartier route-equivalence oracle")
    poly_opts(p)
    p.add_argument("--prime", type=_odd_prime, required=True)
    p.add_argument("--pole", type=int, default=1)
    p.add_argument("--precision", type=int, default=2)
    p.add_argument("--bound", type=int, default=2)
    p.set_defaults(fn=cmd_cartier)

    p = sub.add_parser("zeta-count", help="brute-force torus point count")
    poly_opts(p)
    p.add_argument("--prime", type=_odd_prime, required=True)
    p.add_argument("--ext", type=int, default=1)
    p.set_defaults(fn=cmd_zeta_count)

    p = sub.add_parser("crosscheck", help="trace vs point-count comparison")
    poly_opts(p)
    p.add_argument("--prime", type=_odd_prime, required=True)
    p.add_argument("--smax", type=int, default=2)
    p.set_defaults(fn=cmd_crosscheck)

    p = sub.add_parser("verify", help="run a congruence verification suite")
    p.add_argument("suite")
    p.add_argument("--poly")
    p.add_argument("--job", help="JobSpec JSON file")
    p.add_argument("--primes", type=lambda s: [_odd_prime(x) for x in s.split(",")],
                   default=[3, 5, 7])
    p.add_argument("--smax", type=int, default=2)
    p.add_argument("--bound", type=int, default=30)
    p.add_argument("--dims", type=lambda s: [int(x) for x in s.split(",")],
                   default=[2])
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("cy", help="Calabi-Yau family pipeline")
    p.add_argument("action", choices=("instanton", "frobenius", "excellent", "mirror"))
    p.add_argument("--family", default="quintic")
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--degree", type=int, default=10)
    p.add_argument("--prime", type=_odd_prime, default=7)
    p.add_argument("--steps", type=int, default=1)
    p.set_defaults(fn=cmd_cy)

    p = sub.add_parser("gamma-p", help="Morita p-adic gamma values")
    p.add_argument("--x", default="1")
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
    # seed is honoured by commands that randomise probes
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
