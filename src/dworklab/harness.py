"""Verification suites for the congruence theorems, with machine-readable
reports.

Suites never abort on a single-cell mathematical failure: supersingular
primes and other expected degeneracies are recorded as skipped cells, actual
congruence violations mark the cell (and the aggregate) as failed and carry
enough witness data to reproduce.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

from .arith import TPoly, odd_prime, val_p
from .laurent import FrobeniusLift, LaurentPoly, family_from_json, poly_from_json
from .linalg import mat_mul, mat_pow
from .polytope import interior, newton_polytope, whole_polytope
from .hasse_witt import HWConditionError, beta_matrix, lambda_unit_root
from .cartier import constant_term_series, expand_vertex, vertex_budget
from .zeta import frobenius_trace_elliptic, asd_alpha
from .cy import preset_family

SCHEMA_VERSION = 1


@dataclass
class JobSpec:
    """Reproducible description of a verification run."""

    primes: tuple = (3, 5, 7)
    s_max: int = 2
    bound: int = 30
    seed: int = 0
    polynomials: tuple = ()  # (label, LaurentPoly) pairs, integer coefficients
    families: tuple = ()  # (label, g) pairs for 1 - t*g families
    curves: tuple = ()  # (A, B) pairs
    dimensions: tuple = (2,)

    def __post_init__(self):
        # the one check of the grid's values, for --job files and CLI flags
        # alike: an empty or zero grid is a usage error, not a passed suite
        self.primes = tuple(odd_prime(p) for p in self.primes)
        for name in ("primes", "dimensions"):
            if not getattr(self, name):
                raise ValueError(f'"{name}" must not be empty')
        for name in ("s_max", "bound"):
            if getattr(self, name) < 1:
                raise ValueError(f'"{name}" must be >= 1, not {getattr(self, name)!r}')
        if min(self.dimensions) < 1:
            raise ValueError(f'"dimensions" must be >= 1, not {min(self.dimensions)!r}')

    @staticmethod
    def from_json(obj) -> "JobSpec":
        if isinstance(obj, str):
            obj = json.loads(obj)
        if not isinstance(obj, dict):
            raise ValueError("job JSON must be an object at the top level")

        fields = {}  # a key the file omits keeps the field's default

        def field(name, ok, what, value_of=tuple):
            if name in obj:
                if not ok(obj[name]):
                    raise ValueError(f'"{name}" must be {what}, not {obj[name]!r}')
                fields[name] = value_of(obj[name])

        def int_list(v):
            return isinstance(v, (list, tuple)) and all(type(x) is int for x in v)

        def objects(v):
            return isinstance(v, list) and all(isinstance(x, dict) for x in v)

        field("curves", lambda v: isinstance(v, list) and all(
            isinstance(c, list) and len(c) == 2 and int_list(c) for c in v),
            "a list of integer pairs [A, B]", lambda v: tuple(map(tuple, v)))
        field("polynomials", objects, "a list of polynomial objects", lambda v: tuple(
            (e.get("label", "poly"), poly_from_json(e)) for e in v))
        field("families", objects, "a list of family objects", lambda v: tuple(
            (e.get("label", "family"), family_from_json(e)[1]) for e in v))
        field("primes", lambda v: isinstance(v, (list, tuple)), "a list of odd primes")
        for name in ("s_max", "bound", "seed"):
            field(name, lambda v: type(v) is int, "an integer", int)
        field("dimensions", int_list, "a list of integers")
        return JobSpec(**fields)


@dataclass
class SuiteReport:
    suite: str
    grid: dict
    cells: list
    passed: bool
    seed: int
    elapsed: float = 0

    def to_json(self, include_timing: bool = False) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "grid": self.grid,
            "cells": self.cells,
            "pass": self.passed,
            "seed": self.seed,
        }
        if include_timing:
            out["elapsed_s"] = round(self.elapsed, 3)
        return out


def canonical_json(obj) -> str:
    """Byte-stable serialisation: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _finish(suite, grid, cells, seed) -> SuiteReport:
    # a suite that checked nothing proves nothing
    passed = bool(cells) and all(c.get("status") != "fail" for c in cells)
    return SuiteReport(suite, grid, cells, passed, seed)


# -- HHW suite ---------------------------------------------------------


def _default_hhw_polys():
    out = []
    for c0 in (0, 1, 2):
        terms = {(1, 0): 1, (0, 1): 1, (-1, -1): 1}
        if c0:
            terms[(0, 0)] = c0
        out.append((f"c0={c0}", LaurentPoly(2, terms)))
    return out


def suite_hhw(job: JobSpec) -> SuiteReport:
    """Both stabilisation congruences for the beta-matrix family:
    beta_{p^s} = beta_p sigma(beta_p) ... sigma^{s-1}(beta_p) mod p, and
    beta_{p^{s+1}} sigma(beta_{p^s})^{-1} = beta_{p^s} sigma(beta_{p^{s-1}})^{-1}
    mod p^s under the Hasse-Witt condition."""
    polys = list(job.polynomials) or _default_hhw_polys()
    cells = []
    for label, f in polys:
        P = newton_polytope(f.support() | {(0,) * f.n})
        for mu_name, mu in (("interior", interior(P)), ("whole", whole_polytope(P))):
            for p in job.primes:
                cells += _hhw_cells(label, f, mu_name, mu, p, job.s_max)
    grid = {
        "polynomials": [label for label, _ in polys],
        "mu": ["interior", "whole"],
        "primes": list(job.primes),
        "s": list(range(1, job.s_max + 1)),
    }
    return _finish("hhw", grid, cells, job.seed)


def _hhw_cells(label, f, mu_name, mu, p, s_max):
    """The cells s = 1..s_max of one (f, mu, p), from one unit-root ladder
    and one list [beta_p, ..., beta_{p^s_max}] mod p."""
    betas = [beta_matrix(f, mu, p**s, p, 1).entries for s in range(1, s_max + 1)]
    try:
        ladder = lambda_unit_root(f, mu, p, FrobeniusLift.identity(), s_max + 1)
    except HWConditionError:
        ladder = None
    cells = []
    for s in range(1, s_max + 1):
        cell = {"poly": label, "mu": mu_name, "p": p, "s": s}
        cells.append(cell)
        # first congruence, mod p
        first_ok = mat_pow(betas[0], s, p) == betas[s - 1]
        cell["first_congruence"] = first_ok
        if ladder is None:
            cell["reason"] = "hasse-witt condition fails (supersingular cell)"
            cell["pass"] = first_ok
            cell["status"] = "skip" if first_ok else "fail"
            continue
        # second congruence, mod p^s: Lambda_{s+1} reduced against Lambda_s
        lhs = [[x % p**s for x in row] for row in ladder[s].entries]
        rhs = ladder[s - 1].entries
        second_ok = lhs == rhs
        cell["second_congruence"] = second_ok
        ok = first_ok and second_ok
        cell["status"] = "ok" if ok else "fail"
        if not ok:
            cell["witness"] = {
                "lhs": [[str(x) for x in row] for row in lhs],
                "rhs": [[str(x) for x in row] for row in rhs],
                "modulus": f"{p}^{s}",
            }
    return cells


def suite_generalized_dwork(job: JobSpec) -> SuiteReport:
    """beta_{m p^s}(mu) = Lambda(mu) sigma(beta_{m p^{s-1}}(mu)) mod p^s for
    small multipliers m, on integer polynomials with the unit-root matrix
    computed at matching precision.  Lambda_s is beta_{p^s} sigma(beta_{p^{s-1}})^{-1}
    by definition, so the m = 1 cell of level s reads Lambda_{s+1} reduced
    mod p^s instead: it holds by the second HHW congruence, not by definition."""
    polys = list(job.polynomials) or _default_hhw_polys()
    cells = []
    for label, f in polys:
        P = newton_polytope(f.support() | {(0,) * f.n})
        mu = whole_polytope(P)
        for p in job.primes:
            try:
                ladder = lambda_unit_root(f, mu, p, FrobeniusLift.identity(), job.s_max + 1)
            except HWConditionError:
                ladder = None
            else:  # each beta_{m p^k} once, mod p^s_max; a cell reads it reduced
                ms = {m * p**k for m in (1, 2, 3) for k in range(job.s_max + 1)}
                beta = {e: beta_matrix(f, mu, e, p, job.s_max).entries for e in sorted(ms)}
            for s in range(1, job.s_max + 1):
                for m in (1, 2, 3):
                    cell = {"poly": label, "p": p, "s": s, "m": m}
                    cells.append(cell)
                    if ladder is None:
                        cell.update(status="skip", reason="hasse-witt condition fails")
                        continue
                    modulus = p**s
                    lhs = [[x % modulus for x in row] for row in beta[m * p**s]]
                    lam = ladder[s if m == 1 else s - 1].entries
                    rhs = mat_mul(lam, beta[m * p ** (s - 1)], modulus)
                    cell["status"] = "ok" if lhs == rhs else "fail"
    grid = {"polynomials": [l for l, _ in polys], "primes": list(job.primes)}
    return _finish("generalized-dwork", grid, cells, job.seed)


# -- ASD suite ---------------------------------------------------------


def suite_asd(job: JobSpec) -> SuiteReport:
    """Atkin/Swinnerton-Dyer congruences for elliptic expansion coefficients,
    the quadratic relation for the unit root, and alpha_p = a_p mod p."""
    curves = list(job.curves) or [(-1, 0), (1, 1), (-2, 1)]
    cells = []
    for A, B in curves:
        for p in job.primes:
            cell = {"curve": [A, B], "p": p}
            try:
                a_p = frobenius_trace_elliptic(A, B, p)
            except ValueError:
                cell["status"] = "skip"
                cell["reason"] = "singular reduction"
                cells.append(cell)
                continue
            cell["a_p"] = a_p
            def alpha_at(m, power, modulus):
                # expansion coefficients at fractional indices vanish
                if m % power:
                    return 0
                return asd_alpha(A, B, m // power, modulus)

            checks = []
            ok = True
            for c in (1, 3):
                for s in range(1, job.s_max + 1):
                    m = c * p**s
                    modulus = p**s
                    lhs = (
                        asd_alpha(A, B, m, modulus)
                        - a_p * alpha_at(m, p, modulus)
                        + p * alpha_at(m, p**2, modulus)
                    )
                    good = lhs % modulus == 0
                    ok = ok and good
                    checks.append({"m": m, "mod": f"{p}^{s}", "ok": good})
            cell["asd"] = checks
            cell["alpha_p_matches_a_p"] = (asd_alpha(A, B, p, p) - a_p) % p == 0
            ok = ok and cell["alpha_p_matches_a_p"]
            if a_p % p == 0:
                cell["status"] = "skip" if ok else "fail"
                cell["reason"] = "supersingular: no unit root"
                cells.append(cell)
                continue
            f = LaurentPoly(
                2, {(0, 2): 1, (3, 0): -1, (1, 0): -A, (0, 0): -B}
            )
            mu = interior(newton_polytope(f.support() | {(0, 0), (3, 0), (0, 2)}))
            s_top = max(job.s_max, 3)
            lam = lambda_unit_root(f, mu, p, FrobeniusLift.identity(), s_top)[-1]
            lam_val = lam.entries[0][0]
            quad = (lam_val * lam_val - a_p * lam_val + p) % p**s_top == 0
            cell["lambda"] = lam_val
            cell["lambda_modulus"] = f"{p}^{s_top}"
            cell["quadratic_relation"] = quad
            ok = ok and quad
            cell["status"] = "ok" if ok else "fail"
            cells.append(cell)
    grid = {"curves": [list(c) for c in curves], "primes": list(job.primes)}
    return _finish("asd", grid, cells, job.seed)


# -- Gauss suite -------------------------------------------------------


class GaussHypothesisError(ValueError):
    pass


def _default_gauss_polys():
    return [
        ("1+x+y", LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})),
        (
            "1+x+y+xy",
            LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}),
        ),
    ]


def suite_gauss(job: JobSpec) -> SuiteReport:
    """c_v = c_{v/p} mod p^{ord_p(v)} for all expansion coefficients of 1/f,
    at every vertex of a Newton polytope whose lattice points are vertices.

    Each cell checks every v = p u with 0 != v in [-bound, bound]^n, in
    lexicographic order of v (see `_gauss_cell`)."""
    if job.bound < max(job.primes):
        # no v = p u != 0 lies in the box: a usage error, not a failed theorem
        raise ValueError(
            f'"bound" {job.bound} is below p = {max(job.primes)}: the box holds no index p u'
        )
    polys = list(job.polynomials) or _default_gauss_polys()
    cells = []
    for label, f in polys:
        P = newton_polytope(f.support())
        if set(P.lattice_points(1)) != set(P.vertices):
            raise GaussHypothesisError(
                f"{label}: polytope has non-vertex lattice points"
            )
        for p in job.primes:
            if any(isinstance(c, TPoly) or c % p == 0 for c in f.terms.values()):
                raise GaussHypothesisError(f"{label}: p={p} divides a coefficient")
            for b in P.vertices:
                cells.append(_gauss_cell(label, f, P, b, p, job.bound))
    grid = {
        "polynomials": [l for l, _ in polys],
        "primes": list(job.primes),
        "bound": job.bound,
    }
    return _finish("gauss", grid, cells, job.seed)


def _gauss_cell(label, f, P, b, p, bound):
    """The Gauss congruence at the vertex b for every index of the box
    [-bound, bound]^n with ord_p >= 1.

    Those are the v = p u with 0 != u in [-bound // p, bound // p]^n, scanned
    in lexicographic order of u, which is lexicographic order of v; ord_p(v)
    is 1 + val_p(gcd(u)).  The budget is computed over these v and u only and
    certifies each of them complete, so each compared coefficient is the
    exact expansion coefficient mod p^N, N = max(1, floor(log_p bound)) + 2
    >= ord_p(v); both `is_complete` checks still guard every comparison."""
    cell = {"poly": label, "vertex": list(b), "p": p}
    n = f.n
    max_ord = 1  # max(1, floor(log_p bound)), in integers
    while p ** (max_ord + 1) <= bound:
        max_ord += 1
    N = max_ord + 2
    one = LaurentPoly.constant(n, 1)
    k = bound // p
    zero = (0,) * n
    us = [u for u in itertools.product(range(-k, k + 1), repeat=n) if u != zero]
    vs = [tuple(p * x for x in u) for u in us]
    S = vertex_budget(f, b, 1, one, vs + us)
    E = expand_vertex(one, f, 1, b, S, p**N)
    checked = 0
    failures = []
    for u, v in zip(us, vs):
        if not (E.is_complete(v) and E.is_complete(u)):
            continue
        ord_v = 1 + val_p(math.gcd(*u), p)
        c1 = E.coefficient(v)
        c2 = E.coefficient(u)
        checked += 1
        if (c1 - c2) % p**ord_v != 0:
            failures.append(
                {"v": list(v), "c_v": c1, "c_v_over_p": c2, "mod": f"{p}^{ord_v}"}
            )
    cell["checked"] = checked
    cell["status"] = "ok" if checked and not failures else "fail"
    if failures:
        cell["witness"] = failures[:5]
    if checked == 0:
        cell["status"] = "fail"
        cell["witness"] = [{"reason": "no certified indices inside the bound"}]
    return cell


# -- Dwork and supercongruence suites ---------------------------------


def suite_dwork(job: JobSpec) -> SuiteReport:
    """gamma(t) gamma_{m/p}(t^p) = gamma_m(t) gamma(t^p) mod (p^{ord_p m}, t^m)
    for the constant-term series of preset families."""
    fams = list(job.families) or [
        (f"simplicial n={n}", preset_family("simplicial", n).g)
        for n in job.dimensions
    ]
    cells = []
    for label, g in fams:
        for p in job.primes:
            for m in (p, p**2, 2 * p):
                cells.append(_dwork_cell(label, g, p, m))
    grid = {
        "families": [l for l, _ in fams],
        "primes": list(job.primes),
        "m": "p, p^2, 2p",
    }
    return _finish("dwork", grid, cells, job.seed)


def _dwork_cell(label, g, p, m):
    cell = {"family": label, "p": p, "m": m}
    ord_m = val_p(m, p)
    modulus = p**ord_m
    T = m + 1
    gam = constant_term_series(g, T)
    gam_m = gam.truncate(m)
    gam_mp = gam.truncate(m // p)
    lhs = gam.mul(gam_mp.subs_t_power(p), T) % modulus
    rhs = gam_m.mul(gam.subs_t_power(p), T) % modulus
    ok = lhs == rhs
    cell["modulus"] = f"{p}^{ord_m}"
    cell["status"] = "ok" if ok else "fail"
    if not ok:
        diff = (lhs - rhs) % modulus
        cell["witness"] = {"difference": [int(x) for x in diff.coeffs]}
    return cell


def supercongruence_family() -> LaurentPoly:
    """f = (1 - x1)(1 - x2) - t x1 x2 with polynomial-in-t coefficients."""
    return LaurentPoly(
        2,
        {
            (0, 0): TPoly([1]),
            (1, 0): TPoly([-1]),
            (0, 1): TPoly([-1]),
            (1, 1): TPoly([1, -1]),
        },
    )


def expansion_coefficient_super(u, modulus: int | None = None):
    """c_u(t) for the supercongruence family via the generic vertex expansion."""
    f = supercongruence_family()
    one = LaurentPoly.constant(2, 1)
    S = vertex_budget(f, (0, 0), 1, one, [u])
    E = expand_vertex(one, f, 1, (0, 0), S, modulus, targets=[u])
    c = E.coefficient(u)
    return TPoly.coerce(c)


def suite_super(job: JobSpec) -> SuiteReport:
    """Supercongruences for the distinguished lift t -> t^p of the family
    (1-x1)(1-x2) - t x1 x2: coefficientwise c_{u p^s}(t) = c_{u p^{s-1}}(t^p)
    mod p^{2s}, including the binomial specialisation at t = 1."""
    primes = [p for p in job.primes if p in (3, 5)] or [3, 5]
    u_list = [(1, 1), (1, 2), (2, 3)]
    cells = []
    for p in primes:
        for u in u_list:
            for s in range(1, job.s_max + 1):
                cells.append(_super_cell(u, p, s))
    grid = {"primes": primes, "u": [list(u) for u in u_list], "s_max": job.s_max}
    return _finish("super", grid, cells, job.seed)


def _super_cell(u, p, s):
    cell = {"u": list(u), "p": p, "s": s}
    modulus = p ** (2 * s)
    hi = tuple(x * p**s for x in u)
    lo = tuple(x * p ** (s - 1) for x in u)
    c_hi = expansion_coefficient_super(hi, modulus=modulus)
    c_lo = expansion_coefficient_super(lo, modulus=modulus)
    diff = (c_hi - c_lo.subs_t_power(p)) % modulus
    poly_ok = not bool(diff)
    # binomial specialisation at t = 1, independent big-integer arithmetic
    b_hi = math.comb((u[0] + u[1]) * p**s, u[0] * p**s)
    b_lo = math.comb((u[0] + u[1]) * p ** (s - 1), u[0] * p ** (s - 1))
    binom_ok = (b_hi - b_lo) % modulus == 0
    cell["polynomial_congruence"] = poly_ok
    cell["binomial_specialization"] = binom_ok
    cell["modulus"] = f"{p}^{2 * s}"
    cell["status"] = "ok" if poly_ok and binom_ok else "fail"
    if not poly_ok:
        cell["witness"] = {"difference": [int(x) for x in diff.coeffs]}
    return cell


SUITES = {
    "hhw": suite_hhw,
    "generalized-dwork": suite_generalized_dwork,
    "asd": suite_asd,
    "gauss": suite_gauss,
    "dwork": suite_dwork,
    "super": suite_super,
}
