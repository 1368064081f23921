"""The four benchmark workloads: seeded inputs and verified cells.

A cell is one theorem instance: one library call (or a short chain of calls
whose outputs feed each other) plus the exact check of its output.  A
workload is built once per process (`build`, the set-up phase) and its cells
are then run in order, once per pass.

Seed 0 is exactly the inputs of the acceptance criteria in
`tests/test_acceptance.py` (trimmed where RATIONALE.md says so).  Other seeds
draw nonzero coefficients on the same supports, because the support sets the
cost.  Primes, precisions, truncations, levels and dimensions never depend on
the seed.  Only the generated inputs reach the library.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction
from typing import Callable

from dworklab import arith, cartier, cy, harness, hasse_witt, laurent, polytope, zeta
from dworklab.arith import TPoly, TruncatedSeries
from dworklab.harness import JobSpec
from dworklab.laurent import FrobeniusLift, LaurentPoly

WORKLOADS = ("integer-fibres", "t-expansions", "higher-hw", "cy-pipeline")


@dataclass
class Cell:
    """`run` calls the library and returns its output; `verdict` checks that
    output exactly and returns "ok", "skip" (the theorem does not apply, for
    example a supersingular prime) or "fail"."""

    name: str
    run: Callable[[], object]
    verdict: Callable[[object], str]


def ok_if(condition) -> str:
    return "ok" if condition else "fail"


# -- canonical output digests -------------------------------------------


def to_jsonable(obj):
    """A JSON-ready form of a library output that is the same in every run."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, (TPoly, TruncatedSeries)):
        return [to_jsonable(c) for c in obj.coeffs]
    if isinstance(obj, LaurentPoly):
        return [[list(e), to_jsonable(c)] for e, c in obj.sorted_terms()]
    if isinstance(obj, harness.SuiteReport):
        return obj.to_json(include_timing=False)
    if is_dataclass(obj):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {
            json.dumps(to_jsonable(k), sort_keys=True): to_jsonable(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((to_jsonable(x) for x in obj), key=json.dumps)
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    text = json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# -- seeded coefficient draws -------------------------------------------


def _rng(seed: int, *key) -> random.Random:
    # one independent stream per input, so adding a cell moves no other input
    return random.Random("/".join(map(str, (seed,) + key)))


def _nonzero(rng: random.Random, magnitude: int, avoid=()) -> int:
    while True:
        c = rng.choice((-1, 1)) * rng.randint(1, magnitude)
        if all(c % q for q in avoid):
            return c


def _reseed(terms: dict, seed: int, key, magnitude: int, avoid=()) -> dict:
    """Same support, nonzero coefficients drawn from the seed (seed 0 keeps them)."""
    if seed == 0:
        return dict(terms)
    rng = _rng(seed, *key)
    return {e: _nonzero(rng, magnitude, avoid) for e in sorted(terms)}


def elliptic_reduction(A: int, B: int, p: int) -> str:
    """Reduction type of y^2 = x^3 + A x + B at p, counted directly."""
    if (4 * A**3 + 27 * B**2) % p == 0:
        return "singular"
    squares = [0] * p
    for y in range(p):
        squares[y * y % p] += 1
    affine = sum(squares[(x**3 + A * x + B) % p] for x in range(p))
    return "supersingular" if (p - affine) % p == 0 else "ordinary"


# -- integer-fibres -------------------------------------------------------

ASD_SHAPES = ((-1, 0), (1, 1), (-2, 1))
# Cells are kept under about half a second, so that a run repeats each one
# many times (RATIONALE.md): the dense shapes stop at p = 7 (at p = 11 a cell
# takes 2 s), and the p = 5 crosscheck at s = 2 (s = 3 takes 1 s).
ASD_PRIMES = (3, 5, 7)
# (-1, 0) at p = 13 takes m to p^3 = 2197 on a sparse support
ASD_EXTRA = (((-1, 0), 13),)
ASD_S_MAX = 3
# x + y + 1/(xy) + c0: (coefficients of x, y, 1/(xy), 1), p, s_max
CROSSCHECKS = (((1, 1, 1, 2), 5, 2), ((1, 1, 1, 1), 7, 2))
TRIANGLE = ((1, 0), (0, 1), (-1, -1), (0, 0))


def asd_curve(shape, p: int, seed: int):
    """The seed's curve for one (shape, p) cell, with seed 0's reduction type
    at p, so every seed skips the same cells and does the same work."""
    if seed == 0:
        return shape, elliptic_reduction(*shape, p)
    want = elliptic_reduction(*shape, p)
    rng = _rng(seed, "asd", shape, p)
    while True:
        A, B = (_nonzero(rng, 12, avoid=(p,)) if c else 0 for c in shape)
        if elliptic_reduction(A, B, p) == want:
            return (A, B), want


def _asd_cell(shape, p, seed):
    (A, B), reduction = asd_curve(shape, p, seed)
    job = JobSpec(primes=(p,), s_max=ASD_S_MAX, curves=((A, B),))

    def verdict(report):
        (cell,) = report.cells
        # an ordinary curve must give a verified cell, any other a skip
        if reduction == "ordinary":
            return ok_if(cell.get("status") == "ok" and cell["quadratic_relation"])
        return "skip" if cell.get("status") == "skip" else "fail"

    return Cell(
        f"asd{list(shape)}/p={p}", lambda: harness.suite_asd(job), verdict
    )


def crosscheck_poly(coeffs, p: int, seed: int) -> LaurentPoly:
    """x + y + 1/(xy) + c0 at seed 0; other seeds redraw p-unit coefficients
    until the Hasse-Witt condition holds, the hypothesis of the trace identity."""
    terms = dict(zip(TRIANGLE, coeffs))
    attempt = 0
    while True:
        f = LaurentPoly(2, _reseed(terms, seed, ("xc", coeffs, p, attempt), 6, (p,)))
        mu = polytope.whole_polytope(polytope.newton_polytope(f.support()))
        if seed == 0 or hasse_witt.hw_condition(f, mu, p):
            return f
        attempt += 1


def _crosscheck_cell(coeffs, p, s_max, seed):
    f = crosscheck_poly(coeffs, p, seed)
    return Cell(
        f"crosscheck{list(coeffs)}/p={p}/s<={s_max}",
        lambda: zeta.eigenvalue_crosscheck(f, p, s_max),
        lambda rep: ok_if(rep["pass"] and len(rep["cells"]) == s_max),
    )


def integer_fibres(seed: int):
    cells = [_asd_cell(c, p, seed) for c in ASD_SHAPES for p in ASD_PRIMES]
    cells += [_asd_cell(c, p, seed) for c, p in ASD_EXTRA]
    cells += [_crosscheck_cell(c, p, s, seed) for c, p, s in CROSSCHECKS]
    return cells


# -- t-expansions -----------------------------------------------------------

SUPER_U = ((1, 1), (1, 2), (2, 3))
# Cells are kept under about half a second (RATIONALE.md), which leaves
# out the p = 5, s = 2 supercongruences for u = (1, 2) and (2, 3)
# (0.8-8 s), the four-term Gauss shape 1+x+y+xy (0.7 s of harness glue per
# prime) and the n = 3 Dwork family at p = 7.
# p -> largest s
SUPER_S_MAX = {3: 2, 5: 1}
# u = (1, 1) at p = 5, s = 2 takes expand_vertex to its largest index box
SUPER_EXTRA = (((1, 1), 5, 2),)
GAUSS_SHAPES = (("1+x+y", ((0, 0), (1, 0), (0, 1))),)
GAUSS_PRIMES = (3, 5, 7)
GAUSS_BOUND = 30
# (n, p)
DWORK_CELLS = ((2, 3), (2, 5), (2, 7), (3, 3), (3, 5))
ROUTE_PRIMES = (3, 5)
ROUTE_MEMBERS = 10  # per prime
ROUTE_BOX = tuple(itertools.product(range(-1, 2), repeat=2))


def _super_cell(u, p, s):
    # The supercongruence holds for this one family and lift; the public
    # entry point fixes the family, so these cells do not depend on the seed.
    modulus = p ** (2 * s)
    hi = tuple(x * p**s for x in u)
    lo = tuple(x * p ** (s - 1) for x in u)

    def run():
        c_hi = harness.expansion_coefficient_super(hi, modulus=modulus)
        c_lo = harness.expansion_coefficient_super(lo, modulus=modulus)
        return c_hi, c_lo

    def verdict(out):
        c_hi, c_lo = out
        poly_ok = not bool((c_hi - c_lo.subs_t_power(p)) % modulus)
        b_hi = math.comb((u[0] + u[1]) * p**s, u[0] * p**s)
        b_lo = math.comb((u[0] + u[1]) * p ** (s - 1), u[0] * p ** (s - 1))
        return ok_if(poly_ok and (b_hi - b_lo) % modulus == 0)

    return Cell(f"super{list(u)}/p={p}/s={s}", run, verdict)


def _gauss_cell(label, support, p, seed):
    ones = {e: 1 for e in support}
    f = LaurentPoly(2, _reseed(ones, seed, ("gauss", label), 13, GAUSS_PRIMES))
    job = JobSpec(primes=(p,), bound=GAUSS_BOUND, polynomials=((label, f),))
    vertices = len(polytope.newton_polytope(f.support()).vertices)

    def verdict(report):
        return ok_if(
            report.passed
            and len(report.cells) == vertices
            and all(c["checked"] > 0 for c in report.cells)
        )

    return Cell(f"gauss[{label}]/p={p}", lambda: harness.suite_gauss(job), verdict)


def _dwork_cell(n, p, seed):
    label = f"simplicial n={n}"
    g = cy.preset_family("simplicial", n).g
    g = LaurentPoly(n, _reseed(g.terms, seed, ("dwork", n), 4, avoid=(p,)))
    job = JobSpec(primes=(p,), families=((label, g),))
    return Cell(
        f"dwork[{label}]/p={p}",
        lambda: harness.suite_dwork(job),
        lambda report: ok_if(report.passed and len(report.cells) == 3),
    )


def route_members():
    """Criterion 10's random members: (terms, base vertex, m, N, p)."""
    out = []
    for p in ROUTE_PRIMES:
        rng = random.Random(100 + p)
        while sum(1 for m in out if m[4] == p) < ROUTE_MEMBERS:
            terms = {}
            for _ in range(rng.randint(2, 4)):
                e = tuple(rng.randint(-2, 2) for _ in range(2))
                c = rng.randint(-4, 4)
                if c:
                    terms[e] = c
            if len(terms) < 3:
                continue
            try:
                P = polytope.newton_polytope(set(terms))
            except ValueError:
                continue
            base = next((v for v in P.vertices if terms.get(v, 0) % p), None)
            if base is None:
                continue
            out.append((terms, base, rng.randint(1, 3), rng.randint(1, 3), p))
    return out


def _route_cell(index, terms, base, m, N, p, seed):
    drawn = dict(terms)
    if seed:
        # p-units stay p-units (the base among them) and multiples of p stay
        # multiples of p, so the support mod p, which sets the cost, is the
        # same for every seed
        rng = _rng(seed, "route", index)
        drawn = {
            e: _nonzero(rng, 4, avoid=(p,)) if c % p else p * rng.choice((-1, 1))
            for e, c in sorted(terms.items())
        }
    f = LaurentPoly(2, drawn)
    one = LaurentPoly.constant(2, 1)
    ident = FrobeniusLift.identity()

    def run():
        img = cartier.cartier_via_formula(one, f, m, p, ident, N)
        S = cartier.vertex_budget(
            f, base, m, one, [tuple(p * x for x in v) for v in ROUTE_BOX]
        )
        for _, Q, pole in img.terms:
            S = max(S, cartier.vertex_budget(f, base, pole, Q, ROUTE_BOX))
        E = cartier.expand_vertex(one, f, m, base, S, p**N)
        direct = cartier.cartier_shift(E, p)
        formula = img.expansion(base, S)
        return [
            [list(v), direct.coefficient(v), formula.coefficient(v)]
            for v in ROUTE_BOX
            if direct.is_complete(v) and formula.is_complete(v)
        ]

    def verdict(rows):
        return ok_if(rows and all((a - b) % p**N == 0 for _, a, b in rows))

    return Cell(f"route#{index}/p={p}/m={m}/N={N}", run, verdict)


def t_expansions(seed: int):
    cells = [
        _super_cell(u, p, s)
        for p, s_max in SUPER_S_MAX.items()
        for u in SUPER_U
        for s in range(1, s_max + 1)
    ]
    cells += [_super_cell(u, p, s) for u, p, s in SUPER_EXTRA]
    cells += [
        _gauss_cell(label, support, p, seed)
        for label, support in GAUSS_SHAPES
        for p in GAUSS_PRIMES
    ]
    cells += [_dwork_cell(n, p, seed) for n, p in DWORK_CELLS]
    cells += [
        _route_cell(i, *member, seed) for i, member in enumerate(route_members())
    ]
    return cells


# -- higher-hw ----------------------------------------------------------------

# The criterion-9 grid ignores the seed: every fibre a other than 1 and 4 is
# either non-ordinary at p = 7 up to level n (a = 2 fails level 1 for n = 3,
# a = 3 fails level 2 for n = 2), where the theorem does not apply, or does
# the same work on the same support.
HHW_P = 7
# (n, top level, p) of the t-family cells.  Cells are kept under about half
# a second (RATIONALE.md).  At p = 7 the level-2 cells take 8 s (n = 2) and
# 26 s (n = 3), so the level-2 determinants run at p = 3 (0.2 s and 0.8 s):
# the same tpoly_det path on smaller entries.  Level 1 stays at p = 7.
HHW_FAMILY = ((2, 2, 3), (3, 1, HHW_P), (3, 2, 3))
# integer fibres and alternative-formula checks at p = 7; for n = 3 they take
# 0.6-4 s each and are left out
HHW_DIMENSIONS = (2,)
HHW_FIBRES = (1, 4)


def _simplex_g(n: int) -> LaurentPoly:
    return LaurentPoly(
        n,
        {
            **{tuple(int(j == i) for j in range(n)): 1 for i in range(n)},
            (-1,) * n: 1,
        },
    )


def higher_hw(seed: int):
    p = HHW_P
    lift = FrobeniusLift.t_power(p)
    cells = []
    for n, k, q in HHW_FAMILY:
        g = _simplex_g(n)
        W = polytope.whole_polytope(polytope.newton_polytope(g.support()))
        ft = laurent.family_poly(g)
        targets = [hasse_witt.level_valuation_target(W, lv) for lv in range(1, k + 1)]

        def verdict(out, targets=targets, n=n, k=k):
            ok, report = out
            levels_ok = [report[lv]["L"] for lv in range(1, k + 1)] == targets
            pinned = n != 2 or k < 2 or report[2]["L"] == 6
            return ok_if(ok and levels_ok and pinned)

        cells.append(
            Cell(
                f"hhw-family/n={n}/k<={k}/p={q}",
                lambda ft=ft, W=W, k=k, q=q: hasse_witt.higher_hw_condition(
                    ft, W, k, q, FrobeniusLift.t_power(q)
                ),
                verdict,
            )
        )
    for n in HHW_DIMENSIONS:
        g = _simplex_g(n)
        W = polytope.whole_polytope(polytope.newton_polytope(g.support()))
        for a in HHW_FIBRES:
            fi = LaurentPoly(n, {(0,) * n: 1, **{e: -a * c for e, c in g.terms.items()}})
            cells.append(
                Cell(
                    f"hhw-fibre/n={n}/a={a}/k<={n}",
                    lambda fi=fi, W=W, n=n: hasse_witt.higher_hw_condition(fi, W, n, p),
                    lambda out, n=n: ok_if(out[0] and out[1][n]["ord"] == out[1][n]["L"]),
                )
            )
        ft = laurent.family_poly(g)
        f1 = LaurentPoly(n, {(0,) * n: 1, **{e: -c for e, c in g.terms.items()}})
        cells.append(
            Cell(
                f"hhw-alt-family/n={n}/k=2",
                lambda ft=ft, W=W, g=g: hasse_witt.higher_hw_alternative_check(
                    ft, W, 2, p, lift, g=g
                ),
                ok_if,
            )
        )
        cells.append(
            Cell(
                f"hhw-alt-fibre/n={n}/k={n}",
                lambda f1=f1, W=W, n=n: hasse_witt.higher_hw_alternative_check(
                    f1, W, n, p
                ),
                ok_if,
            )
        )
    return cells


# -- cy-pipeline -------------------------------------------------------------

# Cells are kept under about half a second (RATIONALE.md), so every cell
# runs at T = 25 (criteria 1 and 11 use 20 and 45; at T = 45 the mirror map
# takes 3 s), and lambda0 runs only at p = 5.
CY_T = 25
QUINTIC_5N = (2875, 609250, 317206375, 242467530000)
INTEGRALITY_PRIMES = (7, 11, 13)
LAMBDA0_PRIMES = (5,)
EXCELLENT_P = 5


def cy_pipeline(seed: int):
    # The whole workload ignores the seed.  The quintic operator and the
    # simplicial family are shipped presets, with no coefficient to redraw,
    # and the golden values are the oracle.  The library's own probe seed is
    # left at its default: it picks the held-out interpolation probes, which
    # changes the work by up to a third (lambda0 at p = 5 took 0.20-0.28 s
    # over probe seeds 1-5), so it would vary the cost, not the input.
    T = CY_T
    operator = cy.preset_operator("quintic")
    state = {}

    def solutions():
        state["sols"] = cy.standard_solutions(operator, T)
        return state["sols"]

    def solutions_ok(sols):
        F0 = sols[0].components[0]
        return ok_if(
            all(
                F0[k] == Fraction(math.factorial(5 * k), math.factorial(k) ** 5)
                for k in range(T)
            )
        )

    def mirror():
        state["q"], state["mirror"] = cy.canonical_coordinate(state["sols"], T)
        return state["q"], state["mirror"]

    def mirror_ok(out):
        q, _ = out
        return ok_if(
            all(
                arith.val_p_fraction(c, p) >= 0
                for p in INTEGRALITY_PRIMES
                for c in q.coeffs
            )
        )

    def instantons():
        return cy.yukawa_and_instantons(state["sols"], state["mirror"], T)

    def instantons_ok(out):
        Y, N = out
        return ok_if(
            Y[1] == 575
            and Y[2] == 975375
            and tuple(5 * N[d] for d in range(4)) == QUINTIC_5N
            and all(
                arith.val_p_fraction(N[d], p) >= 0
                for p in INTEGRALITY_PRIMES
                for d in range(15)
            )
        )

    cells = [
        Cell(f"quintic-solutions/T={T}", solutions, solutions_ok),
        Cell(f"quintic-mirror/T={T}", mirror, mirror_ok),
        Cell(f"quintic-instantons/T={T}", instantons, instantons_ok),
    ]
    for p in LAMBDA0_PRIMES:

        def lambda0_ok(rep, p=p):
            return ok_if(
                rep.lambda0 == [[1, 0], [0, p]]
                and rep.alphas[0][0] == 1
                and rep.alphas[0][1] == 0
                and rep.ell_cancellation
                and rep.ode_residual_ok
                and all(d["ok"] for d in rep.t_constancy)
            )

        cells.append(
            Cell(
                f"lambda0[simplicial 2]/p={p}",
                lambda p=p: cy.frobenius_lambda0(
                    "simplicial", 2, p, s=1, T=T, ode_t_check=10
                ),
                lambda0_ok,
            )
        )
    cells.append(
        Cell(
            f"excellent[simplicial 2]/p={EXCELLENT_P}",
            lambda: cy.excellent_lift_check("simplicial", 2, EXCELLENT_P, T=T),
            lambda rep: ok_if(rep["passed"]),
        )
    )
    return cells


BUILDERS = {
    "integer-fibres": integer_fibres,
    "t-expansions": t_expansions,
    "higher-hw": higher_hw,
    "cy-pipeline": cy_pipeline,
}


def build(workload: str, seed: int) -> list:
    """Generate the seeded inputs and the cells of one workload."""
    return BUILDERS[workload](seed)
