"""Acceptance criteria, one test per criterion.

Every check is an exact congruence or equality (tolerances are zero); each
test prints a single PASS line with its runtime when it completes.  Criterion
13 is stretch-tier and excluded from the default run (pytest -m slow).
"""

import math
import random
import sys
import time
from fractions import Fraction

import pytest

from dworklab.arith import val_p_fraction
from dworklab.laurent import FrobeniusLift, LaurentPoly, family_poly
from dworklab.polytope import newton_polytope, whole_polytope
from dworklab.hasse_witt import (
    higher_hw_alternative_check,
    higher_hw_condition,
    level_valuation_target,
)
from dworklab.harness import (
    JobSpec,
    suite_asd,
    suite_dwork,
    suite_gauss,
    suite_hhw,
    suite_super,
)
from dworklab.zeta import eigenvalue_crosscheck, unit_root_elliptic
from dworklab.cy import (
    canonical_coordinate,
    frobenius_lambda0,
    preset_operator,
    standard_solutions,
    yukawa_and_instantons,
)


def _report(number, description, t0, budget_s):
    elapsed = time.time() - t0
    line = f"ACCEPTANCE {number:>2}: PASS  ({elapsed:6.1f}s <= {budget_s}s)  {description}"
    print(line, file=sys.stderr, flush=True)
    assert elapsed < budget_s, f"criterion {number} exceeded its time budget"


@pytest.fixture(scope="module")
def quintic_pipeline():
    T = 20
    t0 = time.time()
    sols = standard_solutions(preset_operator("quintic"), T)
    q, mirror = canonical_coordinate(sols, T)
    Y, N = yukawa_and_instantons(sols, mirror, T)
    return {"sols": sols, "q": q, "Y": Y, "N": N, "elapsed": time.time() - t0}


def test_criterion_01_quintic_golden_values(quintic_pipeline):
    t0 = time.time() - quintic_pipeline["elapsed"]
    Y, N = quintic_pipeline["Y"], quintic_pipeline["N"]
    assert Y[1] == 575
    assert Y[2] == 975375
    assert [5 * N[d] for d in range(4)] == [2875, 609250, 317206375, 242467530000]
    _report(1, "quintic Yukawa and instanton golden values", t0, 5)


def test_criterion_02_quintic_holomorphic_solution(quintic_pipeline):
    t0 = time.time()
    F0 = quintic_pipeline["sols"][0].components[0]
    assert F0[0] == 1 and F0[1] == 120 and F0[2] == 113400
    for k in range(20):
        assert F0[k] == Fraction(math.factorial(5 * k), math.factorial(k) ** 5)
    _report(2, "quintic F_0 equals the factorial series to T=20", t0, 5)


def test_criterion_03_hhw_suite():
    t0 = time.time()
    report = suite_hhw(JobSpec(primes=(5, 7), s_max=2))
    assert report.passed
    labels = {c["poly"] for c in report.cells}
    assert labels == {"c0=0", "c0=1", "c0=2"}
    checked = [c for c in report.cells if c.get("status") == "ok"]
    assert checked and all(c["first_congruence"] and c["second_congruence"] for c in checked)
    _report(3, "beta-matrix stabilisation congruences (both forms)", t0, 60)


def test_criterion_04_asd_suite():
    t0 = time.time()
    report = suite_asd(
        JobSpec(primes=(3, 5, 7, 11, 13), s_max=3, curves=((-1, 0), (1, 1), (-2, 1)))
    )
    assert report.passed
    cell = next(
        c for c in report.cells if c["curve"] == [-1, 0] and c["p"] == 5
    )
    # pinned by the Hensel oracle: the unit root of X^2 + 2X + 5 from 3 mod 5
    oracle = unit_root_elliptic(-1, 0, 5, 2)
    assert oracle == 13
    assert cell["lambda"] % 25 == oracle
    assert cell["quadratic_relation"]
    _report(4, "Atkin/Swinnerton-Dyer congruences and unit-root quadratic", t0, 60)


def test_criterion_05_dwork_suite():
    t0 = time.time()
    report = suite_dwork(JobSpec(primes=(3, 5, 7), dimensions=(2, 3)))
    assert report.passed
    assert len(report.cells) == 18  # 2 families x 3 primes x 3 truncations
    _report(5, "truncation-ratio congruences for constant-term series", t0, 60)


def test_criterion_06_gauss_suite():
    t0 = time.time()
    report = suite_gauss(JobSpec(primes=(3, 5, 7), bound=30))
    assert report.passed
    # vertex-independence: every vertex of each polytope produced a cell
    by_poly = {}
    for c in report.cells:
        by_poly.setdefault((c["poly"], c["p"]), []).append(tuple(c["vertex"]))
    for (label, _), verts in by_poly.items():
        expected = 3 if label == "1+x+y" else 4
        assert len(set(verts)) == expected
    assert all(c["checked"] > 0 for c in report.cells)
    _report(6, "expansion-coefficient congruences at every vertex", t0, 30)


def test_criterion_07_supercongruence_suite():
    t0 = time.time()
    report = suite_super(JobSpec(primes=(3, 5), s_max=2))
    assert report.passed
    assert {tuple(c["u"]) for c in report.cells} == {(1, 1), (1, 2), (2, 3)}
    assert all(c["binomial_specialization"] for c in report.cells)
    _report(7, "mod p^2s supercongruences incl. binomial specialisation", t0, 30)


def test_criterion_08_zeta_crosscheck():
    t0 = time.time()
    for c0, p in ((2, 5), (1, 7)):
        f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1, (0, 0): c0})
        report = eigenvalue_crosscheck(f, p, 2)
        assert report["pass"], report
    # n = 1 pinned case: identity matrix, trace 2 = 1 + #X
    fa = LaurentPoly(1, {(1,): 1, (0,): -2})
    rep1 = eigenvalue_crosscheck(fa, 5, 2)
    assert rep1["pass"] and all(c["trace"] == 2 for c in rep1["cells"])
    _report(8, "unit-root traces match brute-force point counts", t0, 60)


def test_criterion_09_higher_hasse_witt():
    t0 = time.time()
    p = 7
    for n in (2, 3):
        g = LaurentPoly(
            n,
            {
                **{tuple(1 if j == i else 0 for j in range(n)): 1 for i in range(n)},
                tuple(-1 for _ in range(n)): 1,
            },
        )
        P = newton_polytope(g.support())
        W = whole_polytope(P)
        # t-family: all levels for n = 2, levels 1..2 for n = 3 (the 35x35
        # exact polynomial determinant at level 3 is checked on its own, in
        # test_criterion_09_n3_family_level_3; the integer specialisations
        # below cover level 3)
        ft = family_poly(g)
        k_family = 2
        ok, report = higher_hw_condition(ft, W, k_family, p, FrobeniusLift.t_power(p))
        assert ok, report
        for level in range(1, k_family + 1):
            assert report[level]["L"] == level_valuation_target(W, level)
        if n == 2:
            assert report[2]["L"] == 6
        # integer specialisations at fibres ordinary through level n
        # (e.g. a = 2 fails at level 1 for n = 3, a = 3 at level 2 for n = 2:
        # genuine vanishing of the first/second Hasse-Witt polynomials)
        for a in (1, 4):
            fi = LaurentPoly(
                g.n, {(0,) * n: 1, **{e: -a * c for e, c in g.terms.items()}}
            )
            ok, report = higher_hw_condition(fi, W, n, p)
            assert ok, (n, a, report)
            assert report[n]["ord"] == report[n]["L"]
        # alternative-formula agreement mod p^k
        assert higher_hw_alternative_check(
            ft, W, 2, p, FrobeniusLift.t_power(p), g=g
        )
        fi = LaurentPoly(g.n, {(0,) * n: 1, **{e: -c for e, c in g.terms.items()}})
        assert higher_hw_alternative_check(fi, W, n, p)
    _report(9, "higher Hasse-Witt valuations L(k) with unit cofactors", t0, 120)


def test_criterion_09_n3_family_level_3():
    """The level-3 check criterion 9 leaves out, an exact 35 x 35
    determinant over Z[t] of t-degree bound 630 for the n = 3 simplicial
    t-family at p = 7."""
    t0 = time.time()
    p, n = 7, 3
    g = LaurentPoly(n, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1})
    W = whole_polytope(newton_polytope(g.support()))
    ok, report = higher_hw_condition(family_poly(g), W, 3, p, FrobeniusLift.t_power(p))
    assert ok, report
    assert report[3]["size"] == 35
    assert report[3]["ord"] == report[3]["L"] == 50
    assert report[3]["unit_cofactor"] and report[3]["t_degree"] == 504
    _report(9, "higher Hasse-Witt level 3 of the n=3 t-family", t0, 240)


def test_criterion_10_route_equivalence():
    t0 = time.time()
    from dworklab.cartier import route_rows
    import itertools

    box = list(itertools.product(range(-1, 2), repeat=2))
    total_checked = 0
    count = 0
    for p in (3, 5):
        rng = random.Random(100 + p)
        trials = 0
        while trials < 10:
            terms = {}
            for _ in range(rng.randint(2, 4)):
                e = tuple(rng.randint(-2, 2) for _ in range(2))
                c = rng.randint(-4, 4)
                if c:
                    terms[e] = c
            f = LaurentPoly(2, terms)
            if len(f.terms) < 3:
                continue
            try:
                P = newton_polytope(f.support())
            except ValueError:
                continue
            if not any(f.coefficient_at(v) % p for v in P.vertices):
                continue
            trials += 1
            count += 1
            m = rng.randint(1, 3)
            N = rng.randint(1, 3)
            for v, a, b in route_rows(f, m, p, N, box):
                total_checked += 1
                assert a == b, (terms, m, p, N, v)
    assert count == 20 and total_checked > 100
    _report(10, f"Cartier route equivalence on {count} random members", t0, 120)


def test_criterion_11_frobenius_structure():
    t0 = time.time()
    for p in (5, 7):
        rep = frobenius_lambda0("simplicial", 2, p, s=1, T=45, ode_t_check=10)
        assert rep.lambda0 == [[1, 0], [0, p]], rep.lambda0  # diag(1, p) mod p^2
        assert rep.alphas[0][0] == 1 and rep.alphas[0][1] == 0  # alpha_1 = 0
        assert rep.ell_cancellation
        assert rep.ode_residual_ok  # theta(L) = N L - p L N(t^p) mod (p^2, t^10)
        assert all(d["ok"] for d in rep.t_constancy)
    _report(11, "constant Frobenius matrix diag(1,p), alpha_1 = 0, ODE", t0, 600)


def test_criterion_12_p_integrality(quintic_pipeline):
    t0 = time.time()
    q, N = quintic_pipeline["q"], quintic_pipeline["N"]
    for p in (7, 11, 13):
        assert all(val_p_fraction(c, p) >= 0 for c in q.coeffs)
        assert all(val_p_fraction(N[d], p) >= 0 for d in range(15))
    _report(12, "p-integrality of the canonical coordinate and N_d", t0, 10)


@pytest.mark.slow
def test_criterion_13_alpha3_cross_family_ratio():
    """Stretch tier: the two n = 4 families share alpha_3 up to the universal
    rational factor 24/25 (both are multiples of the same p-adic zeta value)."""
    t0 = time.time()
    p = 7
    simp = frobenius_lambda0("simplicial", 4, p, s=1, T=80, t_check=2, ode_t_check=2)
    hyp = frobenius_lambda0(
        "hyperoctahedral", 4, p, s=1, T=80, t_check=2, ode_t_check=2
    )
    a3_simp = simp.alphas[2]
    a3_hyp = hyp.alphas[2]
    assert a3_simp[2] >= 1 and a3_hyp[2] >= 1
    mod = p ** min(a3_simp[2], a3_hyp[2], 1)
    lhs = a3_simp[1] * 25 % mod
    rhs = a3_hyp[1] * 24 % mod
    assert lhs == rhs, (a3_simp, a3_hyp)
    _report(13, "alpha_3 ratio 24/25 across the n=4 families", t0, 7200)
