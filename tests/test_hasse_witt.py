import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dworklab.arith import Ring, TPoly
from dworklab.cartier import constant_term_series
from dworklab.harness import supercongruence_family
from dworklab.laurent import (
    CramerBlock,
    FrobeniusLift,
    LaurentPoly,
    family_poly,
    frobenius_twist,
    power_mod,
)
from dworklab.linalg import int_det, mat_mul, mat_inv_mod
from dworklab.polytope import (
    DegenerateSupportError,
    interior,
    lattice_points_in_dilate,
    newton_polytope,
    vertex_star,
    whole_polytope,
)
from dworklab.hasse_witt import (
    HWConditionError,
    beta_matrix,
    higher_F_polynomials,
    higher_hw_alternative_check,
    higher_hw_condition,
    higher_hw_matrix,
    hw_condition,
    lambda_unit_root,
    level_valuation_target,
)

ID = FrobeniusLift.identity()

ELLIPTIC = LaurentPoly(2, {(0, 2): 1, (3, 0): -1, (1, 0): 1})  # y^2 - x^3 + x
SIMPLICIAL2 = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})


def mu_interior(f):
    return interior(newton_polytope(f.support()))


class TestBetaMatrix:
    def test_m_equals_one_is_identity(self):
        P = newton_polytope(SIMPLICIAL2.support())
        M = beta_matrix(SIMPLICIAL2, whole_polytope(P), 1, 5, 2)
        assert M.entries == [[1 if i == j else 0 for j in range(4)] for i in range(4)]

    def test_matches_full_power(self):
        # (u, v) entry = [x^(m v - u)] f^(m-1), read off the whole power
        rng = random.Random(28)
        box = list(itertools.product(range(-1, 2), repeat=2))
        cases = 0
        while cases < 60:
            g = LaurentPoly(2, {e: rng.choice([-3, -2, -1, 1, 2, 3])
                                for e in rng.sample(box, rng.randint(3, 5))})
            f = family_poly(g) if rng.random() < 0.3 else g
            try:
                P = newton_polytope(f.support())
            except DegenerateSupportError:
                continue
            cases += 1
            p = rng.choice([3, 5])
            mu = rng.choice([whole_polytope(P), interior(P),
                             vertex_star(P, rng.choice(P.vertices))])
            m, N = rng.choice([1, 2, p]), rng.randint(1, 3)
            points = lattice_points_in_dilate(mu, 1)
            fm = power_mod(f, m - 1, p**N)
            M = beta_matrix(f, mu, m, p, N)
            assert M.index == tuple(points)
            assert M.entries == [
                [fm.coefficient_at(tuple(m * x - y for x, y in zip(v, u))) for v in points]
                for u in points
            ], (f, m, p, N)

    def test_one_cramer_block_per_matrix(self, monkeypatch):
        calls, of = [], CramerBlock.of
        monkeypatch.setattr(CramerBlock, "of",
                            staticmethod(lambda terms: calls.append(1) or of(terms)))
        W = whole_polytope(newton_polytope(SIMPLICIAL2.support()))
        for m in (1, 5, 25):
            calls.clear()
            assert beta_matrix(SIMPLICIAL2, W, m, 5, 2).size() == 4
            assert len(calls) == 1

    def test_elliptic_beta5(self):
        M = beta_matrix(ELLIPTIC, mu_interior(ELLIPTIC), 5, 5, 3)
        assert M.entries == [[(-12) % 125]]
        # cross-check against (-1)^((m-1)/2) binom(m-1, (m-1)/2) alpha_m
        from dworklab.zeta import asd_alpha

        assert (-1) ** 2 * math.comb(4, 2) * asd_alpha(-1, 0, 5) == -12

    def test_simplicial_beta4(self):
        M = beta_matrix(SIMPLICIAL2, mu_interior(SIMPLICIAL2), 4, 5, 3)
        assert M.entries == [[6]]

    @pytest.mark.parametrize("p", [9, 4])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError, match=f"{p} is not an odd prime"):
            beta_matrix(ELLIPTIC, mu_interior(ELLIPTIC), 5, p, 1)
        with pytest.raises(ValueError, match=f"{p} is not an odd prime"):
            hw_condition(ELLIPTIC, mu_interior(ELLIPTIC), p)


class TestHWMatrix:
    def test_family_constant_term_polynomial(self):
        ft = family_poly(SIMPLICIAL2)
        P = newton_polytope(SIMPLICIAL2.support())
        for p in (5, 7):
            M = beta_matrix(ft, interior(P), p, p, 2)
            entry = M.entries[0][0]
            gamma = [
                LaurentPoly.constant(2, 1)
                if i == 0
                else None
                for i in range(p)
            ]
            from dworklab.laurent import coefficient_of_power

            expect = TPoly(
                [
                    (-1) ** i
                    * math.comb(p - 1, i)
                    * coefficient_of_power(SIMPLICIAL2, i, [(0, 0)])[0]
                    % p**2
                    for i in range(p)
                ]
            )
            assert entry == expect % p**2

    def test_x_minus_a_diagonal(self):
        f = LaurentPoly(1, {(1,): 1, (0,): -3})
        P = newton_polytope(f.support())
        M = beta_matrix(f, whole_polytope(P), 5, 5, 2)
        assert M.entries == [[pow(-3, 4, 25), 0], [0, 1]]

    def test_vertex_star_is_unit_power(self):
        f = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        P = newton_polytope(f.support())
        M = beta_matrix(f, vertex_star(P, (0, 0)), 7, 7, 1)
        assert M.entries == [[1]]


class TestHWCondition:
    def test_elliptic_ordinary(self):
        assert hw_condition(ELLIPTIC, mu_interior(ELLIPTIC), 5)

    def test_elliptic_supersingular(self):
        assert not hw_condition(ELLIPTIC, mu_interior(ELLIPTIC), 3)

    def test_vertex_star_always_holds(self):
        f = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
        P = newton_polytope(f.support())
        for p in (3, 5, 7):
            assert hw_condition(f, vertex_star(P, (0, 0)), p)

    def test_family_constant_term_test(self):
        ft = family_poly(SIMPLICIAL2)
        P = newton_polytope(SIMPLICIAL2.support())
        assert hw_condition(ft, interior(P), 5)
        # full polytope of a family vanishes at t = 0: condition fails
        assert not hw_condition(ft, whole_polytope(P), 5)


class TestLambdaUnitRoot:
    def test_x_minus_a_is_identity(self):
        f = LaurentPoly(1, {(1,): 1, (0,): -3})
        P = newton_polytope(f.support())
        M = lambda_unit_root(f, whole_polytope(P), 5, ID, 2)[-1]
        assert M.entries == [[1, 0], [0, 1]]

    def test_elliptic_mod_5(self):
        M = lambda_unit_root(ELLIPTIC, mu_interior(ELLIPTIC), 5, ID, 1)[-1]
        assert M.entries == [[3]]

    @pytest.mark.parametrize("p", [9, 4])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError, match=f"{p} is not an odd prime"):
            lambda_unit_root(ELLIPTIC, mu_interior(ELLIPTIC), p, ID, 1)

    def test_elliptic_mod_25_hensel_oracle(self):
        # unit root of X^2 + 2X + 5 lifted from 3 mod 5 is 13 mod 25
        from dworklab.zeta import unit_root_elliptic

        assert unit_root_elliptic(-1, 0, 5, 2) == 13
        M = lambda_unit_root(ELLIPTIC, mu_interior(ELLIPTIC), 5, ID, 2)[-1]
        assert M.entries == [[13]]

    def test_supersingular_raises_with_det(self):
        with pytest.raises(HWConditionError) as err:
            lambda_unit_root(ELLIPTIC, mu_interior(ELLIPTIC), 3, ID, 1)
        assert err.value.det_mod_p == 0

    def test_supersingular_builds_nothing_above_beta_p(self, monkeypatch):
        # x + y + 1/(xy) at p = 3: beta_3 on the interior is [[0]], so the
        # ladder stops at its first rung
        import dworklab.hasse_witt as HW

        built = []
        real = HW._beta  # the ladder builds each beta through it

        def counting(f, points, m, p, N):
            built.append(m)
            return real(f, points, m, p, N)

        monkeypatch.setattr(HW, "_beta", counting)
        f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
        mu = interior(newton_polytope(f.support() | {(0, 0)}))
        with pytest.raises(HWConditionError):
            lambda_unit_root(f, mu, 3, ID, 3)
        assert built == [3]

    def test_scans_mu_once_per_ladder(self, monkeypatch):
        import dworklab.hasse_witt as HW

        scans, real = [], HW.lattice_points_in_dilate
        monkeypatch.setattr(HW, "lattice_points_in_dilate",
                            lambda mu, k: scans.append(k) or real(mu, k))
        f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1, (0, 0): 2})
        assert len(lambda_unit_root(f, whole_polytope(newton_polytope(f.support())), 5, ID, 3)) == 3
        assert scans == [1]

    @pytest.mark.parametrize("p,mu_of", [(3, whole_polytope), (5, whole_polytope), (5, interior)])
    def test_ladder_levels_are_the_one_level_matrices(self, p, mu_of):
        # Lambda_k of one s = 3 call is beta_{p^k} beta_{p^(k-1)}^(-1) mod p^k,
        # each beta built at p^k alone, and the top of the k-level call
        f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1, (0, 0): 2})
        mu = mu_of(newton_polytope(f.support()))
        ladder = lambda_unit_root(f, mu, p, ID, 3)
        assert [M.N for M in ladder] == [1, 2, 3]
        for k, M in enumerate(ladder, 1):
            q = p**k
            num = beta_matrix(f, mu, p**k, p, k).entries
            den = beta_matrix(f, mu, p ** (k - 1), p, k).entries
            assert M.entries == mat_mul(num, mat_inv_mod(den, q), q)
            assert M.entries == lambda_unit_root(f, mu, p, ID, k)[-1].entries
        for k in (1, 2):
            reduced = [[e % p**k for e in row] for row in ladder[k].entries]
            assert reduced == ladder[k - 1].entries

    def test_congruent_to_hw_mod_p(self):
        f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1, (0, 0): 2})
        P = newton_polytope(f.support())
        lam = lambda_unit_root(f, whole_polytope(P), 5, ID, 2)[-1]
        hw = beta_matrix(f, whole_polytope(P), 5, 5, 1)
        assert all(
            (lam.entries[i][j] - hw.entries[i][j]) % 5 == 0
            for i in range(4)
            for j in range(4)
        )

    def test_family_needs_truncation(self):
        ft = family_poly(SIMPLICIAL2)
        P = newton_polytope(SIMPLICIAL2.support())
        with pytest.raises(ValueError):
            lambda_unit_root(ft, interior(P), 5, FrobeniusLift.t_power(5), 1)

    def test_family_dwork_ratio(self):
        # Lambda_k(t) gamma(t^p) = gamma(t) mod (p^k, t^T) at every level k
        ft = family_poly(SIMPLICIAL2)
        P = newton_polytope(SIMPLICIAL2.support())
        for p, s, T in ((5, 1, 12), (5, 2, 30), (7, 2, 30)):
            ladder = lambda_unit_root(
                ft, interior(P), p, FrobeniusLift.t_power(p), s, t_trunc=T
            )
            assert len(ladder) == s
            for k, lam in enumerate(ladder, 1):
                gam = constant_term_series(SIMPLICIAL2, T) % p**k
                lhs = (lam.entries[0][0] * gam.subs_t_power(p)).truncate(T) % p**k
                assert lhs == gam % p**k

    def test_family_lift_runs_at_the_ring_precision(self):
        # sigma(beta_5) is taken mod t^20, the precision of Lambda's ring
        ft = family_poly(SIMPLICIAL2)
        P = newton_polytope(SIMPLICIAL2.support())
        lam = lambda_unit_root(ft, interior(P), 5, FrobeniusLift.t_power(5), 2, t_trunc=20)[-1]
        assert lam.entries == [[TPoly([1, 0, 0, 6, 0, 0, 15, 0, 0, 5])]]


BETA_TEST_POLYS = [
    ("simplicial+1", LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1, (0, 0): 1})),
    ("simplicial+2", LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1, (0, 0): 2})),
    ("elliptic", ELLIPTIC),
    ("square", LaurentPoly(2, {(0, 0): 2, (1, 0): 1, (0, 1): 1, (1, 1): 3})),
]


class TestStabilisationCongruences:
    @pytest.mark.parametrize("label,f", BETA_TEST_POLYS)
    @pytest.mark.parametrize("p", [3, 5])
    def test_first_congruence(self, label, f, p):
        P = newton_polytope(f.support() | {(0,) * f.n})
        mu = whole_polytope(P)
        bp = beta_matrix(f, mu, p, p, 1).entries
        for s in (2, 3):
            lhs = beta_matrix(f, mu, p**s, p, 1).entries
            rhs = bp
            for _ in range(s - 1):
                rhs = mat_mul(rhs, bp, p)
            assert lhs == rhs

    @pytest.mark.parametrize("label,f", BETA_TEST_POLYS)
    @pytest.mark.parametrize("p", [3, 5])
    def test_second_congruence(self, label, f, p):
        P = newton_polytope(f.support() | {(0,) * f.n})
        mu = whole_polytope(P)
        if not hw_condition(f, mu, p):
            pytest.skip("supersingular cell")
        for s in (1, 2):
            modulus = p**s
            m1 = beta_matrix(f, mu, p ** (s + 1), p, s).entries
            m2 = beta_matrix(f, mu, p**s, p, s).entries
            m3 = beta_matrix(f, mu, p ** (s - 1), p, s).entries
            lhs = mat_mul(m1, mat_inv_mod(m2, modulus), modulus)
            rhs = mat_mul(m2, mat_inv_mod(m3, modulus), modulus)
            assert lhs == rhs

    @pytest.mark.parametrize("p", [5, 7])
    def test_det_power_congruence(self, p):
        f = BETA_TEST_POLYS[0][1]
        P = newton_polytope(f.support() | {(0, 0)})
        mu = whole_polytope(P)
        dp = int_det(beta_matrix(f, mu, p, p, 1).entries)
        for s in (2, 3):
            ds = int_det(beta_matrix(f, mu, p**s, p, 1).entries)
            expo = sum(p**i for i in range(s))
            assert (ds - pow(dp, expo, p)) % p == 0

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_generalized_congruence(self, m):
        f = BETA_TEST_POLYS[1][1]
        p = 5
        P = newton_polytope(f.support() | {(0, 0)})
        mu = whole_polytope(P)
        for s in (1, 2):
            modulus = p**s
            lam = lambda_unit_root(f, mu, p, ID, s)[-1]
            lhs = beta_matrix(f, mu, m * p**s, p, s).entries
            rhs = mat_mul(
                lam.entries, beta_matrix(f, mu, m * p ** (s - 1), p, s).entries, modulus
            )
            assert lhs == rhs


class TestHigherHW:
    def test_level_one_equals_hw(self):
        ft = family_poly(SIMPLICIAL2)
        P = newton_polytope(SIMPLICIAL2.support())
        F1 = higher_F_polynomials(ft, 1, 5, FrobeniusLift.t_power(5), 25)[0]
        hh = higher_hw_matrix(F1, interior(P), 1, 5, 2)
        hw = beta_matrix(ft, interior(P), 5, 5, 2)
        assert [[e % 25 for e in row] for row in hh.entries] == hw.entries

    def test_L_values(self):
        P = newton_polytope(SIMPLICIAL2.support())
        W = whole_polytope(P)
        assert level_valuation_target(W, 1) == 0
        assert level_valuation_target(W, 2) == 6

    def test_integer_specialization_condition(self):
        f = LaurentPoly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (-1, -1): -1})
        P = newton_polytope(SIMPLICIAL2.support())
        ok, report = higher_hw_condition(f, whole_polytope(P), 2, 7)
        assert ok
        assert report[2]["L"] == 6 and report[2]["ord"] == 6

    def test_valuation_at_least_L(self):
        # generic integer member: determinant valuation never undershoots L
        f = LaurentPoly(2, {(0, 0): 1, (1, 0): -2, (0, 1): -1, (-1, -1): -3})
        P = newton_polytope(SIMPLICIAL2.support())
        _, report = higher_hw_condition(f, whole_polytope(P), 2, 7)
        assert report[2]["ord"] >= report[2]["L"]

    def test_supersingular_level_one_false(self):
        ok, report = higher_hw_condition(ELLIPTIC, mu_interior(ELLIPTIC), 1, 3)
        assert not ok
        assert not report[1]["holds"]

    def test_rejects_k_at_least_p(self, monkeypatch):
        import dworklab.hasse_witt as H

        twists = []
        monkeypatch.setattr(H, "frobenius_twist", lambda *a: twists.append(a))
        with pytest.raises(ValueError, match="need 1 <= k < p"):
            higher_hw_condition(SIMPLICIAL2, mu_interior(SIMPLICIAL2), 3, 3, ID)
        assert twists == []

    @pytest.mark.parametrize("k", [0, 5])
    def test_F_polynomial_rejects_k_out_of_range(self, k):
        with pytest.raises(ValueError, match="need 1 <= k < p"):
            higher_F_polynomials(family_poly(SIMPLICIAL2), k, 5, FrobeniusLift.t_power(5), None)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_condition_makes_one_twist_and_one_power(self, monkeypatch, k):
        # one ladder for every level: X = f^sigma(x^p) and f^(p-k) are made
        # once, the higher powers of f by multiplying by f
        import dworklab.hasse_witt as H

        calls = []

        def counting(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)
            return wrapped

        monkeypatch.setattr(H, "frobenius_twist", counting("twist", frobenius_twist))
        monkeypatch.setattr(H, "power_mod", counting("power", power_mod))
        f = LaurentPoly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (-1, -1): -1})
        _, report = higher_hw_condition(f, mu_interior(SIMPLICIAL2), k, 5, ID)
        assert sorted(calls) == ["power", "twist"]
        assert sorted(report) == list(range(1, k + 1))

    @pytest.mark.parametrize("p", [9, 4])
    def test_rejects_non_prime(self, p):
        f1 = LaurentPoly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (-1, -1): -1})
        W = whole_polytope(newton_polytope(SIMPLICIAL2.support()))
        with pytest.raises(ValueError, match=f"{p} is not an odd prime"):
            higher_hw_condition(f1, W, 1, p)
        with pytest.raises(ValueError, match=f"{p} is not an odd prime"):
            higher_hw_alternative_check(f1, W, 1, p)

    def test_alternative_formula_small(self):
        ft = family_poly(SIMPLICIAL2)
        P = newton_polytope(SIMPLICIAL2.support())
        assert higher_hw_alternative_check(
            ft, whole_polytope(P), 2, 5, FrobeniusLift.t_power(5), g=SIMPLICIAL2
        )
        f1 = LaurentPoly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (-1, -1): -1})
        assert higher_hw_alternative_check(f1, whole_polytope(P), 2, 5)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("k", [1, 2])
    def test_alternative_formula_at_a_t_constant_vertex(self, p, k):
        # the vertex route expands at the origin, whose coefficient is TPoly([1])
        f = supercongruence_family()
        assert higher_hw_alternative_check(f, whole_polytope(newton_polytope(f.support())), k, p)

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        p=st.sampled_from([3, 5]),
        k=st.sampled_from([1, 2]),
    )
    def test_alternative_formula_on_random_polynomials(self, data, p, k):
        # the polynomial form of HW^(k) against the series form: with
        # A = f^sigma(x^p), F = (A^k - (pG)^k) / f^k, so the two agree mod p^k
        # for every integer f with a p-unit vertex
        box = list(itertools.product(range(-1, 3), repeat=2))
        support = data.draw(st.lists(st.sampled_from(box), min_size=3, max_size=5, unique=True))
        coeffs = st.integers(-4, 4).filter(bool)
        f = LaurentPoly(2, {u: data.draw(coeffs) for u in support})
        try:
            P = newton_polytope(f.support())
        except DegenerateSupportError:
            assume(False)
        assume(any(f.coefficient_at(v) % p for v in P.vertices))
        assert higher_hw_alternative_check(f, whole_polytope(P), k, p)

    def test_alternative_formula_on_an_empty_level(self):
        # the unit square has no interior point: HW^(1) is 0 x 0 on both routes
        g = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 3})
        mu = interior(newton_polytope(g.support()))
        assert higher_hw_matrix(higher_F_polynomials(g, 1, 5, ID, 5)[0], mu, 1, 5, 1).size() == 0
        assert higher_hw_alternative_check(g, mu, 1, 5)
        assert higher_hw_alternative_check(family_poly(g), mu, 1, 5, g=g)

    def test_level_one_F_is_one_power(self, monkeypatch):
        # F = f^(p-1) at level 1: f^p and the difference it feeds are not formed
        import dworklab.hasse_witt as H

        calls = []

        def counting(f, m, modulus=None):
            calls.append(m)
            return power_mod(f, m, modulus)

        monkeypatch.setattr(H, "power_mod", counting)
        f = LaurentPoly(2, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (-1, -1): -1})
        ladder = higher_F_polynomials(f, 1, 5, ID, None)
        assert calls == [4]
        assert ladder == [power_mod(f, 4)]

    def test_default_lift_is_t_power(self):
        # with no lift passed a family gets t -> t^p, the lift of `dworklab higher-hw`
        ft = family_poly(SIMPLICIAL2)
        W = whole_polytope(newton_polytope(SIMPLICIAL2.support()))
        ok, report = higher_hw_condition(ft, W, 2, 5)
        assert (ok, report) == higher_hw_condition(ft, W, 2, 5, FrobeniusLift.t_power(5))
        assert report[2]["t_degree"] == 60


def F_by_products(f, k, p, sigma, modulus=None):
    """F_k of `higher_F_polynomials` with plain LaurentPoly products on f's own
    coefficients (TPolys multiplied as TPolys): the route before the flat form."""
    reduce = Ring(modulus).reduce

    def power(g, m):
        result = LaurentPoly.constant(g.n, 1)
        for _ in range(m):
            result = reduce(result * reduce(g))
        return result

    fxp = frobenius_twist(f, sigma, p, modulus)
    diff = reduce(fxp - power(f, p))
    acc = LaurentPoly(f.n)
    for r in range(k):
        acc = acc + reduce(power(diff, r) * power(fxp, k - 1 - r))
    return reduce(power(f, p - k) * acc)


def typed_terms(f):
    """Each coefficient with its type: int 1 and TPoly([1]) differ here."""
    return {e: (type(c), c) for e, c in f.terms.items()}


@st.composite
def F_inputs(draw):
    """(f, k, p, sigma, modulus): f all-int, a family 1 - t*g or all-TPoly, in
    n <= 3 variables; sigma the identity, t -> t^p or a series image."""
    p = draw(st.sampled_from((3, 5)))
    n = draw(st.integers(1, 3 if p == 3 else 2))
    k = draw(st.integers(1, p - 1))
    exps = st.tuples(*([st.integers(-1, 1)] * n))
    g = LaurentPoly(n, draw(st.dictionaries(exps, st.integers(-3, 3), min_size=1, max_size=3)))
    kind = draw(st.sampled_from(["int", "family", "tpoly"]))
    if kind == "int":
        f = g
    elif kind == "family":
        f = family_poly(g)
    else:
        coeff = st.lists(st.integers(-2, 2), min_size=1, max_size=3).map(TPoly).filter(bool)
        f = LaurentPoly(n, draw(st.dictionaries(exps, coeff, min_size=1, max_size=3)))
    modulus = draw(st.sampled_from([None, p**k, p**(k + 1)]))
    lift = draw(st.sampled_from(["identity", "t_power", "series"]))
    if lift == "identity":
        sigma = ID
    elif lift == "t_power":
        sigma = FrobeniusLift.t_power(p)
    else:
        h = TPoly(draw(st.lists(st.integers(-2, 2), max_size=3)))
        sigma = FrobeniusLift.series(p, TPoly.t_power(p) + p * h)
    return f, k, p, sigma, modulus


class TestFlatRoute:
    @given(F_inputs())
    @settings(max_examples=40, deadline=None)
    def test_F_polynomial_matches_tpoly_products(self, case):
        f, k, p, sigma, modulus = case
        ladder = higher_F_polynomials(f, k, p, sigma, modulus)
        assert [typed_terms(F) for F in ladder] == [
            typed_terms(F_by_products(f, level, p, sigma, modulus)) for level in range(1, k + 1)
        ]

    def test_mixed_coefficients_all_come_out_tpoly(self):
        # 1 + (1 - t) x + 2 y: before the flat form some coefficients came out as ints
        f = LaurentPoly(2, {(0, 0): 1, (1, 0): TPoly([1, -1]), (0, 1): 2})
        sigma = FrobeniusLift.t_power(3)
        (F,) = higher_F_polynomials(f, 1, 3, sigma, None)
        old = F_by_products(f, 1, 3, sigma)
        assert F == old
        assert {type(c) for c in old.terms.values()} == {int, TPoly}
        assert {type(c) for c in F.terms.values()} == {TPoly}
