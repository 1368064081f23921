import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dworklab.arith import teichmuller
from dworklab.laurent import FrobeniusLift, LaurentPoly, family_poly
from dworklab.polytope import interior, newton_polytope
from dworklab.hasse_witt import lambda_unit_root
from dworklab.zeta import (
    BudgetExceededError,
    asd_alpha,
    count_torus_points,
    eigenvalue_crosscheck,
    frobenius_trace_elliptic,
    irreducible_modulus,
    lambda_at_teichmuller,
    teichmuller_specialize,
    unit_group,
    unit_root_elliptic,
)

SIMPLICIAL2 = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})


class TestFiniteField:
    @pytest.mark.parametrize("p,s", [(3, 2), (5, 2), (3, 3), (7, 2)])
    def test_table_holds_the_units(self, p, s):
        table = unit_group(p, s)
        assert table[0] == (1,) + (0,) * (s - 1)
        assert len(set(table)) == len(table) == p**s - 1
        assert all(len(x) == s and any(x) and all(0 <= c < p for c in x) for x in table)

    def test_modulus_irreducible(self):
        for p, s in ((5, 2), (3, 3), (5, 3)):
            a = irreducible_modulus(p, s)
            # x^s + a_(s-1) x^(s-1) + ... + a_0 has no roots
            for x in range(p):
                acc = 1
                for c in reversed(a):
                    acc = acc * x + c
                assert acc % p != 0


def naive_torus_count(f, p, s):
    """Count by evaluating f at every unit of F_p[i]/(i^2 - d), d a
    non-residue (s = 2), or of F_p (s = 1), with pairs (a, b) = a + b i."""
    d = next(d for d in range(2, p) if pow(d, (p - 1) // 2, p) == p - 1)
    q = p**s

    def mul(x, y):
        return ((x[0] * y[0] + d * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)

    def power(x, e):
        out = (1, 0)
        for _ in range(e % (q - 1)):
            out = mul(out, x)
        return out

    units = [(a, b) for a in range(p) for b in range(p if s == 2 else 1) if (a, b) != (0, 0)]
    count = 0
    for xs in itertools.product(units, repeat=f.n):
        total = (0, 0)
        for e, c in f.terms.items():
            term = (c % p, 0)
            for x, k in zip(xs, e):
                term = mul(term, power(x, k))
            total = ((total[0] + term[0]) % p, (total[1] + term[1]) % p)
        count += total == (0, 0)
    return count


class TestCountTorusPoints:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_evaluation(self, data):
        p, s = data.draw(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)]))
        n = data.draw(st.integers(1, 2))
        f = LaurentPoly(n, data.draw(st.dictionaries(
            st.tuples(*([st.integers(-3, 3)] * n)), st.integers(-7, 7), min_size=1, max_size=4)))
        assert count_torus_points(f, p, s) == naive_torus_count(f, p, s)


    def test_line_over_f3(self):
        f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (0, 0): 1})
        assert count_torus_points(f, 3, 1) == 1

    def test_x_minus_a(self):
        for p, s in ((3, 1), (5, 1), (5, 2), (7, 1)):
            f = LaurentPoly(1, {(1,): 1, (0,): -2})
            assert count_torus_points(f, p, s) == 1

    @pytest.mark.parametrize("p,s", [(3, 2), (3, 3), (5, 2), (5, 3)])
    def test_closed_forms(self, p, s):
        # x + y + 1 = 0 on the torus: y = -1 - x for x not in {0, -1}; and
        # x = a has the one root a in F_p^*, whatever the extension
        line = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (0, 0): 1})
        assert count_torus_points(line, p, s) == p**s - 2
        for a in range(1, p):
            assert count_torus_points(LaurentPoly(1, {(1,): 1, (0,): -a}), p, s) == 1

    def test_no_roots(self):
        f = LaurentPoly(1, {(2,): 1, (0,): 1})
        # x^2 = -1 has no solution mod 7 (7 = 3 mod 4)
        assert count_torus_points(f, 7, 1) == 0

    def test_multiplicative_over_disjoint_blocks(self):
        # f(x) * nothing in y: count over (x, y) torus = count_x * (q - 1)
        f1 = LaurentPoly(1, {(1,): 1, (0,): 1})
        f2 = LaurentPoly(2, {(1, 0): 1, (0, 0): 1})
        for p in (3, 5):
            assert count_torus_points(f2, p, 1) == count_torus_points(
                f1, p, 1
            ) * (p - 1)

    def test_budget(self):
        f = LaurentPoly(4, {(1, 1, 1, 1): 1})
        with pytest.raises(BudgetExceededError):
            count_torus_points(f, 97, 2)


    @pytest.mark.parametrize("p", [9, 4])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError, match="not an odd prime"):
            unit_group(p, 1)
        with pytest.raises(ValueError, match="not an odd prime"):
            count_torus_points(LaurentPoly(1, {(1,): 1, (0,): 1}), p, 1)


class TestEllipticTrace:
    def test_a5_minus_one_zero(self):
        # 7 affine points: a_5 = 5 - 7
        assert frobenius_trace_elliptic(-1, 0, 5) == -2

    def test_supersingular(self):
        assert frobenius_trace_elliptic(0, 1, 5) == 0

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            frobenius_trace_elliptic(0, 0, 5)

    @pytest.mark.parametrize("p", [1, 4, 9])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError, match="not an odd prime"):
            frobenius_trace_elliptic(1, 1, p)

    @pytest.mark.parametrize("A,B,p", [(-1, 0, 5), (1, 1, 7), (-2, 1, 11), (3, 4, 13)])
    def test_hasse_bound(self, A, B, p):
        assert frobenius_trace_elliptic(A, B, p) ** 2 <= 4 * p


class TestAsdAlpha:
    def test_alpha_1(self):
        assert asd_alpha(-1, 0, 1) == 1

    def test_even_vanishes(self):
        assert asd_alpha(-1, 0, 8) == 0

    def test_alpha_5(self):
        assert asd_alpha(-1, 0, 5) == -2

    def test_modular_agrees(self):
        for m in (5, 25, 75):
            assert asd_alpha(1, 1, m, 125) == asd_alpha(1, 1, m) % 125

    def test_alpha_p_congruent_a_p(self):
        for A, B, p in ((-1, 0, 5), (1, 1, 7), (-2, 1, 11)):
            a_p = frobenius_trace_elliptic(A, B, p)
            assert (asd_alpha(A, B, p) - a_p) % p == 0


    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 41),
           st.sampled_from([None, 3, 27, 25, 7**3]))
    @settings(max_examples=80, deadline=None)
    def test_matches_expanded_cubic(self, A, B, m, modulus):
        # x^(m-1) coefficient of (x^3 + A x + B)^((m-1)/2), expanded in full
        expected = 0
        if m % 2:
            poly = [1]
            for _ in range((m - 1) // 2):
                poly = [sum(c * poly[i - j] for j, c in enumerate((B, A, 0, 1))
                            if 0 <= i - j < len(poly))
                        for i in range(len(poly) + 3)]
            expected = poly[m - 1]
        if modulus is not None:
            expected %= modulus
        assert asd_alpha(A, B, m, modulus) == expected


class TestUnitRoot:
    def test_hensel_values(self):
        assert unit_root_elliptic(-1, 0, 5, 1) == 3
        assert unit_root_elliptic(-1, 0, 5, 2) == 13
        assert unit_root_elliptic(-1, 0, 5, 3) == 113

    def test_quadratic_relation(self):
        for s in (1, 2, 3, 4):
            lam = unit_root_elliptic(-1, 0, 5, s)
            assert (lam * lam + 2 * lam + 5) % 5**s == 0

    def test_supersingular_raises(self):
        with pytest.raises(ValueError):
            unit_root_elliptic(0, 1, 5, 2)


class TestEigenvalueCrosscheck:
    def test_n1_pinned(self):
        f = LaurentPoly(1, {(1,): 1, (0,): -2})
        rep = eigenvalue_crosscheck(f, 5, 2)
        assert rep["pass"]
        assert all(c["trace"] == 2 for c in rep["cells"])
        assert all(c["torus_count"] == 1 for c in rep["cells"])

    def test_elliptic_as_torus_hypersurface(self):
        f = LaurentPoly(2, {(0, 2): 1, (3, 0): -1, (1, 0): 1})
        rep = eigenvalue_crosscheck(f, 5, 2)
        assert rep["pass"]

    @pytest.mark.parametrize("c,p", [(2, 5), (1, 7)])
    def test_simplicial_members(self, c, p):
        f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1, (0, 0): c})
        rep = eigenvalue_crosscheck(f, p, 2)
        assert rep["pass"]


class TestTeichmullerSpecialize:
    def test_constant_terms_at_zero(self):
        from dworklab.arith import TPoly

        M = [[TPoly([4, 1, 1]), TPoly([])], [TPoly([2]), TPoly([0, 9])]]
        out = teichmuller_specialize(M, 0, 5, 2)
        assert out == [[4, 0], [2, 0]]

    def test_sum_at_one(self):
        from dworklab.arith import TPoly

        M = [[TPoly([4, 1, 1])]]
        assert teichmuller_specialize(M, 1, 5, 2) == [[6]]

    @pytest.mark.parametrize("a", [1, 2, 3, 4])
    def test_two_route_agreement(self, a):
        # specialising the family at tau(a) = running the integer fibre
        p, s = 7, 2
        ft = family_poly(SIMPLICIAL2)
        P = newton_polytope(SIMPLICIAL2.support())
        mu = interior(P)
        spec = lambda_at_teichmuller(ft, mu, a, p, s)
        tau = teichmuller(a, p, s)
        fi = LaurentPoly(
            2, {(0, 0): 1, (1, 0): -tau, (0, 1): -tau, (-1, -1): -tau}
        )
        lam = lambda_unit_root(fi, mu, p, FrobeniusLift.identity(), s)[-1]
        assert spec == lam.entries
