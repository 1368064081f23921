import itertools
import math
import operator
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dworklab.arith import Ring, TPoly
from dworklab.cy import cyclic_basis, preset_family
from dworklab.laurent import (
    FrobeniusLift,
    LaurentPoly,
    coefficient_of_power,
    family_poly,
    frobenius_discrepancy,
    has_tpoly,
    power_mod,
)
from dworklab.polytope import (
    interior,
    newton_polytope,
    vertex_star,
    whole_polytope,
)
from dworklab.harness import supercongruence_family
from dworklab.hasse_witt import beta_matrix, lambda_unit_root
from dworklab import cartier
from dworklab.cartier import (
    _PowerTable,
    CartierImage,
    FormalExpansion,
    ResidualError,
    cartier_shift,
    cartier_via_formula,
    constant_term_series,
    default_probes,
    expand_origin,
    expand_vertex,
    interpolate_cartier,
    route_rows,
    theta_t_rational,
    unit_vertex,
    vertex_budget,
)

ID = FrobeniusLift.identity()
TRIANGLE = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
ONE2 = LaurentPoly.constant(2, 1)
SIMPLICIAL2 = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})


def theta(E, i):
    """x_i d/dx_i on an expansion: the coefficient at v times v_i."""
    return replace(E, coeffs={v: c * v[i] for v, c in E.coeffs.items() if c * v[i]})


class TestExpandVertex:
    def test_geometric_binomials(self):
        E = expand_vertex(ONE2, TRIANGLE, 1, (0, 0), 14)
        for a in range(6):
            for b in range(6):
                assert E.coefficient((a, b)) == (-1) ** (a + b) * math.comb(a + b, a)
                assert E.is_complete((a, b))

    def test_empty_numerator(self):
        E = expand_vertex(LaurentPoly(2), TRIANGLE, 1, (0, 0), 5)
        assert E.coeffs == {}

    def test_no_targets_store_nothing(self):
        E = expand_vertex(ONE2, TRIANGLE, 1, (0, 0), 5, 25, targets=[])
        assert E.coeffs == {}
        assert not E.is_complete((6, 0))  # psi = 6 is past the budget

    def test_unit_square_multiplicative(self):
        # 1/((1+x)(1+y)) has (-1)^(a+b) coefficients; contributions to a
        # single index come from several geometric powers, which the
        # completeness certificate must account for
        f = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
        E = expand_vertex(ONE2, f, 1, (0, 0), 12)
        for a in range(5):
            for b in range(5):
                if E.is_complete((a, b)):
                    assert E.coefficient((a, b)) == (-1) ** (a + b)

    def test_incomplete_when_budget_small(self):
        f = LaurentPoly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})
        E = expand_vertex(ONE2, f, 1, (0, 0), 1)
        # (1,1) receives a second contribution from ell^2, so budget 1 cannot
        # certify it
        assert not E.is_complete((1, 1))

    def test_second_vertex(self):
        # expansion at (1,0): support lives in the shifted cone
        E = expand_vertex(ONE2, TRIANGLE, 1, (1, 0), 10)
        assert E.coefficient((-1, 0)) == 1  # leading term x^{-1}
        assert E.coefficient((0, 0)) == 0

    def test_supercongruence_family_closed_form(self):
        # (1-x1)(1-x2) - t x1 x2 expanded at 0: c_u(t) = sum binom(u1,m) binom(u2,m) t^m
        f = LaurentPoly(
            2,
            {(0, 0): TPoly([1]), (1, 0): TPoly([-1]), (0, 1): TPoly([-1]),
             (1, 1): TPoly([1, -1])},
        )
        E = expand_vertex(ONE2, f, 1, (0, 0), 16)
        for u in ((1, 1), (2, 1), (3, 3), (2, 4)):
            expect = TPoly(
                [
                    math.comb(u[0], m) * math.comb(u[1], m)
                    for m in range(min(u) + 1)
                ]
            )
            got = E.coefficient(u)
            got = got if isinstance(got, TPoly) else TPoly([got])
            assert got == expect

    @pytest.mark.parametrize("modulus", [None, 25])
    def test_mixed_coefficients_give_tpolys(self, modulus):
        # f mixes int and TPoly coefficients: every stored coefficient is a
        # TPoly, with the values of the all-TPoly f
        f = LaurentPoly(2, {(0, 0): 1, (1, 0): -1, (0, 1): TPoly([-1]), (1, 1): TPoly([1, -1])})
        all_tpoly = LaurentPoly(2, {e: TPoly.coerce(c) for e, c in f.terms.items()})
        for h in (ONE2, LaurentPoly(2, {(0, 0): 1, (1, 0): TPoly([0, 2])})):
            for m in (1, 2):
                E = expand_vertex(h, f, m, (0, 0), 8, modulus)
                assert E.coeffs and all(isinstance(c, TPoly) for c in E.coeffs.values())
                assert E.coeffs == expand_vertex(h, all_tpoly, m, (0, 0), 8, modulus).coeffs

    def test_budget_helper_certifies(self):
        targets = [(6, 2), (0, 7)]
        S = vertex_budget(TRIANGLE, (0, 0), 1, ONE2, targets)
        E = expand_vertex(ONE2, TRIANGLE, 1, (0, 0), S)
        assert all(E.is_complete(v) for v in targets)

    def test_budget_is_the_least_that_certifies(self):
        # on random (f, p-unit vertex b, m, h, targets) every target is
        # certified at S = vertex_budget(...), with the coefficients it has at
        # S + 2, and when S >= 1 some target is not certified at S - 1; the
        # targets are numerator shifts plus a few cone generators, so most
        # lie in the cone, and some random points that mostly do not
        rng = random.Random(34)
        positive = 0
        for _ in range(60):
            n, p = rng.randint(1, 3), rng.choice((3, 5, 7))
            f, b = random_unit_vertex_poly(rng, n, p)
            h = LaurentPoly(n, {
                tuple(rng.randint(-2, 2) for _ in range(n)): rng.choice((-3, -1, 1, 2, 5))
                for _ in range(rng.randint(1, 3))
            })
            m = rng.randint(1, 3)
            gens = [tuple(map(operator.sub, u, b)) for u in sorted(f.support()) if u != b]
            targets = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(0, 2))]
            for _ in range(rng.randint(1, 4)):
                v = tuple(x - m * y for x, y in zip(rng.choice(sorted(h.support())), b))
                for _ in range(rng.randint(0, 4)):
                    v = tuple(map(operator.add, v, rng.choice(gens)))
                targets.append(v)
            S = vertex_budget(f, b, m, h, targets)

            def expand(budget):
                return expand_vertex(h, f, m, b, budget, p**2, targets=targets)

            E, wider = expand(S), expand(S + 2)
            assert all(E.is_complete(v) for v in targets), (f, b, m, h, targets, S)
            assert all(E.coefficient(v) == wider.coefficient(v) for v in targets)
            if S >= 1:
                positive += 1
                assert not all(expand(S - 1).is_complete(v) for v in targets), (f, b, m, h, S)
        assert positive > 40, positive

    def test_empty_certificate_is_complete_everywhere(self):
        # no shifts: the expansion of a Cartier image with no terms (the zero
        # expansion, to the budget asked) and an origin expansion (no budget)
        # certify every index
        empty = CartierImage([], 5, 2, TRIANGLE).expansion((0, 0), 4)
        origin = expand_origin(ONE2, TRIANGLE, 1, 3, 25, targets=[(1, 1)])
        assert empty.budget == 4 and origin.budget is None
        for E in (empty, origin):
            assert E.shifts == ()
            assert E.is_complete((0, 0)) and E.is_complete((3, -2))


@st.composite
def vertex_cases(draw):
    """(h, f, m, b, budget, modulus): random supports with n <= 3 and m <= 3
    over Z, Z/p^N, or (Z/p^N)[t] with TPoly coefficients.
    The support contains the simplex {0, e_1, ..., e_n}, so its hull is full
    dimensional; the chosen vertex gets the unit coefficient +-1."""
    n = draw(st.integers(1, 3))
    ring = draw(st.sampled_from(["exact", "mod", "tpoly"]))
    modulus = None if ring == "exact" else draw(st.sampled_from([3, 5, 9, 25]))
    span = 1 if n == 3 else 2
    point = st.tuples(*[st.integers(-span, span)] * n)

    def coefficient():
        c = st.integers(-4, 4).filter(bool)
        if ring != "tpoly":
            return c
        return c | st.lists(st.integers(-4, 4), min_size=2, max_size=3).map(
            TPoly).filter(bool)

    support = {(0,) * n} | {tuple(int(i == j) for j in range(n)) for i in range(n)}
    support |= set(draw(st.lists(point, max_size=3)))
    terms = {e: draw(coefficient()) for e in sorted(support)}
    b = draw(st.sampled_from(newton_polytope(support).vertices))
    terms[b] = draw(st.sampled_from([1, -1]))
    h_terms = draw(st.dictionaries(point, coefficient(), min_size=1, max_size=2))
    m = draw(st.integers(1, 3))
    budget = draw(st.integers(0, 3 if n == 3 else 6))
    return LaurentPoly(n, h_terms), LaurentPoly(n, terms), m, b, budget, modulus


def _near_numerator(h):
    """The index box one step around the support of h."""
    lo = [min(e[i] for e in h.support()) - 1 for i in range(h.n)]
    hi = [max(e[i] for e in h.support()) + 1 for i in range(h.n)]
    return list(itertools.product(*[range(a, c + 1) for a, c in zip(lo, hi)]))


def vertex_reference(h, f, m, b, budget, modulus):
    """The coefficients `expand_vertex` stores, by LaurentPoly arithmetic: G =
    sum_{s <= budget} C(-m, s) ell^s, kept where psi <= budget * delta (each
    ell^s is cut there, which is exact as psi > 0 on ell), times
    h x^(-m b) f_b^(-m), reduced through Ring(modulus) with zeros dropped; every
    value a TPoly when f or h has a TPoly coefficient.  f_b is +-1."""
    _, psi, delta = cartier.vertex_frame(f, b)
    fb = TPoly.coerce(f.coefficient_at(b))[0]

    def cut(q):
        return LaurentPoly(q.n, {w: c for w, c in q.terms.items()
                                 if sum(x * y for x, y in zip(psi, w)) <= budget * delta})

    one = LaurentPoly.constant(f.n, 1)
    ell = f * LaurentPoly(f.n, {tuple(-x for x in b): 1}).scale(fb) - one
    G, ell_s = LaurentPoly(f.n), one
    for s in range(budget + 1):
        G = G + ell_s.scale((-1) ** s * math.comb(m + s - 1, s))
        ell_s = cut(ell_s * ell)
    total = h * LaurentPoly(f.n, {tuple(-m * x for x in b): 1}).scale(fb**m) * G
    reduce = Ring(modulus).reduce
    lift = TPoly.coerce if has_tpoly(f) or has_tpoly(h) else (lambda c: c)
    return {v: lift(r) for v, c in total.terms.items() if (r := reduce(c))}


class TestExpandVertexProperties:
    @settings(max_examples=80, deadline=None)
    @given(vertex_cases())
    def test_every_coefficient_matches_the_series(self, case):
        # every stored coefficient, with its type: int stays int, TPoly stays TPoly
        h, f, m, b, budget, modulus = case
        E = expand_vertex(h, f, m, b, budget, modulus)
        ref = vertex_reference(h, f, m, b, budget, modulus)
        assert typed(E.coeffs) == typed(ref)

    @settings(max_examples=60, deadline=None)
    @given(vertex_cases())
    def test_times_f_power_gives_numerator(self, case):
        # (f^m E)_v = h_v wherever the whole stencil v - supp(f^m) is certified
        h, f, m, b, budget, modulus = case
        ring = Ring(modulus)
        E = expand_vertex(h, f, m, b, budget, modulus)
        fm = LaurentPoly.constant(f.n, 1)
        for _ in range(m):
            fm = fm * f
        for v in _near_numerator(h):
            stencil = [(tuple(x - y for x, y in zip(v, s)), c) for s, c in fm.terms.items()]
            if not all(E.is_complete(u) for u, _ in stencil):
                continue
            total = sum((c * E.coefficient(u) for u, c in stencil), 0)
            assert not ring.reduce(total - h.coefficient_at(v)), v

    @settings(max_examples=60, deadline=None)
    @given(vertex_cases(), st.data())
    def test_targets_match_unpruned(self, case, data):
        h, f, m, b, budget, modulus = case
        box = _near_numerator(h)
        targets = data.draw(st.lists(st.sampled_from(box), min_size=1, max_size=4))
        full = expand_vertex(h, f, m, b, budget, modulus)
        pruned = expand_vertex(h, f, m, b, budget, modulus, targets=targets)
        assert set(pruned.coeffs) <= set(targets)
        for v in targets:
            assert pruned.coefficient(v) == full.coefficient(v)


def origin_reference(h, g, m, T, modulus):
    """sum_{i<T} binom(i+m-1, m-1) t^i h g^i by LaurentPoly arithmetic, reduced
    mod `modulus` and t^T, zeros dropped."""
    total, gi = LaurentPoly(h.n), LaurentPoly.constant(g.n, 1)
    for i in range(T):
        total = total + (h * gi).scale(TPoly([0] * i + [math.comb(i + m - 1, m - 1)]))
        gi = gi * g
    reduce = Ring(modulus, T).reduce
    return {e: r for e, c in total.terms.items() if (r := reduce(c))}


def typed(coeffs: dict) -> dict:
    return {e: (type(c), [(type(x), x) for x in TPoly.coerce(c).coeffs])
            for e, c in coeffs.items()}


def small_laurent(n, coefficient, max_size):
    exps = st.tuples(*[st.integers(-1, 1)] * n)
    return st.dictionaries(exps, coefficient, max_size=max_size).map(
        lambda d: LaurentPoly(n, d))


@st.composite
def disjoint_parts(draw, n):
    """g on n variables as a sum of parts in pairwise disjoint variables:
    c x_j + c' / x_j, a part with free multiplicities (x_j, 1/x_j, x_j^2),
    or a random small support on a block of variables; maybe a constant."""
    order = draw(st.permutations(range(n)))
    coefficient = st.integers(-3, 3).filter(bool)
    terms = {}

    def unit(j, x):
        return tuple(x if i == j else 0 for i in range(n))

    while order:
        size = draw(st.integers(1, len(order)))
        block, order = order[:size], order[size:]
        kind = draw(st.sampled_from(["pair", "free", "random"]))
        if kind == "pair":
            for x in (1, -1):
                terms[unit(block[0], x)] = draw(coefficient)
            block = block[1:]
        elif kind == "free":
            for x in (1, -1, 2):
                terms[unit(block[0], x)] = draw(coefficient)
            block = block[1:]
        for _ in range(draw(st.integers(0 if kind != "random" else 1, 3))):
            if block:
                e = dict(zip(block, draw(st.tuples(*[st.integers(-1, 1)] * len(block)))))
                terms[tuple(e.get(i, 0) for i in range(n))] = draw(coefficient)
    if draw(st.booleans()):
        terms[(0,) * n] = draw(coefficient)
    return LaurentPoly(n, terms)


class TestExpandOrigin:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_laurent_reference(self, data):
        n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3))
        T = data.draw(st.integers(1, 10))
        g = data.draw(small_laurent(n, st.integers(-3, 3), 4) | disjoint_parts(n))
        num = st.one_of(st.integers(-9, 9),
                        st.lists(st.integers(-9, 9), max_size=3).map(TPoly))
        h = data.draw(small_laurent(n, num, 3))
        modulus = data.draw(st.sampled_from([None, 9, 25, 27, 49, 7**4]))
        ref = origin_reference(h, g, m, T, modulus)
        targets = sorted(ref)  # the whole expansion
        if data.draw(st.booleans()):
            candidates = sorted(ref) + [(5,) * n]
            targets = data.draw(st.lists(st.sampled_from(candidates), max_size=3))
            ref = {v: c for v, c in ref.items() if v in targets}
        E = expand_origin(h, g, m, T, modulus, targets=targets)
        assert typed(E.coeffs) == typed(ref)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_table_columns_are_coefficients_of_powers(self, data):
        n = data.draw(st.integers(1, 4))
        g = data.draw(disjoint_parts(n) | small_laurent(n, st.integers(-3, 3), 4))
        T = data.draw(st.integers(1, 10))
        modulus = data.draw(st.sampled_from([None, 9, 25, 7**4]))
        demand = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=4))
        table = _PowerTable(g, T, modulus)
        table.require(demand)
        for w in demand:
            column = [coefficient_of_power(g, i, [w], modulus)[0] for i in range(T)]
            assert table.columns[w] == [(i, c) for i, c in enumerate(column) if c], w

    @pytest.mark.parametrize("family, n, parts, by_parts", [
        ("simplicial", 4, 1, True),
        ("hyperoctahedral", 4, 4, True),
        ("hypercubic", 2, 1, False),  # four terms x^(+-1) y^(+-1), rank 3
        ("A_n", 2, 2, False),  # a constant part and six terms of rank 3
    ])
    def test_route_follows_part_structure(self, family, n, parts, by_parts):
        table = _PowerTable(preset_family(family, n).g, 5, 7**4)
        assert len(table.parts) == parts
        assert table.by_parts == by_parts

    @pytest.mark.parametrize("m, T, name", [(0, 4, "m"), (-1, 4, "m"), (1, 0, "T")])
    def test_rejects_bad_order_or_truncation(self, m, T, name):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            expand_origin(ONE2, SIMPLICIAL2, m, T, targets=[(0, 0)])

    def test_central_binomials(self):
        g = LaurentPoly(1, {(1,): 1, (-1,): 1})
        E = expand_origin(LaurentPoly.constant(1, 1), g, 1, 9, targets=[(0,)])
        assert E.coefficient((0,)) == TPoly([1, 0, 2, 0, 6, 0, 20, 0, 70])

    def test_pole_two(self):
        g = LaurentPoly(1, {(1,): 1, (-1,): 1})
        E = expand_origin(LaurentPoly.constant(1, 1), g, 2, 7, targets=[(0,)])
        # c_0 for 1/f^2: sum binom(m+1,1) t^m [x^0] g^m
        expect = TPoly([(m + 1) * (math.comb(m, m // 2) if m % 2 == 0 else 0) for m in range(7)])
        assert E.coefficient((0,)) == expect


class TestCartierShift:
    def test_index_decimation(self):
        E = FormalExpansion(
            {(0, 0): 1, (3, 0): 5, (1, 0): 2},
            budget=10, psi=(1, 1), delta=1,
            shifts=((0, 0),), cone_normals=((1, 0), (0, 1)),
        )
        out = cartier_shift(E, 3)
        assert out.coeffs == {(0, 0): 1, (1, 0): 5}

    def test_origin_mode_keeps_t(self):
        g = LaurentPoly(1, {(1,): 1, (-1,): 1})
        E = expand_origin(LaurentPoly.constant(1, 1), g, 1, 9, targets=[(0,), (3,)])
        out = cartier_shift(E, 3)
        assert out.coefficient((0,)) == E.coefficient((0,))

    def test_double_shift(self):
        E = expand_vertex(ONE2, TRIANGLE, 1, (0, 0), 20)
        once = cartier_shift(cartier_shift(E, 3), 3)
        nine = cartier_shift(E, 9)
        assert once.coeffs == nine.coeffs

    def test_completeness_follows_decimation(self):
        E = expand_vertex(ONE2, TRIANGLE, 1, (0, 0), 10)
        out = cartier_shift(E, 3)
        assert out.is_complete((3, 0)) == E.is_complete((9, 0))


class TestCartierViaFormula:
    def test_mod_p_is_hasse_witt(self):
        # single-term structure: C_p(x^u / f) = sum HW_{u,v} x^v / f^sigma mod p
        f = TRIANGLE
        P = newton_polytope(f.support())
        pts = whole_polytope(P).lattice_points(1)
        hw = beta_matrix(f, whole_polytope(P), 5, 5, 1)
        for iu, u in enumerate(pts):
            img = cartier_via_formula(LaurentPoly(2, {u: 1}), f, 1, 5, ID, 1)
            assert len(img.terms) == 1
            _, Q0, pole = img.terms[0]
            assert pole == 1
            for iv, v in enumerate(pts):
                assert (Q0.coefficient_at(v) - hw.entries[iu][iv]) % 5 == 0

    def test_rejects_p_equal_two(self):
        with pytest.raises(ValueError):
            cartier_via_formula(ONE2, TRIANGLE, 1, 2, ID, 1)

    @pytest.mark.parametrize("p", [9, 4])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError, match=f"{p} is not an odd prime"):
            cartier_via_formula(ONE2, TRIANGLE, 1, p, ID, 1)

    def test_gauss_constant_term_preserved(self):
        # C_p(1/(x-a)): the constant expansion coefficient is fixed
        f = LaurentPoly(1, {(1,): 1, (0,): -3})
        img = cartier_via_formula(LaurentPoly.constant(1, 1), f, 1, 5, ID, 2)
        b = (0,)
        S = vertex_budget(f, b, 3, LaurentPoly.constant(1, 1), [(10,)])
        direct = expand_vertex(LaurentPoly.constant(1, 1), f, 1, b, S, 25)
        formula = img.expansion(b, S)
        assert formula.coefficient((0,)) % 25 == direct.coefficient((0,)) % 25


def whole_product_terms(h, f, m, p, N):
    """The terms of `cartier_via_formula` under the identity lift by whole
    products: G^r h f^(p ceil(m/p) - m) mod p^N for each r < N, then its
    exponents divisible by p, divided by p, kept when c_r Q_r is nonzero mod
    p^N."""
    modulus = p**N
    mceil = -(-m // p)
    G = frobenius_discrepancy(f, ID, p)
    fpow = power_mod(f, p * mceil - m, modulus)
    terms = []
    Gr = LaurentPoly.constant(f.n, 1)
    for r in range(N):
        c_r = p**r * math.comb(mceil + r - 1, r) % modulus
        body = (Gr * h * fpow).reduce_mod(modulus)
        Q_r = LaurentPoly(f.n, {
            tuple(x // p for x in e): c
            for e, c in body.terms.items() if all(x % p == 0 for x in e)
        })
        if not Q_r.scale(c_r).reduce_mod(modulus).is_zero():
            terms.append((c_r, Q_r, r + mceil))
        Gr = (Gr * G).reduce_mod(modulus)
    return terms


class TestCartierImage:
    def test_terms_and_expansion_match_whole_products(self):
        # random integer h and f with negative exponents, n <= 3, p in
        # {3, 5, 7}, m <= 4, N <= 3: the decimating product gives the terms
        # of the whole products, and on [-4, 4]^n the image expansion
        # certifies every index that the sum of the term expansions does,
        # with the same coefficient mod p^N
        rng = random.Random(27)
        with_terms = checked = 0
        for _ in range(160):
            n, p = rng.randint(1, 3), rng.choice((3, 5, 7))
            f, base = random_unit_vertex_poly(rng, n, p)
            h = LaurentPoly(n, {
                tuple(rng.randint(-2, 2) for _ in range(n)): rng.randint(-5, 5)
                for _ in range(rng.randint(1, 3))
            })
            m, N = rng.randint(1, 4), rng.randint(1, 3)
            img = cartier_via_formula(h, f, m, p, ID, N)
            assert img.terms == whole_product_terms(h, f, m, p, N), (h, f, m, p, N)
            with_terms += bool(img.terms)

            # the oracle: the sum of the term expansions, certain under the
            # union of their shifts
            modulus, budget = p**N, rng.randint(1, 5)
            oracle = FormalExpansion({})
            for c_r, Q_r, pole in img.terms:
                E = expand_vertex(Q_r, img.f_sigma, pole, base, budget, modulus)
                coeffs = {v: (oracle.coefficient(v) + c_r * E.coefficient(v)) % modulus
                          for v in oracle.coeffs.keys() | E.coeffs.keys()}
                shifts = set(oracle.shifts) | set(E.shifts)
                oracle = replace(E, coeffs=coeffs, shifts=tuple(sorted(shifts)))
            image = img.expansion(base, budget)
            for v in itertools.product(range(-4, 5), repeat=n):
                if oracle.is_complete(v):
                    checked += 1
                    assert image.is_complete(v), (h, f, m, p, N, budget, v)
                    assert (image.coefficient(v) - oracle.coefficient(v)) % modulus == 0
        assert with_terms > 100 and checked > 20000

    def test_keeps_only_live_products(self):
        # c_1 = 3 and Q_1 = 3yz are each nonzero mod 9, but their product is not
        f = LaurentPoly(3, {(0, 0, 1): 4, (-1, -1, 1): -3, (1, 0, 1): 1, (1, 1, 0): 2})
        h = LaurentPoly(3, {(-1, 2, 2): 1})
        img = cartier_via_formula(h, f, 3, 3, ID, 2)
        assert img.terms == []
        assert img.fraction()[0].is_zero()

    def test_one_vertex_expansion_per_image(self, monkeypatch):
        # the image is one fraction over f^sigma: one expansion, not one per term
        img = cartier_via_formula(ONE2, TRIANGLE, 1, 3, ID, 3)
        assert [pole for _, _, pole in img.terms] == [1, 2, 3]
        calls = []

        def counting(*args):
            calls.append(args)
            return expand_vertex(*args)

        monkeypatch.setattr(cartier, "expand_vertex", counting)
        image = img.expansion((0, 0), 6)
        assert len(calls) == 1 and calls[0][2] == 3
        assert image.coeffs


def random_unit_vertex_poly(rng, n, p):
    """Sparse Laurent polynomial guaranteed to have a p-unit vertex coefficient."""
    while True:
        terms = {}
        for _ in range(rng.randint(2, 4)):
            e = tuple(rng.randint(-2, 2) for _ in range(n))
            c = rng.randint(-4, 4)
            if c:
                terms[e] = c
        f = LaurentPoly(n, terms)
        if f.is_zero() or len(f.terms) < 2:
            continue
        try:
            P = newton_polytope(f.support())
        except ValueError:
            continue
        base = None
        for v in P.vertices:
            if f.coefficient_at(v) % p:
                base = v
                break
        if base is None:
            continue
        return f, base


class TestRouteEquivalence:
    @pytest.mark.parametrize("p", [3, 5])
    def test_seeded_random_polys(self, p):
        rng = random.Random(p)
        box = list(itertools.product(range(-1, 2), repeat=2))
        for trial in range(6):
            f, _ = random_unit_vertex_poly(rng, 2, p)
            m = rng.randint(1, 3)
            N = rng.randint(1, 3)
            rows = route_rows(f, m, p, N, box)
            assert rows and all(a == b for _, a, b in rows), (f, m, p, N, rows)


class TestThetaOperations:
    def test_commutation_with_decimation(self):
        E = expand_vertex(ONE2, TRIANGLE, 1, (0, 0), 16)
        p = 3
        for i in range(2):
            lhs = cartier_shift(theta(E, i), p)
            rhs = theta(cartier_shift(E, p), i)
            for v in [(0, 0), (1, 0), (1, 1), (2, 1)]:
                assert lhs.coefficient(v) == p * rhs.coefficient(v)

    def test_theta_rational_expansion(self):
        # expansion of theta_x(1/f) = -x/f^2 for f = 1 + x + y is the
        # coefficientwise multiplication by v_x
        num = LaurentPoly(2, {(1, 0): -1})
        S = 14
        E_direct = expand_vertex(num, TRIANGLE, 2, (0, 0), S)
        E_theta = theta(expand_vertex(ONE2, TRIANGLE, 1, (0, 0), S), 0)
        for v in [(1, 0), (2, 1), (0, 3), (3, 2)]:
            assert E_direct.coefficient(v) == E_theta.coefficient(v)

    def test_theta_t_rational_expansion(self):
        num, m2 = theta_t_rational(
            LaurentPoly.constant(2, TPoly([1])), family_poly(SIMPLICIAL2), 1
        )
        targets = [(0, 0), (1, 0), (1, 1)]
        E_direct = expand_origin(num, SIMPLICIAL2, m2, 8, targets=targets)
        E_base = expand_origin(ONE2, SIMPLICIAL2, 1, 8, targets=targets)
        for v in targets:
            assert E_direct.coefficient(v).truncate(7) == E_base.coefficient(
                v
            ).theta().truncate(7)


class TestUnitVertex:
    def test_skips_vertices_with_p_divisible_coefficients(self):
        f = LaurentPoly(2, {(0, 0): 5, (1, 0): 10, (0, 1): 3})
        assert unit_vertex(f, 5) == (0, 1)
        assert unit_vertex(f, 3) == (0, 0)

    def test_skips_t_polynomial_coefficients(self):
        f = family_poly(SIMPLICIAL2)  # only the interior origin is constant in t
        with pytest.raises(ValueError, match="no vertex with p-unit coefficient"):
            unit_vertex(f, 5)

    def test_accepts_t_constant_units(self):
        # (1 - x1)(1 - x2) - t x1 x2: TPoly([1]) at the origin is a scalar unit
        f = supercongruence_family()
        assert unit_vertex(f, 5) == (0, 0)
        f5 = LaurentPoly(2, {**f.terms, (0, 0): TPoly([5])})
        assert unit_vertex(f5, 5) == (0, 1)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([3, 5, 7]), st.lists(st.integers(1, 4), min_size=3, max_size=3),
           st.integers(1, 4))
    def test_no_unit_vertex_raises(self, p, vertex_coeffs, interior_coeff):
        # the interior point's coefficient is a unit, but it is not a vertex
        terms = {e: p * c for e, c in zip([(-1, -1), (1, 0), (0, 1)], vertex_coeffs)}
        terms[(0, 0)] = interior_coeff
        f = LaurentPoly(2, terms)
        with pytest.raises(ValueError, match="no vertex with p-unit coefficient"):
            unit_vertex(f, p)


class TestInterpolation:
    @pytest.mark.parametrize("n,p,s,T", [
        (2, 5, 1, 30), (2, 5, 2, 50), (2, 7, 1, 40), (2, 7, 2, 70),
        (3, 5, 1, 30), (3, 5, 2, 50),
    ])
    def test_family_matches_beta_route(self, n, p, s, T):
        # two routes to the level-1 Lambda of the family 1 - t g mod
        # (p^s, t^T_lambda): the origin-expansion congruences on the interior
        # monomial basis, and beta_{p^s} sigma(beta_{p^(s-1)})^(-1)
        g = preset_family("simplicial", n).g
        mu = interior(newton_polytope(g.support()))
        basis = [(LaurentPoly(n, {u: 1}), 1) for u in mu.lattice_points(1)]
        sigma = FrobeniusLift.t_power(p)
        interp = interpolate_cartier(g, basis, 1, p, sigma, s, T)
        lam = lambda_unit_root(family_poly(g), mu, p, sigma, s, t_trunc=T)[-1]
        assert interp.t_trunc > p
        cut = Ring(p**s, interp.t_trunc).reduce
        assert [[cut(e) for e in row] for row in interp.matrix] == \
            [[cut(e) for e in row] for row in lam.entries]

    def assert_held_out_check_fires(self, monkeypatch, interpolate, size, delta, holdout):
        """Each diagonal entry of the solved matrix, put off by delta, fails
        the congruence on a held-out probe."""
        solve = cartier._solve_interpolation
        for i in range(size):
            def off_by_delta(*a, i=i):
                matrix, T_lambda = solve(*a)
                matrix[i][i] += delta
                return matrix, T_lambda

            monkeypatch.setattr(cartier, "_solve_interpolation", off_by_delta)
            with pytest.raises(ResidualError) as err:
                interpolate()
            probes = {w["probe"] for w in err.value.witnesses}
            assert probes and probes <= set(holdout)

    def test_held_out_check_fires_on_the_family_route(self, monkeypatch):
        basis = cyclic_basis(family_poly(SIMPLICIAL2), 2)
        self.assert_held_out_check_fires(
            monkeypatch,
            lambda: interpolate_cartier(SIMPLICIAL2, basis, 2, 5, FrobeniusLift.t_power(5), 1, 25),
            2, 5, [(-3, -3), (-2, -1)],
        )

    def test_empty_basis(self):
        interp = interpolate_cartier(SIMPLICIAL2, [], 1, 5, FrobeniusLift.t_power(5), 1, 10)
        assert interp.matrix == [] and interp.t_trunc == 10

    @pytest.mark.parametrize("T", [0, -1])
    def test_family_needs_t_trunc(self, T):
        with pytest.raises(ValueError, match="T must be >= 1"):
            interpolate_cartier(SIMPLICIAL2, [(ONE2, 1)], 1, 5, FrobeniusLift.t_power(5), 1, T)

    def test_family_gamma_relation(self):
        T = 30
        interp = interpolate_cartier(
            SIMPLICIAL2, [(ONE2, 1)], 1, 5, FrobeniusLift.t_power(5), 1, T
        )
        lam = interp.matrix[0][0]
        T_l = interp.t_trunc
        gam = constant_term_series(SIMPLICIAL2, T) % 5
        lhs = (lam * gam.subs_t_power(5)).truncate(T_l) % 5
        assert lhs == (gam % 5).truncate(T_l)

    def test_family_solves_each_demand_point_once(self, monkeypatch):
        # the probes and the held-out probes are read in one pass over one
        # table and the system is solved once: the part solver never sees the
        # same demand point twice
        calls, reads, solves = [], [], []
        part_sequence = cartier._part_sequence
        probe_data, solve = cartier._probe_data, cartier._solve_interpolation
        monkeypatch.setattr(cartier, "_part_sequence",
                            lambda block, w, *a: calls.append(w) or part_sequence(block, w, *a))
        monkeypatch.setattr(cartier, "_probe_data",
                            lambda *a: reads.append(a[2]) or probe_data(*a))
        monkeypatch.setattr(cartier, "_solve_interpolation",
                            lambda *a: solves.append(a) or solve(*a))
        basis = cyclic_basis(family_poly(SIMPLICIAL2), 2)
        interpolate_cartier(SIMPLICIAL2, basis, 2, 5, FrobeniusLift.t_power(5), 1, 30)
        assert len(solves) == 1 and len(calls) > 40
        assert len(calls) == len(set(calls))
        # the held-out probes follow the probes: the first two points that
        # the third dilate adds
        P = newton_polytope(SIMPLICIAL2.support())
        assert reads == [default_probes(P, 2) + [(-3, -3), (-2, -1)]]

    def test_family_system_drops_duplicate_rows(self, monkeypatch):
        # simplicial(2) at level 2: the probes repeat one another's rows, and
        # each distinct (row, rhs) pair reaches the elimination once
        basis = cyclic_basis(family_poly(SIMPLICIAL2), 2)
        P = newton_polytope(SIMPLICIAL2.support())
        data = cartier._probe_data(_PowerTable(SIMPLICIAL2, 25, 25), basis,
                                   default_probes(P, 2), 5, 1, FrobeniusLift.t_power(5))
        systems = []
        solve = cartier.solve_mod_multi
        monkeypatch.setattr(cartier, "solve_mod_multi",
                            lambda A, bs, modulus: systems.append((A, bs)) or solve(A, bs, modulus))
        once = cartier._solve_interpolation(data, len(basis), 5, 25, 25)
        twice = cartier._solve_interpolation(data + data, len(basis), 5, 25, 25)
        assert once == twice
        assert systems[0] == systems[1]
        A, bs = systems[0]
        pairs = [(tuple(row), tuple(b[i] for b in bs)) for i, row in enumerate(A)]
        rows = sum(cartier._row_window(rhs, 25, 25, once[1]) for _, rhs in data)
        assert len(set(pairs)) == len(pairs) < rows

    def test_rejects_s_below_one(self):
        for s in (0, -1):
            with pytest.raises(ValueError, match=f"s = {s}"):
                interpolate_cartier(
                    SIMPLICIAL2, [(ONE2, 1)], 1, 5, FrobeniusLift.t_power(5), s, 10
                )

    @pytest.mark.parametrize("p", [9, 4])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError, match=f"{p} is not an odd prime"):
            interpolate_cartier(SIMPLICIAL2, [(ONE2, 1)], 1, p, FrobeniusLift.t_power(p), 2, 10)

    def test_mu_stability(self):
        f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1, (0, 0): 2})
        P = newton_polytope(f.support())
        pts = whole_polytope(P).lattice_points(1)
        lam = lambda_unit_root(f, whole_polytope(P), 5, ID, 2)[-1]
        for v_star in P.vertices:
            mu = vertex_star(P, v_star)
            inside = [i for i, u in enumerate(pts) if mu.contains(u)]
            outside = [i for i, u in enumerate(pts) if not mu.contains(u)]
            for i in inside:
                for j in outside:
                    assert lam.entries[i][j] % 25 == 0

    def test_divisibility_contract(self):
        # expansions of theta images stay divisible by p^s after s decimations
        E = theta(theta(expand_vertex(ONE2, TRIANGLE, 1, (0, 0), 40), 0), 1)
        p = 3
        shifted = cartier_shift(cartier_shift(E, p), p)
        for v, c in shifted.coeffs.items():
            if shifted.is_complete(v):
                assert c % p**2 == 0


class TestRowWindow:
    def test_reads_t_valuations_mod_p_to_the_N(self):
        # the low coefficients are divisible by 5 but not by 25: the window
        # starts from t-valuation 1 mod 25, not from t-valuation 2 mod 5
        rhs = [TPoly([0, 5, 1]), TPoly([0, 0, 10, 2])]
        assert cartier._row_window(rhs, 25, 30, 4) == 5
        assert cartier._row_window(rhs, 25, 3, 4) == 3
        assert cartier._row_window([TPoly([0, 0, 25])], 25, 30, 4) == 30
