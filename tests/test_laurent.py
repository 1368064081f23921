import json
import random
import re
from fractions import Fraction
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dworklab.arith import Ring, TPoly
from dworklab.harness import JobSpec, suite_asd
from dworklab.laurent import (
    EXPONENT_LIMIT,
    CramerBlock,
    FrobeniusLift,
    LaurentPoly,
    coefficient_of_power,
    family_from_json,
    family_poly,
    flatten_t,
    frobenius_discrepancy,
    frobenius_twist,
    poly_from_json,
    power_mod,
    regroup_t,
    _check_exponent,
)
from dworklab.polytope import newton_polytope
from dworklab.zeta import eigenvalue_crosscheck


def sparse_polys(n=2, max_terms=5, coeff=st.integers(-5, 5)):
    return st.dictionaries(
        st.tuples(*([st.integers(-3, 3)] * n)),
        coeff,
        min_size=1,
        max_size=max_terms,
    ).map(lambda d: LaurentPoly(n, d))


class TestMultiply:
    def test_difference_of_squares(self):
        one_plus = LaurentPoly(1, {(0,): 1, (1,): 1})
        one_minus = LaurentPoly(1, {(0,): 1, (1,): -1})
        assert one_plus * one_minus == LaurentPoly(1, {(0,): 1, (2,): -1})

    def test_square_of_three_terms(self):
        f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
        sq = f * f
        assert sq.coefficient_at((2, 0)) == 1
        assert sq.coefficient_at((1, 1)) == 2

    def test_times_zero(self):
        f = LaurentPoly(2, {(1, 0): 1})
        assert (f * LaurentPoly(2)).is_zero()

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            LaurentPoly(1, {(0,): 1}) * LaurentPoly(2, {(0, 0): 1})


def product_by_tuples(f, g):
    """f * g with tuple exponent keys, the product before packed int keys:
    the same loop order and pop-on-zero rule, so the same terms in the same
    order."""
    out = {}
    a, b = f.terms, g.terms
    if len(a) > len(b):
        a, b = b, a
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            acc = out.get(e, 0) + c1 * c2
            if acc == 0:
                out.pop(e, None)
            else:
                out[e] = acc
    for e in out:
        _check_exponent(e)
    return out


UNITS = st.sampled_from([-1, 1])  # coefficients of +-1 make sums cancel often
COEFFICIENTS = {
    "int": st.integers(-2, 2),
    "fraction": st.builds(Fraction, UNITS, st.integers(1, 2)),
    "tpoly": st.lists(UNITS, min_size=1, max_size=2).map(TPoly),
}


@st.composite
def product_pairs(draw):
    """Two polynomials in n = 1..4 variables with int, Fraction, TPoly or
    mixed coefficients, on exponents in {-1, 0, 1}^n so that products repeat
    exponents; half the time f and f with some signs flipped, whose product
    has cancelling cross terms."""
    n = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(sorted(COEFFICIENTS)), min_size=1, max_size=2))
    coeff = st.one_of(*[COEFFICIENTS[k] for k in kinds])

    def poly():
        return draw(st.dictionaries(st.tuples(*([st.integers(-1, 1)] * n)), coeff,
                                    min_size=1, max_size=8).map(lambda d: LaurentPoly(n, d)))

    f = poly()
    if draw(st.booleans()):  # f and f with some signs flipped: cross terms cancel
        flips = draw(st.lists(st.booleans(), min_size=len(f.terms), max_size=len(f.terms)))
        return f, LaurentPoly(n, {e: -c if s else c for (e, c), s in zip(f.terms.items(), flips)})
    return f, poly()


class TestKeyedProduct:
    @given(product_pairs())
    @settings(max_examples=300, deadline=None)
    def test_matches_tuple_key_product(self, pair):
        f, g = pair
        expected = [(e, type(c), c) for e, c in product_by_tuples(f, g).items()]
        # values, types and iteration order: CramerBlock.of picks its solved
        # columns by term order
        assert [(e, type(c), c) for e, c in (f * g).terms.items()] == expected

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_exponents_at_the_limit_decode(self, n):
        L = EXPONENT_LIMIT
        corner = tuple(L if i % 2 == 0 else -L for i in range(n))
        opposite = tuple(-x for x in corner)
        f = LaurentPoly(n, {corner: 2, (0,) * n: 1})
        g = LaurentPoly(n, {(0,) * n: 5, opposite: 7})
        assert list((f * g).terms.items()) == list(product_by_tuples(f, g).items())
        assert (f * g).terms == {corner: 10, (0,) * n: 19, opposite: 7}
        # x^corner * x^-corner = 1
        assert LaurentPoly(n, {corner: 1}) * LaurentPoly(n, {opposite: 1}) \
            == LaurentPoly.constant(n, 1)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("step", [1, EXPONENT_LIMIT])
    def test_product_past_the_limit_raises(self, sign, step):
        # the message names the decoded exponent, up to +-2 * EXPONENT_LIMIT
        L = EXPONENT_LIMIT
        f = LaurentPoly(3, {(0, sign * L, 1): 1})
        g = LaurentPoly(3, {(0, sign * step, -1): 1, (0, 0, 0): 1})
        past = (0, sign * (L + step), 0)
        with pytest.raises(OverflowError, match=re.escape(f"exponent {past} exceeds")):
            f * g
        with pytest.raises(OverflowError, match=re.escape(f"exponent {past} exceeds")):
            product_by_tuples(f, g)


class TestLinearOps:
    @given(product_pairs(), st.integers(-2, 2))
    @settings(max_examples=200, deadline=None)
    def test_match_the_validating_constructor(self, pair, c):
        # sums, differences, negatives, scalings and coefficient maps wrap
        # exponents that are already valid: each must give the terms, types
        # and order the validating constructor gives, zeros dropped
        f, g = pair

        def built(terms):
            return [(e, type(x), x) for e, x in LaurentPoly(f.n, terms).terms.items()]

        def got(h):
            return [(e, type(x), x) for e, x in h.terms.items()]

        def fn(x):  # sends the coefficient 1 to zero
            return 0 * x if x == 1 else 2 * x

        negated = [(e, -x) for e, x in g.terms.items()]
        assert got(f + g) == built(list(f.terms.items()) + list(g.terms.items()))
        assert got(f - g) == built(list(f.terms.items()) + negated)
        assert got(-g) == built(negated)
        assert got(f.scale(c)) == built([(e, x * c) for e, x in f.terms.items()])
        assert got(f.map_coefficients(fn)) == built([(e, fn(x)) for e, x in f.terms.items()])


class TestPowerMod:
    def test_binomial_square(self):
        f = LaurentPoly(1, {(0,): 1, (1,): 1})
        assert power_mod(f, 2) == LaurentPoly(1, {(0,): 1, (1,): 2, (2,): 1})

    def test_constant_term_multinomial(self):
        f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
        assert power_mod(f, 3).coefficient_at((0, 0)) == 6

    def test_frobenius_mod_p(self):
        f = LaurentPoly(1, {(0,): 1, (1,): 1})
        assert power_mod(f, 5, 5) == LaurentPoly(1, {(0,): 1, (5,): 1})

    @given(sparse_polys(), st.integers(0, 4), st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_power_additive(self, f, a, b):
        assert power_mod(f, a + b) == power_mod(f, a) * power_mod(f, b)

    @given(sparse_polys(max_terms=4), st.sampled_from((3, 5)))
    @settings(max_examples=25, deadline=None)
    def test_frobenius_identity(self, f, p):
        lhs = power_mod(f, p, p)
        rhs = frobenius_twist(f, FrobeniusLift.identity(), p).reduce_mod(p)
        assert lhs == rhs

    @given(sparse_polys(max_terms=4), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_support_in_dilated_polytope(self, f, m):
        try:
            P = newton_polytope(f.support())
        except ValueError:
            return
        fm = power_mod(f, m)
        assert all(P.contains(e, m) for e in fm.support())


def power_by_products(f, m, modulus=None):
    """f^m by binary powering with plain LaurentPoly products on f's own
    coefficients (TPolys multiplied as TPolys): the route before the flat form."""
    reduce = Ring(modulus).reduce
    result, base = LaurentPoly.constant(f.n, 1), reduce(f)
    while m:
        if m & 1:
            result = reduce(result * base)
        m >>= 1
        if m:
            base = reduce(base * base)
    return result


def typed_terms(f):
    """Each coefficient with its type: int 1 and TPoly([1]) differ here."""
    return {e: (type(c), c) for e, c in f.terms.items()}


def int_polys(n):
    return st.dictionaries(st.tuples(*([st.integers(-2, 2)] * n)), st.integers(-4, 4),
                           min_size=1, max_size=4).map(lambda d: LaurentPoly(n, d))


@st.composite
def tpoly_inputs(draw):
    """An all-int f, a family 1 - t*g, or an f whose every coefficient is a TPoly,
    in n <= 3 variables."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["int", "family", "tpoly"]))
    if kind == "int":
        return draw(int_polys(n))
    if kind == "family":
        return family_poly(draw(int_polys(n)))
    coeff = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(TPoly).filter(bool)
    return LaurentPoly(n, draw(st.dictionaries(st.tuples(*([st.integers(-2, 2)] * n)), coeff,
                                              min_size=1, max_size=3)))


class TestFlatForm:
    @given(tpoly_inputs(), st.integers(1, 4), st.sampled_from([None, 9, 25, 7**3]))
    @settings(max_examples=60, deadline=None)
    def test_power_mod_matches_tpoly_products(self, f, m, modulus):
        assert typed_terms(power_mod(f, m, modulus)) == typed_terms(
            power_by_products(f, m, modulus))

    @given(tpoly_inputs())
    @settings(max_examples=30, deadline=None)
    def test_regroup_inverts_flatten(self, f):
        flat = flatten_t(f)
        assert flat.n == f.n + 1
        assert all(type(c) is int for c in flat.terms.values())
        assert regroup_t(flat) == f
        assert all(type(c) is TPoly for c in regroup_t(flat).terms.values())

    def test_flatten_puts_t_last(self):
        f = LaurentPoly(2, {(1, 0): TPoly([2, 0, 3]), (0, 0): 5})
        assert flatten_t(f) == LaurentPoly(3, {(1, 0, 0): 2, (1, 0, 2): 3, (0, 0, 0): 5})

    def test_regroup_rejects_negative_t_exponent(self):
        with pytest.raises(ValueError):
            regroup_t(LaurentPoly(2, {(0, -1): 1}))

    def test_mixed_coefficients_all_come_out_tpoly(self):
        # 1 + (2 - t) x: before the flat form, [x^0] f^2 came out as the int 1
        f = LaurentPoly(1, {(0,): 1, (1,): TPoly([2, -1])})
        assert typed_terms(power_by_products(f, 2))[(0,)] == (int, 1)
        assert typed_terms(power_mod(f, 2)) == {
            (0,): (TPoly, TPoly([1])),
            (1,): (TPoly, TPoly([4, -2])),
            (2,): (TPoly, TPoly([4, -4, 1])),
        }
        G = frobenius_discrepancy(f, FrobeniusLift.t_power(3), 3)
        assert all(type(c) is TPoly for c in G.terms.values())
        # f^3 = 1 + 3a x + 3a^2 x^2 + a^3 x^3 with a = 2 - t, f^sigma(x^3) = 1 + (2 - t^3) x^3
        assert G == LaurentPoly(1, {(1,): TPoly([-2, 1]), (2,): TPoly([-4, 4, -1]),
                                    (3,): TPoly([-2, 4, -2])})

    def test_zeroth_power_is_the_int_one(self):
        f = family_poly(LaurentPoly(1, {(1,): 1}))
        assert typed_terms(power_mod(f, 0)) == {(0,): (int, 1)}


class TestCoefficientAt:
    def test_examples(self):
        f = LaurentPoly(1, {(0,): 1, (1,): 2})
        assert f.coefficient_at((1,)) == 2
        assert f.coefficient_at((9,)) == 0
        g = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
        assert power_mod(g, 3).coefficient_at((3, 0)) == 1


@st.composite
def degenerate_powers(draw):
    """(f, m, w, modulus): f on a support of affine dimension 0, 1 or 2 (or
    full) in n <= 3 variables, with int or TPoly coefficients."""
    n = draw(st.integers(1, 3))
    dim = min(n, draw(st.integers(0, 3)))
    vec = st.tuples(*([st.integers(-2, 2)] * n))
    base, dirs = draw(vec), [draw(vec) for _ in range(dim)]
    steps = draw(st.lists(st.tuples(*([st.integers(-2, 2)] * dim)), min_size=1, max_size=5))
    support = sorted({
        tuple(b + sum(c * d[j] for c, d in zip(cs, dirs)) for j, b in enumerate(base))
        for cs in steps
    })
    if draw(st.booleans()):
        coeff = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(TPoly)
    else:
        coeff = st.integers(-4, 4)
    f = LaurentPoly(n, {e: draw(coeff) for e in support})
    m = draw(st.integers(0, 6))
    picks = draw(st.lists(st.sampled_from(support), min_size=m, max_size=m))
    w = tuple(sum(x) for x in zip(*picks)) if m else (0,) * n
    if draw(st.booleans()):
        w = tuple(x + draw(st.integers(-1, 1)) for x in w)
    modulus = draw(st.sampled_from([None, 9, 25, 7**3]))
    return f, m, w, modulus


def coefficient_of_power_by_scan(f, m, ws, modulus=None):
    """`coefficient_of_power` with every value of every free multiplicity
    scanned and bound-checked, the last one included: the oracle for the
    feasible range the library solves instead."""
    ring = Ring(modulus)
    block = CramerBlock.of(f.sorted_terms())
    exps, free = block.exps, block.free
    bounds = [(tuple(map(min, zip(*exps[i:]))), tuple(map(max, zip(*exps[i:]))))
              for i in range(len(exps))]
    totals = []

    def rec(i, remaining, target, ks):
        if i == free:
            xs = block.solve((remaining,) + target)
            if xs is not None:
                totals[-1] = ring.reduce(totals[-1] + block.term(ks + xs, m, ring))
            return
        lo, hi = bounds[i + 1]
        for kk in range(remaining + 1):
            new_target = tuple(t - kk * e for t, e in zip(target, exps[i]))
            rem = remaining - kk
            if all(a * rem <= t <= z * rem for a, t, z in zip(lo, new_target, hi)):
                rec(i + 1, rem, new_target, ks + [kk])

    for w in ws:
        totals.append(0)
        rec(0, m, tuple(w), [])
    return totals


class TestCoefficientOfPower:
    @given(degenerate_powers())
    @settings(max_examples=150, deadline=None)
    def test_degenerate_supports_match_full_power(self, case):
        # collinear, single-point and planar supports solve a smaller block
        f, m, w, modulus = case
        assert coefficient_of_power(f, m, [w], modulus) == \
            [power_mod(f, m, modulus).coefficient_at(w)]

    @given(sparse_polys(max_terms=5), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_full_power(self, f, m):
        fm = power_mod(f, m)
        rng = random.Random(7)
        probes = list(fm.support())[:3] + [
            tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(3)
        ]
        assert coefficient_of_power(f, m, probes) == [fm.coefficient_at(w) for w in probes]

    def test_modular(self):
        f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1, (0, 0): 1})
        w = (0, 0)
        [exact] = coefficient_of_power(f, 48, [w])
        assert coefficient_of_power(f, 48, [w], 7**2) == [exact % 49]

    def test_reads_ws_in_order_with_duplicates(self):
        f = LaurentPoly(2, {(1, 0): 1, (0, 1): 2, (-1, -1): 3, (0, 0): 1})
        f4 = power_mod(f, 4)
        ws = [(0, 0), (2, 1), (0, 0), (9, 9), (-1, 0), (2, 1), (1, -1)]
        expect = [f4.coefficient_at(w) for w in ws]
        assert len(set(expect)) == 5
        assert coefficient_of_power(f, 4, ws) == expect
        assert coefficient_of_power(f, 4, ws[::-1]) == expect[::-1]
        assert coefficient_of_power(f, 4, []) == []
        assert coefficient_of_power(LaurentPoly(2), 0, ws) == [1, 0, 1, 0, 0, 0, 0]

    def test_tpoly_coefficients(self):
        g = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
        ft = family_poly(g)
        # constant term of f^4 = sum (-1)^i C(4,i) c_i t^i with c_3 = 6
        [c] = coefficient_of_power(ft, 4, [(0, 0)], 5**3)
        assert isinstance(c, TPoly)
        assert c[0] == 1 and c[3] == (-4 * 6) % 125

    def test_matches_full_range_scan(self):
        rng = random.Random(37)
        seen = {"free >= 2": 0, "negative det": 0, "m = 0": 0, "exact": 0, "mod p^N": 0,
                "nonzero": 0}
        for _ in range(500):
            n = rng.randint(1, 3)
            terms = {tuple(rng.randint(-2, 2) for _ in range(n)): rng.choice([-3, -1, 1, 2, 5])
                     for _ in range(rng.randint(1, n + 4))}
            f = LaurentPoly(n, terms)
            m = rng.randint(0, 9)
            exps = list(terms)
            ws = [tuple(map(sum, zip((0,) * n, *rng.choices(exps, k=m)))) for _ in range(3)]
            ws += [tuple(rng.randint(-2 * m, 2 * m) for _ in range(n)) for _ in range(2)]
            modulus = rng.choice([None, 9, 25, 7**3])
            got = coefficient_of_power(f, m, ws, modulus)
            assert got == coefficient_of_power_by_scan(f, m, ws, modulus), (terms, m, ws, modulus)
            block = CramerBlock.of(f.sorted_terms())
            seen["free >= 2"] += block.free >= 2
            seen["negative det"] += block.det < 0
            seen["m = 0"] += m == 0
            seen["exact" if modulus is None else "mod p^N"] += 1
            seen["nonzero"] += any(got)
        assert min(seen.values()) >= 20, seen

    def test_integer_fibres_solve_only_feasible_multiplicities(self, monkeypatch):
        # the integer-fibres benchmark inputs at seed 0: the ASD grid and the
        # two trace-vs-count crosschecks; scanning every value of the last
        # free multiplicity made 513 calls
        calls, solution = [], CramerBlock.solution
        monkeypatch.setattr(CramerBlock, "solution",
                            lambda self, *a: calls.append(1) or solution(self, *a))
        assert suite_asd(JobSpec(primes=(3, 5, 7), s_max=3)).passed
        assert suite_asd(JobSpec(primes=(13,), s_max=3, curves=((-1, 0),))).passed
        for c0, p in ((2, 5), (1, 7)):
            f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1, (0, 0): c0})
            assert eigenvalue_crosscheck(f, p, 2)["pass"]
        assert 0 < len(calls) <= 250


class TestFrobeniusTwist:
    def test_identity(self):
        f = LaurentPoly(1, {(1,): 3})
        assert FrobeniusLift.identity().apply_poly(f) == f

    def test_substitute_x_p(self):
        f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1})
        out = frobenius_twist(f, FrobeniusLift.identity(), 3)
        assert out == LaurentPoly(2, {(3, 0): 1, (0, 3): 1})

    def test_t_power_on_family(self):
        g = LaurentPoly(1, {(1,): 1})
        ft = family_poly(g)  # 1 - t x
        out = FrobeniusLift.t_power(3).apply_poly(ft)
        assert out.coefficient_at((1,)) == TPoly([0, 0, 0, -1])

    def test_series_lift_validation(self):
        with pytest.raises(ValueError):
            FrobeniusLift.series(3, TPoly([0, 1]))  # t is not = t^3 mod 3
        ok = FrobeniusLift.series(3, TPoly([0, 3, 0, 1]))  # t^3 + 3t
        assert ok.scalar_map(9)(TPoly([0, 1])) == TPoly([0, 3, 0, 1])
        # at the caller's precision: t + t^2 -> 3t + 9t^2 + t^3 + 6t^4 + t^6 mod (9, t^4)
        assert ok.scalar_map(9, 4)(TPoly([0, 1, 1])) == TPoly([0, 3, 0, 1])
        assert ok.scalar_map(9, 4)(7) == 7  # every lift fixes ints


class TestDiscrepancy:
    @given(sparse_polys(max_terms=4), st.sampled_from((3, 5)))
    @settings(max_examples=25, deadline=None)
    def test_exactly_divisible(self, f, p):
        G = frobenius_discrepancy(f, FrobeniusLift.identity(), p)
        fp = power_mod(f, p)
        twisted = frobenius_twist(f, FrobeniusLift.identity(), p)
        assert twisted - G.scale(p) == fp

    def test_family(self):
        g = LaurentPoly(1, {(1,): 1})
        ft = family_poly(g)
        G = frobenius_discrepancy(ft, FrobeniusLift.t_power(3), 3)
        # f^3 = 1 - 3tx + 3t^2x^2 - t^3x^3 and f^sigma(x^3) = 1 - t^3 x^3
        assert G.coefficient_at((1,)) == TPoly([0, 1])
        assert G.coefficient_at((2,)) == TPoly([0, 0, -1])


class TestJson:
    def test_round_trip(self):
        f = LaurentPoly(2, {(-1, -1): 1, (1, 0): 1, (0, 1): -2})
        obj = {"n": 2, "terms": [{"e": list(e), "c": str(c)} for e, c in f.sorted_terms()]}
        assert obj["terms"][0] == {"e": [-1, -1], "c": "1"}
        assert poly_from_json(json.dumps(obj)) == f

    def test_tpoly_coefficients(self):
        ft = family_poly(LaurentPoly(1, {(1,): 1}))
        obj = {"n": 1, "terms": [{"e": [0], "c": {"tpoly": ["1"]}},
                                 {"e": [1], "c": {"tpoly": ["0", "-1"]}}]}
        assert poly_from_json(obj) == ft

    @pytest.mark.parametrize(
        "obj",
        [
            {"terms": []},
            {"n": 2},
            {"n": "2", "terms": []},
            {"n": 0, "terms": [{"e": [], "c": "1"}]},
            {"n": 2, "terms": {}},
            [2, []],
            {"n": 2, "terms": [{"e": [0, 0]}]},
            {"n": 2, "terms": [[0, 0]]},
            {"n": 2, "terms": [{"e": [0], "c": "1"}]},
            {"n": 2, "terms": [{"e": ["0", 0], "c": "1"}]},
            {"n": 2, "terms": [{"e": [0, 0], "c": "x"}]},
            {"n": 2, "terms": [{"e": [0, 0], "c": 1.5}]},
            {"n": 2, "terms": [{"e": [0, 0], "c": {"tpoly": "1"}}]},
        ],
    )
    def test_malformed_polynomial_json(self, obj):
        with pytest.raises(ValueError):
            poly_from_json(obj)

    @pytest.mark.parametrize("obj", [[1], {"form": "1-t*g"}, {"g": {"n": 1, "terms": []}}])
    def test_malformed_family_json(self, obj):
        with pytest.raises(ValueError):
            family_from_json(obj)

    def test_family_rejects_non_integer_g(self):
        g = LaurentPoly(2, {(1, 0): 1, (0, 1): TPoly([0, 1])})
        with pytest.raises(ValueError, match=r"exponent \[0, 1\]"):
            family_poly(g)
        obj = {"form": "1-t*g", "g": {"n": 2, "terms": [
            {"e": [1, 0], "c": "1"}, {"e": [0, 1], "c": {"tpoly": ["0", "1"]}}]}}
        with pytest.raises(ValueError, match=r"exponent \[0, 1\]"):
            family_from_json(obj)

    def test_family_from_json(self):
        obj = {
            "form": "1-t*g",
            "g": {"n": 1, "terms": [{"e": [1], "c": "1"}]},
        }
        f, g = family_from_json(obj)
        assert g == LaurentPoly(1, {(1,): 1})
        assert f.coefficient_at((1,)) == TPoly([0, -1])
