import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dworklab.arith import Ring, TPoly
from dworklab.laurent import (
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
)
from dworklab.polytope import newton_polytope


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
