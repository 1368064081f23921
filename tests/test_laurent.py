import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dworklab.arith import TPoly
from dworklab.laurent import (
    FrobeniusLift,
    LaurentPoly,
    cartier_poly,
    coefficient_of_power,
    family_from_json,
    family_poly,
    frobenius_discrepancy,
    frobenius_twist,
    multiply,
    poly_from_json,
    poly_to_json,
    power_mod,
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
        assert multiply(one_plus, one_minus) == LaurentPoly(1, {(0,): 1, (2,): -1})

    def test_square_of_three_terms(self):
        f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
        sq = multiply(f, f)
        assert sq.coefficient_at((2, 0)) == 1
        assert sq.coefficient_at((1, 1)) == 2

    def test_times_zero(self):
        f = LaurentPoly(2, {(1, 0): 1})
        assert multiply(f, LaurentPoly(2)).is_zero()

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            multiply(LaurentPoly(1, {(0,): 1}), LaurentPoly(2, {(0, 0): 1}))


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
        assert power_mod(f, a + b) == multiply(power_mod(f, a), power_mod(f, b))

    @given(sparse_polys(max_terms=4), st.sampled_from((3, 5)))
    @settings(max_examples=25, deadline=None)
    def test_frobenius_identity(self, f, p):
        lhs = power_mod(f, p, p)
        rhs = frobenius_twist(
            f, FrobeniusLift.identity(), substitute_x_p=True, p=p
        ).reduce_mod(p)
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


class TestCoefficientAt:
    def test_examples(self):
        f = LaurentPoly(1, {(0,): 1, (1,): 2})
        assert f.coefficient_at((1,)) == 2
        assert f.coefficient_at((9,)) == 0
        g = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
        assert power_mod(g, 3).coefficient_at((3, 0)) == 1


class TestCoefficientOfPower:
    @given(sparse_polys(max_terms=5), st.integers(0, 6))
    @settings(max_examples=40, deadline=None)
    def test_matches_full_power(self, f, m):
        fm = power_mod(f, m)
        rng = random.Random(7)
        probes = list(fm.support())[:3] + [
            tuple(rng.randint(-4, 4) for _ in range(2)) for _ in range(3)
        ]
        for w in probes:
            assert coefficient_of_power(f, m, w) == fm.coefficient_at(w)

    def test_modular(self):
        f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1, (0, 0): 1})
        w = (0, 0)
        exact = coefficient_of_power(f, 48, w)
        assert coefficient_of_power(f, 48, w, 7**2) == exact % 49

    def test_tpoly_coefficients(self):
        g = LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})
        ft = family_poly(g)
        # constant term of f^4 = sum (-1)^i C(4,i) c_i t^i with c_3 = 6
        c = coefficient_of_power(ft, 4, (0, 0), 5**3)
        assert isinstance(c, TPoly)
        assert c[0] == 1 and c[3] == (-4 * 6) % 125


class TestFrobeniusTwist:
    def test_identity(self):
        f = LaurentPoly(1, {(1,): 3})
        assert frobenius_twist(f, FrobeniusLift.identity()) == f

    def test_substitute_x_p(self):
        f = LaurentPoly(2, {(1, 0): 1, (0, 1): 1})
        out = frobenius_twist(f, FrobeniusLift.identity(), substitute_x_p=True, p=3)
        assert out == LaurentPoly(2, {(3, 0): 1, (0, 3): 1})

    def test_t_power_on_family(self):
        g = LaurentPoly(1, {(1,): 1})
        ft = family_poly(g)  # 1 - t x
        out = frobenius_twist(ft, FrobeniusLift.t_power(3))
        assert out.coefficient_at((1,)) == TPoly([0, 0, 0, -1])

    def test_series_lift_validation(self):
        with pytest.raises(ValueError):
            FrobeniusLift.series(3, TPoly([0, 1]))  # t is not = t^3 mod 3
        ok = FrobeniusLift.series(3, TPoly([0, 3, 0, 1]))  # t^3 + 3t
        assert ok.apply_scalar(TPoly([0, 1]), 9) == TPoly([0, 3, 0, 1])


class TestDiscrepancy:
    @given(sparse_polys(max_terms=4), st.sampled_from((3, 5)))
    @settings(max_examples=25, deadline=None)
    def test_exactly_divisible(self, f, p):
        G = frobenius_discrepancy(f, FrobeniusLift.identity(), p)
        fp = power_mod(f, p)
        twisted = frobenius_twist(f, FrobeniusLift.identity(), substitute_x_p=True, p=p)
        assert twisted - G.scale(p) == fp

    def test_family(self):
        g = LaurentPoly(1, {(1,): 1})
        ft = family_poly(g)
        G = frobenius_discrepancy(ft, FrobeniusLift.t_power(3), 3)
        # f^3 = 1 - 3tx + 3t^2x^2 - t^3x^3 and f^sigma(x^3) = 1 - t^3 x^3
        assert G.coefficient_at((1,)) == TPoly([0, 1])
        assert G.coefficient_at((2,)) == TPoly([0, 0, -1])


class TestCartierPoly:
    def test_decimation(self):
        f = LaurentPoly(1, {(0,): 1, (3,): 5, (1,): 2})
        assert cartier_poly(f, 3) == LaurentPoly(1, {(0,): 1, (1,): 5})


class TestJson:
    def test_round_trip(self):
        f = LaurentPoly(2, {(-1, -1): 1, (1, 0): 1, (0, 1): -2})
        obj = poly_to_json(f)
        assert obj["terms"][0] == {"e": [-1, -1], "c": "1"}
        assert poly_from_json(json.dumps(obj)) == f

    def test_tpoly_coefficients(self):
        g = LaurentPoly(1, {(1,): 1})
        ft = family_poly(g)
        obj = poly_to_json(ft)
        assert {"e": [0], "c": {"tpoly": ["1"]}} in obj["terms"]
        assert poly_from_json(obj) == ft

    @pytest.mark.parametrize(
        "obj",
        [{"terms": []}, {"n": 2}, {"n": "2", "terms": []}, {"n": 2, "terms": {}}, [2, []]],
    )
    def test_malformed_polynomial_json(self, obj):
        with pytest.raises(ValueError):
            poly_from_json(obj)

    def test_family_from_json(self):
        obj = {
            "form": "1-t*g",
            "g": {"n": 1, "terms": [{"e": [1], "c": "1"}]},
        }
        f, g = family_from_json(obj)
        assert g == LaurentPoly(1, {(1,): 1})
        assert f.coefficient_at((1,)) == TPoly([0, -1])
