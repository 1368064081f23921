import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dworklab.arith import TPoly, val_p_fraction
from dworklab.cartier import constant_term_series
from dworklab.laurent import LaurentPoly
from dworklab.linalg import RankDeficiencyError
from dworklab.polytope import newton_polytope, is_reflexive
from dworklab.cy import (
    LogSeriesSolution,
    ThetaOperator,
    _t_constancy_diagnostics,
    canonical_coordinate,
    cyclic_basis,
    excellent_lift_check,
    frobenius_lambda0,
    preset_family,
    preset_operator,
    standard_solutions,
    wronskian_matrix,
    yukawa_and_instantons,
)

from test_arith import typed
from test_cartier import disjoint_parts


class TestPresetFamilies:
    def test_simplicial_2(self):
        g = preset_family("simplicial", 2).g
        assert g == LaurentPoly(2, {(1, 0): 1, (0, 1): 1, (-1, -1): 1})

    def test_hyperoctahedral_2(self):
        g = preset_family("hyperoctahedral", 2).g
        assert g == LaurentPoly(2, {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1})

    def test_A_1(self):
        g = preset_family("A_n", 1).g
        assert g == LaurentPoly(1, {(1,): 1, (0,): 2, (-1,): 1})

    def test_hypercubic_2(self):
        g = preset_family("hypercubic", 2).g
        assert g == LaurentPoly(2, {(1, 1): 1, (1, -1): 1, (-1, 1): 1, (-1, -1): 1})

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            preset_family("prism", 2)

    @pytest.mark.parametrize(
        "name,n",
        [("simplicial", 2), ("simplicial", 3), ("hyperoctahedral", 2),
         ("hyperoctahedral", 3), ("hypercubic", 2), ("A_n", 2)],
    )
    def test_reflexive_with_origin_interior(self, name, n):
        preset = preset_family(name, n)
        P = newton_polytope(preset.g.support())
        assert is_reflexive(P)


class TestPresetOperators:
    def test_simplicial_2_shape(self):
        op = preset_operator("simplicial", 2)
        # theta^2 - (3t)^3 (theta+1)(theta+2): leading 1 - 27 t^3
        assert op.leading == (Fraction(1), Fraction(0), Fraction(0), Fraction(-27))
        assert op.lower[0][3] == -27 * 3  # theta coefficient of the product
        assert op.lower[1][3] == -27 * 2

    def test_quintic_first_coefficients(self):
        op = preset_operator("quintic")
        sols = standard_solutions(op, 3)
        F0 = sols[0].components[0]
        assert [F0[0], F0[1], F0[2]] == [1, 120, 113400]

    def test_non_mum_rejected(self):
        with pytest.raises(ValueError):
            ThetaOperator(1, (Fraction(1),), ((Fraction(1), Fraction(0)),))

    @pytest.mark.parametrize("count", [1, 3])
    def test_lower_length_must_be_order(self, count):
        # standard_solutions reads A_1..A_m: a missing row would raise
        # IndexError there and an extra one would be ignored
        lower = tuple((0, -k) for k in range(1, count + 1))
        with pytest.raises(ValueError, match=f"lower needs 2 rows A_1..A_m, not {count}"):
            ThetaOperator(2, (1, -4), lower)

    def test_unsupported(self):
        with pytest.raises(ValueError):
            preset_operator("hyperoctahedral", 3)


def assert_annihilated(op, T):
    """One more step of the theta recursion that builds W gives row m:
    theta^i y_j = sum_l R_i[l] log(t)^(j-l)/(j-l)!, so L = theta^m +
    sum_i a_i theta^(m-i) kills every solution when each log component
    R_m[l] + sum_i a_i R_(m-i)[l] vanishes mod t^(T-m).  The monic a_i come
    from `coefficient_series`, a route the recursion does not take."""
    m = op.order
    a = op.coefficient_series(T)
    R = wronskian_matrix(standard_solutions(op, T), T)
    last = R[-1]
    R.append([last[0].theta()] + [x.theta() + y for x, y in zip(last[1:], last)])
    for l in range(m):
        comp = R[m][l]
        for i in range(1, m + 1):
            comp = comp + a[i - 1].mul(R[m - i][l], T)
        assert all(comp[d] == 0 for d in range(T - m))


@st.composite
def mum_operators(draw):
    """Operators of order 2-4 whose A_i have degree 1-3 and small Fraction
    coefficients, with A_0(0) not 1 and A_i(0) = 0 for i >= 1."""
    small = st.fractions(-3, 3, max_denominator=4)

    def poly(constant):
        return (constant,) + tuple(draw(st.lists(small, min_size=1, max_size=3)))

    m = draw(st.integers(2, 4))
    leading = poly(draw(st.sampled_from([Fraction(2), Fraction(-3), Fraction(3, 2)])))
    return ThetaOperator(m, leading, tuple(poly(Fraction(0)) for _ in range(m)))


class TestStandardSolutions:
    @pytest.mark.parametrize(
        "name,n", [("simplicial", 2), ("simplicial", 3), ("quintic", None),
                   ("hyperoctahedral", 4)]
    )
    def test_annihilated_by_operator(self, name, n):
        assert_annihilated(preset_operator(name, n), 12)

    @settings(max_examples=30, deadline=None)
    @given(mum_operators())
    def test_random_mum_operator_annihilates_its_solutions(self, op):
        assert_annihilated(op, 8)

    def test_normalisation(self):
        op = preset_operator("quintic")
        sols = standard_solutions(op, 8)
        assert sols[0].components[0][0] == 1
        for sol in sols[1:]:
            for Fj in sol.components[1:]:
                assert Fj[0] == 0

    def test_quintic_factorial_oracle(self):
        op = preset_operator("quintic")
        F0 = standard_solutions(op, 21)[0].components[0]
        for k in range(21):
            assert F0[k] == Fraction(
                math.factorial(5 * k), math.factorial(k) ** 5
            )

    def test_simplicial_2_equals_constant_terms(self):
        op = preset_operator("simplicial", 2)
        F0 = standard_solutions(op, 13)[0].components[0]
        gamma = constant_term_series(preset_family("simplicial", 2).g, 13)
        assert all(F0[i] == gamma[i] for i in range(13))

    def test_hyperoctahedral_4_equals_constant_terms(self):
        op = preset_operator("hyperoctahedral", 4)
        F0 = standard_solutions(op, 9)[0].components[0]
        gamma = constant_term_series(preset_family("hyperoctahedral", 4).g, 9)
        assert all(F0[i] == gamma[i] for i in range(9))

    @settings(max_examples=60, deadline=None)
    @given(mum_operators(), st.integers(1, 20))
    def test_matches_fraction_series_oracle(self, op, T):
        assert typed_basis(standard_solutions(op, T)) == typed_basis(
            oracle_standard_solutions(op, T))

    @pytest.mark.parametrize(
        "name,n", [("quintic", None), ("simplicial", 2), ("simplicial", 3),
                   ("simplicial", 4), ("hyperoctahedral", 4)]
    )
    def test_presets_match_fraction_series_oracle(self, name, n):
        op = preset_operator(name, n)
        assert typed_basis(standard_solutions(op, 80)) == typed_basis(
            oracle_standard_solutions(op, 80))

    @settings(max_examples=30, deadline=None)
    @given(mum_operators(), st.integers(1, 12), st.integers(0, 6))
    def test_fewer_terms_are_a_prefix(self, op, T, k):
        # callers that read below t^T may ask for T terms and no more
        short, long = standard_solutions(op, T), standard_solutions(op, T + k)
        for a, b in zip(short, long):
            assert [c.coeffs for c in a.components] == [
                c.truncate(T).coeffs for c in b.components]


def typed_basis(sols):
    """(type, value) of every coefficient of every component of `sols`."""
    return [[typed(c) for c in s.components] for s in sols]


def oracle_standard_solutions(L, T):
    """`standard_solutions` as a Fraction series recursion in Q[eps]/eps^m:
    every (e + eps)^k c_e is a TPoly product, and the leading factor is a
    series inverse."""

    def eps_pow_linear(e0, m, k):
        return TPoly([math.comb(k, j) * e0 ** (k - j) for j in range(min(k, m - 1) + 1)])

    m = L.order
    A = [[Fraction(x) for x in coeffs] for coeffs in (L.leading, *L.lower)]
    D = max(len(a) for a in A) - 1
    c = [TPoly([Fraction(1)])]
    shifted = []
    for d in range(1, T):
        shifted.append([eps_pow_linear(d - 1, m, k).mul(c[-1], m) for k in range(m + 1)])
        acc = TPoly()
        for j in range(1, min(D, d) + 1):
            for i, a in enumerate(A):
                if j < len(a) and a[j]:
                    acc += shifted[d - j][m - i] * a[j]
        lead_inv = (eps_pow_linear(d, m, m) * A[0][0]).inverse_series(m)
        c.append(-lead_inv.mul(acc, m))
    F = [TPoly([Fraction(cd[j]) for cd in c]) for j in range(m)]
    return [LogSeriesSolution(i, F[: i + 1]) for i in range(m)]


@st.composite
def series_cases(draw):
    """(g, T) with T <= 10 and g either 1-5 terms in n <= 3 variables with
    exponents in [-2, 2], or a sum of parts in disjoint variables, some with
    free multiplicities, so both routes of the power table are drawn."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-2, 2)] * n)
    terms = st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1, max_size=5)
    g = draw(terms.map(lambda d: LaurentPoly(n, d)) | disjoint_parts(n))
    return g, draw(st.integers(1, 10))


class TestConstantTermSeries:
    def test_central_binomials(self):
        g = LaurentPoly(1, {(1,): 1, (-1,): 1})
        s = constant_term_series(g, 8)
        assert [s[i] for i in range(8)] == [1, 0, 2, 0, 6, 0, 20, 0]

    def test_simplicial_multinomials(self):
        g = preset_family("simplicial", 2).g
        s = constant_term_series(g, 10)
        for k in range(10):
            expect = (
                math.factorial(k) // (math.factorial(k // 3) ** 3)
                if k % 3 == 0
                else 0
            )
            assert s[k] == expect

    def test_no_constant_powers(self):
        g = LaurentPoly(1, {(1,): 1})
        s = constant_term_series(g, 6)
        assert [s[i] for i in range(6)] == [1, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("T", [0, -1])
    def test_rejects_empty_truncation(self, T):
        with pytest.raises(ValueError, match=f"T must be >= 1, not {T}"):
            constant_term_series(preset_family("simplicial", 2).g, T)

    @settings(max_examples=150, deadline=None)
    @given(series_cases())
    # degenerate supports: one point, a segment in the plane
    @example((LaurentPoly(2, {(1, -1): 2}), 6))
    @example((LaurentPoly(2, {(1, -1): 1, (-1, 1): 3, (0, 0): -1}), 9))
    # full-dimensional polytopes that do not contain 0
    @example((LaurentPoly(2, {(1, 0): 1, (0, 1): -2, (1, 1): 1}), 10))
    @example((LaurentPoly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (1, 1, 1): 2}), 10))
    def test_matches_constant_terms_of_powers(self, case):
        g, T = case
        zero = (0,) * g.n
        power = LaurentPoly.constant(g.n, 1)
        expect = []
        for _ in range(T):
            expect.append(power.coefficient_at(zero))
            power = power * g
        assert constant_term_series(g, T).coeffs == TPoly(expect).coeffs


class TestCanonicalCoordinate:
    def test_leading_term(self):
        sols = standard_solutions(preset_operator("quintic"), 8)
        q, mirror = canonical_coordinate(sols, 8)
        assert q[0] == 0 and q[1] == 1

    def test_round_trip(self):
        sols = standard_solutions(preset_operator("simplicial", 2), 12)
        q, mirror = canonical_coordinate(sols, 12)
        assert q.compose(mirror, 12) == TPoly([0, 1])

    def test_quintic_p_integrality(self):
        sols = standard_solutions(preset_operator("quintic"), 16)
        q, _ = canonical_coordinate(sols, 16)
        for p in (7, 11, 13):
            assert all(val_p_fraction(c, p) >= 0 for c in q.coeffs)


@pytest.fixture(scope="module")
def quintic():
    T = 17
    sols = standard_solutions(preset_operator("quintic"), T)
    q, mirror = canonical_coordinate(sols, T)
    Y, N = yukawa_and_instantons(sols, mirror, T)
    return Y, N


class TestYukawa:
    def test_golden_yukawa(self, quintic):
        Y, _ = quintic
        assert Y[0] == 1
        assert Y[1] == 575
        assert Y[2] == 975375

    def test_golden_instantons(self, quintic):
        _, N = quintic
        assert [5 * N[d] for d in range(4)] == [
            2875,
            609250,
            317206375,
            242467530000,
        ]

    def test_p_integral_instantons(self, quintic):
        _, N = quintic
        for p in (7, 11, 13):
            assert all(val_p_fraction(N[d], p) >= 0 for d in range(15))

    def test_needs_order_three(self):
        sols = standard_solutions(preset_operator("simplicial", 2), 8)
        q, mirror = canonical_coordinate(sols, 8)
        with pytest.raises(ValueError):
            yukawa_and_instantons(sols, mirror, 8)


WRONSKIAN_CASES = [("simplicial", 2), ("quintic", None), ("hyperoctahedral", 4)]


class TestWronskian:
    """U = W(t) E(log t): W is log-free and W(0) = I."""

    @pytest.mark.parametrize("name,n", WRONSKIAN_CASES)
    def test_w_at_zero_is_identity(self, name, n):
        W = wronskian_matrix(standard_solutions(preset_operator(name, n), 8), 8)
        assert [[e[0] for e in row] for row in W] == [
            [int(i == j) for j in range(len(W))] for i in range(len(W))
        ]

    @pytest.mark.parametrize("name,n", WRONSKIAN_CASES)
    def test_w_times_e_is_theta_powers_of_solutions(self, name, n):
        T = 8
        sols = standard_solutions(preset_operator(name, n), T)
        W = wronskian_matrix(sols, T)
        for j, sol in enumerate(sols):
            # y_j = sum_k h_k log(t)^k with h_k = F_(j-k) / k!
            h = [sol.components[j - k] * Fraction(1, math.factorial(k)) for k in range(j + 1)]
            for i in range(len(sols)):
                for k in range(j + 1):
                    expect = W[i][j - k] * Fraction(1, math.factorial(k))
                    assert h[k].truncate(T) == expect.truncate(T)
                # theta(sum h_k L^k) = sum (theta h_k + (k+1) h_(k+1)) L^k
                h = [
                    h[k].theta() + (h[k + 1] * (k + 1) if k + 1 < len(h) else TPoly())
                    for k in range(len(h))
                ]


# [t^d] diagnostics of U^(-1) Lambda U(t^p) at t_check = 6, p = 7, precision 4,
# as (effective_precision, min_valuation, ok) for d = 1..5
T_CONSTANCY_PINS = {
    ("quintic", "diagonal"): [(4, 0, False)] * 5,
    ("quintic", "dense"): [(4, 0, False)] * 5,
    ("hyperoctahedral", "diagonal"): [(4, 4, True), (4, 0, False)] * 2 + [(4, 4, True)],
    ("hyperoctahedral", "dense"): [(4, 2, False), (4, 0, False)] * 2 + [(4, 2, False)],
}


@pytest.mark.parametrize("name,n", [("quintic", None), ("hyperoctahedral", 4)])
@pytest.mark.parametrize("shape", ["diagonal", "dense"])
def test_t_constancy_diagnostics_pin(name, n, shape):
    p = 7
    sols = standard_solutions(preset_operator(name, n), 8)
    if shape == "diagonal":
        lam = [[TPoly([p**i]) if i == j else TPoly() for j in range(4)] for i in range(4)]
    else:
        lam = [
            [TPoly([p**i] + [p**2 * (i + j + d) for d in range(1, 8)]) for j in range(4)]
            for i in range(4)
        ]
    diag = _t_constancy_diagnostics(sols, lam, p, 4, 6)
    assert [d["t_degree"] for d in diag] == [1, 2, 3, 4, 5]
    assert [
        (d["effective_precision"], d["min_valuation"], d["ok"]) for d in diag
    ] == T_CONSTANCY_PINS[name, shape]


class TestFrobeniusLambda0:
    @pytest.mark.parametrize("p", [5, 7])
    def test_simplicial_2(self, p):
        rep = frobenius_lambda0("simplicial", 2, p, s=1, T=45)
        assert rep.lambda0 == [[1, 0], [0, p]]
        assert rep.alphas == [(1, 0, 1)]
        assert rep.ell_cancellation
        assert rep.ode_residual_ok
        assert all(d["ok"] for d in rep.t_constancy)

    def test_cyclic_basis_shapes(self):
        from dworklab.laurent import family_poly

        f = family_poly(preset_family("simplicial", 2).g)
        basis = cyclic_basis(f, 3)
        assert [m for _, m in basis] == [1, 2, 3]

    def test_lambda_column_valuations(self):
        rep = frobenius_lambda0("simplicial", 2, 5, s=1, T=45)
        for row in rep.lambda_matrix:
            for c in row[1].coeffs:
                assert c % 5 == 0

    @pytest.mark.xfail(strict=True, raises=RankDeficiencyError,
                       reason="for n >= 3 the level-n family interpolation finds no "
                              "unit pivot in the theta^2 column: the rank defect is "
                              "structural, so more probes would not remove it")
    def test_simplicial_3_interpolation(self):
        frobenius_lambda0("simplicial", 3, 5, s=1, T=20)

    def test_small_prime_rejected(self):
        with pytest.raises(ValueError):
            frobenius_lambda0("simplicial", 2, 3, s=1)

    def test_checks_stay_below_the_certified_truncation(self):
        # at p = 5 the interpolation certifies Lambda below t^(T - 5): the
        # default checks read it below t^10, so T = 14 is refused and T = 15
        # is not
        with pytest.raises(ValueError, match="ode_t_check 10 > t_trunc 9"):
            frobenius_lambda0("simplicial", 2, 5, s=1, T=14)
        rep = frobenius_lambda0("simplicial", 2, 5, s=1, T=15)
        assert rep.ode_residual_ok and all(d["ok"] for d in rep.t_constancy)

    @pytest.mark.parametrize("p", [1, 4, 9])
    def test_non_prime_rejected(self, p):
        with pytest.raises(ValueError, match="not an odd prime"):
            frobenius_lambda0("simplicial", 2, p, s=1)


class TestExcellentLift:
    def test_simplicial_2_p5(self):
        rep = excellent_lift_check("simplicial", 2, 5, T=40)
        assert rep["lift_integral"]
        assert rep["congruent_mod_p"]
        assert rep["eigenvector"]
        assert rep["eigenvalue_matches_F_ratio"]
        assert rep["passed"]

    def test_simplicial_2_p7(self):
        rep = excellent_lift_check("simplicial", 2, 7, T=40)
        assert rep["passed"]

    def test_reads_only_the_certified_t_degrees(self):
        # t_keep = max(4, (T - 1) // p) = 4: T = 8 certifies Lambda below t^3
        # only, so the check cannot be read there; T = 9 certifies t^4
        with pytest.raises(ValueError, match="t_keep 4 > t_trunc 3 at T = 8"):
            excellent_lift_check("simplicial", 2, 5, T=8)
        assert excellent_lift_check("simplicial", 2, 5, T=9)["passed"]

    def test_no_operator_for_family(self):
        with pytest.raises(ValueError):
            excellent_lift_check("hyperoctahedral", 2, 5)

    def test_hypothesis_guard(self):
        # p divides the symmetry group order (#G = 6 for n = 2)
        with pytest.raises(ValueError):
            excellent_lift_check("simplicial", 2, 3)

    @pytest.mark.parametrize("p", [1, 4, 9])
    def test_non_prime_rejected(self, p):
        with pytest.raises(ValueError, match="not an odd prime"):
            excellent_lift_check("simplicial", 2, p)
