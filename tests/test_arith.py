import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dworklab.arith import (
    GAMMA_PRODUCT_BOUND,
    ComposeTable,
    NonUnitError,
    Ring,
    TPoly,
    gamma_p,
    gamma_ratio_check,
    teichmuller,
    val_p,
)

PRIMES = (3, 5, 7, 11, 13)


class TestTeichmuller:
    def test_zero(self):
        assert teichmuller(0, 5, 3) == 0

    def test_one_fixed_point(self):
        assert teichmuller(1, 7, 4) == 1

    def test_iteration_oracle(self):
        # iterate x -> x^5 mod 25 from 2 until stable: 2^5 = 32 = 7, 7^5 = 7
        assert teichmuller(2, 5, 2) == 7

    @given(st.integers(-50, 50), st.sampled_from(PRIMES), st.integers(1, 6))
    def test_is_root_of_unity(self, a, p, N):
        t = teichmuller(a, p, N)
        assert type(t) is int and 0 <= t < p**N
        assert pow(t, p, p**N) == t

    @given(st.integers(-50, 50), st.sampled_from(PRIMES), st.integers(1, 6))
    def test_congruent_to_a(self, a, p, N):
        assert (teichmuller(a, p, N) - a) % p == 0

    @given(st.integers(-50, 50), st.integers(-50, 50), st.sampled_from(PRIMES))
    def test_depends_on_residue_only(self, a, b, p):
        if (a - b) % p == 0:
            assert teichmuller(a, p, 4) == teichmuller(b, p, 4)

    @given(st.integers(1, 60), st.sampled_from(PRIMES), st.integers(1, 5))
    def test_unit_order_divides_p_minus_1(self, a, p, N):
        if a % p:
            assert pow(teichmuller(a, p, N), p - 1, p**N) == 1

    @pytest.mark.parametrize("p", [1, 4, 9])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError, match="not an odd prime"):
            teichmuller(2, p, 3)


class TestGammaP:
    def test_gamma_1_is_minus_one(self):
        for p, N in ((5, 3), (7, 2), (11, 2)):
            assert gamma_p(1, p, N) == p**N - 1

    def test_gamma_2_is_one(self):
        assert gamma_p(2, 5, 3) == 1

    def test_gamma_5_wilson(self):
        # -4! = -24 = 1 mod 5
        assert gamma_p(5, 5, 1) == 1

    @given(st.integers(-200, 200), st.sampled_from((3, 5, 7)), st.integers(1, 3))
    def test_residue_is_an_int_in_range(self, x, p, N):
        g = gamma_p(x, p, N)
        assert type(g) is int and 0 <= g < p**N

    @pytest.mark.parametrize("N", [0, -1])
    def test_rejects_precision_below_one(self, N):
        with pytest.raises(ValueError, match=f"N must be >= 1, not {N}"):
            gamma_p(1, 5, N)

    @pytest.mark.parametrize("s", [0, -1])
    def test_ratio_check_rejects_s_below_one(self, s):
        # mod p^0 = 1 the congruence would hold vacuously
        with pytest.raises(ValueError, match=f"s = {s}"):
            gamma_ratio_check(5, s, 3)

    def test_rejects_p_in_denominator(self):
        with pytest.raises(ValueError, match="p-adic integer"):
            gamma_p(Fraction(1, 5), 5, 2)

    @pytest.mark.parametrize("p", [1, 4, 9])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError, match="not an odd prime"):
            gamma_p(1, p, 2)
        with pytest.raises(ValueError, match="not an odd prime"):
            gamma_ratio_check(p, 1, 2)

    def test_rejects_oversized_product(self):
        with pytest.raises(ValueError):
            gamma_p(1, 11, 8)  # 11^8 > bound
        assert 11**8 > GAMMA_PRODUCT_BOUND

    def test_ratio_check_examples(self):
        assert gamma_ratio_check(5, 1, 2)
        assert gamma_ratio_check(7, 1, 2)
        assert gamma_ratio_check(5, 2, 3)

    @pytest.mark.parametrize("p,s", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1), (13, 1)])
    def test_ratio_check_grid(self, p, s):
        assert gamma_ratio_check(p, s, s + 1)

    def test_ratio_equals_central_binomial_ratio(self):
        # writing m! = (-1)^(m+1) Gamma_p(m+1) p^floor(m/p) floor(m/p)! twice
        # gives binom(p^s-1, .) / binom(p^{s-1}-1, .) = -Gamma ratio exactly
        # (odd p), hence = (-1)^((p-1)/2) mod p^s by the ratio congruence
        for p, s in ((5, 2), (7, 2), (11, 1)):
            N = s + 1
            mod = p**s
            num = math.comb(p**s - 1, (p**s - 1) // 2)
            den = math.comb(p ** (s - 1) - 1, (p ** (s - 1) - 1) // 2)
            lhs = num * pow(den, -1, mod) % mod
            g = gamma_p(p**s, p, N) * pow(
                gamma_p((p**s + 1) // 2, p, N) ** 2, -1, p**N
            )
            assert (lhs + g) % mod == 0
            assert (lhs - (-1) ** ((p - 1) // 2)) % mod == 0


def horner_loop(f, g, T, modulus):
    """Reference composition: Horner, adding each constant through TPoly.__add__,
    then cut at t^T (which leaves nothing at T = 0)."""
    acc = TPoly()
    for c in reversed(f.coeffs):
        acc = (acc * g if T is None else acc.mul(g, T)) + c
        if modulus is not None:
            acc = acc % modulus
    return acc if T is None else acc.truncate(T)


def typed(s: TPoly):
    return [(type(c), c) for c in s.coeffs]


def holds_fraction(*series):
    return any(type(c) is Fraction for s in series for c in s.coeffs)


def assert_one_rule(out, expect, *inputs):
    """`out` has the values of the reference `expect`.  An input that holds a
    Fraction makes every output coefficient a Fraction, and inputs that hold
    one coefficient type give the reference's types too."""
    assert out == expect
    if holds_fraction(*inputs):
        assert all(type(c) is Fraction for c in out.coeffs)
    if len({type(c) for s in inputs for c in s.coeffs}) <= 1:
        assert typed(out) == typed(expect)


class TestTPoly:
    def test_arithmetic(self):
        a = TPoly([1, 2])
        b = TPoly([1, -1])
        assert (a * b).coeffs == (1, 1, -2)
        assert (a + b).coeffs == (2, 1)
        assert (a - a).coeffs == ()

    def test_subs_t_power(self):
        assert TPoly([1, 2, 3]).subs_t_power(3).coeffs == (1, 0, 0, 2, 0, 0, 3)

    def test_sum_and_substitution_over_q_hold_only_fractions(self):
        # a series over Q gives a series over Q: the zeros that subs_t_power
        # inserts, and the coefficients that only the int operand of a sum
        # holds, are Fractions too
        half = TPoly([Fraction(1, 2)])
        assert typed(TPoly([Fraction(1), Fraction(2)]).subs_t_power(2)) == [
            (Fraction, 1), (Fraction, 0), (Fraction, 2)]
        assert typed(half + TPoly([0, 3])) == [(Fraction, Fraction(1, 2)), (Fraction, 3)]
        assert typed(TPoly([0, 3]) + half) == typed(half + TPoly([0, 3]))
        assert typed(TPoly([0, 3]) - half) == [(Fraction, Fraction(-1, 2)), (Fraction, 3)]
        assert typed(TPoly([1, 2]) + TPoly([3])) == [(int, 4), (int, 2)]

    def test_inverse_series(self):
        a = TPoly([1, 3, 5])
        inv = a.inverse_series(8, 7**2)
        assert ((a * inv) % 49).truncate(8) == TPoly([1])

    def test_theta(self):
        assert TPoly([4, 5, 6]).theta().coeffs == (0, 5, 12)

    def test_compose(self):
        # (1 + t)^2 composed with t^2 + t
        f = TPoly([1, 2, 1])
        g = TPoly([0, 1, 1])
        expect = TPoly([1, 2, 3, 2, 1])
        assert f.compose(g) == expect

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=5), max_size=6),
        st.lists(st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=5), max_size=5),
        st.none() | st.integers(1, 8),
        st.none() | st.sampled_from([9, 25, 7**4]),
    )
    @example([Fraction(0), 1], [3, 1], None, None)  # a Fraction zero constant term
    @example([Fraction(1, 2), 0, 2], [0, Fraction(1, 3)], 3, 25)  # rejected
    @example([3, Fraction(1, 2), 0, 2], [0, 0, 1], None, None)  # t^k on a Fraction
    @example([3, 0, 2], [Fraction(0), 1], None, None)  # t with a Fraction zero
    def test_compose_matches_horner_loop(self, f, g, T, modulus):
        f, g = TPoly(f), TPoly(g)
        if modulus is not None and holds_fraction(f, g):
            with pytest.raises(TypeError, match="reduce_mod"):
                f.compose(g, T, modulus)
            return
        assert_one_rule(f.compose(g, T, modulus), horner_loop(f, g, T, modulus), f, g)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-30, 30) | st.fractions(-9, 9, max_denominator=5), max_size=8),
        st.integers(1, 5),
        st.none() | st.integers(1, 12),
        st.none() | st.sampled_from([9, 25]),
    )
    @example([1, Fraction(0)], 1, None, None)  # a stripped Fraction zero: f is all-int
    def test_compose_with_t_power_substitutes(self, c, k, T, modulus):
        f, tk, one = TPoly(c), TPoly.t_power(k), TPoly([1])
        if modulus is not None and holds_fraction(f):
            for g in (tk, one):
                with pytest.raises(TypeError, match="reduce_mod"):
                    f.compose(g, T, modulus)
            return
        # c(t^k) = sum c_i t^(k i), reduced in Ring(modulus, T); f drops
        # trailing zeros of c, whose type would otherwise enter the sums
        expect = sum((TPoly([0] * (k * i) + [ci]) for i, ci in enumerate(f.coeffs)), TPoly())
        assert_one_rule(f.compose(tk, T, modulus), Ring(modulus, T).reduce(expect), f, tk)
        # t^0 = 1 is no substitution: c(1) is the constant sum c_i
        assert_one_rule(f.compose(one, T, modulus),
                        Ring(modulus, T).reduce(TPoly([sum(f.coeffs)])), f, one)


MODULI = st.sampled_from(PRIMES).flatmap(lambda p: st.sampled_from((p, p**2, p**4)))
RATIONAL_SERIES = st.lists(
    st.fractions(-20, 20, max_denominator=9), max_size=10
).map(TPoly)


def residue_series(modulus):
    return st.lists(st.integers(0, modulus - 1), max_size=10).map(TPoly)


MIXED_SERIES = st.lists(
    st.one_of(st.integers(-20, 20), st.fractions(-20, 20, max_denominator=9)), max_size=10
).map(TPoly)


def convolution(a, b, T):
    """Reference product mod t^T, one coefficient at a time.  A zero factor
    adds nothing, so a coefficient is a Fraction exactly when a constant term
    is one or a nonzero Fraction factor enters its sum."""
    zero = 0 * a[0] * b[0]
    return TPoly([
        sum((a[i] * b[d - i] for i in range(d + 1) if a[i] and b[d - i]), zero)
        for d in range(T)
    ])


def inverse_loop(a, T):
    """Reference inverse over Q, one Fraction operation at a time."""
    if not a[0]:
        raise NonUnitError("constant term is zero")
    c0inv = Fraction(1) / a[0]
    tail = a.coeffs[1:]
    inv = [c0inv]
    for _ in range(1, T):
        inv.append(-c0inv * sum(x * y for x, y in zip(tail, reversed(inv))))
    return TPoly(inv[:T])


def derivative(f):
    return TPoly([i * c for i, c in enumerate(f.coeffs[1:], 1)])


def exp_loop(f, T):
    """Reference exp: (d+1) e_(d+1) = sum_i (i+1) f_(i+1) e_(d-i) in Fractions."""
    df = derivative(f).coeffs
    out = [Fraction(1)]
    for d in range(T - 1):
        out.append(Fraction(sum(x * y for x, y in zip(df, reversed(out))), d + 1))
    return TPoly(out[:T])


def log_loop(f, T):
    """Reference log: the integral of f' times the reference inverse."""
    ratio = derivative(f).mul(inverse_loop(f, T - 1), T - 1)
    return TPoly([Fraction(0)] + [Fraction(c, d) for d, c in enumerate(ratio.coeffs, 1)])


def reversion_loop(f, T):
    """Reference Lagrange inversion on Fraction powers of h = t/f."""
    h = inverse_loop(TPoly(f.coeffs[1:]), T - 1)
    g = [Fraction(0), Fraction(1)]
    hk = h
    for k in range(2, T):
        hk = hk.mul(h, T - 1)
        g.append(Fraction(hk[k - 1], k))
    return TPoly(g)


SERIES = st.one_of(RATIONAL_SERIES, MIXED_SERIES)
PRECISIONS = st.integers(0, 16)
ZERO = st.sampled_from([0, Fraction(0)])
ONE = st.sampled_from([1, Fraction(1)])


class TestRationalKernelsMatchLoops:
    """The integer-numerator kernels over Q give the values of the
    one-Fraction-at-a-time loops they replace, and only Fractions."""

    @given(SERIES.filter(lambda a: a[0] != 0), PRECISIONS)
    @example(TPoly([Fraction(2, 3), 1, Fraction(-1, 2)]), 6)  # constant not +-1
    @example(TPoly([2, 3, 1]), 5)  # an int constant that is no unit of Z
    @example(TPoly([1, 2, Fraction(0), 3, Fraction(1, 2)]), 8)  # a Fraction zero
    @example(TPoly([-1, Fraction(0), 2]), 5)
    @example(TPoly([Fraction(2, 3), 1]), 0)
    def test_inverse_series(self, a, T):
        assert_one_rule(a.inverse_series(T), inverse_loop(a, T), a)

    @given(ZERO, SERIES, PRECISIONS)
    @example(0, TPoly([Fraction(2, 3), Fraction(0), 5]), 9)
    @example(Fraction(0), TPoly([Fraction(0), 1]), 6)
    @example(0, TPoly([1]), 0)
    def test_exp(self, zero, tail, T):
        f = TPoly((zero,) + tail.coeffs)
        assert_one_rule(f.exp(T), exp_loop(f, T), f)

    @given(ONE, SERIES, PRECISIONS)
    @example(1, TPoly([Fraction(2, 3), Fraction(0), 5]), 9)
    @example(Fraction(1), TPoly([Fraction(0), 3]), 6)
    @example(1, TPoly([1, 2]), 0)
    def test_log(self, one, tail, T):
        f = TPoly((one,) + tail.coeffs)
        assert_one_rule(f.log(T), log_loop(f, T), f)

    @given(ZERO, ONE, SERIES, st.integers(2, 16))
    @example(0, 1, TPoly([Fraction(2, 3), Fraction(0), 5]), 9)
    @example(Fraction(0), Fraction(1), TPoly([Fraction(0), 3]), 6)
    @example(0, 1, TPoly(), 2)
    def test_reversion(self, zero, one, tail, T):
        f = TPoly((zero, one) + tail.coeffs)
        assert_one_rule(f.reversion(T), reversion_loop(f, T), f)

    def test_exp_at_large_precision(self):
        # the numerators carry (T-1)! D^d: the division by d+1 stays exact
        f = TPoly([0, Fraction(1, 3), Fraction(-2, 7), 5])
        assert typed(f.exp(60)) == typed(exp_loop(f, 60))


class TestComposeTable:
    @settings(deadline=None)
    @given(st.data(), st.lists(st.integers(0, 10), min_size=1, max_size=4),
           st.none() | st.integers(0, 12))
    def test_shared_table_over_residues(self, data, lengths, T):
        m = data.draw(MODULI)
        g = data.draw(residue_series(m))
        table = ComposeTable(g, T, m)
        for n in lengths:  # later outer series may extend the table
            f = data.draw(st.lists(st.integers(0, m - 1), max_size=n).map(TPoly))
            out = table(f)
            assert typed(out) == typed(f.compose(g, T, m)) == typed(horner_loop(f, g, T, m))

    @settings(deadline=None)
    @given(st.data(), RATIONAL_SERIES, st.none() | st.integers(0, 12))
    def test_shared_table_over_rationals(self, data, g, T):
        table = ComposeTable(g, T)
        for _ in range(3):
            f = data.draw(RATIONAL_SERIES)
            out = table(f)
            assert typed(out) == typed(f.compose(g, T)) == typed(horner_loop(f, g, T, None))

    @pytest.mark.parametrize("T", [None, 4])
    def test_rational_zeros_stay_fractions(self, T):
        # t^2 at t + t^3/2: the zero coefficients below t^4 are Fraction(0)
        f = TPoly([Fraction(0), Fraction(0), Fraction(1)])
        g = TPoly([Fraction(0), Fraction(1), Fraction(0), Fraction(1, 2)])
        out = ComposeTable(g, T)(f)
        assert typed(out) == typed(horner_loop(f, g, T, None))
        assert typed(out)[:3] == [(Fraction, 0), (Fraction, 0), (Fraction, 1)]


class TestTPolySeries:
    """TPoly as the series rings (Z/p^N)[t]/t^T and Q[[t]]/t^T."""

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=8))
    def test_invert_round_trip(self, coeffs):
        if coeffs[0] == 0:
            coeffs[0] = 1
        s = TPoly([Fraction(c) for c in coeffs])
        T = len(coeffs)
        prod = s.mul(s.inverse_series(T), T)
        assert prod[0] == 1
        assert all(prod[i] == 0 for i in range(1, T))

    def test_inverse_needs_unit_constant(self):
        with pytest.raises(NonUnitError):
            TPoly([0, Fraction(1)]).inverse_series(4)
        with pytest.raises(NonUnitError):
            TPoly([5, 1]).inverse_series(4, 25)

    def test_exp_log_round_trip(self):
        s = TPoly([Fraction(0), Fraction(1), Fraction(1, 2)])
        assert s.exp(8).log(8) == s

    def test_reversion(self):
        s = TPoly([Fraction(0), Fraction(1), Fraction(3), Fraction(-2)])
        inv = s.reversion(10)
        t = TPoly([0, 1])
        assert s.compose(inv, 10) == t
        assert inv.compose(s, 10) == t

    @pytest.mark.parametrize("T", [0, 1])
    def test_reversion_needs_t_at_least_two(self, T):
        with pytest.raises(ValueError, match="T >= 2"):
            TPoly([0, 1, 3]).reversion(T)

    @settings(deadline=None)
    @given(
        st.sampled_from([1, Fraction(1)]),
        st.one_of(
            st.lists(st.integers(-5, 5), max_size=8),
            st.lists(st.fractions(-3, 3, max_denominator=6), max_size=8),
        ),
        st.integers(2, 16),
    )
    def test_reversion_is_a_two_sided_inverse(self, one, tail, T):
        f = TPoly([0, one] + tail)
        g = f.reversion(T)
        t = TPoly([0, 1])
        assert f.compose(g, T) == t
        assert g.compose(f, T) == t
        assert all(type(c) is Fraction for c in g.coeffs)

    def test_reduce_mod_rejects_p_denominator(self):
        assert TPoly([Fraction(1, 2), 30]).reduce_mod(25) == TPoly([13, 5])
        with pytest.raises(NonUnitError):
            TPoly([Fraction(1, 5)]).reduce_mod(25)

    def test_min_val_p_reads_denominators(self):
        assert TPoly([Fraction(3, 25), 10]).min_val_p(5, 9) == -2
        assert TPoly().min_val_p(5, 9) == 9

    @given(st.data(), st.integers(1, 16))
    def test_mul_is_truncated_product_over_residues(self, data, T):
        m = data.draw(MODULI)
        a, b = data.draw(residue_series(m)), data.draw(residue_series(m))
        assert a.mul(b, T) == (a * b).truncate(T) == convolution(a, b, T)

    @given(st.one_of(RATIONAL_SERIES, MIXED_SERIES), st.one_of(RATIONAL_SERIES, MIXED_SERIES),
           st.integers(1, 16))
    @example(TPoly([Fraction(1, 2), 3, Fraction(-1, 3)]), TPoly([2, Fraction(1, 5), 7]), 2)
    @example(TPoly([1, Fraction(0), Fraction(1, 3)]), TPoly([2, 5, 0, Fraction(1, 7)]), 6)
    @example(TPoly([3, 1]), TPoly([Fraction(2, 3), 4]), 1)
    @example(TPoly(), TPoly([Fraction(1, 2)]), 4)
    @example(TPoly([Fraction(1, 2), 1]), TPoly([Fraction(0), Fraction(0)]), 4)
    def test_mul_is_truncated_product_over_rationals(self, a, b, T):
        expect = typed(convolution(a, b, T))
        assert typed(a.mul(b, T)) == typed((a * b).truncate(T)) == expect

    @given(st.data(), st.integers(1, 16))
    def test_inverse_series_over_residues(self, data, T):
        m = data.draw(MODULI)
        a = data.draw(residue_series(m).filter(lambda a: math.gcd(a[0], m) == 1))
        assert a.mul(a.inverse_series(T, m), T) % m == 1

    @given(RATIONAL_SERIES.filter(lambda a: a[0] != 0), st.integers(1, 16))
    def test_inverse_series_over_rationals(self, a, T):
        assert a.mul(a.inverse_series(T), T) == 1


@pytest.mark.parametrize("series", [
    pytest.param(lambda: TPoly([3, 1]).compose(TPoly([0, 2]), 0), id="compose"),
    pytest.param(lambda: TPoly([3, 1]).mul(TPoly([2, 5]), 0), id="mul"),
    pytest.param(lambda: TPoly([3, 1]).inverse_series(0), id="inverse_series"),
    pytest.param(lambda: TPoly([0, 1]).exp(0), id="exp"),
    pytest.param(lambda: TPoly([1, 1]).log(0), id="log"),
    pytest.param(lambda: Ring(25, 0).reduce(TPoly([3, 1])), id="reduce"),
])
def test_series_mod_t_to_the_zero_is_zero(series):
    assert series() == TPoly()


@pytest.mark.parametrize("kernel", [
    pytest.param(lambda: TPoly([Fraction(1, 2), 1]).compose(TPoly([0, 3]), 3, 25),
                 id="compose"),
    pytest.param(lambda: TPoly([1, Fraction(1, 2)]).inverse_series(3, 25),
                 id="inverse_series"),
    pytest.param(lambda: TPoly([Fraction(1, 2), 1]).inverse_series(3, 25),
                 id="inverse_series_constant"),
])
def test_fractions_never_meet_a_modulus(kernel):
    with pytest.raises(TypeError, match="reduce_mod"):
        kernel()


def test_val_p():
    assert val_p(0, 5, cap=9) == 9
    assert val_p(250, 5) == 3
    assert val_p(7, 5) == 0
