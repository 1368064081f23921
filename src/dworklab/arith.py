"""Exact arithmetic substrate.

Everything downstream works over one of these rings:

* plain Python ``int`` (arbitrary precision, used whenever exactness is free),
* ``Z/p^N`` residues, held as ints in [0, p^N),
* dense polynomials in one variable ``t`` (:class:`TPoly`), the one series
  type: exact polynomials for the coefficients of one-parameter families, and
  the truncated rings (Z/p^N)[t]/t^T and Q[[t]]/t^T (Picard-Fuchs solutions,
  mirror maps) when a precision T, and a modulus where there is one, is
  passed to its series methods.  The precision is an argument, never stored.

:class:`Ring`, the one rule for Z/p^N, names the ring of one computation (Z,
Z/p^N, or the series ring mod t^T over either) and holds the one rule for
reducing, testing and inverting its coefficients; the matrix, expansion and
Hasse-Witt kernels build one from their ``modulus``/``t_trunc`` arguments.

No floating point is used anywhere.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt, lcm

_Q_ZERO = Fraction(0)

# Ceiling for the direct product loop in gamma_p: p^N must stay below this.
GAMMA_PRODUCT_BOUND = 10**7


class NonUnitError(ArithmeticError):
    """Division by an element that is not a unit in the working ring."""


def val_p(n: int, p: int, cap: int | None = None) -> int:
    """p-adic valuation of an integer; 0 maps to `cap` (or a huge sentinel)."""
    if n == 0:
        return cap if cap is not None else 10**9
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v if cap is None else min(v, cap)


def val_p_fraction(x, p: int, cap: int | None = None) -> int:
    """p-adic valuation of an int or Fraction (negative for p in denominator)."""
    if isinstance(x, int):
        return val_p(x, p, cap)
    x = Fraction(x)
    if x == 0:
        return cap if cap is not None else 10**9
    v = val_p(x.numerator, p) - val_p(x.denominator, p)
    return v if cap is None else min(v, cap)


def odd_prime(p) -> int:
    """`p` itself if it is an odd prime; ValueError naming the value otherwise."""
    if type(p) is not int or p < 3 or p % 2 == 0 or any(
        p % q == 0 for q in range(3, isqrt(p) + 1, 2)
    ):
        raise ValueError(f"{p!r} is not an odd prime")
    return p


def inv_mod(a: int, modulus: int) -> int:
    """Inverse of a unit mod `modulus`; raises NonUnitError otherwise."""
    try:
        return pow(a, -1, modulus)
    except ValueError:
        raise NonUnitError(f"{a} is not invertible modulo {modulus}") from None


def teichmuller(a: int, p: int, N: int) -> int:
    """Teichmuller lift: the unique root of X^p = X congruent to a mod p.

    Computed by the fixed-point iteration x <- x^p mod p^N, which gains at
    least one digit of stability per step, so at most N iterations are needed.
    Returns the residue in [0, p^N).
    """
    odd_prime(p)
    if N < 1:
        raise ValueError("N must be >= 1")
    modulus = p**N
    x = a % modulus
    for _ in range(N + 1):
        y = pow(x, p, modulus)
        if y == x:
            break
        x = y
    return x


def _gamma_p_int(n: int, p: int, modulus: int) -> int:
    # Morita gamma at a non-negative integer: (-1)^n prod_{0<j<n, p∤j} j.
    acc = 1
    for j in range(1, n):
        if j % p:
            acc = acc * j % modulus
    return (-acc if n % 2 else acc) % modulus


def gamma_p(x, p: int, N: int) -> int:
    """Morita p-adic gamma function evaluated modulo p^N, as a residue in
    [0, p^N).

    For an integer n >= 1, Gamma_p(n) = (-1)^n prod_{0<j<n, p | j absent} j.
    The function is continuous on Z_p, so a rational x with denominator prime
    to p is evaluated at its integer representative mod p^N; a denominator
    divisible by p raises ValueError.  The direct
    product loop is O(p^N), guarded by GAMMA_PRODUCT_BOUND.
    """
    odd_prime(p)
    if N < 1:
        raise ValueError(f"precision exponent N must be >= 1, not {N!r}")
    modulus = p**N
    if modulus > GAMMA_PRODUCT_BOUND:
        raise ValueError(
            f"p^N = {modulus} exceeds the gamma product bound {GAMMA_PRODUCT_BOUND}"
        )
    if isinstance(x, Fraction):
        if x.denominator % p == 0:
            raise ValueError("gamma_p argument must be a p-adic integer")
        rep = x.numerator * inv_mod(x.denominator, modulus) % modulus
    else:
        rep = x % modulus
    return _gamma_p_int(rep, p, modulus)


def gamma_ratio_check(p: int, s: int, N: int) -> bool:
    """Check Gamma_p(p^s) / Gamma_p((p^s+1)/2)^2 = (-1)^((p+1)/2) mod p^s.

    The left side equals the ratio of central binomial coefficients
    binom(p^s-1, (p^s-1)/2) / binom(p^{s-1}-1, (p^{s-1}-1)/2) up to sign,
    which controls how the 1x1 beta matrices of an elliptic curve stabilise.
    """
    odd_prime(p)
    if s < 1:
        raise ValueError(f"need s >= 1, not s = {s!r}")
    if N < s:
        raise ValueError("need working precision N >= s")
    modulus = p**N
    num = gamma_p(p**s, p, N)
    den = gamma_p((p**s + 1) // 2, p, N)
    den2 = pow(den, 2, modulus)
    if den2 % p == 0:
        raise NonUnitError("internal error: gamma value is not a unit")
    lhs = num * inv_mod(den2, modulus) % p**s
    rhs = (-1) ** ((p + 1) // 2) % p**s
    return lhs == rhs


def _numerators(cs):
    """(A, D): the ints A_i = c_i D over D, the lcm of the denominators of the
    ints and Fractions `cs` (1 for none)."""
    D = lcm(*[c.denominator for c in cs])
    return [c.numerator * (D // c.denominator) for c in cs], D


def _recurrence(x0: Fraction, c: list, k, T: int) -> list:
    """x_0..x_(T-1) over Q with x_n = (sum_{j<n} c_j x_(n-1-j)) / k(n), for
    ints c_j and k(n).  The x_j are kept as integer numerators over their
    common denominator, the lcm of their denominators so far, so each step is
    one integer dot product and builds one Fraction."""
    out, X, M = [x0], [x0.numerator], x0.denominator
    for n in range(1, T):
        x = Fraction(sum(a * b for a, b in zip(c, reversed(X))), k(n) * M)
        out.append(x)
        m = x.denominator
        if M % m:
            s = m // gcd(M, m)
            X, M = [v * s for v in X], M * s
        X.append(x.numerator * (M // m))
    return out


class TPoly:
    """Exact dense polynomial in one variable t, and the one dense series type.

    An instance is an exact polynomial with trailing zeros stripped; it is
    immutable by convention.  The truncated rings (Z/p^N)[t]/t^T and
    Q[[t]]/t^T are not a property of the object: the series methods (`mul`,
    `inverse_series`, `compose`, `exp`, `log`, `reversion`) take the precision
    T, and the modulus where there is one, as arguments.

    One rule gives the coefficient ring of a series:
    - a series that holds any Fraction is over Q, and every kernel output on
      it holds only Fractions;
    - the kernels that divide without a modulus (`inverse_series`, `exp`,
      `log`, `reversion`) work over Q;
    - a series over Z or Z/p^N holds ints (residues in [0, p^N));
    - Fractions never meet a modulus: `reduce_mod` is the one bridge from Q
      to Z/p^N, and a kernel given both raises TypeError.

    Over Q the kernels work on integer numerators: a series is A/D, A
    integral and D the lcm of its denominators below t^T, the recurrence runs
    on ints, and each output coefficient is built as one Fraction at the end.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def t_power(k: int) -> "TPoly":
        return TPoly([0] * k + [1])

    @staticmethod
    def coerce(x):
        """`x` as a TPoly: an int or Fraction becomes a constant; None for other types."""
        if isinstance(x, TPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return TPoly([x])
        return None

    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, TPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, d: int):
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def __add__(self, other):
        """The sum; over Q when either operand is, read from the constant
        terms as in `mul`, so every coefficient is then a Fraction."""
        o = self.coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        # past the end of the shorter operand the longer one's coefficients
        # stand alone: a shorter one over Q pads a longer one over Z with Q's 0
        longer, shorter = (b, a) if len(a) < len(b) else (a, b)
        q_pad = shorter and type(shorter[0]) is Fraction and type(longer[0]) is not Fraction
        return TPoly([x + y for x, y in zip_longest(a, b, fillvalue=_Q_ZERO if q_pad else 0)])

    __radd__ = __add__

    def __neg__(self):
        return TPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self.coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, TPoly):
            return self.mul(other, len(self.coeffs) + len(other.coeffs))
        if isinstance(other, (int, Fraction)):
            return TPoly([x * other for x in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def mul(self, other: "TPoly", T: int) -> "TPoly":
        """Product mod t^T; only the degrees below T are computed.

        Over Q the factors are scaled to integers by the lcm of their
        denominators, multiplied as ints, and each output coefficient is one
        Fraction.  The ring is read from the constant terms alone, an O(1)
        test that keeps the short int products fast: a series over Q whose
        constant term is an int is multiplied term by term.
        """
        a, b = self.coeffs, other.coeffs
        la, lb = len(a), len(b)
        n = la + lb - 1 if la + lb - 1 < T else T
        if not la or not lb or n < 1:
            return TPoly()
        zero = 0 * a[0] * b[0]  # a zero of the coefficient type
        if type(zero) is Fraction:
            (A, da), (B, db) = _numerators(a[:n]), _numerators(b[:n])
            ints = TPoly(A).mul(TPoly(B), T)
            return TPoly([Fraction(c, da * db) for c in ints.coeffs])
        out = [zero] * n
        for i, x in enumerate(a if la <= n else a[:n]):
            if x:
                for j, y in enumerate(b if i + lb <= n else b[: n - i], i):
                    if y:
                        out[j] += x * y
        return TPoly(out)

    def __pow__(self, k: int):
        result = TPoly([1])
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __mod__(self, modulus: int):
        return TPoly([c % modulus for c in self.coeffs])

    def reduce_mod(self, modulus: int) -> "TPoly":
        """Like `% modulus`, but a Fraction coefficient becomes its residue;
        raises NonUnitError when its denominator is not a unit mod `modulus`."""
        return TPoly([
            c.numerator * inv_mod(c.denominator, modulus) % modulus
            if isinstance(c, Fraction) else c % modulus
            for c in self.coeffs
        ])

    def truncate(self, T: int) -> "TPoly":
        return TPoly(self.coeffs[:T])

    def subs_t_power(self, k: int) -> "TPoly":
        """Substitute t -> t^k; the new zero coefficients have the type of
        the constant term."""
        if not self.coeffs:
            return TPoly()
        out = [0 * self.coeffs[0]] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return TPoly(out)

    def compose(self, other: "TPoly", T: int | None = None,
                modulus: int | None = None) -> "TPoly":
        """self(other), optionally mod t^T and mod `modulus`: the
        `ComposeTable` of `other` built and applied once."""
        return ComposeTable(other, T, modulus)(self)

    def theta(self) -> "TPoly":
        """t d/dt."""
        return TPoly([i * c for i, c in enumerate(self.coeffs)])

    def evaluate(self, x, modulus: int | None = None):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
            if modulus is not None:
                acc %= modulus
        return acc

    def min_val_p(self, p: int, cap: int) -> int:
        """Gauss valuation: min p-adic valuation over all coefficients (negative
        when a Fraction has p in its denominator)."""
        return min((val_p_fraction(c, p, cap) for c in self.coeffs), default=cap)

    def inverse_series(self, T: int, modulus: int | None = None) -> "TPoly":
        """Multiplicative inverse mod t^T over Z/modulus, or over Q when
        `modulus` is None; needs a unit constant term.

        Over Q, with A the integer numerators of the coefficients below t^T
        over their common denominator, the inverse b solves
        b_d = -(sum_{i>=1} A_i b_(d-i)) / A_0 by `_recurrence`."""
        a = self.coeffs
        c0 = a[0] if a else 0
        if modulus is None:
            if not c0:
                raise NonUnitError("constant term is zero")
            if T < 1:
                return TPoly()
            A, D = _numerators(a[:T])
            return TPoly(_recurrence(Fraction(D, A[0]), [-x for x in A[1:]], lambda n: A[0], T))
        if Fraction in {type(c) for c in a}:
            raise TypeError("Fraction coefficients with a modulus: map them with reduce_mod")
        try:
            c0inv = inv_mod(c0, modulus)
        except NonUnitError:
            raise NonUnitError("constant term is not a unit") from None
        tail = a[1:]
        inv = [c0inv]
        for _ in range(1, T):
            # [t^d] of a * inv = 0: sum_{i=1..d} a_i inv_{d-i} = -a_0 inv_d
            v = -c0inv * sum(x * y for x, y in zip(tail, reversed(inv)))
            inv.append(v % modulus)
        return TPoly(inv[:T])

    def exp(self, T: int) -> "TPoly":
        """exp mod t^T of a series with zero constant term, over Q; every
        output coefficient is a Fraction.  E' = f' E term by term: with f =
        F/D, E_(d+1) = (sum_i (i+1) F_(i+1) E_(d-i)) / (D (d+1)), by
        `_recurrence`."""
        if self[0] != 0:
            raise ValueError("exp needs zero constant term")
        if T < 1:
            return TPoly()
        F, D = _numerators(self.coeffs[:T])
        return TPoly(_recurrence(Fraction(1), [i * x for i, x in enumerate(F[1:], 1)],
                                 lambda n: D * n, T))

    def log(self, T: int) -> "TPoly":
        """log mod t^T of a series with constant term 1, over Q: the integral
        of f' times `inverse_series`; every output coefficient is a
        Fraction."""
        if self[0] != 1:
            raise ValueError("log needs constant term 1")
        df = TPoly([i * c for i, c in enumerate(self.coeffs[1:T], 1)])
        ratio = df.mul(self.inverse_series(T - 1), T - 1)
        return TPoly([Fraction(0)] + [Fraction(c, d) for d, c in enumerate(ratio.coeffs, 1)])

    def reversion(self, T: int) -> "TPoly":
        """Compositional inverse g mod t^T of a series f = t + O(t^2), over Q,
        by Lagrange inversion: [t^k] g = [z^(k-1)] h^k / k with h = z/f(z).
        With h = H/D for integer numerators H, h^k = H^k / D^k, and the
        coefficients of P = H^k below z^k follow from J. C. P. Miller's
        recurrence n H_0 P_n = sum_{j=1..n} ((k+1) j - n) H_j P_(n-j), whose
        division is exact over Z.  Every output coefficient is a Fraction."""
        if self[0] != 0 or self[1] != 1:
            raise ValueError("reversion needs a monic series t + O(t^2)")
        if T < 2:
            raise ValueError(f"reversion needs T >= 2, not T = {T!r}")
        H, D = _numerators(TPoly(self.coeffs[1:]).inverse_series(T - 1).coeffs)
        H += [0] * (T - 1 - len(H))
        jH = [j * x for j, x in enumerate(H)]
        g = [Fraction(0), Fraction(1)]
        den = D
        for k in range(2, T):
            P = [H[0] ** k]
            for n in range(1, k):
                rP = P[::-1]
                P.append(((k + 1) * sum(map(operator.mul, jH[1:n + 1], rP))
                          - n * sum(map(operator.mul, H[1:n + 1], rP))) // (n * H[0]))
            den *= D
            g.append(Fraction(P[-1], k * den))
        return TPoly(g)

    def __repr__(self):
        return f"TPoly({list(self.coeffs)!r})"


class ComposeTable:
    """One inner series g and its powers mod t^T (and mod `modulus`), built
    as far as the outer series need them: `table(f)` is f.compose(g, T,
    modulus), and the outer series composed with one g share the powers.

    The powers are integer polynomials.  Over Q, g is G/D with G integral, so
    g^i = G^i / D^i, and an outer f = F/E of degree n gives
    f(g) = (sum_i F_i D^(n-i) G^i) / (E D^n): integer products, then one
    Fraction per output coefficient.  A power that vanishes mod t^T (and
    `modulus`) ends the table, since every higher one vanishes too.  An int
    g = t^k (k >= 1) is substituted instead.
    """

    __slots__ = ("inner", "T", "modulus", "_den", "_powers")

    def __init__(self, inner: TPoly, T: int | None = None, modulus: int | None = None):
        self.inner, self.T, self.modulus = inner, T, modulus
        self._den = None  # D, and the powers of G = g D, set on first use
        self._powers = []

    def _power_list(self, n: int) -> list:
        """G^0..G^m for the largest m <= n whose power does not vanish."""
        P, reduce = self._powers, Ring(self.modulus).reduce
        if not P:
            G, self._den = _numerators(self.inner.coeffs[:self.T])
            P.extend([TPoly([1]), reduce(TPoly(G))])
        while len(P) <= n and P[-1]:
            G, last = P[1], P[-1]
            P.append(reduce(last.mul(G, len(last.coeffs) + len(G.coeffs)
                                     if self.T is None else self.T)))
        m = min(n, len(P) - 1)
        while m and not P[m]:
            m -= 1
        return P[:m + 1]

    def __call__(self, outer: TPoly) -> TPoly:
        g, T, modulus = self.inner, self.T, self.modulus
        rational = Fraction in {type(c) for c in outer.coeffs + g.coeffs}
        if rational and modulus is not None:
            raise TypeError("Fraction coefficients with a modulus: map them with reduce_mod")
        if not outer.coeffs or T is not None and T < 1:
            return TPoly()
        k = g.degree()
        if not rational and k >= 1 and g.coeffs == (0,) * k + (1,):
            return Ring(modulus, T).reduce(outer.subs_t_power(k))
        powers = self._power_list(outer.degree())
        F, E = _numerators(outer.coeffs[:len(powers)])
        num = [0] * max(len(P.coeffs) for P in powers)
        scale = 1  # D^(m-i) for the power G^i, m = len(powers) - 1
        for i in range(len(powers) - 1, -1, -1):
            w = F[i] * scale
            if w:
                for d, x in enumerate(powers[i].coeffs):
                    num[d] += w * x
            scale *= self._den
        if rational:
            den = E * scale // self._den
            return TPoly([Fraction(x, den) for x in num])
        return TPoly(num if modulus is None else [x % modulus for x in num])


@dataclass(frozen=True, slots=True)
class Ring:
    """The coefficient ring of one computation and its one reduction rule.

    Z when `modulus` is None, else Z/modulus (a prime power p^N).  With a
    precision T it is the series ring over that mod t^T, whose elements are
    TPolys; without one, a TPoly is an exact polynomial.
    """

    modulus: int | None = None
    T: int | None = None

    def reduce(self, c):
        """`c` in this ring: `% modulus` (coefficientwise on polynomials), then,
        when T is set, an int or TPoly becomes a TPoly truncated at t^T.  The
        exact ring without T returns `c` itself."""
        if self.modulus is not None:
            c = c % self.modulus
        if self.T is not None and isinstance(c, (int, TPoly)):
            c = TPoly.coerce(c).truncate(self.T)
        return c

    def pow(self, c, k: int):
        """c**k in this ring; the int 1 when k = 0, whatever the type of c."""
        if not k:
            return 1
        if type(c) is int and self.modulus is not None:
            return pow(c, k, self.modulus)
        return self.reduce(c**k)

    def is_unit(self, c) -> bool:
        """The pivot test: for a TPoly, whether its constant term is a unit."""
        if isinstance(c, TPoly):
            c = c[0]
        if self.modulus is None:
            return c in (1, -1)
        return gcd(c, self.modulus) == 1

    def inv(self, c):
        """Inverse of a unit (a TPoly as a series mod t^T); the exact ring
        inverts only +-1.  Raises NonUnitError for a non-unit."""
        if self.modulus is None and not self.is_unit(c):
            raise NonUnitError(f"{c!r} is not +-1, the only units of the exact ring")
        if isinstance(c, TPoly):
            return c.inverse_series(self.T, self.modulus)
        return c if self.modulus is None else inv_mod(c, self.modulus)


# The old name of the rational series type: benchmark/workloads.py imports it
# and benchmark/tracer.py wraps its __mul__, and the benchmark is not edited
# together with the library.
TruncatedSeries = TPoly
