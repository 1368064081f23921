"""Brute-force point counts over F_{p^s} and Frobenius-root cross-checks.

Point counting here is deliberately naive (exhaustive evaluation): it is the
independent oracle against which the p-adic route (traces of unit-root
matrices) is tested, so it must not share any machinery with it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .arith import TPoly, teichmuller
from .laurent import FrobeniusLift, LaurentPoly
from .linalg import mat_pow, mat_trace
from .polytope import newton_polytope, whole_polytope
from .hasse_witt import lambda_unit_root

EVALUATION_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    pass


class FiniteField:
    """F_{p^s} as polynomials mod (p, modulus), modulus found by search.

    Elements are integers encoding coefficient vectors in base p.  Tables are
    precomputed for the small fields used here (p^s <= a few hundred).
    """

    def __init__(self, p: int, s: int):
        if s < 1 or s > 3:
            raise ValueError("extension degree limited to s <= 3")
        self.p = p
        self.s = s
        self.q = p**s
        self.modulus = self._find_irreducible() if s > 1 else (0,)

    def _find_irreducible(self):
        p, s = self.p, self.s
        # smallest lexicographic monic irreducible: x^s + a_{s-1} x^{s-1} + ... + a_0
        for tail in itertools.product(range(p), repeat=s):
            coeffs = tuple(reversed(tail)) + (1,)  # a_0 .. a_{s-1}, 1
            if self._is_irreducible(coeffs):
                return coeffs[:-1]
        raise RuntimeError("no irreducible polynomial found")

    def _is_irreducible(self, coeffs):
        # degree 2 or 3: irreducible iff no root in F_p
        p = self.p
        for x in range(p):
            acc = 0
            for c in reversed(coeffs):
                acc = (acc * x + c) % p
            if acc == 0:
                return False
        return True

    # -- element encoding: e = sum c_i p^i with c_i the coefficients --

    def decode(self, e):
        out = []
        for _ in range(self.s):
            out.append(e % self.p)
            e //= self.p
        return out

    def encode(self, cs):
        e = 0
        for c in reversed(cs):
            e = e * self.p + (c % self.p)
        return e

    def add(self, a, b):
        ca, cb = self.decode(a), self.decode(b)
        return self.encode([(x + y) % self.p for x, y in zip(ca, cb)])

    def neg(self, a):
        return self.encode([(-x) % self.p for x in self.decode(a)])

    def mul(self, a, b):
        if self.s == 1:
            return a * b % self.p
        ca, cb = self.decode(a), self.decode(b)
        prod = [0] * (2 * self.s - 1)
        for i, x in enumerate(ca):
            if x:
                for j, y in enumerate(cb):
                    prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce by x^s = -modulus
        for d in range(len(prod) - 1, self.s - 1, -1):
            c = prod[d]
            if c:
                prod[d] = 0
                for i, m in enumerate(self.modulus):
                    prod[d - self.s + i] = (prod[d - self.s + i] - c * m) % self.p
        return self.encode(prod[: self.s])

    def pow(self, a, k):
        if a == 0:
            if k < 0:
                raise ZeroDivisionError
            return 0 if k else 1
        k %= self.q - 1
        result = 1
        base = a
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    def units(self):
        return range(1, self.q)


def count_torus_points(f: LaurentPoly, p: int, s: int) -> int:
    """#{x in (F_{p^s}^*)^n : f(x) = 0} by exhaustive evaluation."""
    q = p**s
    if (q - 1) ** f.n > EVALUATION_BUDGET:
        raise BudgetExceededError(
            f"{(q - 1) ** f.n} evaluations exceed the budget {EVALUATION_BUDGET}"
        )
    F = FiniteField(p, s)
    terms = [(e, c % p) for e, c in f.sorted_terms() if not isinstance(c, TPoly)]
    if len(terms) != len(f.terms):
        raise ValueError("point counting needs integer coefficients")
    count = 0
    # precompute power tables per unit element
    pow_cache = {}

    def upow(x, e):
        key = (x, e)
        v = pow_cache.get(key)
        if v is None:
            v = F.pow(x, e)
            pow_cache[key] = v
        return v

    for xs in itertools.product(F.units(), repeat=f.n):
        acc = 0
        for e, c in terms:
            m = c % p
            for xi, ei in zip(xs, e):
                m = F.mul(m, upow(xi, ei))
            acc = F.add(acc, m)
        if acc == 0:
            count += 1
    return count


@dataclass(frozen=True)
class EllipticCurveData:
    A: int
    B: int
    p: int
    a_p: int
    affine_count: int


def frobenius_trace_elliptic(A: int, B: int, p: int) -> EllipticCurveData:
    """a_p = p - #{(x, y) in F_p^2 : y^2 = x^3 + A x + B}, with Hasse check."""
    if p == 2:
        raise ValueError("odd primes only")
    disc = (-16 * (4 * A**3 + 27 * B**2)) % p
    if disc == 0:
        raise ValueError(f"curve is singular mod {p}")
    squares = {}
    for y in range(p):
        squares.setdefault(y * y % p, 0)
        squares[y * y % p] += 1
    count = 0
    for x in range(p):
        rhs = (x * x * x + A * x + B) % p
        count += squares.get(rhs, 0)
    a_p = p - count
    if a_p * a_p > 4 * p:
        raise AssertionError("Hasse bound violated: internal error")
    return EllipticCurveData(A, B, p, a_p, count)


def elliptic_point_count_extension(A: int, B: int, p: int, s: int) -> int:
    """#E(F_{p^s}) including the point at infinity, by brute force."""
    F = FiniteField(p, s)
    q = F.q
    if 2 * q * q > EVALUATION_BUDGET:
        raise BudgetExceededError("extension count too large")
    count = 1  # infinity
    Ae = A % p
    Be = B % p
    for x in range(q):
        rhs = F.add(F.add(F.mul(F.mul(x, x), x), F.mul(Ae, x)), Be)
        for y in range(q):
            if F.mul(y, y) == rhs:
                count += 1
    return count


def asd_alpha(A: int, B: int, m: int, modulus: int | None = None) -> int:
    """Expansion coefficient alpha_m of the invariant differential:
    the coefficient of x^(m-1) in (x^3 + A x + B)^((m-1)/2) for odd m, 0 for
    even.  Exact by default; reduced mod `modulus` when given (congruence
    checks at large m do not need the full integer)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m % 2 == 0:
        return 0
    k = (m - 1) // 2
    # coefficient of x^(m-1) in sum over a+b+c=k of k!/(a!b!c!) x^(3a) (Ax)^b B^c
    import math

    total = 0
    for a in range(k + 1):
        b = (m - 1) - 3 * a
        c = k - a - b
        if b < 0 or c < 0:
            continue
        term = math.comb(k, a) * math.comb(k - a, b)
        if modulus is None:
            total += term * A**b * B**c
        else:
            total = (
                total + term * pow(A, b, modulus) * pow(B, c, modulus)
            ) % modulus
    return total % modulus if modulus is not None else total


def unit_root_elliptic(A: int, B: int, p: int, s: int) -> int:
    """Unit root of X^2 - a_p X + p mod p^s by Hensel lifting from the
    residue a_p mod p.  Requires the curve ordinary (p does not divide a_p)."""
    a_p = frobenius_trace_elliptic(A, B, p).a_p
    if a_p % p == 0:
        raise ValueError("supersingular: no unit root")
    x = a_p % p
    modulus = p
    for _ in range(s - 1):
        modulus *= p
        fx = (x * x - a_p * x + p) % modulus
        dfx = (2 * x - a_p) % modulus
        x = (x - fx * pow(dfx, -1, modulus)) % modulus
    return x % p**s


def eigenvalue_crosscheck(f: LaurentPoly, p: int, s_max: int, N: int | None = None):
    """Compare Trace(Lambda(Delta)^s) with 1 + (-1)^(n+1) #X_f(F_{p^s}) mod p^s.

    Lambda is the unit-root matrix on the full Newton polytope; the count is
    by brute force.  Returns a per-s report; all cells must match when the
    Hasse-Witt condition holds.
    """
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    P = newton_polytope(f.support())
    mu = whole_polytope(P)
    sign = (-1) ** (f.n + 1)
    rows = []
    all_ok = True
    for s in range(1, s_max + 1):
        lam = lambda_unit_root(f, mu, p, FrobeniusLift.identity(), s)
        modulus = p**s
        tr = mat_trace(mat_pow(lam.entries, s, modulus), modulus)
        cnt = count_torus_points(f, p, s)
        rhs = (1 + sign * cnt) % modulus
        ok = tr == rhs
        all_ok = all_ok and ok
        rows.append(
            {
                "s": s,
                "trace": tr,
                "torus_count": cnt,
                "rhs": rhs,
                "modulus": f"{p}^{s}",
                "match": ok,
            }
        )
    return {"p": p, "n": f.n, "cells": rows, "pass": all_ok}


def teichmuller_specialize(entries, a: int, p: int, s: int):
    """Evaluate a t-polynomial matrix at the Teichmuller lift of a mod p^s.

    Exact for genuinely polynomial entries (beta matrices, Hasse-Witt
    polynomials).  Do not feed truncated series here: a series cannot be
    evaluated at a p-adic unit term by term, so unit-root family matrices
    must be specialised through lambda_at_teichmuller instead.
    """
    tau = teichmuller(a, p, s).value
    modulus = p**s
    out = []
    for row in entries:
        out.append(
            [
                e.evaluate(tau, modulus) if isinstance(e, TPoly) else e % modulus
                for e in row
            ]
        )
    return out


def lambda_at_teichmuller(f_family: LaurentPoly, mu, a: int, p: int, s: int):
    """Unit-root matrix of the fibre t = tau(a), computed soundly.

    Specialises the exact beta polynomials at tau(a) first and then takes the
    stabilised ratio; because tau(a)^p = tau(a), this agrees with running the
    integer fibre through lambda_unit_root.
    """
    from .hasse_witt import HWConditionError, beta_matrix, _det_mod_p, hw_matrix
    from .linalg import mat_inv_mod, mat_mul

    hw = hw_matrix(f_family, mu, p, 1)
    spec_hw = teichmuller_specialize(hw.entries, a, p, 1)
    from .linalg import int_det

    if int_det(spec_hw) % p == 0:
        raise HWConditionError(int_det(spec_hw) % p)
    modulus = p**s
    num = teichmuller_specialize(
        beta_matrix(f_family, mu, p**s, p, s).entries, a, p, s
    )
    den = teichmuller_specialize(
        beta_matrix(f_family, mu, p ** (s - 1), p, s).entries, a, p, s
    )
    return mat_mul(num, mat_inv_mod(den, modulus), modulus)
