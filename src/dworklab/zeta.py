"""Brute-force point counts over F_{p^s} and Frobenius-root cross-checks.

Point counting here is deliberately naive (exhaustive evaluation): it is the
independent oracle against which the p-adic route (traces of unit-root
matrices) is tested, so it must not share any machinery with it.  The only
field data it needs is the table of powers of a generator of F_{p^s}^*
(`unit_group`): a monomial at x = g^l is a shifted table entry, and a sum of
entries is a sum of coefficient tuples.
"""

from __future__ import annotations

import itertools
import math
import operator

from .arith import TPoly, odd_prime, teichmuller
from .laurent import FrobeniusLift, LaurentPoly
from .linalg import int_det, mat_inv_mod, mat_mul, mat_pow, mat_trace
from .polytope import newton_polytope, whole_polytope
from .hasse_witt import HWConditionError, beta_matrix, lambda_unit_root

EVALUATION_BUDGET = 10**7


class BudgetExceededError(RuntimeError):
    pass


def irreducible_modulus(p: int, s: int) -> tuple:
    """(a_0, ..., a_(s-1)) of the first monic irreducible x^s + a_(s-1)
    x^(s-1) + ... + a_0 over F_p, in lexicographic order of (a_(s-1), ...,
    a_0).  For s = 2 or 3, irreducible means no root in F_p."""
    for tail in itertools.product(range(p), repeat=s):
        a = tail[::-1]
        if all((x**s + sum(c * x**i for i, c in enumerate(a))) % p for x in range(p)):
            return a
    raise RuntimeError("no irreducible polynomial found")


def unit_group(p: int, s: int) -> list:
    """[g^0, ..., g^(q-2)] for a generator g of F_q^*, q = p^s: each power as
    its coefficient tuple (c_0, ..., c_(s-1)) mod (p, `irreducible_modulus`).
    g is the first unit of order q - 1 in base-p order.  The fields used here
    are small (q <= a few hundred)."""
    odd_prime(p)
    if s < 1 or s > 3:
        raise ValueError(f"extension degree s must be 1, 2 or 3, not {s}")
    modulus = irreducible_modulus(p, s) if s > 1 else ()
    one = (1,) + (0,) * (s - 1)

    def mul(a, b):
        prod = [0] * (2 * s - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        # reduce by x^s = -(a_0 + ... + a_(s-1) x^(s-1)), top degree first
        for d in range(2 * s - 2, s - 1, -1):
            for i, m in enumerate(modulus):
                prod[d - s + i] -= prod[d] * m
        return tuple(c % p for c in prod[:s])

    for digits in itertools.product(range(p), repeat=s):
        g = digits[::-1]
        if not any(g):
            continue
        powers, x = [one], g
        while x != one:
            powers.append(x)
            x = mul(x, g)
        if len(powers) == p**s - 1:
            return powers
    raise RuntimeError("no generator found")


def count_torus_points(f: LaurentPoly, p: int, s: int) -> int:
    """#{x in (F_{p^s}^*)^n : f(x) = 0} by exhaustive evaluation.

    The points are taken a row at a time: the first n - 1 logarithms l' are
    fixed and the last one, l, runs over 0..q-2.  Along the row the term
    c x^e is exp[o + e_last l] with o = log c + e'.l', so its whole row is
    the table rotated by o and read at the indices e_last l mod (q - 1),
    one `itemgetter` per term; the rows of the terms are summed entry by
    entry and the zeros of the row counted in one pass."""
    q = p**s
    if (q - 1) ** f.n > EVALUATION_BUDGET:
        raise BudgetExceededError(
            f"{(q - 1) ** f.n} evaluations exceed the budget {EVALUATION_BUDGET}"
        )
    exp = unit_group(p, s)
    log = {x: i for i, x in enumerate(exp)}
    if any(isinstance(c, TPoly) for c in f.terms.values()):
        raise ValueError("point counting needs integer coefficients")
    terms = [(log[(c % p,) + (0,) * (s - 1)], e) for e, c in f.terms.items() if c % p]
    if not terms:  # f vanishes identically mod p
        return (q - 1) ** f.n
    # At x = g^l the term c x^e is exp[log c + e.l].  A sum of field elements
    # adds their coefficient tuples: packed as digits in base > len(terms)
    # (p - 1) they add without carries, and the sum is zero when every digit
    # is a multiple of p.
    base = len(terms) * (p - 1) + 1
    packed = [sum(d * base**i for i, d in enumerate(x)) for x in exp]
    zeros = {sum(d * base**i for i, d in enumerate(ds))
             for ds in itertools.product(range(0, base, p), repeat=s)}
    readers = [(lc, e[:-1], operator.itemgetter(*[e[-1] * l % (q - 1) for l in range(q - 1)]))
            for lc, e in terms]
    count = 0
    for ls in itertools.product(range(q - 1), repeat=f.n - 1):
        row = []
        for lc, head, read in readers:
            o = (lc + sum(map(operator.mul, head, ls))) % (q - 1)
            row.append(read(packed[o:] + packed[:o]))
        count += sum(map(zeros.__contains__, map(sum, zip(*row))))
    return count


def frobenius_trace_elliptic(A: int, B: int, p: int) -> int:
    """a_p = p - #{(x, y) in F_p^2 : y^2 = x^3 + A x + B}, with Hasse check."""
    odd_prime(p)
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
    return a_p


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
    # coefficient of x^(2k) in sum over a+b+c=k of k!/(a!b!c!) x^(3a) (Ax)^b B^c:
    # b = 2k - 3a and c = 2a - k are >= 0 for ceil(k/2) <= a <= floor(2k/3),
    # and each trinomial follows from the one before by an exact division
    a0 = (k + 1) // 2
    term = math.comb(k, a0) * math.comb(k - a0, 2 * a0 - k)
    total = 0
    for a in range(a0, 2 * k // 3 + 1):
        b, c = 2 * k - 3 * a, 2 * a - k
        if modulus is None:
            total += term * A**b * B**c
        else:
            total = (total + term * pow(A, b, modulus) * pow(B, c, modulus)) % modulus
        term = term * b * (b - 1) * (b - 2) // ((a + 1) * (c + 1) * (c + 2))
    return total


def unit_root_elliptic(A: int, B: int, p: int, s: int) -> int:
    """Unit root of X^2 - a_p X + p mod p^s by Hensel lifting from the
    residue a_p mod p.  Requires the curve ordinary (p does not divide a_p)."""
    a_p = frobenius_trace_elliptic(A, B, p)
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


def eigenvalue_crosscheck(f: LaurentPoly, p: int, s_max: int):
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
    for s, lam in enumerate(lambda_unit_root(f, mu, p, FrobeniusLift.identity(), s_max), 1):
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
    tau = teichmuller(a, p, s)
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
    hw = beta_matrix(f_family, mu, p, p, 1)
    det = int_det(teichmuller_specialize(hw.entries, a, p, 1)) % p
    if det == 0:
        raise HWConditionError(det)
    modulus = p**s
    num = teichmuller_specialize(
        beta_matrix(f_family, mu, p**s, p, s).entries, a, p, s
    )
    den = teichmuller_specialize(
        beta_matrix(f_family, mu, p ** (s - 1), p, s).entries, a, p, s
    )
    return mat_mul(num, mat_inv_mod(den, modulus), modulus)
