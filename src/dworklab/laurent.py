"""Sparse multivariate Laurent polynomials over any exact coefficient ring.

Terms live in a dict keyed by integer exponent tuples (which may be
negative).  Coefficients are whatever supports ring arithmetic: ints,
Fractions, or :class:`dworklab.arith.TPoly` for one-parameter families.
Serialisation always emits terms in ascending lexicographic order so that
outputs are bit-stable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .arith import TPoly

EXPONENT_LIMIT = 10**5  # machine-int guard for exponent arithmetic


def _check_exponent(e):
    if any(abs(x) > EXPONENT_LIMIT for x in e):
        raise OverflowError(f"exponent {e} exceeds the configured degree range")
    return e


class LaurentPoly:
    """A finite map from exponent vectors to nonzero coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                if c == 0:
                    continue
                e = tuple(e)
                if len(e) != n:
                    raise ValueError("exponent length does not match variable count")
                _check_exponent(e)
                prev = self.terms.get(e)
                acc = c if prev is None else prev + c
                if acc == 0:
                    self.terms.pop(e, None)
                else:
                    self.terms[e] = acc

    # -- constructors -------------------------------------------------

    @staticmethod
    def monomial(n: int, e, c=1) -> "LaurentPoly":
        return LaurentPoly(n, {tuple(e): c})

    @staticmethod
    def constant(n: int, c) -> "LaurentPoly":
        return LaurentPoly(n, {(0,) * n: c})

    # -- basic queries ------------------------------------------------

    def support(self):
        return set(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient_at(self, e):
        e = tuple(e)
        if len(e) != self.n:
            raise ValueError("exponent length does not match variable count")
        return self.terms.get(e, 0)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, tuple(self.sorted_terms())))

    def __repr__(self):
        return f"LaurentPoly(n={self.n}, {dict(self.sorted_terms())!r})"

    # -- ring operations ----------------------------------------------

    def _require_same_context(self, other: "LaurentPoly"):
        if not isinstance(other, LaurentPoly):
            raise TypeError("expected a LaurentPoly")
        if self.n != other.n:
            raise ValueError("variable-count mismatch")

    def __add__(self, other):
        self._require_same_context(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = out.get(e, 0) + c
            if acc == 0:
                out.pop(e, None)
            else:
                out[e] = acc
        return LaurentPoly(self.n, out)

    def __neg__(self):
        return LaurentPoly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        self._require_same_context(other)
        out = {}
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                acc = out.get(e, 0) + c1 * c2
                if acc == 0:
                    out.pop(e, None)
                else:
                    out[e] = acc
        for e in out:
            _check_exponent(e)
        return LaurentPoly(self.n, out)

    def scale(self, c):
        if c == 0:
            return LaurentPoly(self.n)
        return LaurentPoly(self.n, {e: co * c for e, co in self.terms.items()})

    def reduce_mod(self, modulus: int) -> "LaurentPoly":
        out = {}
        for e, c in self.terms.items():
            c = c % modulus
            if c != 0:
                out[e] = c
        return LaurentPoly(self.n, out)

    def map_coefficients(self, fn) -> "LaurentPoly":
        return LaurentPoly(self.n, {e: fn(c) for e, c in self.terms.items()})


def multiply(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """Exact product with zero coefficients pruned."""
    return f * g


def power_mod(f: LaurentPoly, m: int, modulus: int | None = None) -> LaurentPoly:
    """f^m by binary powering, reducing every intermediate mod `modulus` if given."""
    if m < 0:
        raise ValueError("power_mod needs m >= 0")
    result = LaurentPoly.constant(f.n, 1)
    base = f.reduce_mod(modulus) if modulus is not None else f
    while m:
        if m & 1:
            result = result * base
            if modulus is not None:
                result = result.reduce_mod(modulus)
        m >>= 1
        if m:
            base = base * base
            if modulus is not None:
                base = base.reduce_mod(modulus)
    return result


def coefficient_of_power(f: LaurentPoly, m: int, w, modulus: int | None = None):
    """Coefficient of x^w in f^m without expanding the full power.

    Enumerates multinomial solutions sum k_i = m, sum k_i u_i = w over the
    support of f, with interval pruning per coordinate.  This is what makes
    beta matrices for m in the thousands affordable: the work grows with the
    number of solutions, not with the support of f^m.
    """
    w = tuple(w)
    if len(w) != f.n:
        raise ValueError("exponent length does not match variable count")
    if m < 0:
        raise ValueError("m must be >= 0")
    terms = f.sorted_terms()
    if not terms:
        return 1 if m == 0 and all(x == 0 for x in w) else 0
    exps = [e for e, _ in terms]
    coeffs = [c for _, c in terms]
    n = f.n
    # per-coordinate min/max over suffixes of the term list, for pruning
    k = len(terms)
    suffix_min = [[0] * n for _ in range(k + 1)]
    suffix_max = [[0] * n for _ in range(k + 1)]
    for i in range(k - 1, -1, -1):
        for j in range(n):
            suffix_min[i][j] = min(exps[i][j], suffix_min[i + 1][j]) if i < k - 1 else exps[i][j]
            suffix_max[i][j] = max(exps[i][j], suffix_max[i + 1][j]) if i < k - 1 else exps[i][j]

    total = 0

    def feasible(i, remaining, target):
        if i == k:
            return remaining == 0 and all(t == 0 for t in target)
        for j in range(n):
            lo = suffix_min[i][j] * remaining
            hi = suffix_max[i][j] * remaining
            if not (min(lo, hi) <= target[j] <= max(lo, hi)):
                return False
        return True

    def last_two(i, remaining, target, mult, prod):
        # closed-form split between the final pair of (distinct) exponents
        nonlocal total
        ea, eb = exps[i], exps[i + 1]
        j = next((jj for jj in range(n) if ea[jj] != eb[jj]), None)
        if j is None:
            return
        num = target[j] - remaining * eb[j]
        den = ea[j] - eb[j]
        if num % den:
            return
        ka = num // den
        if not 0 <= ka <= remaining:
            return
        kb = remaining - ka
        if any(t != ka * a + kb * bb for t, a, bb in zip(target, ea, eb)):
            return
        contrib = (
            mult
            * math.comb(remaining, ka)
            * _coeff_pow(coeffs[i], ka, modulus)
            * _coeff_pow(coeffs[i + 1], kb, modulus)
            * prod
        )
        total = _acc(total, contrib, modulus)

    def rec(i, remaining, target, mult, prod):
        nonlocal total
        if i == k - 1:
            kk = remaining
            if all(t == kk * e for t, e in zip(target, exps[i])):
                contrib = mult * _coeff_pow(coeffs[i], kk, modulus) * prod
                total = _acc(total, contrib, modulus)
            return
        if i == k - 2:
            last_two(i, remaining, target, mult, prod)
            return
        for kk in range(remaining + 1):
            new_target = tuple(t - kk * e for t, e in zip(target, exps[i]))
            rem = remaining - kk
            if not feasible(i + 1, rem, new_target):
                continue
            rec(
                i + 1,
                rem,
                new_target,
                mult * math.comb(remaining, kk),
                prod * _coeff_pow(coeffs[i], kk, modulus) if kk else prod,
            )

    rec(0, m, w, 1, 1)
    if modulus is not None:
        total = total % modulus if not isinstance(total, TPoly) else total % modulus
    return total


def _coeff_pow(c, k, modulus):
    if k == 0:
        return 1
    if isinstance(c, TPoly):
        out = c**k
        return out % modulus if modulus is not None else out
    out = pow(c, k, modulus) if modulus is not None and isinstance(c, int) else c**k
    return out


def _acc(total, contrib, modulus):
    out = total + contrib
    if modulus is not None and isinstance(out, int):
        out %= modulus
    return out


@dataclass(frozen=True)
class FrobeniusLift:
    """Coefficient-ring endomorphism congruent to the p-th power map mod p.

    kind 'identity' works for Z or Z/p^N coefficients.  kind 'series' carries
    an image polynomial for t (typically t^p) and acts on TPoly coefficients
    by substitution.
    """

    kind: str  # "identity" | "series"
    p: int | None = None
    image: TPoly | None = None
    t_trunc: int | None = None

    @staticmethod
    def identity() -> "FrobeniusLift":
        return FrobeniusLift("identity")

    @staticmethod
    def t_power(p: int, t_trunc: int | None = None) -> "FrobeniusLift":
        return FrobeniusLift("series", p=p, image=TPoly.t_power(p), t_trunc=t_trunc)

    @staticmethod
    def series(p: int, image: TPoly, t_trunc: int | None = None) -> "FrobeniusLift":
        lift = FrobeniusLift("series", p=p, image=image, t_trunc=t_trunc)
        lift.validate()
        return lift

    def validate(self):
        """Check t^sigma = t^p mod p through the stored truncation."""
        if self.kind != "series":
            return
        diff = self.image - TPoly.t_power(self.p)
        if any(c % self.p for c in (diff % self.p**30).coeffs):
            raise ValueError("series image is not congruent to t^p mod p")

    def is_t_power(self) -> bool:
        return self.kind == "series" and self.image == TPoly.t_power(self.p)

    def apply_scalar(self, c, modulus: int | None = None):
        if self.kind == "identity":
            return c
        if not isinstance(c, TPoly):
            return c
        if self.is_t_power():
            out = c.subs_t_power(self.p)
        else:
            out = c.compose(self.image, T=self.t_trunc, modulus=modulus)
        if self.t_trunc is not None:
            out = out.truncate(self.t_trunc)
        if modulus is not None:
            out = out % modulus
        return out

    def apply_poly(self, f: LaurentPoly, modulus: int | None = None) -> LaurentPoly:
        return f.map_coefficients(lambda c: self.apply_scalar(c, modulus))


def frobenius_twist(
    f: LaurentPoly,
    sigma: FrobeniusLift,
    substitute_x_p: bool = False,
    p: int | None = None,
    modulus: int | None = None,
) -> LaurentPoly:
    """Apply sigma to coefficients and optionally map exponents u -> p*u."""
    out = sigma.apply_poly(f, modulus)
    if substitute_x_p:
        if p is None:
            raise ValueError("substitute_x_p requires p")
        out = LaurentPoly(
            f.n, {tuple(p * x for x in e): c for e, c in out.terms.items()}
        )
    return out


def cartier_poly(f: LaurentPoly, p: int) -> LaurentPoly:
    """Keep only exponents divisible by p; divide the kept exponents by p."""
    out = {}
    for e, c in f.terms.items():
        if all(x % p == 0 for x in e):
            out[tuple(x // p for x in e)] = c
    return LaurentPoly(f.n, out)


def frobenius_discrepancy(f: LaurentPoly, sigma: FrobeniusLift, p: int) -> LaurentPoly:
    """G with f(x)^p = f^sigma(x^p) - p*G(x); division by p must be exact."""
    fp = power_mod(f, p)
    twisted = frobenius_twist(f, sigma, substitute_x_p=True, p=p)
    diff = twisted - fp
    out = {}
    for e, c in diff.terms.items():
        if isinstance(c, TPoly):
            if any(x % p for x in c.coeffs):
                raise ArithmeticError("discrepancy is not divisible by p")
            out[e] = TPoly([x // p for x in c.coeffs])
        else:
            if c % p:
                raise ArithmeticError("discrepancy is not divisible by p")
            out[e] = c // p
    return LaurentPoly(f.n, out)


# -- JSON term format ------------------------------------------------


def _coeff_to_json(c):
    if isinstance(c, TPoly):
        return {"tpoly": [str(x) for x in c.coeffs]}
    return str(c)


def _coeff_from_json(obj):
    if isinstance(obj, dict):
        return TPoly([int(x) for x in obj["tpoly"]])
    return int(obj)


def poly_to_json(f: LaurentPoly) -> dict:
    return {
        "n": f.n,
        "terms": [{"e": list(e), "c": _coeff_to_json(c)} for e, c in f.sorted_terms()],
    }


def poly_from_json(obj) -> LaurentPoly:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("polynomial JSON must be an object")
    n, terms = obj.get("n"), obj.get("terms")
    if type(n) is not int or not isinstance(terms, list):
        raise ValueError('polynomial JSON needs an integer "n" and a list "terms"')
    return LaurentPoly(
        n, {tuple(t["e"]): _coeff_from_json(t["c"]) for t in terms}
    )


def family_from_json(obj) -> tuple[LaurentPoly, LaurentPoly]:
    """Parse {"form": "1-t*g", "g": {...}} into (f with TPoly coefficients, g)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if obj.get("form") != "1-t*g":
        raise ValueError("unsupported family form")
    g = poly_from_json(obj["g"])
    return family_poly(g), g


def family_poly(g: LaurentPoly) -> LaurentPoly:
    """Build f = 1 - t*g with TPoly coefficients from an integer Laurent polynomial."""
    terms = {(0,) * g.n: TPoly([1])}
    for e, c in g.terms.items():
        base = terms.get(e, TPoly())
        terms[e] = base + TPoly([0, -c])
    return LaurentPoly(g.n, terms)
