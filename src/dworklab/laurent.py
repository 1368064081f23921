"""Sparse multivariate Laurent polynomials over any exact coefficient ring.

Terms live in a dict keyed by integer exponent tuples (which may be
negative).  Coefficients are whatever supports ring arithmetic: ints,
Fractions, or :class:`dworklab.arith.TPoly` for one-parameter families.
`sorted_terms` reads the terms out in ascending lexicographic order so that
outputs are bit-stable.

Flat form.  A polynomial with a TPoly coefficient is multiplied with t as its
last exponent: `flatten_t` turns x^e * sum_d c_d t^d into the int-coefficient
terms x^e t^d of an (n+1)-variable polynomial, the int arithmetic does the
work, and `regroup_t` collects the terms back into one TPoly per x-exponent,
once, on the way out.  So when any coefficient of the input is a TPoly, every
coefficient of the output is a TPoly (a constant one included); all-int
inputs never leave the int path.  `power_mod`, `frobenius_discrepancy` and
`hasse_witt.higher_F_polynomials` take this route.

Product keys.  `LaurentPoly.__mul__` adds exponents as ints: e has the key
sum_i (e_i + 2^18) 2^(20 i), one 20-bit digit per variable.  A polynomial's
exponents are within EXPONENT_LIMIT = 10^5 < 2^17, so the digits of a sum
of two keys, 2^19 + e1_i + e2_i, lie in (0, 2^20) and never carry: each
product exponent is read back from its digits, once, and checked.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import add, mul, sub

from .arith import ComposeTable, Ring, TPoly
from .linalg import independent_rows, int_det

EXPONENT_LIMIT = 10**5  # machine-int guard for exponent arithmetic
_KEY_BITS = 20  # bits per exponent digit of a product key (module docstring)
_KEY_BIAS = 1 << 18  # > EXPONENT_LIMIT; 4 * _KEY_BIAS = 2^_KEY_BITS


def _check_exponent(e):
    if e and (max(e) > EXPONENT_LIMIT or min(e) < -EXPONENT_LIMIT):
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
    def _checked(n: int, terms: dict) -> "LaurentPoly":
        """Wrap a dict of already validated exponents and nonzero coefficients."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.n, out.terms = n, terms
        return out

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

    def _combine(self, other, op):
        """self op other for op = add or sub, term by term, dropping zeros."""
        self._require_same_context(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            acc = op(out.get(e, 0), c)
            if acc == 0:
                out.pop(e, None)
            else:
                out[e] = acc
        return LaurentPoly._checked(self.n, out)

    def __add__(self, other):
        return self._combine(other, add)

    def __neg__(self):
        return LaurentPoly._checked(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self._combine(other, sub)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return self.scale(other)
        self._require_same_context(other)
        out = {}
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        shifts = range(0, _KEY_BITS * self.n, _KEY_BITS)
        weights = [1 << s for s in shifts]
        bias = sum(_KEY_BIAS << s for s in shifts)  # the key of the zero exponent

        def keyed(terms):
            return [(bias + sum(map(mul, e, weights)), c) for e, c in terms.items()]

        b = keyed(b)
        for k1, c1 in keyed(a):
            for k2, c2 in b:
                k = k1 + k2
                acc = out.get(k, 0) + c1 * c2
                if acc == 0:
                    out.pop(k, None)
                else:
                    out[k] = acc
        mask, twice = (1 << _KEY_BITS) - 1, 2 * _KEY_BIAS
        return LaurentPoly._checked(self.n, {
            _check_exponent(tuple([((k >> s) & mask) - twice for s in shifts])): c
            for k, c in out.items()})

    def scale(self, c):
        return LaurentPoly._checked(self.n, {
            e: x for e, co in self.terms.items() if (x := co * c) != 0})

    def reduce_mod(self, modulus: int) -> "LaurentPoly":
        out = {}
        for e, c in self.terms.items():
            c = c % modulus
            if c != 0:
                out[e] = c
        return LaurentPoly._checked(self.n, out)

    __mod__ = reduce_mod  # so that arith.Ring reduces a Laurent polynomial too

    def map_coefficients(self, fn) -> "LaurentPoly":
        return LaurentPoly._checked(self.n, {
            e: x for e, c in self.terms.items() if (x := fn(c)) != 0})


def has_tpoly(f: LaurentPoly) -> bool:
    """Whether any coefficient of f is a TPoly: the test that picks the flat route."""
    return any(isinstance(c, TPoly) for c in f.terms.values())


def flatten_t(f: LaurentPoly) -> LaurentPoly:
    """f as an (n+1)-variable polynomial with t as the last exponent: the term
    x^e * sum_d c_d t^d becomes the terms x^e t^d with coefficients c_d."""
    return LaurentPoly(f.n + 1, [
        (e + (d,), cd) for e, c in f.terms.items() for d, cd in enumerate(TPoly.coerce(c).coeffs)
    ])


def regroup_t(F: LaurentPoly) -> LaurentPoly:
    """The inverse of `flatten_t`: one TPoly coefficient per exponent of the first
    n variables, with int 0 at the t-degrees F lacks."""
    groups = {}
    for e, c in F.terms.items():
        d = e[-1]
        if d < 0:
            raise ValueError(f"negative t-exponent in {e}")
        cs = groups.setdefault(e[:-1], [])
        if d >= len(cs):
            cs.extend([0] * (d + 1 - len(cs)))
        cs[d] = c
    return LaurentPoly._checked(F.n - 1, {e: TPoly(cs) for e, cs in groups.items()})


def power_mod(f: LaurentPoly, m: int, modulus: int | None = None) -> LaurentPoly:
    """f^m by binary powering, reducing every intermediate mod `modulus` if given.

    f^0 is the int constant 1 whatever f's coefficients (as `Ring.pow`); for
    m >= 1 an f with a TPoly coefficient is powered in the flat form.
    """
    if m < 0:
        raise ValueError("power_mod needs m >= 0")
    if m and has_tpoly(f):
        return regroup_t(power_mod(flatten_t(f), m, modulus))
    reduce = Ring(modulus).reduce
    result = LaurentPoly.constant(f.n, 1)
    base = reduce(f)
    while m:
        if m & 1:
            result = reduce(result * base)
        m >>= 1
        if m:
            base = reduce(base * base)
    return result


@dataclass
class CramerBlock:
    """The multinomial system of f = sum c_i x^u_i with its solvable part.

    A product term of f^m picks multiplicities k_i >= 0 with sum k_i = m and
    sum k_i u_i = w.  With r the rank of the columns (1, u_i), r terms with
    independent columns form an r x r integer block (on r independent rows);
    its determinant and adjugate are computed once.  `exps` and `coeffs`
    list the `free` other terms first, then the r solved ones.  Given the
    free multiplicities, the solved ones are one Cramer solve
    x = adj(B) b / det(B) (`solve`).  With no free terms the solution is
    affine in (m, w), so [x^w] f^m is one solve and one multinomial.
    """

    exps: list
    coeffs: list
    free: int
    rows: list  # the independent rows of (1, u); row 0 (all ones) is first
    det: int
    adj: list  # adj[b][a] is the (a, b) cofactor
    others: list  # (solved columns' entries, row index) off the block

    @staticmethod
    def of(terms) -> "CramerBlock":
        """The block of the nonempty (exponent, coefficient) list `terms`."""
        cols = [(1,) + tuple(e) for e, _ in terms]
        solved = independent_rows(cols)  # independent columns, solved for
        # row 0 (all ones) is always picked, so every solve keeps sum k_i = m
        rows = independent_rows(list(zip(*[cols[i] for i in solved])))
        order = [i for i in range(len(terms)) if i not in solved] + solved
        block = [[cols[i][j] for i in solved] for j in rows]
        r = len(rows)
        adj = [
            [(-1) ** (a + b) * int_det([row[:b] + row[b + 1:] for row in block[:a] + block[a + 1:]])
             for a in range(r)]
            for b in range(r)
        ]
        others = [([cols[i][j] for i in solved], j) for j in range(len(cols[0])) if j not in rows]
        return CramerBlock([tuple(terms[i][0]) for i in order], [terms[i][1] for i in order],
                           len(order) - len(solved), rows, int_det(block), adj, others)

    def solution(self, nums, rhs):
        """nums / det when that is a vector of nonnegative integers that also
        satisfies the rows of rhs off the block, else None; stops at the
        first numerator that fails.  The numerators adj(B) b are linear in
        rhs, so affine in m."""
        det = self.det
        xs = []
        for num in nums:
            if num % det or num // det < 0:
                return None
            xs.append(num // det)
        if any(sum(c * x for c, x in zip(crow, xs)) != rhs[j] for crow, j in self.others):
            return None
        return xs

    def solve(self, rhs):
        """The solved multiplicities for rhs = (m,) + w less the free terms'
        share, or None."""
        b = [rhs[j] for j in self.rows]
        return self.solution((sum(a * y for a, y in zip(arow, b)) for arow in self.adj), rhs)

    def term(self, ks, m: int, ring: Ring):
        """m!/prod(k_i!) * prod(c_i^k_i) in `ring`, for multiplicities ks in
        the order of `coeffs`."""
        term, left = 1, m
        for c, x in zip(self.coeffs, ks):
            term = ring.reduce(term * math.comb(left, x) * ring.pow(c, x))
            left -= x
        return term


def feasible_range(det: int, base, step, lo: int, hi: int) -> range:
    """The a in [lo, hi] at which every (base_j + a * step_j) / det is a
    nonnegative integer, in increasing order, or an empty range.

    Each quotient is affine in a, so the a that make it nonnegative are one
    interval (signs flipped for det < 0), and the a that make every
    numerator divisible by det are one residue class mod |det| / gcd(det,
    step); the range is their intersection."""
    for x, y in zip(base, step):
        if det < 0:  # then the quotient is >= 0 exactly when -x - a * y >= 0
            x, y = -x, -y
        if y > 0:
            lo = max(lo, -(x // y))  # ceil(-x / y)
        elif y < 0:
            hi = min(hi, x // -y)
        elif x < 0:
            return range(0)
    q = abs(det) // math.gcd(det, *step)
    first = next((a for a in range(lo, min(lo + q, hi + 1))
                  if all((x + a * y) % det == 0 for x, y in zip(base, step))), hi + 1)
    return range(first, hi + 1, q)


def coefficient_of_power(f: LaurentPoly, m: int, ws, modulus: int | None = None):
    """The coefficients of x^w in f^m for the exponents w of ws, in order,
    without expanding the full power.

    Each sums m!/prod(k_i!) * prod(c_i^k_i) over the solutions k >= 0 of
    sum k_i = m, sum k_i u_i = w, where f = sum c_i x^u_i.  One `CramerBlock`
    of f and one set of per-coordinate suffix bounds serve all of ws: only
    the free multiplicities are enumerated, and each choice leaves one
    Cramer solve.  All but the last free multiplicity are scanned, pruned by
    the bounds.  The Cramer numerators are affine in the last one, so its
    values that leave every solved multiplicity a nonnegative integer are
    one interval met with one residue class (`feasible_range`), and only
    those are solved, in increasing order.  So the work grows with the
    number of solutions, not with the support of f^m, and a degenerate
    support (collinear, coplanar, a single point) is just a smaller block.
    """
    ws = [tuple(w) for w in ws]
    if any(len(w) != f.n for w in ws):
        raise ValueError("exponent length does not match variable count")
    if m < 0:
        raise ValueError("m must be >= 0")
    terms = f.sorted_terms()
    if not terms:
        return [1 if m == 0 and not any(w) else 0 for w in ws]
    ring = Ring(modulus)
    block = CramerBlock.of(terms)
    exps, free, rows, adj, det = block.exps, block.free, block.rows, block.adj, block.det
    bounds = [(tuple(map(min, zip(*exps[i:]))), tuple(map(max, zip(*exps[i:]))))
              for i in range(len(exps))]
    solve, solution, term = block.solve, block.solution, block.term
    if free:  # how the numerators move per unit of the last free multiplicity
        last = (1,) + exps[free - 1]
        step = [-sum(a * last[j] for a, j in zip(arow, rows)) for arow in adj]
    totals = []  # one running total per w of ws

    def collect(xs, ks):
        if xs is not None:
            totals[-1] = ring.reduce(totals[-1] + term(ks + xs, m, ring))

    def rec(i, remaining, target, ks):
        if i + 1 < free:
            lo, hi = bounds[i + 1]
            for kk in range(remaining + 1):
                new_target = tuple(t - kk * e for t, e in zip(target, exps[i]))
                rem = remaining - kk
                if all(a * rem <= t <= z * rem for a, t, z in zip(lo, new_target, hi)):
                    rec(i + 1, rem, new_target, ks + [kk])
        elif not free:
            collect(solve((remaining,) + target), ks)
        else:  # i is the last free multiplicity: solve only its feasible values
            rhs = (remaining,) + target
            base = [sum(a * rhs[j] for a, j in zip(arow, rows)) for arow in adj]
            for kk in feasible_range(det, base, step, 0, remaining):
                left = (remaining - kk,) + tuple(t - kk * e for t, e in zip(target, exps[i]))
                collect(solution([x + kk * y for x, y in zip(base, step)], left), ks + [kk])

    for w in ws:
        totals.append(0)
        rec(0, m, w, [])
    return totals


@dataclass(frozen=True)
class FrobeniusLift:
    """Coefficient-ring endomorphism congruent to the p-th power map mod p:
    t -> image on TPoly coefficients, the identity on ints (and on
    everything when image is None).  The precision is the caller's."""

    image: TPoly | None

    @staticmethod
    def identity() -> "FrobeniusLift":
        return FrobeniusLift(None)

    @staticmethod
    def t_power(p: int) -> "FrobeniusLift":
        return FrobeniusLift(TPoly.t_power(p))

    @staticmethod
    def series(p: int, image: TPoly) -> "FrobeniusLift":
        """The lift t -> image; raises ValueError unless image = t^p mod p."""
        if any(c % p for c in (image - TPoly.t_power(p)).coeffs):
            raise ValueError("series image is not congruent to t^p mod p")
        return FrobeniusLift(image)

    def scalar_map(self, modulus: int | None = None, T: int | None = None):
        """The map c -> sigma(c) in Ring(modulus, T) for a TPoly c, any other
        c unchanged.  Its calls share one `ComposeTable` of the image."""
        if self.image is None:
            return lambda c: c
        table = ComposeTable(self.image, T, modulus)
        return lambda c: table(c) if isinstance(c, TPoly) else c

    def apply_poly(self, f: LaurentPoly, modulus: int | None = None) -> LaurentPoly:
        return f.map_coefficients(self.scalar_map(modulus))


def frobenius_twist(
    f: LaurentPoly, sigma: FrobeniusLift, p: int, modulus: int | None = None
) -> LaurentPoly:
    """f^sigma(x^p): sigma applied to the coefficients, exponents u -> p*u."""
    out = sigma.apply_poly(f, modulus)
    return LaurentPoly(f.n, {tuple(p * x for x in e): c for e, c in out.terms.items()})


def frobenius_discrepancy(f: LaurentPoly, sigma: FrobeniusLift, p: int) -> LaurentPoly:
    """G with f(x)^p = f^sigma(x^p) - p*G(x); division by p must be exact.
    An f with a TPoly coefficient is worked in the flat form."""
    twisted = frobenius_twist(f, sigma, p)
    flat = has_tpoly(f)
    if flat:
        f, twisted = flatten_t(f), flatten_t(twisted)
    out = {}
    for e, c in (twisted - power_mod(f, p)).terms.items():
        if c % p:
            raise ArithmeticError("discrepancy is not divisible by p")
        out[e] = c // p
    G = LaurentPoly(f.n, out)
    return regroup_t(G) if flat else G


# -- JSON term parsing --------------------------------------------


def _int_from_json(x, what: str) -> int:
    if type(x) is int:
        return x
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            pass
    raise ValueError(f"{what} must be an integer or an integer string, not {x!r}")


def _coeff_from_json(obj):
    if isinstance(obj, dict):
        cs = obj.get("tpoly")
        if not isinstance(cs, list):
            raise ValueError('a "tpoly" coefficient needs a list')
        return TPoly([_int_from_json(x, "tpoly coefficient") for x in cs])
    return _int_from_json(obj, 'term "c"')


def poly_from_json(obj) -> LaurentPoly:
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("polynomial JSON must be an object")
    n, terms = obj.get("n"), obj.get("terms")
    if type(n) is not int or n < 1 or not isinstance(terms, list):
        raise ValueError('polynomial JSON needs a positive integer "n" and a list "terms"')
    out = {}
    for t in terms:
        if not isinstance(t, dict):
            raise ValueError("each polynomial term must be an object")
        e = t.get("e")
        if not isinstance(e, list) or len(e) != n or any(type(x) is not int for x in e):
            raise ValueError(f'term "e" must be a list of {n} integers, not {e!r}')
        out[tuple(e)] = _coeff_from_json(t.get("c"))
    return LaurentPoly(n, out)


def family_from_json(obj) -> tuple[LaurentPoly, LaurentPoly]:
    """Parse {"form": "1-t*g", "g": {...}} into (f with TPoly coefficients, g)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    if not isinstance(obj, dict):
        raise ValueError("family JSON must be an object")
    if obj.get("form") != "1-t*g":
        raise ValueError("unsupported family form")
    if "g" not in obj:
        raise ValueError('family JSON needs a polynomial "g"')
    g = poly_from_json(obj["g"])
    return family_poly(g), g


def family_poly(g: LaurentPoly) -> LaurentPoly:
    """Build f = 1 - t*g with TPoly coefficients from an integer Laurent polynomial;
    ValueError naming the exponent of a coefficient of g that is not an int."""
    terms = {(0,) * g.n: TPoly([1])}
    for e, c in g.terms.items():
        if not isinstance(c, int):
            raise ValueError(f"the coefficient of g at exponent {list(e)} must be an integer, "
                             f"not {c!r}")
        base = terms.get(e, TPoly())
        terms[e] = base + TPoly([0, -c])
    return LaurentPoly(g.n, terms)
