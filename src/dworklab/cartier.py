"""Formal expansions of h/f^m and the p-adic Cartier operation on them.

Two expansion procedures are provided, and both return a FormalExpansion.
A *vertex expansion* is taken at a vertex b of the Newton polytope whose
coefficient is a unit, giving a Laurent series supported in the cone over
(Delta - b); truncation is controlled by an explicit budget S (every monomial
of psi-weight at most S * delta is exact), and every coefficient carries a
sound completeness certificate.  An *origin expansion* applies to
one-parameter families f = 1 - t*g and produces exact polynomial-in-t
coefficients, so its certificate is empty: every index is complete.  It and
the family's constant-term series read one table of [x^w] g^i.

The Cartier operation acts on either kind of expansion by index decimation
c_v -> c_{p v}.  It is p-adically approximated by rational functions with
powers of f^sigma in the denominator (cartier_via_formula); agreement of the
two routes on certified-complete indices (route_rows) is one of the package's
main oracles.  For a family f = 1 - t*g, the Cartier matrix on a basis of
rational functions is interpolated from the congruences of their origin
expansions at the lattice points of the dilates of Delta, the Newton polytope
of g, solved once, and checked on the first points of the next dilate
(interpolate_cartier).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain
from operator import add, le, mul, sub

from .arith import NonUnitError, Ring, TPoly, odd_prime
from .laurent import (
    CramerBlock,
    FrobeniusLift,
    LaurentPoly,
    feasible_range,
    frobenius_discrepancy,
    has_tpoly,
    power_mod,
)
from .linalg import RankDeficiencyError, solve_mod_multi
from .polytope import (
    LatticePolytope,
    cone_facet_normals,
    lattice_points_in_dilate,
    newton_polytope,
    whole_polytope,
)

MAX_ROUTE_BOX = 10**4  # the most indices of a route-oracle box (`cli cartier --bound`)


class ResidualError(ArithmeticError):
    """A held-out congruence failed: theory violated or precision too low."""

    def __init__(self, message, witnesses=None):
        super().__init__(message)
        self.witnesses = witnesses or []


def _dot(a, v):
    return sum(map(mul, a, v))


@dataclass
class FormalExpansion:
    """Truncated Laurent-series expansion of h / f^m with completeness data.

    Vertex expansions carry psi (a linear functional that is >= delta on
    every monomial of the series generator ell), the budget S, and the
    exponent shifts coming from the numerator.  The expansion holds the exact
    coefficients of (1 + ell)^(-m) at every w with psi(w) <= S * delta, each
    times the numerator.  So a coefficient at v is certain iff
    psi(v - w) <= S * delta for every numerator shift w with v - w in the
    cone.  Origin expansions are exact at every stored index and carry no
    shifts, so each index is certain.  A missing index reads as 0.
    """

    coeffs: dict
    budget: int | None = None
    psi: tuple | None = None
    delta: int | None = None
    shifts: tuple = ()
    cone_normals: tuple = ()
    decimation: int = 1

    def coefficient(self, v):
        return self.coeffs.get(tuple(v), 0)

    def is_complete(self, v) -> bool:
        if not self.shifts:
            return True
        if self.decimation != 1:
            v = [self.decimation * x for x in v]
        cap = self.budget * self.delta
        for w in self.shifts:
            d = list(map(sub, v, w))
            if _dot(self.psi, d) > cap and all(_dot(a, d) >= 0 for a in self.cone_normals):
                return False
        return True

    def complete_indices(self):
        return [v for v in sorted(self.coeffs) if self.is_complete(v)]


def vertex_frame(f: LaurentPoly, b):
    """Cone data at a vertex: inner facet normals, the positivity functional
    psi (their sum), and delta = min psi over the generator support (the
    exponents of f other than b, minus b)."""
    b = tuple(b)
    gens = [tuple(e - x for e, x in zip(u, b)) for u in f.support() if tuple(u) != b]
    normals = cone_facet_normals(gens, f.n)
    psi = tuple(sum(a[i] for a in normals) for i in range(f.n))
    delta = min(_dot(psi, g) for g in gens)
    if delta < 1:
        raise ValueError("cone functional failed; is b a vertex of the hull?")
    return tuple(normals), psi, delta


def _vertex_scalar(c):
    """The int a vertex expansion divides by for the coefficient c: c, or the
    constant term of a TPoly of degree <= 0; None when c depends on t."""
    if isinstance(c, TPoly):
        return c[0] if c.degree() <= 0 else None
    return c


def unit_vertex(f: LaurentPoly, p: int):
    """The first Newton-polytope vertex whose coefficient is a p-adic unit
    scalar (`_vertex_scalar`): the base point of vertex expansions."""
    for v in newton_polytope(f.support()).vertices:
        c = _vertex_scalar(f.coefficient_at(v))
        if c is not None and c % p:
            return v
    raise ValueError("no vertex with p-unit coefficient")


def vertex_budget(f: LaurentPoly, b, m: int, h: LaurentPoly, targets) -> int:
    """The least budget S at which every target index is certified complete."""
    normals, psi, delta = vertex_frame(f, b)
    shifts = [tuple(e - m * x for e, x in zip(u, b)) for u in h.support()]
    need = 0
    for v in targets:
        for w in shifts:
            d = list(map(sub, v, w))
            k = _dot(psi, d)
            # psi(d) only raises the budget past need when it exceeds need * delta
            if k > need * delta and all(_dot(a, d) >= 0 for a in normals):
                need = -(-k // delta)
    return need


def expand_vertex(
    h: LaurentPoly,
    f: LaurentPoly,
    m: int,
    b,
    budget: int,
    modulus: int | None = None,
    targets=None,
) -> FormalExpansion:
    """Expansion of h/f^m at the vertex b of the Newton polytope of f.

    Writes f = f_b x^b (1 + ell) with ell supported in the punctured cone,
    and computes G = (1 + ell)^(-m) on the region R of monomials w in the
    monoid spanned by supp(ell) with psi(w) <= budget * delta.  It divides m
    times by 1 + ell: with F the previous quotient (F = 1 at first),
    G[w] = F[w] - sum_e ell_e G[w - e], visiting R in increasing psi.  This
    is the exact series on R: a monomial of ell^s has psi >= s * delta, so
    only powers s <= budget reach R.  The vertex coefficient must be +-1 for
    exact arithmetic, or any p-unit when a modulus is supplied.

    R is built once per call as index arrays (`_region`), and the divisions
    run on flat lists of ints: the scalar kernel `_quotient` when no
    coefficient of f or h is a TPoly, else the t-kernel `_t_quotient` on
    dense lists of t-coefficients.  Each point, and each output index, is
    reduced once.  With the t-kernel a TPoly is built only for each stored
    output coefficient, and every stored coefficient is a TPoly.

    With `targets` given, intermediate monomials that can no longer reach any
    target index (the remaining gap is outside the cone) are pruned and only
    target coefficients are stored; the completeness certificate then covers
    exactly those indices.
    """
    if m < 1:
        raise ValueError(f"pole order m must be >= 1, not {m}")
    if h.is_zero():
        return FormalExpansion({}, budget, (0,) * f.n, 1)
    b = tuple(b)
    ring = Ring(modulus)
    fb = _vertex_scalar(f.coefficient_at(b))
    if fb is None:
        raise NonUnitError("vertex coefficient must be a scalar unit")
    fb_inv = ring.inv(fb)
    normals, psi, delta = vertex_frame(f, b)
    by_t = has_tpoly(f) or has_tpoly(h)

    # f = f_b x^b (1 + ell); each generator e of ell as (e, -ell_e, psi(e))
    gens = []
    for e, c in f.terms.items():
        if tuple(e) == b:
            continue
        w = tuple(map(sub, e, b))
        c = ring.reduce(-(c * fb_inv))
        gens.append((w, _t_pairs(c) if by_t else c, _dot(psi, w)))
    gens.sort(key=lambda g: g[2])
    cap = budget * delta

    shifts = [tuple(x - m * y for x, y in zip(e, b)) for e in h.support()]
    normal_caps = None
    if targets is not None:
        demand = {tuple(map(sub, v, sh)) for v in targets for sh in shifts}
        # sound relaxation of "some demand point minus w stays in the cone":
        # for every inner normal a, a.w may not exceed max over demand of a.d;
        # with no demand nothing is reachable, as a.w >= 0 on the cone
        normal_caps = [
            (a, max((_dot(a, d) for d in demand), default=-1)) for a in normals
        ]

    def reachable(w):
        return all(_dot(a, w) <= cap for a, cap in normal_caps)

    order, rows = _region(gens, cap, f.n, reachable if normal_caps else None)
    acc = (_t_quotient if by_t else _quotient)(rows, m, modulus)
    del rows  # the output needs only the points and their coefficients

    # multiply by h * x^{-m b} * f_b^{-m}
    fbm = ring.reduce(fb_inv**m)
    target_set = set(map(tuple, targets)) if targets is not None else None
    out = {}
    for e, c in h.terms.items():
        w0 = tuple(x - m * y for x, y in zip(e, b))
        scale = _t_pairs(c * fbm) if by_t else c * fbm
        for w, g in zip(order, acc):
            if not g:
                continue
            v = tuple(map(add, w0, w))
            if target_set is not None and v not in target_set:
                continue
            if by_t:
                _mul_into(out.setdefault(v, []), scale, g)
            else:
                out[v] = out.get(v, 0) + g * scale
    # each output index reduced once, in place; zeros are dropped
    for v, c in out.items():
        c = _reduced(c, modulus) if by_t else ring.reduce(c)
        out[v] = TPoly(c) if by_t and c else c
    for v in [v for v, c in out.items() if not c]:
        del out[v]
    return FormalExpansion(out, budget, psi, delta, tuple(sorted(set(shifts))), normals)


def _region(gens, cap: int, n: int, reachable):
    """The region of a vertex expansion as index arrays: (order, rows), with
    order its points (the origin first) and rows, in increasing psi, one
    (i, [-ell_e], [index of w - e]) per point w = order[i] past the origin.

    It is the monoid spanned by the generators (e, -ell_e, psi(e)), cut by
    psi <= cap and, when `reachable` is given, by it.  Both bounds only grow
    along a generator, so adding generators under the prunes finds all of
    it, and every w - e of a region point w in the monoid is in the region.
    Visiting psi levels in increasing order (psi(e) >= 1) puts each w - e
    before w.  A point of level k has psi = k, so with the generators in
    increasing psi the first one past the cap ends its walk."""
    order = [(0,) * n]
    index = {order[0]: 0}  # point -> its position in order
    preds, coefs = [[]], [[]]
    levels = {0: [0]}
    visit = []  # indices in increasing psi
    while levels:
        k = min(levels)
        for i in levels.pop(k):
            visit.append(i)
            w1 = order[i]
            for e, c, pe in gens:
                if k + pe > cap:
                    break
                w = tuple(map(add, w1, e))
                j = index.get(w)
                if j is None:
                    if reachable and not reachable(w):
                        continue
                    j = index[w] = len(order)
                    order.append(w)
                    preds.append([])
                    coefs.append([])
                    levels.setdefault(k + pe, []).append(j)
                preds[j].append(i)
                coefs[j].append(c)
    return order, [(i, coefs[i], preds[i]) for i in visit[1:]]


def _quotient(rows, m: int, modulus: int | None) -> list:
    """The scalar kernel: (1 + ell)^(-m) on the region of `rows` as a list of
    ints, by m divisions by 1 + ell, each point one dot product over its
    predecessors reduced mod `modulus` once."""
    acc = [1] + [0] * len(rows)
    get = acc.__getitem__
    for _ in range(m):
        for i, cs, js in rows:
            c = acc[i] + sum(map(mul, cs, map(get, js)))
            acc[i] = c if modulus is None else c % modulus
    return acc


def _t_quotient(rows, m: int, modulus: int | None) -> list:
    """The t-kernel: as `_quotient`, with each -ell_e as its nonzero (degree,
    int) pairs and each coefficient a dense list of ints in t, reduced mod
    `modulus` once per point."""
    acc = [[1]] + [[] for _ in rows]
    for _ in range(m):
        for i, cs, js in rows:
            s = acc[i]
            for pairs, j in zip(cs, js):
                if acc[j]:
                    _mul_into(s, pairs, acc[j])
            acc[i] = _reduced(s, modulus)
    return acc


def _t_pairs(c):
    """The nonzero (degree, coefficient) pairs of an int or TPoly."""
    return [(d, x) for d, x in enumerate(TPoly.coerce(c).coeffs) if x]


def _mul_into(dst: list, pairs, src: list) -> None:
    """dst += (sum over pairs of c t^d) * src on dense coefficient lists,
    growing dst as needed."""
    for d, c in pairs:
        top = d + len(src)
        if len(dst) < top:
            dst.extend([0] * (top - len(dst)))
        dst[d:top] = [x + c * y for x, y in zip(dst[d:top], src)]


def _reduced(cs: list, modulus: int | None) -> list:
    """A dense coefficient list mod `modulus` (if any), trailing zeros cut."""
    if modulus is not None:
        cs = [x % modulus for x in cs]
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _powers(g: LaurentPoly, T: int, modulus: int | None, demand):
    """g^i for i < T, each reduced mod `modulus` and kept only on the box of
    monomials that can still reach some demand point with the remaining
    factors of g (a sound overapproximation of the reachable set), so it is
    exact at every demand point."""
    gmin = [min((e[k] for e in g.terms), default=0) for k in range(g.n)]
    gmax = [max((e[k] for e in g.terms), default=0) for k in range(g.n)]
    dmin = [min((d[k] for d in demand), default=0) for k in range(g.n)]
    dmax = [max((d[k] for d in demand), default=0) for k in range(g.n)]
    gi = LaurentPoly.constant(g.n, 1)
    for i in range(T):
        yield gi
        if i == T - 1:
            return
        # the box of monomials that reach some demand point with at most r
        # more factors of g
        r = T - 2 - i
        lo = [d - max(0, r * x) for d, x in zip(dmin, gmax)]
        hi = [d - min(0, r * x) for d, x in zip(dmax, gmin)]
        terms = {}
        for e, x in (gi * g).terms.items():
            if modulus is not None:
                x %= modulus
            if x and all(map(le, lo, e)) and all(map(le, e, hi)):
                terms[e] = x
        gi = LaurentPoly._checked(g.n, terms)


def _disjoint_parts(g: LaurentPoly):
    """g split into parts in pairwise disjoint variables, as (variables,
    CramerBlock of the part in those variables).  A constant term is a part
    in no variables."""
    owner = list(range(g.n))

    def root(j):
        while owner[j] != j:
            owner[j] = owner[owner[j]]
            j = owner[j]
        return j

    for e in g.terms:
        used = [j for j, x in enumerate(e) if x]
        for j in used[1:]:
            owner[root(j)] = root(used[0])
    groups = {}
    for e, c in g.sorted_terms():
        used = [j for j, x in enumerate(e) if x]
        groups.setdefault(root(used[0]) if used else -1, []).append((e, c))
    parts = []
    for terms in groups.values():
        variables = sorted({j for e, _ in terms for j, x in enumerate(e) if x})
        restricted = [(tuple(e[j] for j in variables), c) for e, c in terms]
        parts.append((tuple(variables), CramerBlock.of(restricted)))
    return parts


def _part_sequence(block: CramerBlock, w, T: int, ring: Ring):
    """([x^w] P^a)_{a<T} for the part P of `block` with no free
    multiplicities, as its nonzero (a, value) pairs.  The Cramer numerators
    are affine in the power a, base + a * step, so only the powers of
    `feasible_range` are solved."""
    rhs = [((0,) + w)[j] for j in block.rows]
    base = [sum(x * y for x, y in zip(arow, rhs)) for arow in block.adj]
    step = [arow[0] for arow in block.adj]  # rows[0] is row 0 of (1, u): the power a
    seq = []
    for a in feasible_range(block.det, base, step, 0, T - 1):
        xs = block.solution([x + a * y for x, y in zip(base, step)], (a,) + w)
        if xs is not None:
            c = block.term(xs, a, ring)
            if c:
                seq.append((a, c))
    return seq


class _PowerTable:
    """The raw table w -> ([x^w] g^i)_{i<T} mod `modulus`, filled on demand;
    the one place the package computes coefficients of powers of g.

    Each column is stored once, as its nonzero (i, value) pairs, so one
    table serves every expansion of h / (1 - t g)^m that shares g, T and the
    modulus: the pole order m and the numerator h only change how columns
    are combined.  The constant-term series is its column at the origin.
    Two routes fill it, picked by the structure of g:

    - *By parts*, when every variable-disjoint part of g has independent
      columns (1, u) (its `CramerBlock` has no free multiplicities).  A
      part's [x^w'] P^a is one Cramer solve (`_part_sequence`), and the
      parts combine by the binomial convolution [x^w] g^i =
      sum_a C(i, a) [x^w'] P^a [x^w''] Q^(i-a), which divides by nothing
      and so holds mod p^N.
    - *By products* otherwise: g^i for i < T by repeated multiplication,
      pruned to the box that reaches the missing demand points.
    """

    def __init__(self, g: LaurentPoly, T: int, modulus: int | None):
        if T < 1:
            raise ValueError(f"t-truncation T must be >= 1, not {T}")
        self.g, self.T, self.modulus = g, T, modulus
        self.ring = Ring(modulus)
        self.columns = {}
        self.parts = _disjoint_parts(g)
        self.by_parts = all(block.free == 0 for _, block in self.parts)
        covered = {j for variables, _ in self.parts for j in variables}
        self.uncovered = [j for j in range(g.n) if j not in covered]
        self.binom = [[self.ring.reduce(math.comb(i, a)) for a in range(i + 1)]
                      for i in range(T)] if len(self.parts) > 1 else None

    def require(self, demand) -> None:
        """Fill the columns of the demand points not yet in the table."""
        missing = [w for w in dict.fromkeys(demand) if w not in self.columns]
        if not missing:
            return
        if self.by_parts:
            for w in missing:
                self.columns[w] = self._by_parts(w)
            return
        cols = {w: [] for w in missing}
        for i, gi in enumerate(_powers(self.g, self.T, self.modulus, missing)):
            for w, col in cols.items():
                x = gi.terms.get(w)
                if x:
                    col.append((i, x))
        self.columns.update(cols)

    def _by_parts(self, w):
        if any(w[j] for j in self.uncovered):
            return []
        seq = [(0, 1)]  # g^i of no parts: the unit sequence
        for k, (variables, block) in enumerate(self.parts):
            part = _part_sequence(block, tuple(w[j] for j in variables), self.T, self.ring)
            seq = self._convolve(seq, part) if k else part
        return seq

    def _convolve(self, A, B):
        """The binomial convolution sum_a C(i, a) A_a B_(i-a) for i < T."""
        T, binom, reduce = self.T, self.binom, self.ring.reduce
        out = {}
        for a, x in A:
            for b, y in B:
                i = a + b
                if i >= T:
                    break
                out[i] = out.get(i, 0) + binom[i][a] * x * y
        return [(i, r) for i, c in sorted(out.items()) if (r := reduce(c))]

    def expansion(self, h: LaurentPoly, m: int, targets) -> FormalExpansion:
        """h / (1 - t g)^m at the targets, read from the table: the
        coefficient at v is sum_{i<T} binom(i+m-1, m-1) t^i sum_e h_e
        [x^(v-e)] g^i.  Rejects m < 1."""
        if m < 1:
            raise ValueError(f"pole order m must be >= 1, not {m}")
        T = self.T
        ring = Ring(self.modulus, T)
        reads = {v: [(tuple(map(sub, v, e)), TPoly.coerce(c).coeffs) for e, c in h.terms.items()]
                 for v in map(tuple, targets)}
        self.require(w for pairs in reads.values() for w, _ in pairs)
        weights = [math.comb(i + m - 1, m - 1) for i in range(T)]
        coeffs = {}
        for v, pairs in reads.items():
            acc = [0] * T
            for w, xs in pairs:
                for i, s in self.columns[w]:
                    s *= weights[i]
                    for d, x in enumerate(xs[:T - i], i):
                        acc[d] += x * s
            c = ring.reduce(TPoly(acc))
            if c:
                coeffs[v] = c
        return FormalExpansion(coeffs)


def expand_origin(
    h: LaurentPoly,
    g: LaurentPoly,
    m: int,
    T: int,
    modulus: int | None = None,
    *,
    targets,
) -> FormalExpansion:
    """Expansion of h / (1 - t g)^m with exact t-polynomial coefficients mod
    t^T, at the `targets` only.

    The coefficient at v is sum_{i<T} binom(i+m-1, m-1) t^i [x^v] h g^i, each
    [x^w] g^i reduced mod `modulus`.  h may carry TPoly coefficients
    (numerators like t*g arise from theta derivatives of 1/f).  It is read
    from the columns [x^(v-e)] g^i at the demand points v - e (e a numerator
    exponent) of a `_PowerTable`, whose route is a structural rule on g: by
    parts (one Cramer solve per part and power, parts combined by binomial
    convolution) when every variable-disjoint part of g has independent
    columns (1, u); else by products (g^i pruned to the box that reaches the
    demand points).  Rejects m < 1 and T < 1.
    """
    return _PowerTable(g, T, modulus).expansion(h, m, targets)


def constant_term_series(g: LaurentPoly, T: int) -> TPoly:
    """gamma(t) = sum_{i<T} [x^0] g^i t^i in exact integers: the column of a
    `_PowerTable` at the origin.  Rejects T < 1."""
    zero = (0,) * g.n
    table = _PowerTable(g, T, None)
    table.require([zero])
    coeffs = [0] * T
    for i, x in table.columns[zero]:
        coeffs[i] = x
    return TPoly(coeffs)


def cartier_shift(E: FormalExpansion, p: int) -> FormalExpansion:
    """Index decimation c_v -> c_{p v}; the Cartier operation on expansions."""
    new = {}
    for v, c in E.coeffs.items():
        if all(x % p == 0 for x in v):
            new[tuple(x // p for x in v)] = c
    return replace(E, coeffs=new, decimation=E.decimation * p)


def theta_t_rational(h: LaurentPoly, f: LaurentPoly, m: int):
    """t d/dt of h/f^m for a family f = 1 - t g: theta(h/f^m) =
    (theta(h) f - m h theta(f)) / f^(m+1), returned as (numerator, m+1)."""

    def theta(q):
        return LaurentPoly(q.n, {e: TPoly.coerce(c).theta() for e, c in q.terms.items()})

    return theta(h) * f - h.scale(m) * theta(f), m + 1


# -- explicit rational-function route ---------------------------------


@dataclass
class CartierImage:
    """C_p(h / f^m) as a finite combination sum_r c_r Q_r / f^sigma^{M_r}."""

    terms: list  # (scalar c_r, numerator LaurentPoly, pole order)
    p: int
    N: int
    f_sigma: LaurentPoly

    def fraction(self):
        """The image as one fraction H / f^sigma^M, as (H, f^sigma, M): M is
        the largest pole order and H = sum_r c_r Q_r (f^sigma)^(M - M_r) mod
        p^N, zero with no terms.  A shift of H is a shift of some Q_r /
        f^sigma^{M_r} plus cone generators, so H certifies what they do."""
        modulus = self.p**self.N
        M = max((pole for _, _, pole in self.terms), default=1)
        H = sum((Q_r.scale(c_r) * power_mod(self.f_sigma, M - pole, modulus)
                 for c_r, Q_r, pole in self.terms), LaurentPoly(self.f_sigma.n))
        return H.reduce_mod(modulus), self.f_sigma, M

    def expansion(self, base, budget) -> FormalExpansion:
        """The vertex expansion of the `fraction` at `base`, to `budget`, mod p^N."""
        return expand_vertex(*self.fraction(), base, budget, self.p**self.N)


def cartier_via_formula(
    h: LaurentPoly,
    f: LaurentPoly,
    m: int,
    p: int,
    sigma: FrobeniusLift,
    N: int,
) -> CartierImage:
    """The p-adically convergent rational form of the Cartier operation.

    Writing f^p = f^sigma(x^p) - pG with integral G, the image of h/f^m is
    sum_{r} p^r binom(ceil(m/p)+r-1, r) Q_r / f^sigma^{r+ceil(m/p)} where
    Q_r = sum_u ([x^(p u)] G^r B) x^u mod p^N, with B = h f^{p ceil(m/p) - m}
    formed once.  Terms whose product c_r Q_r vanishes mod p^N are dropped.

    Only the products that land on exponents divisible by p are formed: B's
    terms are bucketed by exponent mod p, and each term x^e of G^r meets
    only the bucket of -e mod p.
    """
    odd_prime(p)  # the Cartier contraction bound needs p > 2
    if N < 1:
        raise ValueError("precision N must be >= 1")
    if m < 1:
        raise ValueError(f"pole order m must be >= 1, not {m}")
    modulus = p**N
    mceil = -(-m // p)
    G = frobenius_discrepancy(f, sigma, p)
    B = (h * power_mod(f, p * mceil - m, modulus)).reduce_mod(modulus)
    buckets = {}
    for e, c in B.terms.items():
        buckets.setdefault(tuple(x % p for x in e), []).append((e, c))
    f_sigma = sigma.apply_poly(f, modulus)
    terms = []
    Gr = LaurentPoly.constant(f.n, 1)
    for r in range(N):
        if r:
            Gr = (Gr * G).reduce_mod(modulus)
        Q = {}
        for e, c in Gr.terms.items():
            for e2, c2 in buckets.get(tuple(-x % p for x in e), ()):
                u = tuple((x + y) // p for x, y in zip(e, e2))
                Q[u] = Q.get(u, 0) + c * c2
        Q_r = LaurentPoly(f.n, {u: c % modulus for u, c in Q.items()})
        c_r = pow(p, r, modulus) * math.comb(mceil + r - 1, r) % modulus
        if any(c_r * c % modulus for c in Q_r.terms.values()):
            terms.append((c_r, Q_r, r + mceil))
    return CartierImage(terms, p, N, f_sigma)


def route_rows(f: LaurentPoly, m: int, p: int, N: int, box) -> list:
    """The route oracle for 1/f^m under the identity lift: (v, c_{pv} of the
    expansion of 1/f^m, c_v of the expansion of its `cartier_via_formula`
    image), both mod p^N, for each v of `box` that both certify.  Both are
    taken at `unit_vertex(f, p)`, each to the least budget that certifies
    what it is read at: p*box for 1/f^m, box for the image's `fraction`."""
    one = LaurentPoly.constant(f.n, 1)
    image = cartier_via_formula(one, f, m, p, FrobeniusLift.identity(), N)
    base = unit_vertex(f, p)
    S = vertex_budget(f, base, m, one, [tuple(p * x for x in v) for v in box])
    direct = cartier_shift(expand_vertex(one, f, m, base, S, p**N), p)
    H, f_sigma, M = image.fraction()
    S = vertex_budget(f_sigma, base, M, H, box)
    formula = expand_vertex(H, f_sigma, M, base, S, p**N)
    return [(v, direct.coefficient(v), formula.coefficient(v)) for v in box
            if direct.is_complete(v) and formula.is_complete(v)]


# -- congruence interpolation -----------------------------------------


@dataclass
class CartierInterpolation:
    matrix: list  # TPoly rows over Z/p^{sk}
    t_trunc: int  # truncation of the solved entries


# Held-out probes per interpolation.
N_HOLDOUT = 2


def default_probes(P: LatticePolytope, k: int):
    """The lattice points of level * P for level = 1..k, each once.  The
    congruences hold at every index of an origin expansion, and boundary
    points carry the low-t-degree information that the interior points
    alone may lack."""
    whole = whole_polytope(P)
    return list(dict.fromkeys(
        u for level in range(1, k + 1) for u in lattice_points_in_dilate(whole, level)
    ))


def interpolate_cartier(
    g: LaurentPoly,
    basis: list,
    k: int,
    p: int,
    sigma: FrobeniusLift,
    s: int,
    T: int,
) -> CartierInterpolation:
    """Solve the stacked congruences c_{p^s u}(w_i) = sum_j L_ij c_{p^{s-1} u}(w_j^sigma)
    for the level-k Cartier matrix L of the family 1 - t g, as TPoly entries
    mod (p^{sk}, t^t_trunc) with t_trunc <= T.

    basis entries are (numerator, pole-order) pairs.  Their expansions are
    taken at the origin with exact t-coefficients mod t^T (T >= 1), and each
    t-power contributes one equation row.  The probes are the
    `default_probes` of levels 1..k on Delta, the Newton polytope of g; the
    first N_HOLDOUT points that level k + 1 adds must reproduce the
    congruence exactly, else ResidualError.  The data of both are read in
    one pass and the system is solved once: a rank-deficient one raises
    RankDeficiencyError.
    """
    odd_prime(p)
    if not 1 <= k < p:
        raise ValueError("need 1 <= k < p")
    if s < 1:
        raise ValueError(f"need s >= 1, not s = {s!r}")
    modulus = p ** (s * k)
    P = newton_polytope(g.support())
    probes = default_probes(P, k)
    holdout = default_probes(P, k + 1)[len(probes):][:N_HOLDOUT]

    # one table of [x^w] g^i serves every basis element and probe
    table = _PowerTable(g, T, modulus)
    data = _probe_data(table, basis, probes + holdout, p, s, sigma)
    matrix, T_lambda = _solve_interpolation(data[:len(probes)], len(basis), p, modulus, T)
    witnesses = _holdout_residuals(matrix, holdout, data[len(probes):], modulus, T, T_lambda)
    if witnesses:
        raise ResidualError(
            f"held-out congruence failed mod {p}^{s * k}", witnesses
        )
    return CartierInterpolation(matrix, T_lambda)


def _probe_data(table, basis, probes, p, s, sigma):
    """(lhs_i, rhs_j) coefficient data per probe w, as TPolys: each basis
    element's origin expansion at p^s w, and sigma-twisted mod t^T at
    p^(s-1) w, all read from the one `_PowerTable`."""
    lhs_idx = [tuple(p**s * x for x in w) for w in probes]
    rhs_idx = [tuple(p ** (s - 1) * x for x in w) for w in probes]
    exps = [table.expansion(h, m, lhs_idx + rhs_idx) for h, m in basis]
    twist = sigma.scalar_map(table.modulus, table.T)
    return [([TPoly.coerce(E.coefficient(u)) for E in exps],
             [TPoly.coerce(twist(E.coefficient(v))) for E in exps])
            for u, v in zip(lhs_idx, rhs_idx)]


def _tval_nonzero(tp: TPoly, modulus: int, default: int) -> int:
    for d, c in enumerate(tp.coeffs):
        if c % modulus:
            return d
    return default


def _row_window(rhs, modulus: int, T: int, T_lambda: int) -> int:
    """The t-degrees below which one probe's congruence rows hold for
    entries cut at t^T_lambda, for the solve and the held-out check alike.

    A correct Lambda cut at T_lambda leaves the residual sum_j Lambda^tail_ij
    rhs_j, whose t-valuation mod p^N is at least T_lambda plus the least
    t-valuation mod p^N of the rhs_j: the rows below that degree, and below
    T, carry no tail."""
    return min(T, T_lambda + min((_tval_nonzero(c, modulus, T) for c in rhs), default=T))


def _solve_interpolation(data, nb, p, modulus, T):
    """Build and solve the stacked congruence system over (Z/modulus)[t]/t^T
    from the `_probe_data` rows of the probes, for nb basis elements.

    Information about basis column j only enters equations from t-degree
    delay_j onward (the lowest t-valuation mod p of the sigma-twisted
    coefficient data), so the unknown entries are truncated at T_lambda = T -
    max_j delay_j and each probe only contributes equation rows whose degree
    stays below the point where the discarded tail of the unknowns could
    matter; a column with no p-unit datum below t^T leaves T_lambda < 1 and
    raises RankDeficiencyError.  Rows that repeat an earlier (row, rhs) pair
    mod `modulus` are dropped before elimination: they leave the solution,
    and the column at which a rank-deficient system fails, unchanged.
    """
    delays = [min((_tval_nonzero(rhs[j], p, T) for _, rhs in data), default=T)
              for j in range(nb)]
    T_lambda = T - max(delays, default=0)
    if T_lambda < 1:
        raise RankDeficiencyError("truncation too small for the data valuations")
    # each distinct (row, rhs) pair mod `modulus` once, in order of first use
    rows = {}
    for lhs, rhs in data:
        # each rhs_j reduced once, reversed from degree T - 1 down to degree
        # 1 - T_lambda with zeros below degree 0: the row entries c_j[d - dd],
        # dd < T_lambda, are its slice from position T - 1 - d
        rev = [[0] * (T - len(cs)) + [x % modulus for x in reversed(cs)] + [0] * (T_lambda - 1)
               for cs in (c.coeffs[:T] for c in rhs)]
        for d in range(_row_window(rhs, modulus, T, T_lambda)):
            row = tuple(chain.from_iterable(r[T - 1 - d:T - 1 - d + T_lambda] for r in rev))
            rows[row, tuple(b[d] % modulus for b in lhs)] = None
    A_all = [list(row) for row, _ in rows]
    b_all = [[b[i] for _, b in rows] for i in range(nb)]
    solutions = solve_mod_multi(A_all, b_all, modulus)
    return [[TPoly(x[j * T_lambda:(j + 1) * T_lambda]) for j in range(nb)]
            for x in solutions], T_lambda


def _holdout_residuals(matrix, holdout, data, modulus, T, T_lambda):
    """The witnesses of the held-out probes whose `_probe_data` rows the
    solved matrix does not reproduce."""
    witnesses = []
    for w, (lhs, rhs) in zip(holdout, data):
        check = Ring(modulus, _row_window(rhs, modulus, T, T_lambda))
        for i, row in enumerate(matrix):
            diff = check.reduce(lhs[i] - sum((e * c for e, c in zip(row, rhs)), TPoly()))
            if diff:
                witnesses.append({"probe": w, "row": i, "residual": repr(diff)})
    return witnesses
