"""Formal expansions of h/f^m and the p-adic Cartier operation on them.

Two expansion procedures are provided.  *Vertex mode* expands at a vertex b
of the Newton polytope whose coefficient is a unit, giving a Laurent series
supported in the cone over (Delta - b); truncation is controlled by an
explicit budget S of geometric-series powers, and every coefficient carries a
sound completeness certificate.  *Origin mode* applies to one-parameter
families f = 1 - t*g and produces exact polynomial-in-t coefficients, so
there is no completeness subtlety.

The Cartier operation acts on either kind of expansion by index decimation
c_v -> c_{p v}.  It is p-adically approximated by rational functions with
powers of f^sigma in the denominator (cartier_via_formula); agreement of the
two routes on certified-complete indices is one of the package's main
oracles.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from math import gcd

from .arith import NonUnitError, TPoly, val_p
from .laurent import (
    FrobeniusLift,
    LaurentPoly,
    cartier_poly,
    frobenius_discrepancy,
    frobenius_twist,
    power_mod,
)
from .linalg import (
    InconsistentSystemError,
    RankDeficiencyError,
    solve_mod,
    solve_mod_multi,
)
from .polytope import (
    OpenSubset,
    cone_facet_normals,
    lattice_points_in_dilate,
    newton_polytope,
)


class ResidualError(ArithmeticError):
    """A held-out congruence failed: theory violated or precision too low."""

    def __init__(self, message, witnesses=None):
        super().__init__(message)
        self.witnesses = witnesses or []


def _dot(a, v):
    return sum(x * y for x, y in zip(a, v))


@dataclass
class FormalExpansion:
    """Truncated Laurent-series expansion of h / f^m with completeness data.

    Vertex mode fields: base vertex, psi (a linear functional that is >= delta
    on every monomial of the geometric-series generator), budget S, and the
    exponent shifts coming from the numerator.  A coefficient at v is certain
    iff every possible contribution path is inside the computed range:
    psi(v - w) <= S * delta for all numerator shifts w with v - w in the cone.
    """

    mode: str  # "vertex" | "origin"
    n: int
    coeffs: dict
    modulus: int | None = None
    base: tuple | None = None
    budget: int | None = None
    psi: tuple | None = None
    delta: int | None = None
    shifts: tuple = ()
    cone_normals: tuple = ()
    t_trunc: int | None = None
    decimation: int = 1
    provenance: tuple = ()

    def coefficient(self, v):
        return self.coeffs.get(tuple(v), TPoly() if self.mode == "origin" else 0)

    def in_cone(self, w) -> bool:
        return all(_dot(a, w) >= 0 for a in self.cone_normals)

    def is_complete(self, v) -> bool:
        if self.mode == "origin":
            return True
        v = tuple(self.decimation * x for x in v)
        for w in self.shifts:
            d = tuple(x - y for x, y in zip(v, w))
            if not self.in_cone(d):
                continue
            if _dot(self.psi, d) > self.budget * self.delta:
                return False
        return True

    def complete_indices(self):
        return [v for v in sorted(self.coeffs) if self.is_complete(v)]

    def theta(self, i: int) -> "FormalExpansion":
        """x_i d/dx_i, acting coefficientwise as multiplication by v_i."""
        new = {v: c * v[i] for v, c in self.coeffs.items() if c * v[i] != 0}
        out = _copy_with(self, new)
        return out

    def scaled(self, c) -> "FormalExpansion":
        new = {}
        for v, co in self.coeffs.items():
            x = co * c
            if self.modulus is not None:
                x = x % self.modulus
            if x != 0:
                new[v] = x
        return _copy_with(self, new)

    def __add__(self, other: "FormalExpansion") -> "FormalExpansion":
        if self.mode != other.mode:
            raise ValueError("cannot add expansions of different modes")
        new = dict(self.coeffs)
        for v, c in other.coeffs.items():
            acc = new.get(v, 0) + c
            if self.modulus is not None:
                acc = acc % self.modulus
            if acc == 0:
                new.pop(v, None)
            else:
                new[v] = acc
        # completeness: keep the weaker certificate (max needed budget)
        out = _copy_with(self, new)
        if self.mode == "vertex":
            out.shifts = tuple(sorted(set(self.shifts) | set(other.shifts)))
            out.budget = min(self.budget, other.budget)
        return out


def _copy_with(E: FormalExpansion, coeffs) -> FormalExpansion:
    return FormalExpansion(
        mode=E.mode,
        n=E.n,
        coeffs=coeffs,
        modulus=E.modulus,
        base=E.base,
        budget=E.budget,
        psi=E.psi,
        delta=E.delta,
        shifts=E.shifts,
        cone_normals=E.cone_normals,
        t_trunc=E.t_trunc,
        decimation=E.decimation,
        provenance=E.provenance,
    )


def vertex_frame(f: LaurentPoly, b):
    """Cone data at a vertex: inner facet normals, the positivity functional
    psi (their sum), and delta = min psi over the generator support."""
    b = tuple(b)
    gens = [tuple(e - x for e, x in zip(u, b)) for u in f.support() if tuple(u) != b]
    normals = cone_facet_normals(gens, f.n)
    psi = tuple(sum(a[i] for a in normals) for i in range(f.n))
    delta = min(_dot(psi, g) for g in gens)
    if delta < 1:
        raise ValueError("cone functional failed; is b a vertex of the hull?")
    return tuple(normals), psi, delta


def unit_vertex(f: LaurentPoly, p: int):
    """The first Newton-polytope vertex whose coefficient is a p-adic unit
    integer: the base point of vertex expansions."""
    for v in newton_polytope(f.support()).vertices:
        c = f.coefficient_at(v)
        if not isinstance(c, TPoly) and c % p:
            return v
    raise ValueError("no vertex with p-unit coefficient")


def vertex_budget(f: LaurentPoly, b, m: int, h: LaurentPoly, targets, slack: int = 2) -> int:
    """Budget S large enough that every target index is certified complete."""
    normals, psi, delta = vertex_frame(f, b)
    b = tuple(b)
    shifts = [tuple(e - m * x for e, x in zip(u, b)) for u in h.support()]
    need = 0
    for v in targets:
        for w in shifts:
            d = tuple(x - y for x, y in zip(v, w))
            if all(_dot(a, d) >= 0 for a in normals):
                need = max(need, -(-_dot(psi, d) // delta))
    return need + slack


def expand_vertex(
    h: LaurentPoly,
    f: LaurentPoly,
    m: int,
    b,
    budget: int,
    modulus: int | None = None,
    t_trunc: int | None = None,
    targets=None,
) -> FormalExpansion:
    """Expansion of h/f^m at the vertex b of the Newton polytope of f.

    Writes f = f_b x^b (1 + ell) with ell supported in the punctured cone and
    sums binom(-m, s) ell^s for s <= budget.  The vertex coefficient must be
    +-1 for exact arithmetic, or any p-unit when a modulus is supplied.

    With `targets` given, intermediate monomials that can no longer reach any
    target index (the remaining gap is outside the cone) are pruned and only
    target coefficients are stored; the completeness certificate then covers
    exactly those indices.
    """
    if h.is_zero():
        return FormalExpansion("vertex", f.n, {}, modulus, tuple(b), budget,
                               (0,) * f.n, 1, (), (), t_trunc)
    b = tuple(b)
    fb = f.coefficient_at(b)
    if isinstance(fb, TPoly):
        if fb.degree() > 0:
            raise NonUnitError("vertex coefficient must be a scalar unit")
        fb = fb[0]
    if modulus is None:
        if fb not in (1, -1):
            raise NonUnitError("exact vertex expansion needs vertex coefficient +-1")
        fb_inv = fb
    else:
        from .arith import inv_mod

        fb_inv = inv_mod(fb, modulus)
    normals, psi, delta = vertex_frame(f, b)

    def reduce_coeff(c):
        if modulus is None:
            return c
        c = c % modulus
        return c

    ell = {}
    for e, c in f.terms.items():
        if tuple(e) == b:
            continue
        w = tuple(x - y for x, y in zip(e, b))
        ell[w] = reduce_coeff(c * fb_inv)
    cap = budget * delta

    shifts = [tuple(x - m * y for x, y in zip(e, b)) for e in h.support()]
    normal_caps = None
    if targets is not None:
        demand = {
            tuple(v[i] - sh[i] for i in range(f.n)) for v in targets for sh in shifts
        }
        # sound relaxation of "some demand point minus w stays in the cone":
        # for every inner normal a, a.w may not exceed max over demand of a.d
        normal_caps = [
            (a, max(_dot(a, d) for d in demand)) for a in normals
        ]

    def reachable(w):
        if normal_caps is None:
            return True
        return all(_dot(a, w) <= cap for a, cap in normal_caps)

    # accumulate sum_s binom(-m, s) ell^s with pruning outside psi <= cap
    acc = {(0,) * f.n: 1}
    power = {(0,) * f.n: 1}
    for s in range(1, budget + 1):
        nxt = {}
        for w1, c1 in power.items():
            for w2, c2 in ell.items():
                w = tuple(x + y for x, y in zip(w1, w2))
                if _dot(psi, w) > cap or not reachable(w):
                    continue
                prod = c1 * c2
                if isinstance(prod, TPoly) and t_trunc is not None:
                    prod = prod.truncate(t_trunc)
                cur = nxt.get(w, 0) + prod
                cur = reduce_coeff(cur) if modulus is not None else cur
                if cur == 0:
                    nxt.pop(w, None)
                else:
                    nxt[w] = cur
        power = nxt
        if not power:
            break
        coef = (-1) ** s * math.comb(s + m - 1, m - 1)
        for w, c in power.items():
            add = c * coef
            cur = acc.get(w, 0) + add
            cur = reduce_coeff(cur) if modulus is not None else cur
            if cur == 0:
                acc.pop(w, None)
            else:
                acc[w] = cur

    # multiply by h * x^{-m b} * f_b^{-m}
    fbm = fb_inv**m if modulus is None else pow(fb_inv, m, modulus)
    out = {}
    target_set = set(tuple(v) for v in targets) if targets is not None else None
    for e, c in h.terms.items():
        w0 = tuple(x - m * y for x, y in zip(e, b))
        scale = c * fbm
        for w, cc in acc.items():
            v = tuple(x + y for x, y in zip(w0, w))
            if target_set is not None and v not in target_set:
                continue
            add = cc * scale
            if isinstance(add, TPoly) and t_trunc is not None:
                add = add.truncate(t_trunc)
            cur = out.get(v, 0) + add
            cur = reduce_coeff(cur) if modulus is not None else cur
            if cur == 0:
                out.pop(v, None)
            else:
                out[v] = cur
    return FormalExpansion(
        "vertex", f.n, out, modulus, b, budget, psi, delta,
        tuple(sorted(set(shifts))), normals, t_trunc,
        provenance=(repr(h), repr(f), m),
    )


def expand_origin(
    h: LaurentPoly,
    g: LaurentPoly,
    m: int,
    T: int,
    modulus: int | None = None,
    targets=None,
) -> FormalExpansion:
    """Expansion of h / (1 - t g)^m with exact t-polynomial coefficients mod t^T.

    h may carry TPoly coefficients (numerators like t*g arise from theta
    derivatives of 1/f).  With `targets` given, only those coefficient indices
    are kept and intermediate powers of g are pruned to the monomials that can
    still reach a target (a sound box overapproximation of the reachable set).
    """
    coeffs: dict = {}

    def add_term(v, tpol):
        if modulus is not None:
            tpol = tpol % modulus
        tpol = tpol.truncate(T)
        if not tpol:
            return
        cur = coeffs.get(v)
        acc = tpol if cur is None else (cur + tpol)
        if modulus is not None:
            acc = acc % modulus
        if acc:
            coeffs[v] = acc
        elif cur is not None:
            del coeffs[v]

    target_set = None
    demand = None
    gmin = gmax = dmin = dmax = None
    if targets is not None:
        target_set = {tuple(v) for v in targets}
        demand = sorted(
            {
                tuple(v[i] - e[i] for i in range(g.n))
                for v in target_set
                for e in h.support()
            }
        )
        gmin = [min(e[i] for e in g.support()) for i in range(g.n)]
        gmax = [max(e[i] for e in g.support()) for i in range(g.n)]
        dmin = [min(d[i] for d in demand) for i in range(g.n)]
        dmax = [max(d[i] for d in demand) for i in range(g.n)]

    def keep(u, remaining):
        # u can reach some demand point with j <= remaining more factors of g
        for i in range(g.n):
            hi_off = max(0, remaining * gmax[i])
            lo_off = min(0, remaining * gmin[i])
            if not dmin[i] - hi_off <= u[i] <= dmax[i] - lo_off:
                return False
        return True

    gi = LaurentPoly.constant(g.n, 1)
    for i in range(T):
        c = math.comb(i + m - 1, m - 1)
        prod = h * gi
        if modulus is not None:
            prod = prod.reduce_mod(modulus)
        for e, co in prod.terms.items():
            if target_set is not None and tuple(e) not in target_set:
                continue
            base = co if isinstance(co, TPoly) else TPoly([co])
            shifted = TPoly([0] * i + [x * c for x in base.coeffs])
            add_term(tuple(e), shifted)
        if i < T - 1:
            gi = gi * g
            if modulus is not None:
                gi = gi.reduce_mod(modulus)
            if demand is not None:
                remaining = T - 2 - i
                gi = LaurentPoly(
                    g.n,
                    {e: c2 for e, c2 in gi.terms.items() if keep(e, remaining)},
                )
    return FormalExpansion(
        "origin", g.n, coeffs, modulus, t_trunc=T,
        provenance=(repr(h), f"1-t*{g!r}", m),
    )


def cartier_shift(E: FormalExpansion, p: int) -> FormalExpansion:
    """Index decimation c_v -> c_{p v}; the Cartier operation on expansions."""
    new = {}
    for v, c in E.coeffs.items():
        if all(x % p == 0 for x in v):
            new[tuple(x // p for x in v)] = c
    out = _copy_with(E, new)
    out.decimation = E.decimation * p
    return out


def theta_rational(h: LaurentPoly, f: LaurentPoly, m: int, i: int):
    """x_i d/dx_i of h/f^m as a pair (numerator, pole order m+1)."""
    th = LaurentPoly(h.n, {e: c * e[i] for e, c in h.terms.items()})
    tf = LaurentPoly(f.n, {e: c * e[i] for e, c in f.terms.items()})
    num = th * f - h.scale(m) * tf
    return num, m + 1


def theta_t_rational(h: LaurentPoly, f: LaurentPoly, m: int):
    """t d/dt of h/f^m for a family f = 1 - t g, as (numerator, m+1)."""

    def theta_c(c):
        return c.theta() if isinstance(c, TPoly) else TPoly()

    th = h.map_coefficients(theta_c)
    tf = f.map_coefficients(theta_c)
    num = th * f - h.scale(m) * tf
    return num, m + 1


# -- explicit rational-function route ---------------------------------


@dataclass
class CartierImage:
    """C_p(h / f^m) as a finite combination sum_r c_r Q_r / f^sigma^{M_r}."""

    terms: list  # (scalar c_r, numerator LaurentPoly, pole order)
    p: int
    N: int
    f_sigma: LaurentPoly

    def expansion(self, base, budget, modulus=None) -> FormalExpansion:
        modulus = modulus if modulus is not None else self.p**self.N
        total = None
        for c_r, Q_r, pole in self.terms:
            E = expand_vertex(Q_r, self.f_sigma, pole, base, budget, modulus)
            E = E.scaled(c_r)
            total = E if total is None else total + E
        if total is None:
            total = FormalExpansion("vertex", self.f_sigma.n, {}, modulus)
        return total


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
    Q_r decimates G^r h f^{p ceil(m/p) - m}.  Terms with r >= N vanish mod
    p^N and are dropped.
    """
    if p == 2:
        raise ValueError("the Cartier contraction bound needs p > 2")
    if N < 1:
        raise ValueError("precision N must be >= 1")
    modulus = p**N
    mceil = -(-m // p)
    G = frobenius_discrepancy(f, sigma, p)
    fpow = power_mod(f, p * mceil - m, modulus)
    f_sigma = frobenius_twist(f, sigma, substitute_x_p=False, p=p, modulus=modulus)
    terms = []
    Gr = LaurentPoly.constant(f.n, 1)
    r = 0
    while r < N:
        c_r = pow(p, r, modulus) * math.comb(mceil + r - 1, r) % modulus
        body = (Gr * h * fpow).reduce_mod(modulus)
        Q_r = cartier_poly(body, p)
        if c_r != 0 and not Q_r.is_zero():
            terms.append((c_r, Q_r, r + mceil))
        r += 1
        if r < N:
            Gr = (Gr * G).reduce_mod(modulus)
    return CartierImage(terms, p, N, f_sigma)


# -- derivative-order tests -------------------------------------------


def _coeff_val_p(c, p: int, cap: int) -> int:
    if isinstance(c, TPoly):
        return c.min_val_p(p, cap)
    return val_p(c, p, cap)


def formal_derivative_order(
    E: FormalExpansion, k: int, p: int, N: int, extra: int = 0
) -> bool:
    """Whether every certified coefficient a_v satisfies
    ord_p(a_v) >= extra + k * ord_p(gcd(v)), capped at the precision N.

    This is the p-part of the k-th formal-derivative criterion; over Z/p^N
    only the p-part is decidable.
    """
    report = derivative_order_failures(E, k, p, N, extra)
    return not report


def derivative_order_failures(E, k, p, N, extra=0):
    failures = []
    for v, c in E.coeffs.items():
        if not E.is_complete(v):
            continue
        g = 0
        for x in v:
            g = gcd(g, abs(x))
        required = N if g == 0 else min(extra + k * val_p(g, p), N)
        if _coeff_val_p(c, p, N) < required:
            failures.append((v, c, required))
    return failures


# -- congruence interpolation -----------------------------------------


@dataclass
class CartierInterpolation:
    matrix: list  # rows over Z/p^{sk} or TPoly rows
    basis_size: int
    modulus: int
    p: int
    precision: int  # sk
    t_trunc: int | None  # truncation of the solved entries
    probes: list
    holdout: list


def _seeded_probe_stream(n: int, seed: int, generators=None):
    """Deterministic pseudo-random probe vectors.

    With cone generators given, emits small nonnegative combinations of them
    (vertex-mode expansions vanish identically outside the cone, so probes
    must stay inside it to carry information)."""
    rng = random.Random(seed)
    while True:
        if generators:
            v = tuple(
                sum(rng.randint(0, 2) * g[i] for g in generators) for i in range(n)
            )
        else:
            v = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(v):
            yield v


def default_probes(mu: OpenSubset, k: int, base=None):
    """Lattice points of the dilates of mu, shifted into the cone at `base`
    for vertex-mode expansions.  Origin-mode (t-family) interpolation uses
    the dilates of the full polytope instead: the congruences hold for every
    index, and boundary points carry the low-t-degree information that the
    open-subset points alone may lack."""
    pts = []
    if base is None:
        from .polytope import whole_polytope

        source = whole_polytope(mu.polytope)
    else:
        source = mu
    for level in range(1, k + 1):
        for u in lattice_points_in_dilate(source, level):
            if base is not None:
                u = tuple(x - y for x, y in zip(u, base))
            if u not in pts:
                pts.append(u)
    return pts


def interpolate_cartier(
    f: LaurentPoly,
    mu: OpenSubset,
    k: int,
    p: int,
    sigma: FrobeniusLift,
    s: int,
    basis: list | None = None,
    probes: list | None = None,
    t_trunc: int | None = None,
    g: LaurentPoly | None = None,
    n_holdout: int = 2,
    seed: int = 0,
    max_extra_probes: int = 6,
) -> CartierInterpolation:
    """Solve the stacked congruences c_{p^s u}(w_i) = sum_j L_ij c_{p^{s-1} u}(w_j^sigma)
    for the level-k Cartier matrix L mod p^{sk}.

    basis entries are (numerator, pole-order) pairs; the default is the
    monomial basis of the level-k module on (k*mu).  For families (g given)
    expansions are taken at the origin with exact t-coefficients and each
    t-power contributes one equation row; otherwise vertex expansions are
    used.  Held-out probes must reproduce the congruence exactly, else
    ResidualError.
    """
    if not 1 <= k < p:
        raise ValueError("need 1 <= k < p")
    precision = s * k
    modulus = p**precision
    points = lattice_points_in_dilate(mu, k)
    if basis is None:
        basis = [(LaurentPoly.monomial(f.n, u), k) for u in points]
    nb = len(basis)
    generators = None
    if g is None:
        base = unit_vertex(f, p)
        generators = [
            tuple(e - x for e, x in zip(u, base))
            for u in f.support()
            if tuple(u) != base
        ]
        if probes is None:
            probes = default_probes(mu, k, base)
    elif probes is None:
        probes = default_probes(mu, k)
    probes = [tuple(w) for w in probes]
    stream = _seeded_probe_stream(f.n, seed, generators)
    extra = []
    holdout = []
    for _ in range(64):
        if len(holdout) >= n_holdout:
            break
        w = next(stream)
        if w not in probes and w not in holdout:
            holdout.append(w)

    attempt = 0
    while True:
        use = probes + extra
        try:
            matrix, T_lambda = _solve_interpolation(
                f, g, basis, use, k, p, sigma, s, modulus, t_trunc
            )
            break
        except RankDeficiencyError:
            attempt += 1
            if attempt > max_extra_probes:
                raise
            for _ in range(64):
                w = next(stream)
                if w not in use and w not in holdout:
                    break
            else:
                raise
            extra.append(w)

    # held-out residual check
    witnesses = _holdout_residuals(
        f, g, basis, matrix, holdout, k, p, sigma, s, modulus, t_trunc, T_lambda
    )
    if witnesses:
        raise ResidualError(
            f"held-out congruence failed mod {p}^{precision}", witnesses
        )
    return CartierInterpolation(
        matrix, nb, modulus, p, precision, T_lambda, probes + extra, holdout
    )


def _basis_expansions(f, g, basis, needed, k, p, s, modulus, t_trunc):
    """Expansions of all basis elements covering the needed indices."""
    out = []
    if g is not None:
        for h, m in basis:
            out.append(expand_origin(h, g, m, t_trunc, modulus, targets=needed))
    else:
        b = unit_vertex(f, p)
        for h, m in basis:
            S = vertex_budget(f, b, m, h, needed)
            out.append(expand_vertex(h, f, m, b, S, modulus))
    return out


def _probe_data(exps, sigma, w, p, s, modulus):
    """(lhs_i, rhs_j) coefficient data for one probe."""
    lhs_idx = tuple(p**s * x for x in w)
    rhs_idx = tuple(p ** (s - 1) * x for x in w)
    lhs = []
    rhs = []
    for E in exps:
        if not (E.is_complete(lhs_idx) and E.is_complete(rhs_idx)):
            raise ValueError("expansion budget does not cover a probe index")
        lhs.append(E.coefficient(lhs_idx))
        rhs.append(sigma.apply_scalar(E.coefficient(rhs_idx), modulus))
    return lhs, rhs


def _tval_nonzero(tp: TPoly, modulus: int, default: int) -> int:
    for d, c in enumerate(tp.coeffs):
        if c % modulus:
            return d
    return default


def _solve_interpolation(f, g, basis, probes, k, p, sigma, s, modulus, t_trunc):
    """Build and solve the stacked congruence system.

    For t-families the unknown entries are series; information about basis
    column j only enters equations from t-degree delay_j onward (the lowest
    t-valuation of the sigma-twisted coefficient data), so the unknowns are
    truncated at T_lambda = t_trunc - max_j delay_j and each probe only
    contributes equation rows whose degree stays below the point where the
    discarded tail of the unknowns could matter.
    """
    needed = [tuple(p**s * x for x in w) for w in probes]
    needed += [tuple(p ** (s - 1) * x for x in w) for w in probes]
    exps = _basis_expansions(f, g, basis, needed, k, p, s, modulus, t_trunc)
    nb = len(basis)
    data = [_probe_data(exps, sigma, w, p, s, modulus) for w in probes]

    if t_trunc is None:
        A_all = [[rhs[j] % modulus for j in range(nb)] for (_, rhs) in data]
        b_all = [[lhs[i] % modulus for (lhs, _) in data] for i in range(nb)]
        solutions = solve_mod_multi(A_all, b_all, modulus)
        return [[v % modulus for v in x] for x in solutions], None

    rhs_t = [
        [c if isinstance(c, TPoly) else TPoly([c]) for c in rhs]
        for (_, rhs) in data
    ]
    lhs_t = [
        [c if isinstance(c, TPoly) else TPoly([c]) for c in lhs]
        for (lhs, _) in data
    ]
    delays = []
    for j in range(nb):
        delays.append(
            min(_tval_nonzero(rhs_t[wi][j], p, t_trunc) for wi in range(len(probes)))
        )
    T_lambda = t_trunc - max(delays)
    if T_lambda < 1:
        raise RankDeficiencyError("truncation too small for the data valuations")
    A_all = []
    b_all = [[] for _ in range(nb)]
    for wi in range(len(probes)):
        cutoff = min(
            t_trunc,
            T_lambda + min(_tval_nonzero(rhs_t[wi][j], modulus, t_trunc) for j in range(nb)),
        )
        for d in range(cutoff):
            row = []
            for j in range(nb):
                for dd in range(T_lambda):
                    row.append(rhs_t[wi][j][d - dd] % modulus if d - dd >= 0 else 0)
            A_all.append(row)
            for i in range(nb):
                b_all[i].append(lhs_t[wi][i][d] % modulus)
    solutions = solve_mod_multi(A_all, b_all, modulus)
    rows = []
    for x in solutions:
        row = []
        for j in range(nb):
            row.append(TPoly([x[j * T_lambda + d] for d in range(T_lambda)]))
        rows.append(row)
    return rows, T_lambda


def _holdout_residuals(
    f, g, basis, matrix, holdout, k, p, sigma, s, modulus, t_trunc, T_lambda=None
):
    witnesses = []
    if not holdout:
        return witnesses
    needed = [tuple(p**s * x for x in w) for w in holdout]
    needed += [tuple(p ** (s - 1) * x for x in w) for w in holdout]
    exps = _basis_expansions(f, g, basis, needed, k, p, s, modulus, t_trunc)
    nb = len(basis)
    for w in holdout:
        lhs_idx = tuple(p**s * x for x in w)
        rhs_idx = tuple(p ** (s - 1) * x for x in w)
        rhs = [
            sigma.apply_scalar(E.coefficient(rhs_idx), modulus) for E in exps
        ]
        if T_lambda is not None:
            rhs_t = [c if isinstance(c, TPoly) else TPoly([c]) for c in rhs]
            # residual is only meaningful below the degree where the truncated
            # tail of the solved entries could contribute
            check_to = min(
                t_trunc,
                T_lambda + min(_tval_nonzero(c, p, t_trunc) for c in rhs_t),
            )
        for i in range(nb):
            acc = 0
            for j in range(nb):
                acc = acc + matrix[i][j] * rhs[j]
            diff = exps[i].coefficient(lhs_idx) - acc
            if isinstance(diff, TPoly):
                diff = (diff % modulus).truncate(
                    check_to if T_lambda is not None else (diff.degree() + 1)
                )
                bad = bool(diff)
            else:
                bad = diff % modulus != 0
            if bad:
                witnesses.append({"probe": w, "row": i, "residual": repr(diff)})
    return witnesses


def unit_root_projection_check(
    f: LaurentPoly,
    mu: OpenSubset,
    p: int,
    sigma: FrobeniusLift,
    omega,
    s: int,
    probes: list | None = None,
    seed: int = 0,
) -> bool:
    """Project omega onto the span of x^u/f (u in mu) modulo formal
    derivatives, then certify the residual by the derivative-order test.

    omega is a (numerator, pole order) pair.  The projection coefficients are
    the unique solution mod p^s of the expansion-coefficient congruences at
    indices p^s * probe.
    """
    if sigma.kind != "identity":
        raise NotImplementedError("projection check implemented for integer rings")
    h, m = omega
    points = lattice_points_in_dilate(mu, 1)
    modulus = p**s
    b_vertex = unit_vertex(f, p)
    generators = [
        tuple(e - x for e, x in zip(u, b_vertex))
        for u in f.support()
        if tuple(u) != b_vertex
    ]
    if probes is None:
        probes = [tuple(x - y for x, y in zip(u, b_vertex)) for u in points]
    probes = [tuple(w) for w in probes]
    stream = _seeded_probe_stream(f.n, seed, generators)
    extra = []
    for _ in range(8):
        use = probes + extra
        needed = [tuple(p**s * x for x in w) for w in use]
        basis_exps = []
        for u in points:
            hu = LaurentPoly.monomial(f.n, u)
            S = vertex_budget(f, b_vertex, 1, hu, needed)
            basis_exps.append(expand_vertex(hu, f, 1, b_vertex, S, modulus))
        S = vertex_budget(f, b_vertex, m, h, needed)
        E_omega = expand_vertex(h, f, m, b_vertex, S, modulus)
        A = []
        rhs = []
        for w in use:
            idx = tuple(p**s * x for x in w)
            A.append([E.coefficient(idx) for E in basis_exps])
            rhs.append(E_omega.coefficient(idx))
        try:
            a = solve_mod(A, rhs, modulus)
            break
        except RankDeficiencyError:
            extra.append(next(stream))
    else:
        raise RankDeficiencyError("projection system stayed rank-deficient")

    # residual = omega - sum a_u x^u / f, expanded; must be a formal derivative
    box = [v for v in itertools.product(range(-2 * p, 2 * p + 1), repeat=f.n)]
    S = vertex_budget(f, b_vertex, m, h, box)
    E = expand_vertex(h, f, m, b_vertex, S, modulus)
    for u, coef in zip(points, a):
        hu = LaurentPoly.monomial(f.n, u)
        Eu = expand_vertex(hu, f, 1, b_vertex, S, modulus).scaled(-coef)
        E = E + Eu
    return formal_derivative_order(E, 1, p, s)
