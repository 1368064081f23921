"""Calabi-Yau family presets and the mirror-map / instanton / Frobenius
pipeline, all in exact arithmetic.

The chain is: preset family g -> Picard-Fuchs operator (shipped, not
derived) -> standard log-solution basis by the Frobenius method -> canonical
coordinate q(t) = t exp(F_1/F_0) and its inverse mirror map -> Yukawa
coupling and instanton numbers.  On the p-adic side, the level-n Cartier
matrix of the family in the cyclic basis {theta^i(1/f)} is interpolated from
expansion-coefficient congruences and compared with U(t) L_0 U(t^p)^{-1},
where U is the Wronskian of the standard solutions: the constant matrix L_0
is upper-triangular Toeplitz with diagonal (1, p, ..., p^(n-1)) and its
normalised corner entries are the zeta-value constants alpha_j.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import NonUnitError, TPoly, TruncatedSeries, val_p_fraction
from .laurent import FrobeniusLift, LaurentPoly, family_poly
from .polytope import (
    all_proper_faces_volume_one,
    interior,
    is_reflexive,
    lattice_points_in_dilate,
    newton_polytope,
)
from .cartier import interpolate_cartier, theta_t_rational
from .linalg import mat_mul, tmat_mul


# -- presets -----------------------------------------------------------


@dataclass(frozen=True)
class FamilyPreset:
    name: str
    n: int
    g: LaurentPoly
    group_order: int
    lattice_index: int
    vertex_coeff: int


def preset_family(name: str, n: int) -> FamilyPreset:
    """The standard completely symmetric families; reflexivity is validated."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vars_ = range(n)
    if name == "simplicial":
        terms = {tuple(1 if j == i else 0 for j in vars_): 1 for i in vars_}
        terms[tuple(-1 for _ in vars_)] = 1
        g = LaurentPoly(n, terms)
        preset = FamilyPreset(name, n, g, math.factorial(n + 1), 1, 1)
    elif name == "hyperoctahedral":
        terms = {}
        for i in vars_:
            terms[tuple(1 if j == i else 0 for j in vars_)] = 1
            terms[tuple(-1 if j == i else 0 for j in vars_)] = 1
        g = LaurentPoly(n, terms)
        preset = FamilyPreset(name, n, g, 2**n * math.factorial(n), 1, 1)
    elif name == "hypercubic":
        g = LaurentPoly.constant(n, 1)
        for i in vars_:
            xi = LaurentPoly(n, {tuple(1 if j == i else 0 for j in vars_): 1,
                                 tuple(-1 if j == i else 0 for j in vars_): 1})
            g = g * xi
        preset = FamilyPreset(name, n, g, 2**n * math.factorial(n), 2 ** (n - 1), 1)
    elif name == "A_n":
        plus = LaurentPoly(n, {(0,) * n: 1})
        minus = LaurentPoly(n, {(0,) * n: 1})
        for i in vars_:
            e = tuple(1 if j == i else 0 for j in vars_)
            plus = plus + LaurentPoly(n, {e: 1})
            minus = minus + LaurentPoly(n, {tuple(-x for x in e): 1})
        g = plus * minus
        preset = FamilyPreset(name, n, g, 2 * math.factorial(n + 1), 1, 1)
    else:
        raise ValueError(f"unknown family preset {name!r}")
    P = newton_polytope(preset.g.support())
    if not is_reflexive(P):
        raise AssertionError("preset family has a non-reflexive Newton polytope")
    if lattice_points_in_dilate(interior(P), 1) != [(0,) * n]:
        raise AssertionError("preset interior is not a single origin point")
    return preset


@dataclass(frozen=True)
class ThetaOperator:
    """Differential operator A_0(t) theta^m + sum_i A_i(t) theta^(m-i),
    normalised on demand to monic form with a_i = A_i / A_0.

    A_i are polynomials with rational coefficients; A_0(0) must be a unit and
    A_i(0) = 0 for i >= 1 (maximal unipotent monodromy at t = 0).
    """

    order: int
    leading: tuple  # coefficients of A_0
    lower: tuple  # tuple of coefficient tuples for A_1..A_m

    def __post_init__(self):
        if Fraction(self.leading[0]) == 0:
            raise ValueError("leading coefficient must be a unit series")
        for coeffs in self.lower:
            if coeffs and Fraction(coeffs[0]) != 0:
                raise ValueError("operator is not maximally unipotent at 0")

    def coefficient_series(self, T: int):
        """Monic coefficients a_1..a_m as series mod t^T."""
        den = TruncatedSeries([Fraction(c) for c in self.leading], T).invert()
        out = []
        for coeffs in self.lower:
            num = TruncatedSeries([Fraction(c) for c in coeffs], T)
            out.append(num * den)
        return out

    def companion_series(self, T: int):
        """Matrix N(t) of theta on the cyclic basis (1, theta, ..., theta^(m-1))."""
        a = self.coefficient_series(T)
        m = self.order
        N = [[TruncatedSeries.zero(T) for _ in range(m)] for _ in range(m)]
        for i in range(m - 1):
            N[i][i + 1] = TruncatedSeries.one(T)
        for j in range(m):
            N[m - 1][j] = -a[m - 1 - j]
        return N


def _expand_product_theta(shifts):
    """Coefficients of prod_j (theta + shifts_j) as polynomial in theta,
    returned as [c_0, ..., c_m] with c_m = 1 (by ascending theta power)."""
    coeffs = [Fraction(1)]
    for sh in shifts:
        new = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            new[i + 1] += c
            new[i] += c * sh
        coeffs = new
    return coeffs


def preset_operator(name: str, n: int | None = None) -> ThetaOperator:
    """Shipped Picard-Fuchs operators: simplicial(n), quintic,
    hyperoctahedral(4)."""
    if name == "simplicial":
        if n is None or n < 2:
            raise ValueError("simplicial operator needs n >= 2")
        # theta^n - ((n+1) t)^(n+1) (theta+1)...(theta+n)
        m = n
        prod = _expand_product_theta([Fraction(j) for j in range(1, n + 1)])
        scale = Fraction((n + 1) ** (n + 1))
        lead = [Fraction(0)] * (n + 2)
        lead[0] = Fraction(1)
        lead[n + 1] = -scale * prod[m]
        lower = []
        for i in range(1, m + 1):  # coefficient of theta^(m-i)
            coeffs = [Fraction(0)] * (n + 2)
            coeffs[n + 1] = -scale * prod[m - i]
            lower.append(tuple(coeffs))
        return ThetaOperator(m, tuple(lead), tuple(lower))
    if name == "quintic":
        prod = _expand_product_theta([Fraction(j, 5) for j in range(1, 5)])
        scale = Fraction(5**5)
        lead = (Fraction(1), -scale * prod[4])
        lower = tuple(
            (Fraction(0), -scale * prod[4 - i]) for i in range(1, 5)
        )
        return ThetaOperator(4, lead, lower)
    if name == "hyperoctahedral":
        if n != 4:
            raise ValueError("hyperoctahedral operator shipped for n = 4 only")
        lead = (1, 0, -80, 0, 1024)
        lower = (
            (0, 0, -320, 0, 8192),
            (0, 0, -528, 0, 23552),
            (0, 0, -416, 0, 28672),
            (0, 0, -128, 0, 12288),
        )
        return ThetaOperator(
            4,
            tuple(Fraction(c) for c in lead),
            tuple(tuple(Fraction(c) for c in row) for row in lower),
        )
    raise ValueError(f"no shipped operator for {name!r}")


# -- Frobenius method ---------------------------------------------------


@dataclass
class LogSeriesSolution:
    """y_i = sum_j F_j(t) log(t)^(i-j) / (i-j)! with F_0(0)=1, F_j(0)=0."""

    index: int
    components: list  # TruncatedSeries F_0..F_index


def _eps_mul(a, b, m):
    out = [Fraction(0)] * m
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j in range(m - i):
            y = b[j]
            if y:
                out[i + j] += x * y
    return out


def _eps_inv(a, m):
    if a[0] == 0:
        raise ZeroDivisionError("epsilon-series with zero constant term")
    inv = [Fraction(0)] * m
    inv[0] = 1 / a[0]
    for d in range(1, m):
        inv[d] = -inv[0] * sum(a[i] * inv[d - i] for i in range(1, d + 1))
    return inv


def _eps_pow_linear(e0, m, k):
    """(e0 + eps)^k as an epsilon-polynomial mod eps^m."""
    out = [Fraction(0)] * m
    for j in range(min(k, m - 1) + 1):
        out[j] = Fraction(math.comb(k, j)) * Fraction(e0) ** (k - j)
    return out


def standard_solutions(L: ThetaOperator, T: int):
    """The unique maximally-unipotent solution basis, by the Frobenius method.

    Works in Q[eps]/(eps^m): with c_0(eps)=1 the recursion
    (d+eps)^m c_d = - sum_i sum_{e<d} a_{i,d-e} (e+eps)^(m-i) c_e
    has unit leading factors for d >= 1, and F_j(t) = sum_d [eps^j] c_d(eps) t^d.
    """
    m = L.order
    a = L.coefficient_series(T)
    c = [[Fraction(1)] + [Fraction(0)] * (m - 1)]
    for d in range(1, T):
        acc = [Fraction(0)] * m
        for i in range(1, m + 1):
            ai = a[i - 1]
            power = m - i
            for e in range(d):
                coef = ai[d - e]
                if coef == 0:
                    continue
                term = _eps_mul(_eps_pow_linear(e, m, power), c[e], m)
                for j in range(m):
                    acc[j] += coef * term[j]
        lead_inv = _eps_inv(_eps_pow_linear(d, m, m), m)
        c.append([-x for x in _eps_mul(lead_inv, acc, m)])
    F = [
        TruncatedSeries([c[d][j] for d in range(T)], T) for j in range(m)
    ]
    return [LogSeriesSolution(i, F[: i + 1]) for i in range(m)]


def apply_operator_log(L: ThetaOperator, sol: LogSeriesSolution, T: int):
    """Components of L(y) in the log grading; all should vanish mod t^(T-m)."""
    m = L.order
    a = L.coefficient_series(T)
    # represent y as plain-log-power components h_k = F_{i-k} / k!
    D = sol.index
    h = [sol.components[D - k] * Fraction(1, math.factorial(k)) for k in range(D + 1)]

    def theta_vec(vec):
        out = []
        for k in range(len(vec)):
            nxt = vec[k + 1] * Fraction(k + 1) if k + 1 < len(vec) else TruncatedSeries.zero(T)
            out.append(vec[k].theta() + nxt)
        return out

    powers = [h]
    for _ in range(m):
        powers.append(theta_vec(powers[-1]))
    out = powers[m]
    for i in range(1, m + 1):
        coeff = a[i - 1]
        out = [o + coeff * comp for o, comp in zip(out, powers[m - i])]
    return out


# -- period series ------------------------------------------------------


def constant_term_series(g: LaurentPoly, T: int) -> TruncatedSeries:
    """gamma(t) = sum_i (constant term of g^i) t^i, exact integers.

    Powers are accumulated with a support window: a monomial can still reach
    the constant term only if its negative lies in the reachable dilate, so
    everything outside that window is pruned.
    """
    P = None
    try:
        P = newton_polytope(g.support())
    except Exception:
        P = None
    coeffs = [0] * T
    coeffs[0] = 1
    h = {(0,) * g.n: 1}
    for i in range(1, T):
        nxt = {}
        remaining = T - 1 - i
        for e1, c1 in h.items():
            for e2, c2 in g.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if P is not None and not P.contains(tuple(-x for x in e), remaining):
                    continue
                nxt[e] = nxt.get(e, 0) + c1 * c2
        h = {e: c for e, c in nxt.items() if c != 0}
        coeffs[i] = h.get((0,) * g.n, 0)
    return TruncatedSeries([Fraction(c) for c in coeffs], T)


def canonical_coordinate(solutions, T: int):
    """q(t) = t exp(F_1/F_0) and its compositional inverse (the mirror map)."""
    if T < 2:
        raise ValueError("need T >= 2")
    F0 = solutions[0].components[0]
    F1 = solutions[1].components[1]
    ratio = F1 * F0.invert()
    expo = TruncatedSeries(ratio.coeffs[: T - 1], T - 1).exp()
    q = TruncatedSeries([Fraction(0)] + expo.coeffs, T)
    mirror = q.reversion()
    return q, mirror


def yukawa_and_instantons(solutions, mirror: TruncatedSeries, T: int):
    """Yukawa coupling Y(q) = (q d/dq)^2 (y_2/y_0) in the canonical
    coordinate, and instanton numbers from its Lambert expansion.

    The log-square part contributes exactly 1; the mirror-map consistency
    residual log(t(q)/q) + (F_1/F_0)(t(q)) is computed and must vanish, which
    certifies that no log terms survive.
    """
    if len(solutions) < 3:
        raise ValueError("need an operator of order >= 3")
    F0 = solutions[0].components[0]
    F1 = solutions[1].components[1]
    F2 = solutions[2].components[2]
    T = min(T, F0.T, mirror.T)
    F0 = TruncatedSeries(F0.coeffs[:T], T)
    F1 = TruncatedSeries(F1.coeffs[:T], T)
    F2 = TruncatedSeries(F2.coeffs[:T], T)
    mirror = TruncatedSeries(mirror.coeffs[:T], T)
    G = F1 * F0.invert()
    # log-cancellation certificate: log(t(q)/q) + G(t(q)) = 0
    tq_over_q = TruncatedSeries(
        [mirror[d + 1] for d in range(T - 1)], T - 1
    )  # t(q)/q, constant 1
    residual = tq_over_q.log() + TruncatedSeries(G.compose(mirror).coeffs[: T - 1], T - 1)
    if any(c != 0 for c in residual.coeffs):
        raise ArithmeticError(
            "mirror-map/log consistency failed; solutions are inconsistent"
        )
    phi = F2 * F0.invert() - G * G * Fraction(1, 2)
    inner = phi.compose(mirror)
    Y = inner.theta().theta() + 1
    # instanton numbers: [q^D] Y = sum_{d | D} d^3 N_d for D >= 1
    D_max = T - 1
    N = {}
    for d in range(1, D_max + 1):
        acc = Y[d]
        for e in range(1, d):
            if d % e == 0:
                acc -= e**3 * N[e]
        N[d] = acc / d**3
    return Y, [N[d] for d in range(1, D_max + 1)]


# -- log-polynomial matrices for the Frobenius structure ----------------


class LogPoly:
    """Polynomial in L = log t with TruncatedSeries coefficients."""

    __slots__ = ("parts", "T")

    def __init__(self, parts, T):
        self.parts = list(parts)
        self.T = T
        while self.parts and all(c == 0 for c in self.parts[-1].coeffs):
            self.parts.pop()

    @staticmethod
    def from_series(s: TruncatedSeries):
        return LogPoly([s], s.T)

    @staticmethod
    def zero(T):
        return LogPoly([], T)

    def part(self, k):
        return self.parts[k] if k < len(self.parts) else TruncatedSeries.zero(self.T)

    def __add__(self, other):
        n = max(len(self.parts), len(other.parts))
        return LogPoly([self.part(k) + other.part(k) for k in range(n)], self.T)

    def __sub__(self, other):
        n = max(len(self.parts), len(other.parts))
        return LogPoly([self.part(k) - other.part(k) for k in range(n)], self.T)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, TruncatedSeries)):
            return LogPoly([p * other for p in self.parts], self.T)
        n = len(self.parts) + len(other.parts)
        out = [TruncatedSeries.zero(self.T) for _ in range(max(n - 1, 0))]
        for i, a in enumerate(self.parts):
            for j, b in enumerate(other.parts):
                out[i + j] = out[i + j] + a * b
        return LogPoly(out, self.T)

    def theta(self):
        """t d/dt with (log t)' = 1/t, so theta(L^k) = k L^(k-1)."""
        out = []
        for k in range(len(self.parts)):
            nxt = (
                self.parts[k + 1] * Fraction(k + 1)
                if k + 1 < len(self.parts)
                else TruncatedSeries.zero(self.T)
            )
            out.append(self.parts[k].theta() + nxt)
        return LogPoly(out, self.T)

    def subs_t_power(self, p):
        """t -> t^p, log t -> p log t."""
        out = []
        for k, part in enumerate(self.parts):
            out.append(part.subs_t_power(p) * Fraction(p**k))
        return LogPoly(out, self.T)

    def is_log_free(self):
        return len(self.parts) <= 1


def wronskian_matrix(solutions, T: int):
    """U(t) with U[i][j] = theta^i y_j as LogPoly entries."""
    m = len(solutions)
    cols = []
    for sol in solutions:
        D = sol.index
        parts = [
            TruncatedSeries(sol.components[D - k].coeffs[:T], T)
            * Fraction(1, math.factorial(k))
            for k in range(D + 1)
        ]
        cols.append(LogPoly(parts, T))
    U = [[None] * m for _ in range(m)]
    for j in range(m):
        cur = cols[j]
        for i in range(m):
            U[i][j] = cur
            cur = cur.theta()
    return U


def _logpoly_det(M):
    m = len(M)
    T = M[0][0].T
    total = LogPoly.zero(T)
    for perm in itertools.permutations(range(m)):
        sign = 1
        seen = list(perm)
        # permutation sign by counting inversions
        inv = sum(
            1 for i in range(m) for j in range(i + 1, m) if seen[i] > seen[j]
        )
        sign = -1 if inv % 2 else 1
        term = LogPoly([TruncatedSeries.one(T)], T)
        for i in range(m):
            term = term * M[i][perm[i]]
        total = total + term * Fraction(sign)
    return total


def _logpoly_inverse(M):
    """Adjugate inverse; the determinant must be log-free with unit constant."""
    m = len(M)
    T = M[0][0].T
    det = _logpoly_det(M)
    if not det.is_log_free():
        raise ArithmeticError("Wronskian determinant has residual log terms")
    det_series = det.part(0)
    det_inv = det_series.invert()
    out = [[None] * m for _ in range(m)]
    for i in range(m):
        for j in range(m):
            minor = [
                [M[r][c] for c in range(m) if c != i]
                for r in range(m) if r != j
            ]
            cof = _logpoly_det(minor) if m > 1 else LogPoly([TruncatedSeries.one(T)], T)
            sign = Fraction(-1 if (i + j) % 2 else 1)
            out[i][j] = cof * det_inv * sign
    return out


# -- Frobenius structure of a family ------------------------------------


@dataclass
class Lambda0Report:
    lambda0: list  # integer matrix mod p^precision
    alphas: list  # (j, alpha_j residue, precision exponent)
    precision: int
    p: int
    family: str
    n: int
    lambda_matrix: list  # TPoly entries of Lambda(t)
    t_constancy: list  # per-degree diagnostics
    ell_cancellation: bool
    ode_residual_ok: bool


def cyclic_basis(f: LaurentPoly, n: int):
    """(numerator, pole) pairs for 1/f, theta(1/f), ..., theta^(n-1)(1/f)."""
    basis = [(LaurentPoly.constant(f.n, TPoly([1])), 1)]
    for _ in range(n - 1):
        h, m = basis[-1]
        basis.append(theta_t_rational(h, f, m))
    return basis


def family_cartier_matrix(
    preset: FamilyPreset, p: int, s: int, T: int, seed: int = 0
):
    """Level-n Cartier matrix of the family in the cyclic basis, as TPoly
    entries mod (p^(s n), t^T)."""
    n = preset.n
    f = family_poly(preset.g)
    P = newton_polytope(preset.g.support())
    mu = interior(P)
    basis = cyclic_basis(f, n)
    interp = interpolate_cartier(
        f, mu, n, p, FrobeniusLift.t_power(p), s,
        basis=basis, t_trunc=T, g=preset.g, seed=seed,
    )
    return interp


def frobenius_lambda0(
    family: str,
    n: int,
    p: int,
    s: int = 2,
    T: int | None = None,
    t_check: int = 8,
    ode_t_check: int = 10,
    seed: int = 0,
) -> Lambda0Report:
    """Extract the constant Frobenius matrix L_0 with U(t) L_0 U(t^p)^(-1)
    equal to the interpolated Cartier matrix, plus the alpha_j constants.

    At t = 0 the Wronskian is the explicit unipotent matrix E(log t), so
    L_0 = E(-log t) Lambda(0) E(p log t); cancellation of all log powers is a
    genuine consistency check on Lambda(0).  t-constancy at higher degrees and
    the Frobenius-structure differential equation are verified as far as the
    denominators of the solution basis allow, with per-degree precision tags.
    """
    if p <= n + 1:
        raise ValueError("need p > n + 1")
    preset = preset_family(family, n)
    if not all_proper_faces_volume_one(newton_polytope(preset.g.support())):
        raise ValueError("family polytope does not satisfy the simplex-face hypothesis")
    if T is None:
        T = p**s + 12
    precision = s * n
    modulus = p**precision
    interp = family_cartier_matrix(preset, p, s, T, seed)
    lam = interp.matrix

    # L_0 = E(-ell) Lambda(0) E(p ell), collecting powers of ell = log t
    lam0_int = [[e[0] % modulus for e in row] for row in lam]
    ell_terms = {}
    for k1 in range(n):
        for k2 in range(n):
            E1 = _poly_factorial_entry(n, k1, Fraction(-1))
            E2 = _poly_factorial_entry(n, k2, Fraction(p))
            prod = mat_mul(mat_mul(E1, lam0_int), E2)
            key = k1 + k2
            ell_terms[key] = _mat_add_frac(ell_terms.get(key), prod)
    lambda0 = ell_terms.get(0)
    ell_ok = True
    for k, M in ell_terms.items():
        if k == 0:
            continue
        for row in M:
            for x in row:
                if val_p_fraction(x, p) < precision:
                    ell_ok = False

    lambda0_int = []
    for row in lambda0:
        out = []
        for x in row:
            if x.denominator != 1:
                # denominators prime to p only (p > n+1 ensures this)
                from .arith import inv_mod

                out.append(x.numerator * inv_mod(x.denominator, modulus) % modulus)
            else:
                out.append(x.numerator % modulus)
        lambda0_int.append(out)

    alphas = []
    for j in range(1, n):
        entry = lambda0_int[0][j]
        # alpha_j = entry / p^j, known mod p^(precision - j)
        residue_mod = p ** (precision - j)
        if entry % p**j != 0:
            alphas.append((j, None, 0))
        else:
            alphas.append((j, (entry // p**j) % residue_mod, precision - j))

    operator = preset_operator(family, n)
    sols = standard_solutions(operator, max(t_check + 2, ode_t_check + 2))
    t_diag = _t_constancy_diagnostics(sols, lam, p, precision, t_check)
    ode_ok = _ode_residual_ok(operator, lam, p, min(2, precision), ode_t_check)
    return Lambda0Report(
        lambda0=lambda0_int,
        alphas=alphas,
        precision=precision,
        p=p,
        family=family,
        n=n,
        lambda_matrix=lam,
        t_constancy=t_diag,
        ell_cancellation=ell_ok,
        ode_residual_ok=ode_ok,
    )


def _poly_factorial_entry(m, k, scale):
    """Matrix of the ell^k coefficient of E(scale * ell)."""
    M = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        j = i + k
        if j < m:
            M[i][j] = scale**k / math.factorial(k)
    return M


def _mat_add_frac(A, B):
    if A is None:
        return B
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def _t_constancy_diagnostics(sols, lam, p, precision, t_check):
    """Check [t^d](U^(-1) Lambda U(t^p)) = 0 for 1 <= d < t_check at the
    precision the solution denominators allow."""
    T = t_check + 1
    U = wronskian_matrix(sols, T)
    Uinv = _logpoly_inverse(U)
    V = [[e.subs_t_power(p) for e in row] for row in U]
    lamL = [
        [
            LogPoly.from_series(
                TruncatedSeries([Fraction(c) for c in e.coeffs], T)
            )
            for e in row
        ]
        for row in lam
    ]
    prod = _logpoly_mat_mul(_logpoly_mat_mul(Uinv, lamL), V)
    # valuation budget of the conjugating matrices
    vmin = 0
    for M in (Uinv, V):
        for row in M:
            for e in row:
                for part in e.parts:
                    vmin = min(vmin, part.min_val_p(p))
    eff = precision + 2 * vmin
    diagnostics = []
    for d in range(1, t_check):
        worst = None
        ok = True
        for i in range(len(prod)):
            for j in range(len(prod)):
                e = prod[i][j]
                for k in range(len(e.parts)):
                    c = e.part(k)[d]
                    v = val_p_fraction(c, p, cap=precision)
                    if worst is None or v < worst:
                        worst = v
                    if eff > 0 and v < eff:
                        ok = False
        diagnostics.append(
            {
                "t_degree": d,
                "effective_precision": max(eff, 0),
                "min_valuation": worst,
                "ok": ok or eff <= 0,
            }
        )
    return diagnostics


def _logpoly_mat_mul(A, B):
    m, inner, c = len(A), len(B), len(B[0])
    out = []
    for i in range(m):
        row = []
        for j in range(c):
            acc = None
            for t in range(inner):
                term = A[i][t] * B[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def _ode_residual_ok(operator, lam, p, check_precision, t_check):
    """theta(Lambda) = N Lambda - p Lambda N(t^p) mod (p^check, t^t_check)."""
    m = operator.order
    modulus = p**check_precision
    Tn = t_check * p + 1
    companion = operator.companion_series(Tn)
    try:
        N = [[s.to_tpoly_mod(p, check_precision) for s in row] for row in companion]
    except NonUnitError:
        return False
    lamT = [[e % modulus for e in row] for row in lam]
    Np = [[e.subs_t_power(p) % modulus for e in row] for row in N]
    theta_lam = [[e.theta() % modulus for e in row] for row in lamT]
    lhs = theta_lam
    rhs1 = tmat_mul(N, lamT, modulus, t_check + 1)
    rhs2 = tmat_mul(lamT, Np, modulus, t_check + 1)
    for i in range(m):
        for j in range(m):
            diff = (lhs[i][j] - rhs1[i][j] + p * rhs2[i][j]) % modulus
            if any(c % modulus for c in diff.truncate(t_check).coeffs):
                return False
    return True


# -- excellent lifts ----------------------------------------------------


def excellent_lift_check(
    family: str,
    n: int,
    p: int,
    T: int = 40,
    s: int = 1,
    t_check: int | None = None,
    seed: int = 0,
) -> dict:
    """Verify the distinguished Frobenius lift q -> c^(p-1) q^p.

    Checks: (a) the lift image t_sigma(t) = mirror(c^(p-1) q(t)^p) has
    p-integral coefficients, (b) t_sigma = t^p mod p, (c) with this lift the
    class of 1/f is a Cartier eigenvector modulo second formal derivatives:
    the theta-component of the interpolated level-2 matrix vanishes mod p^2
    and the eigenvalue is F_0(t)/F_0(t_sigma).
    """
    preset = preset_family(family, n)
    if preset.lattice_index != 1:
        raise ValueError("family excluded: vertex lattice has nontrivial index")
    if math.gcd(preset.group_order * preset.vertex_coeff, p) != 1:
        raise ValueError("p divides the symmetry data; hypothesis fails")
    operator = preset_operator(family, n)
    sols = standard_solutions(operator, T)
    q, mirror = canonical_coordinate(sols, T)
    c = preset.vertex_coeff

    qp = TruncatedSeries.one(T)
    for _ in range(p):
        qp = qp * q
    qp = qp * Fraction(c ** (p - 1))
    t_sigma = mirror.compose(qp)

    integral = all(val_p_fraction(x, p) >= 0 for x in t_sigma.coeffs)
    report = {"family": family, "n": n, "p": p, "lift_integral": integral}
    if not integral:
        report.update(congruent_mod_p=False, eigenvector=False, passed=False)
        return report

    sigma_poly = t_sigma.to_tpoly_mod(p, 2 * s)
    tp = TPoly.t_power(p)
    diff = (sigma_poly - tp) % p
    report["congruent_mod_p"] = not bool(diff)

    # level-2 eigenvector property via interpolation with the series lift
    f = family_poly(preset.g)
    P = newton_polytope(preset.g.support())
    mu = interior(P)
    sigma = FrobeniusLift.series(p, sigma_poly, t_trunc=T)
    basis = cyclic_basis(f, n)[:2]
    interp = interpolate_cartier(
        f, mu, 2, p, sigma, s, basis=basis, t_trunc=T, g=preset.g, seed=seed
    )
    modulus = p ** (2 * s)
    lam00, lam01 = interp.matrix[0]
    t_keep = t_check if t_check is not None else max(4, (T - 1) // p)
    theta_component_zero = not bool((lam01 % modulus).truncate(t_keep))

    F0 = sols[0].components[0].to_tpoly_mod(p, 2 * s)
    F0_sigma = F0.compose(sigma_poly, T=T, modulus=modulus)
    predicted = (F0 * F0_sigma.inverse_series(T, modulus)) % modulus
    eig_match = not bool(
        ((lam00 - predicted) % modulus).truncate(t_keep)
    )
    report["eigenvector"] = theta_component_zero
    report["eigenvalue_matches_F_ratio"] = eig_match
    report["theta_component"] = [int(x) for x in (lam01 % modulus).truncate(t_keep).coeffs]
    report["passed"] = bool(
        integral and report["congruent_mod_p"] and theta_component_zero and eig_match
    )
    return report
