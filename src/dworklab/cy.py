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

The Wronskian is factored once as U(t) = W(t) E(log t).  E(l) is the
unipotent Toeplitz matrix with (j, k) entry l^(k-j)/(k-j)!, and W
(wronskian_matrix) is log-free with W(0) = I: row 0 is (F_0, ..., F_(m-1))
and row i+1 is R_(i+1)[j] = theta R_i[j] + R_i[j-1].  All series work is done
on W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .arith import ComposeTable, NonUnitError, Ring, TPoly, odd_prime, val_p_fraction
from .laurent import FrobeniusLift, LaurentPoly, family_poly
from .polytope import (
    all_proper_faces_volume_one,
    interior,
    is_reflexive,
    lattice_points_in_dilate,
    newton_polytope,
)
from .cartier import interpolate_cartier, theta_t_rational
from .linalg import mat_mul, tmat_inv_series


# -- presets -----------------------------------------------------------


@dataclass(frozen=True)
class FamilyPreset:
    g: LaurentPoly
    group_order: int
    lattice_index: int


def preset_family(name: str, n: int) -> FamilyPreset:
    """The standard completely symmetric families; reflexivity is validated."""
    if n < 1:
        raise ValueError("n must be >= 1")
    vars_ = range(n)
    if name == "simplicial":
        terms = {tuple(1 if j == i else 0 for j in vars_): 1 for i in vars_}
        terms[tuple(-1 for _ in vars_)] = 1
        g = LaurentPoly(n, terms)
        preset = FamilyPreset(g, math.factorial(n + 1), 1)
    elif name == "hyperoctahedral":
        terms = {}
        for i in vars_:
            terms[tuple(1 if j == i else 0 for j in vars_)] = 1
            terms[tuple(-1 if j == i else 0 for j in vars_)] = 1
        g = LaurentPoly(n, terms)
        preset = FamilyPreset(g, 2**n * math.factorial(n), 1)
    elif name == "hypercubic":
        g = LaurentPoly.constant(n, 1)
        for i in vars_:
            xi = LaurentPoly(n, {tuple(1 if j == i else 0 for j in vars_): 1,
                                 tuple(-1 if j == i else 0 for j in vars_): 1})
            g = g * xi
        preset = FamilyPreset(g, 2**n * math.factorial(n), 2 ** (n - 1))
    elif name == "A_n":
        plus = LaurentPoly(n, {(0,) * n: 1})
        minus = LaurentPoly(n, {(0,) * n: 1})
        for i in vars_:
            e = tuple(1 if j == i else 0 for j in vars_)
            plus = plus + LaurentPoly(n, {e: 1})
            minus = minus + LaurentPoly(n, {tuple(-x for x in e): 1})
        g = plus * minus
        preset = FamilyPreset(g, 2 * math.factorial(n + 1), 1)
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
        if len(self.lower) != self.order:
            raise ValueError(f"lower needs {self.order} rows A_1..A_m, not {len(self.lower)}")
        if self.leading[0] == 0:
            raise ValueError("leading coefficient must be a unit series")
        for coeffs in self.lower:
            if coeffs and coeffs[0] != 0:
                raise ValueError("operator is not maximally unipotent at 0")

    def coefficient_series(self, T: int):
        """Monic coefficients a_1..a_m as series mod t^T."""
        den = TPoly(self.leading).inverse_series(T)
        return [TPoly(coeffs).mul(den, T) for coeffs in self.lower]

    def companion_series(self, T: int):
        """Matrix N(t) of theta on the cyclic basis (1, theta, ..., theta^(m-1))."""
        a = self.coefficient_series(T)
        m = self.order
        N = [[TPoly() for _ in range(m)] for _ in range(m)]
        for i in range(m - 1):
            N[i][i + 1] = TPoly([1])
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
        lower = (
            (0, 0, -320, 0, 8192),
            (0, 0, -528, 0, 23552),
            (0, 0, -416, 0, 28672),
            (0, 0, -128, 0, 12288),
        )
        return ThetaOperator(4, (1, 0, -80, 0, 1024), lower)
    raise ValueError(f"no shipped operator for {name!r}")


# -- Frobenius method ---------------------------------------------------


@dataclass
class LogSeriesSolution:
    """y_i = sum_j F_j(t) log(t)^(i-j) / (i-j)! with F_0(0)=1, F_j(0)=0."""

    index: int
    components: list  # TPoly F_0..F_index, known mod t^T


def standard_solutions(L: ThetaOperator, T: int):
    """The unique maximally-unipotent solution basis, by the Frobenius method.

    With c_0(eps) = 1 and the operator's coefficients A_{i,j}, the recursion
    A_{0,0} (d+eps)^m c_d = - sum_{j=1..D} sum_{i=0..m} A_{i,j} (d-j+eps)^(m-i) c_{d-j}
    in Q[eps]/(eps^m) gives F_j(t) = sum_d [eps^j] c_d(eps) t^d.  It runs on ints: A is
    scaled by the lcm of its denominators, c_e is m numerators over the running lcm M
    of the denominators, the sum over i is one eps-polynomial from binomial rows, and as
    (d+eps)^(-m) = d^(1-2m) sum_{k<m} C(-m, k) d^(m-1-k) eps^k mod eps^m, each [eps^k] c_d
    is one Fraction over -A_{0,0} d^(2m-1) M: no series inverse and no Fraction sums.
    """
    m, rows = L.order, (L.leading, *L.lower)
    D = max(map(len, rows)) - 1
    S = math.lcm(*[Fraction(x).denominator for row in rows for x in row])
    A = [[int(x * S) for x in row] + [0] * (D + 1 - len(row)) for row in rows]
    taylor = [(j, [[math.comb(k, l) * A[m - k][j] for k in range(l, m + 1)] for l in range(m)])
              for j in range(1, D + 1) if any(a[j] for a in A)]
    out = [[Fraction(1)] + [Fraction(0)] * (m - 1)]
    X, M = [[0] * m] * (D - 1) + [[1] + [0] * (m - 1)], 1  # c_(d-D)..c_(d-1) over M
    for d in range(1, T):
        acc = [0] * m
        for j, tab in taylor:
            pw = [(d - j) ** k for k in range(m + 1)]
            P = [sum(map(mul, row, pw)) for row in tab]
            acc = [x + sum(map(mul, P, X[-j][k::-1])) for k, x in enumerate(acc)]
        Q = [(-1) ** k * math.comb(m - 1 + k, k) * d ** (m - 1 - k) for k in range(m)]
        den = -A[0][0] * d ** (2 * m - 1) * M
        out.append([Fraction(sum(map(mul, Q, acc[k::-1])), den) for k in range(m)])
        s = math.lcm(M, *[x.denominator for x in out[-1]]) // M
        X, M = [[v * s for v in c] for c in X[1:]], M * s
        X.append([x.numerator * (M // x.denominator) for x in out[-1]])
    F = [TPoly(col) for col in zip(*out)]
    return [LogSeriesSolution(i, F[: i + 1]) for i in range(m)]


def canonical_coordinate(solutions, T: int):
    """q(t) = t exp(F_1/F_0) and its compositional inverse (the mirror map)."""
    if T < 2:
        raise ValueError("need T >= 2")
    F0 = solutions[0].components[0]
    F1 = solutions[1].components[1]
    expo = F1.mul(F0.inverse_series(T - 1), T - 1).exp(T - 1)
    q = TPoly((Fraction(0),) + expo.coeffs)
    return q, q.reversion(T)


def yukawa_and_instantons(solutions, mirror: TPoly, T: int):
    """Yukawa coupling Y(q) = (q d/dq)^2 (y_2/y_0) in the canonical
    coordinate, and instanton numbers from its Lambert expansion.  The
    solutions and the mirror map must be known mod t^T.

    The log-square part contributes exactly 1; the mirror-map consistency
    residual log(t(q)/q) + (F_1/F_0)(t(q)) is computed and must vanish, which
    certifies that no log terms survive.
    """
    if len(solutions) < 3:
        raise ValueError("need an operator of order >= 3")
    F0 = solutions[0].components[0]
    F1 = solutions[1].components[1]
    F2 = solutions[2].components[2]
    F0inv = F0.inverse_series(T)
    G = F1.mul(F0inv, T)
    # G and phi share one table of the powers of the mirror map
    at_mirror = ComposeTable(mirror, T)
    # log-cancellation certificate: log(t(q)/q) + G(t(q)) = 0
    tq_over_q = TPoly(mirror.coeffs[1:T])  # t(q)/q, constant 1
    if tq_over_q.log(T - 1) + at_mirror(G).truncate(T - 1):
        raise ArithmeticError(
            "mirror-map/log consistency failed; solutions are inconsistent"
        )
    phi = F2.mul(F0inv, T) - G.mul(G, T) * Fraction(1, 2)
    Y = at_mirror(phi).theta().theta() + 1
    # instanton numbers: [q^D] Y = sum_{d | D} d^3 N_d for D >= 1
    D_max = T - 1
    N = {}
    for d in range(1, D_max + 1):
        acc = Y[d]
        for e in range(1, d):
            if d % e == 0:
                acc -= e**3 * N[e]
        N[d] = Fraction(acc, d**3)
    return Y, [N[d] for d in range(1, D_max + 1)]


def wronskian_matrix(solutions, T: int):
    """The log-free factor W of the Wronskian U = W(t) E(log t), mod t^T:
    U[i][j] = theta^i y_j = sum_l W[i][l] log(t)^(j-l)/(j-l)!, and W(0) = I."""
    W = [[c.truncate(T) for c in solutions[-1].components]]
    for _ in range(len(W[0]) - 1):
        prev = W[-1]
        W.append([prev[0].theta()] + [x.theta() + y for x, y in zip(prev[1:], prev)])
    return W


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
    preset: FamilyPreset, k: int, p: int, sigma: FrobeniusLift, s: int, T: int
):
    """Level-k Cartier matrix of the family under the lift sigma, on its
    cyclic basis, as TPoly entries mod (p^(s k), t^T)."""
    return interpolate_cartier(preset.g, cyclic_basis(family_poly(preset.g), k), k, p, sigma, s, T)


def frobenius_lambda0(
    family: str,
    n: int,
    p: int,
    s: int,
    T: int | None = None,
    t_check: int = 8,
    ode_t_check: int = 10,
) -> Lambda0Report:
    """Extract the constant Frobenius matrix L_0 with U(t) L_0 U(t^p)^(-1)
    equal to the interpolated Cartier matrix, plus the alpha_j constants.

    At t = 0 the Wronskian is the explicit unipotent matrix E(log t), so
    L_0 = E(-log t) Lambda(0) E(p log t); cancellation of all log powers is a
    genuine consistency check on Lambda(0).  t-constancy below t^t_check and the
    Frobenius-structure ODE below t^ode_t_check (neither past Lambda's t_trunc)
    are verified as far as the solution denominators allow, per t-degree.
    """
    odd_prime(p)
    if p <= n + 1:
        raise ValueError("need p > n + 1")
    preset = preset_family(family, n)
    operator = preset_operator(family, n)
    if not all_proper_faces_volume_one(newton_polytope(preset.g.support())):
        raise ValueError("family polytope does not satisfy the simplex-face hypothesis")
    if T is None:
        T = p**s + 12
    precision = s * n
    modulus = p**precision
    interp = family_cartier_matrix(preset, n, p, FrobeniusLift.t_power(p), s, T)
    lam, reach = interp.matrix, max(t_check, ode_t_check)
    if reach > interp.t_trunc:
        raise ValueError(f"t_check/ode_t_check {reach} > t_trunc {interp.t_trunc} at T = {T}")

    # L_0 = E(-ell) Lambda(0) E(p ell) in powers of ell = log t: its ell^0
    # part is Lambda(0) itself, and each ell^k part (k >= 1) must vanish
    lambda0 = [[e[0] % modulus for e in row] for row in lam]

    def ell_part(k, i, j):
        """Entry (i, j) of the ell^k part: sum over a + b = k of
        (-1)^a p^b / (a! b!) Lambda(0)[i+a][j-b]."""
        return sum(Fraction((-1) ** a * p ** (k - a), math.factorial(a) * math.factorial(k - a))
                   * lambda0[i + a][j - k + a]
                   for a in range(k + 1) if i + a < n and j - k + a >= 0)

    ell_ok = all(val_p_fraction(ell_part(k, i, j), p) >= precision
                 for k in range(1, 2 * n - 1) for i in range(n) for j in range(n))

    alphas = []
    for j in range(1, n):
        entry = lambda0[0][j]
        # alpha_j = entry / p^j, known mod p^(precision - j)
        residue_mod = p ** (precision - j)
        if entry % p**j != 0:
            alphas.append((j, None, 0))
        else:
            alphas.append((j, (entry // p**j) % residue_mod, precision - j))

    sols = standard_solutions(operator, t_check + 1)
    t_diag = _t_constancy_diagnostics(sols, lam, p, precision, t_check)
    ode_ok = _ode_residual_ok(operator, lam, p, min(2, precision), ode_t_check)
    return Lambda0Report(
        lambda0=lambda0,
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


def _t_constancy_diagnostics(sols, lam, p, precision, t_check):
    """Check [t^d](U^(-1) Lambda U(t^p)) = 0 for 1 <= d < t_check at the
    precision the solution denominators allow.

    With U = W E(ell) the product is E(-ell) M E(p ell), M = W^(-1) Lambda
    W(t^p).  Its ell^0 part is M, and every other part sums entries of M times
    +-p^b/(a! b!) with a, b < m < p, so the entries of M carry the least
    valuation of all log parts.  Likewise W^(-1) and W(t^p) carry the least
    valuation of U^(-1) = E(-ell) W^(-1) and U(t^p) = W(t^p) E(p ell).
    """
    T = t_check + 1
    reduce = Ring(None, T).reduce

    def product(A, B):
        return [[reduce(e) for e in row] for row in mat_mul(A, B)]

    W = wronskian_matrix(sols, T)
    Winv = tmat_inv_series(W, None, T)  # pivots have constant term 1: W(0) = I
    Wp = [[reduce(e.subs_t_power(p)) for e in row] for row in W]
    M = product(product(Winv, [[reduce(e) for e in row] for row in lam]), Wp)
    # valuation budget of the conjugating matrices (denominators only)
    vmin = min([0] + [e.min_val_p(p, 0) for A in (Winv, Wp) for row in A for e in row])
    eff = precision + 2 * vmin
    entries = [e for row in M for e in row if e]
    diagnostics = []
    for d in range(1, t_check):
        vals = [val_p_fraction(e[d], p, cap=precision) for e in entries]
        worst = min(vals, default=None)
        diagnostics.append(
            {
                "t_degree": d,
                "effective_precision": max(eff, 0),
                "min_valuation": worst,
                "ok": eff <= 0 or all(v >= eff for v in vals),
            }
        )
    return diagnostics


def _ode_residual_ok(operator, lam, p, check_precision, t_check):
    """theta(Lambda) = N Lambda - p Lambda N(t^p) mod (p^check, t^t_check)."""
    m = operator.order
    modulus = p**check_precision
    companion = operator.companion_series(t_check + 1)
    # only degrees <= t_check are compared, so the factors are truncated there
    reduce = Ring(modulus, t_check + 1).reduce
    try:
        N = [[reduce(s.reduce_mod(modulus)) for s in row] for row in companion]
    except NonUnitError:
        return False
    lamT = [[reduce(e) for e in row] for row in lam]
    Np = [[reduce(e.subs_t_power(p)) for e in row] for row in N]
    theta_lam = [[e.theta() % modulus for e in row] for row in lamT]
    lhs = theta_lam
    rhs1 = mat_mul(N, lamT, modulus)
    rhs2 = mat_mul(lamT, Np, modulus)
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
) -> dict:
    """Verify the distinguished Frobenius lift q -> c^(p-1) q^p, which is
    q -> q^p, as every preset's vertex coefficient c is 1.

    Checks: (a) the lift image t_sigma(t) = mirror(q(t)^p) has
    p-integral coefficients, (b) t_sigma = t^p mod p, (c) with this lift the
    class of 1/f is a Cartier eigenvector modulo second formal derivatives:
    the theta-component of the interpolated level-2 matrix vanishes mod p^2
    and the eigenvalue is F_0(t)/F_0(t_sigma).
    """
    odd_prime(p)
    preset = preset_family(family, n)
    if preset.lattice_index != 1:
        raise ValueError("family excluded: vertex lattice has nontrivial index")
    if math.gcd(preset.group_order, p) != 1:
        raise ValueError("p divides the symmetry data; hypothesis fails")
    operator = preset_operator(family, n)
    sols = standard_solutions(operator, T)
    q, mirror = canonical_coordinate(sols, T)

    qp = TPoly([Fraction(1)])
    for _ in range(p):
        qp = qp.mul(q, T)
    t_sigma = mirror.compose(qp, T)

    integral = all(val_p_fraction(x, p) >= 0 for x in t_sigma.coeffs)
    report = {"family": family, "n": n, "p": p, "lift_integral": integral}
    if not integral:
        report.update(congruent_mod_p=False, eigenvector=False, passed=False)
        return report

    modulus = p**2
    sigma_poly = t_sigma.reduce_mod(modulus)
    tp = TPoly.t_power(p)
    diff = (sigma_poly - tp) % p
    report["congruent_mod_p"] = not bool(diff)

    # level-2 eigenvector property via interpolation with the series lift
    sigma = FrobeniusLift.series(p, sigma_poly)
    lam00, lam01 = family_cartier_matrix(preset, 2, p, sigma, 1, T).matrix[0]
    t_keep = max(4, (T - 1) // p)
    theta_component_zero = not bool((lam01 % modulus).truncate(t_keep))

    F0 = sols[0].components[0].reduce_mod(modulus)
    F0_sigma = F0.compose(sigma_poly, T=T, modulus=modulus)
    predicted = F0.mul(F0_sigma.inverse_series(T, modulus), T) % modulus
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
