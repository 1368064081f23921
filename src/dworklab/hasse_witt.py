"""Beta matrices, Hasse-Witt matrices and conditions, and unit-root matrices.

For a Laurent polynomial f and an open subset mu of its Newton polytope, the
matrix beta_m(mu) indexed by the lattice points of mu has (u, v) entry equal
to the coefficient of x^(m*v - u) in f^(m-1).  beta_p is the Hasse-Witt
matrix; when its determinant is a unit mod p the ratios
beta_{p^s} sigma(beta_{p^{s-1}})^{-1} stabilise p-adically and their limit is
the unit-root (Cartier) matrix Lambda(mu).  One lambda_unit_root call gives
its values at finite precision, Lambda_k mod p^k for k = 1..s.

Every matrix here reads its (u, v) entry at one index rule, m*v - u (m = p
for Hasse-Witt matrices), row by row.  A beta matrix is one call of
laurent.coefficient_of_power for all its entries: it builds f's one
nonsingular block of the support (Cramer's rule with a precomputed adjugate)
once and enumerates only the multiplicities outside it, so m in the
thousands stays cheap; nothing here ever expands f^(m-1) in full for large m.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import Ring, TPoly, odd_prime, val_p
from .laurent import (
    FrobeniusLift,
    LaurentPoly,
    coefficient_of_power,
    flatten_t,
    frobenius_twist,
    has_tpoly,
    power_mod,
    regroup_t,
)
from .linalg import identity_matrix, int_det, mat_mul, tmat_inv_series, tpoly_det
from .polytope import OpenSubset, lattice_points_in_dilate
from .cartier import expand_origin, expand_vertex, unit_vertex, vertex_budget


class HWConditionError(ArithmeticError):
    """Raised when an operation requires an invertible Hasse-Witt matrix."""

    def __init__(self, det_mod_p):
        self.det_mod_p = det_mod_p
        super().__init__(f"Hasse-Witt condition fails: det = {det_mod_p} mod p")


@dataclass
class BetaMatrix:
    """A matrix indexed by lattice points: beta_m, Lambda or HW^(k)."""

    index: tuple  # exponent vectors, lexicographically sorted
    entries: list  # square, ints mod p^N or TPoly over Z/p^N
    p: int
    N: int | None  # None means exact integers / exact TPoly

    def size(self) -> int:
        return len(self.index)

    def is_tpoly(self) -> bool:
        return any(isinstance(e, TPoly) for row in self.entries for e in row)

    def to_json(self) -> dict:
        def enc(e):
            if isinstance(e, TPoly):
                return [str(c) for c in e.coeffs]
            return str(e)

        return {
            "index": [list(u) for u in self.index],
            "mod": f"{self.p}^{self.N}",
            "entries": [[enc(e) for e in row] for row in self.entries],
        }


def _shifts(points, m: int) -> list:
    """The index rule: m*v - u for u in points for v in points, row by row."""
    return [tuple(m * x - y for x, y in zip(v, u)) for u in points for v in points]


def _rows(flat: list, r: int) -> list:
    """The r x r matrix whose rows are the consecutive r-blocks of flat."""
    return [flat[i * r:(i + 1) * r] for i in range(r)]


def beta_matrix(
    f: LaurentPoly, mu: OpenSubset, m: int, p: int, N: int
) -> BetaMatrix:
    """beta_m(mu) with entries mod p^N; beta_1 is the identity (f^0 = 1)."""
    odd_prime(p)
    if m < 1:
        raise ValueError("m must be >= 1")
    if N < 1:
        raise ValueError("precision N must be >= 1")
    return _beta(f, lattice_points_in_dilate(mu, 1), m, p, N)


def _beta(f: LaurentPoly, points: list, m: int, p: int, N: int) -> BetaMatrix:
    """beta_m on the lattice points of mu, given as `points`, mod p^N."""
    flat = coefficient_of_power(f, m - 1, _shifts(points, m), p**N)
    return BetaMatrix(tuple(points), _rows(flat, len(points)), p, N)


def _hw_det(bp: BetaMatrix) -> int:
    """det(beta_p) mod p: the Hasse-Witt condition holds when it is nonzero.

    A TPoly entry contributes its constant term, so for a family the
    condition is invertibility in Z_p[[t]]; families needing a cleared
    denominator are handled by the valuation-aware higher_hw_condition.
    """
    return int_det([[TPoly.coerce(e)[0] % bp.p for e in row] for row in bp.entries]) % bp.p


def hw_condition(f: LaurentPoly, mu: OpenSubset, p: int) -> bool:
    """Whether det(beta_p(mu)) is a unit mod p (p ordinary for (f, mu)), by `_hw_det`."""
    return _hw_det(beta_matrix(f, mu, p, p, 1)) != 0


def lambda_unit_root(
    f: LaurentPoly,
    mu: OpenSubset,
    p: int,
    sigma: FrobeniusLift,
    s: int,
    t_trunc: int | None = None,
) -> list:
    """The ladder [Lambda_1, ..., Lambda_s], Lambda_k = Lambda(mu) mod p^k as
    beta_{p^k} sigma(beta_{p^{k-1}})^{-1}, each beta_{p^k} built once mod p^s.
    beta_p comes first, and a failing Hasse-Witt condition raises
    HWConditionError before any higher beta is built.  A t-family's inverse is
    a t-series: t_trunc must be given, and Lambda_k is exact mod (p^k, t^t_trunc)."""
    odd_prime(p)
    if s < 1:
        raise ValueError(f"need s >= 1, not s = {s!r}")
    points = lattice_points_in_dilate(mu, 1)  # scanned once for the ladder
    bp = _beta(f, points, p, p, s)
    if _hw_det(bp) == 0:
        raise HWConditionError(0)
    betas = [BetaMatrix(bp.index, identity_matrix(bp.size()), p, s), bp]  # f^0 = 1
    betas += [_beta(f, points, p**k, p, s) for k in range(2, s + 1)]
    ladder = []
    for k, (den, num) in enumerate(zip(betas, betas[1:]), 1):
        # a t-family's beta entries are TPolys, and its Lambda lives in the
        # series ring mod t^t_trunc; an integer Lambda ignores t_trunc
        series = num.is_tpoly() or den.is_tpoly()
        if series and (t_trunc is None or t_trunc < 1):
            raise ValueError("t-family Lambda needs a truncation order t_trunc >= 1")
        ring = Ring(p**k, t_trunc if series else None)
        twist = sigma.scalar_map(ring.modulus, ring.T)
        twisted = [[ring.reduce(twist(e)) for e in row] for row in den.entries]
        inv = tmat_inv_series(twisted, ring.modulus, ring.T)
        lam = [[ring.reduce(e) for e in row] for row in mat_mul(num.entries, inv)]
        ladder.append(BetaMatrix(num.index, lam, p, k))
    return ladder


# -- higher levels ----------------------------------------------------


def higher_F_polynomials(
    f: LaurentPoly, k: int, p: int, sigma: FrobeniusLift, modulus: int | None
) -> list:
    """The ladder [F_1, ..., F_k], 1 <= k < p, where with X = f^sigma(x^p) and
    D = X - f^p, F_l = f^(p-l) * sum_{r<l} D^r X^(l-1-r).

    One pass: S_1 = 1, S_(l+1) = X S_l + D^l and F_l = f^(p-l) S_l, with
    f^(p-k) from one power_mod and the higher powers of f by multiplying by f;
    level 1 alone is f^(p-1) and forms no D.  sigma and x -> x^p act on f's
    terms; when f has a TPoly coefficient the ladder runs on the flat forms of
    f and X (see `laurent`) and each F_l is regrouped into TPoly coefficients.
    """
    if not 1 <= k < p:
        raise ValueError("need 1 <= k < p")
    reduce = Ring(modulus).reduce
    X = frobenius_twist(f, sigma, p, modulus)
    flat = has_tpoly(f)
    if flat:
        f, X = flatten_t(f), flatten_t(X)
    f_pows = [power_mod(f, p - k, modulus)]  # f^(p-k), ..., f^(p-1)
    for _ in range(k - 1):
        f_pows.append(reduce(f_pows[-1] * f))
    ladder = [f_pows[-1]]  # S_1 = 1
    if k > 1:
        D = D_pow = reduce(X - f_pows[-1] * f)
        S = reduce(X + D)
        for level in range(2, k + 1):
            ladder.append(reduce(f_pows[k - level] * S))
            if level < k:
                D_pow = reduce(D_pow * D)
                S = reduce(X * S + D_pow)
    return [regroup_t(F) for F in ladder] if flat else ladder


def higher_hw_matrix(
    F: LaurentPoly, mu: OpenSubset, k: int, p: int, N: int | None
) -> BetaMatrix:
    """Level-k Hasse-Witt matrix of F = F_k (`higher_F_polynomials`), indexed
    by the lattice points of k*mu: its (u, v) entry is the coefficient of
    x^(p v - u) in F.

    With N = None, F and the entries are exact (needed for determinant
    valuations); otherwise F is known mod p^N, which must satisfy N >= k to
    carry the congruence content of the level.
    """
    if N is not None and N < k:
        raise ValueError("precision N must be at least k")
    points = lattice_points_in_dilate(mu, k)
    flat = [F.coefficient_at(w) for w in _shifts(points, p)]
    return BetaMatrix(tuple(points), _rows(flat, len(points)), p, N)


def level_valuation_target(mu: OpenSubset, k: int) -> int:
    """L(k, mu) = sum_{l<=k} (l-1)(m_l - m_{l-1}) with m_l = #(l*mu) lattice points."""
    counts = [0]
    for level in range(1, k + 1):
        counts.append(len(lattice_points_in_dilate(mu, level)))
    return sum((level - 1) * (counts[level] - counts[level - 1]) for level in range(1, k + 1))


def _det_valuation_report(det, p: int) -> dict:
    """Valuation data for an exact determinant (int or TPoly).  A zero
    determinant reads as ord 64, the cap of a TPoly's valuations."""
    cap = 64
    if isinstance(det, TPoly):
        if not det.coeffs:
            return {"ord": cap, "unit_cofactor": False, "t_degree": None}
        vals = [val_p(c, p, cap) for c in det.coeffs]
        v = min(vals)
        t_deg = vals.index(v)
        lead = det.coeffs[t_deg] // p**v if v < cap else 0
        return {"ord": v, "unit_cofactor": lead % p != 0, "t_degree": t_deg}
    if det == 0:
        return {"ord": cap, "unit_cofactor": False, "t_degree": None}
    v = val_p(det, p)
    return {"ord": v, "unit_cofactor": (det // p**v) % p != 0, "t_degree": None}


def higher_hw_alternative_check(
    f: LaurentPoly,
    mu: OpenSubset,
    k: int,
    p: int,
    sigma: FrobeniusLift | None = None,
    g: LaurentPoly | None = None,
) -> bool:
    """Cross-validate HW^(k) entries against the series route mod p^k:
    the (u, v) entry must match the coefficient of x^(p v - u) in the formal
    expansion of f^sigma(x^p)^k / f(x)^k.  sigma defaults to t -> t^p, which,
    like every lift, leaves an int f as it is.

    The polynomial route has t-degree at most k(p-1); the series route is an
    infinite expansion, so the comparison also asserts that the tail of the
    series coefficient vanishes mod p^k on the checked window.
    """
    odd_prime(p)
    if sigma is None:
        sigma = FrobeniusLift.t_power(p)
    modulus = p**k
    M = higher_hw_matrix(higher_F_polynomials(f, k, p, sigma, modulus)[-1], mu, k, p, k)
    numerator = frobenius_twist(f, sigma, p, modulus)
    numerator = power_mod(numerator, k, modulus)
    targets = _shifts(M.index, p)
    if g is not None:
        T = k * (p - 1) + p + 2
        E = expand_origin(numerator, g, k, T, modulus, targets=targets)
    else:
        b = unit_vertex(f, p)
        S = vertex_budget(f, b, k, numerator, targets)
        E = expand_vertex(numerator, f, k, b, S, modulus, targets=targets)
    entries = [e for row in M.entries for e in row]
    return not any(
        E.is_complete(w) and (TPoly.coerce(e) - TPoly.coerce(E.coefficient(w))) % modulus
        for w, e in zip(targets, entries)
    )


def higher_hw_condition(
    f: LaurentPoly, mu: OpenSubset, k: int, p: int, sigma: FrobeniusLift | None = None
):
    """Check ord_p(det HW^(l)(mu)) = L(l, mu) with unit cofactor for all l <= k.

    sigma defaults to t -> t^p, which, like every lift, leaves an int f as it
    is.  Returns (ok, report) where report[l] holds both numbers per level.  For
    t-families ord_p is the Gauss valuation (minimum over t-coefficients) and
    the unit test applies to the lowest-degree coefficient achieving it, which
    operationalises invertibility after clearing the declared Hasse-Witt
    denominators.
    """
    odd_prime(p)
    if k < 1:
        raise ValueError("level k must be >= 1")
    if sigma is None:
        sigma = FrobeniusLift.t_power(p)
    report = {}
    ok = True
    for level, F in enumerate(higher_F_polynomials(f, k, p, sigma, None), 1):
        M = higher_hw_matrix(F, mu, level, p, None)
        if M.is_tpoly():
            det = tpoly_det([[TPoly.coerce(e) for e in row] for row in M.entries])
        else:
            det = int_det(M.entries)
        L = level_valuation_target(mu, level)
        data = _det_valuation_report(det, p)
        data["L"] = L
        data["size"] = M.size()
        data["holds"] = data["ord"] == L and data["unit_cofactor"]
        report[level] = data
        ok = ok and data["holds"]
    return ok, report
