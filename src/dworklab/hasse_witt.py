"""Beta matrices, Hasse-Witt matrices and conditions, and unit-root matrices.

For a Laurent polynomial f and an open subset mu of its Newton polytope, the
matrix beta_m(mu) indexed by the lattice points of mu has (u, v) entry equal
to the coefficient of x^(m*v - u) in f^(m-1).  beta_p is the Hasse-Witt
matrix; when its determinant is a unit mod p the ratios
beta_{p^s} sigma(beta_{p^{s-1}})^{-1} stabilise p-adically and their limit is
the unit-root (Cartier) matrix Lambda(mu), which we always manipulate at a
finite precision p^s.

Entries are extracted by sparse multinomial enumeration, so m in the
thousands stays cheap; nothing here ever expands f^(m-1) in full for large m.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import TPoly, val_p
from .laurent import (
    FrobeniusLift,
    LaurentPoly,
    coefficient_of_power,
    frobenius_twist,
    power_mod,
)
from .linalg import int_det, mat_mul, mat_inv_mod, tmat_inv_series, tmat_mul, tpoly_det
from .polytope import OpenSubset, lattice_points_in_dilate


class HWConditionError(ArithmeticError):
    """Raised when an operation requires an invertible Hasse-Witt matrix."""

    def __init__(self, det_mod_p):
        self.det_mod_p = det_mod_p
        super().__init__(f"Hasse-Witt condition fails: det = {det_mod_p} mod p")


@dataclass
class BetaMatrix:
    index: tuple  # exponent vectors, lexicographically sorted
    entries: list  # square, ints mod p^N or TPoly over Z/p^N
    m: int
    p: int
    N: int
    mu: str = ""

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


def beta_matrix(
    f: LaurentPoly, mu: OpenSubset, m: int, p: int, N: int
) -> BetaMatrix:
    """beta_m(mu) with entries mod p^N; beta_1 is the identity by convention."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if N < 1:
        raise ValueError("precision N must be >= 1")
    points = lattice_points_in_dilate(mu, 1)
    modulus = p**N
    if m == 1:
        ent = [[1 if i == j else 0 for j in range(len(points))] for i in range(len(points))]
        return BetaMatrix(tuple(points), ent, 1, p, N, mu.describe())
    entries = []
    for u in points:
        row = []
        for v in points:
            w = tuple(m * vv - uu for vv, uu in zip(v, u))
            row.append(coefficient_of_power(f, m - 1, w, modulus))
        entries.append(row)
    return BetaMatrix(tuple(points), entries, m, p, N, mu.describe())


def hw_matrix(f: LaurentPoly, mu: OpenSubset, p: int, N: int) -> BetaMatrix:
    """The Hasse-Witt matrix beta_p(mu)."""
    return beta_matrix(f, mu, p, p, N)


def _det_mod_p(M: BetaMatrix) -> int:
    """Determinant mod p; TPoly entries contribute their constant term.

    For one-parameter families "unit" is operationalised as: the constant
    t-coefficient of the determinant is a unit mod p.  This captures
    invertibility in Z_p[[t]]; families needing a cleared denominator are
    handled by the valuation-aware higher_hw_condition instead.
    """
    p = M.p
    ent = [
        [e[0] % p if isinstance(e, TPoly) else e % p for e in row]
        for row in M.entries
    ]
    return int_det(ent) % p


def hw_condition(f: LaurentPoly, mu: OpenSubset, p: int) -> bool:
    """Whether det(beta_p(mu)) is a unit mod p (p ordinary for (f, mu))."""
    M = hw_matrix(f, mu, p, 1)
    return _det_mod_p(M) != 0


def sigma_matrix(M, sigma: FrobeniusLift, modulus: int, t_trunc: int | None = None):
    out = []
    for row in M:
        new = []
        for e in row:
            v = sigma.apply_scalar(e, modulus)
            if t_trunc is not None and isinstance(v, TPoly):
                v = v.truncate(t_trunc)
            new.append(v)
        out.append(new)
    return out


def lambda_unit_root(
    f: LaurentPoly,
    mu: OpenSubset,
    p: int,
    sigma: FrobeniusLift,
    s: int,
    t_trunc: int | None = None,
) -> BetaMatrix:
    """Unit-root matrix Lambda(mu) mod p^s as beta_{p^s} sigma(beta_{p^{s-1}})^{-1}.

    For one-parameter families the inverse is a t-series, so a truncation
    order must be supplied and the result is exact mod (p^s, t^t_trunc).
    """
    hw = hw_matrix(f, mu, p, 1)
    det = _det_mod_p(hw)
    if det == 0:
        raise HWConditionError(det)
    modulus = p**s
    num = beta_matrix(f, mu, p**s, p, s)
    den = beta_matrix(f, mu, p ** (s - 1), p, s)
    if num.is_tpoly() or den.is_tpoly():
        if t_trunc is None:
            raise ValueError("t-family Lambda needs a truncation order t_trunc")
        den_entries = [
            [e if isinstance(e, TPoly) else TPoly([e]) for e in row]
            for row in den.entries
        ]
        num_entries = [
            [e if isinstance(e, TPoly) else TPoly([e]) for e in row]
            for row in num.entries
        ]
        twisted = sigma_matrix(den_entries, sigma, modulus, t_trunc)
        inv = tmat_inv_series(twisted, modulus, t_trunc)
        lam = tmat_mul(num_entries, inv, modulus, t_trunc)
    else:
        twisted = sigma_matrix(den.entries, sigma, modulus)
        inv = mat_inv_mod(twisted, modulus)
        lam = mat_mul(num.entries, inv, modulus)
    return BetaMatrix(num.index, lam, 0, p, s, mu.describe())


# -- higher levels ----------------------------------------------------


@dataclass
class HigherHW:
    k: int
    index: tuple
    entries: list
    p: int
    N: int | None  # None means exact integers / exact TPoly

    def size(self) -> int:
        return len(self.index)


def higher_F_polynomial(
    f: LaurentPoly, k: int, p: int, sigma: FrobeniusLift, modulus: int | None = None
) -> LaurentPoly:
    """F(x) = f^(p-k) * sum_{r<k} (f^sigma(x^p) - f^p)^r f^sigma(x^p)^(k-1-r)."""
    fp = power_mod(f, p, modulus)
    fxp = frobenius_twist(f, sigma, substitute_x_p=True, p=p, modulus=modulus)
    diff = fxp - fp
    if modulus is not None:
        diff = diff.reduce_mod(modulus)
    acc = LaurentPoly(f.n)
    diff_pow = LaurentPoly.constant(f.n, 1)
    fxp_pows = [LaurentPoly.constant(f.n, 1)]
    for _ in range(k - 1):
        nxt = fxp_pows[-1] * fxp
        if modulus is not None:
            nxt = nxt.reduce_mod(modulus)
        fxp_pows.append(nxt)
    for r in range(k):
        term = diff_pow * fxp_pows[k - 1 - r]
        if modulus is not None:
            term = term.reduce_mod(modulus)
        acc = acc + term
        if r < k - 1:
            diff_pow = diff_pow * diff
            if modulus is not None:
                diff_pow = diff_pow.reduce_mod(modulus)
    out = power_mod(f, p - k, modulus) * acc
    if modulus is not None:
        out = out.reduce_mod(modulus)
    return out


def higher_hw_matrix(
    f: LaurentPoly,
    mu: OpenSubset,
    k: int,
    p: int,
    sigma: FrobeniusLift,
    N: int | None,
) -> HigherHW:
    """Level-k Hasse-Witt matrix indexed by the lattice points of k*mu.

    With N = None the entries are exact (needed for determinant valuations);
    otherwise they are reduced mod p^N, which must satisfy N >= k to carry the
    congruence content of the level.
    """
    if not 1 <= k < p:
        raise ValueError("need 1 <= k < p")
    if N is not None and N < k:
        raise ValueError("precision N must be at least k")
    modulus = None if N is None else p**N
    F = higher_F_polynomial(f, k, p, sigma, modulus)
    points = lattice_points_in_dilate(mu, k)
    entries = []
    for u in points:
        row = []
        for v in points:
            w = tuple(p * vv - uu for vv, uu in zip(v, u))
            row.append(F.coefficient_at(w))
        entries.append(row)
    return HigherHW(k, tuple(points), entries, p, N)


def level_valuation_target(mu: OpenSubset, k: int) -> int:
    """L(k, mu) = sum_{l<=k} (l-1)(m_l - m_{l-1}) with m_l = #(l*mu) lattice points."""
    counts = [0]
    for level in range(1, k + 1):
        counts.append(len(lattice_points_in_dilate(mu, level)))
    return sum((level - 1) * (counts[level] - counts[level - 1]) for level in range(1, k + 1))


def _det_valuation_report(det, p: int, cap: int = 64) -> dict:
    """Valuation data for an exact determinant (int or TPoly)."""
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
    t_check: int | None = None,
) -> bool:
    """Cross-validate HW^(k) entries against the series route mod p^k:
    the (u, v) entry must match the coefficient of x^(p v - u) in the formal
    expansion of f^sigma(x^p)^k / f(x)^k.

    The polynomial route has t-degree at most k(p-1); the series route is an
    infinite expansion, so the comparison also asserts that the tail of the
    series coefficient vanishes mod p^k on the checked window.
    """
    from .cartier import expand_origin, expand_vertex, unit_vertex, vertex_budget

    if sigma is None:
        sigma = FrobeniusLift.identity()
    modulus = p**k
    M = higher_hw_matrix(f, mu, k, p, sigma, k)
    points = M.index
    numerator = frobenius_twist(f, sigma, substitute_x_p=True, p=p, modulus=modulus)
    numerator = power_mod(numerator, k, modulus)
    targets = sorted(
        {
            tuple(p * vv - uu for vv, uu in zip(v, u))
            for u in points
            for v in points
        }
    )
    if g is not None:
        T = t_check if t_check is not None else k * (p - 1) + p + 2
        E = expand_origin(numerator, g, k, T, modulus, targets=targets)
    else:
        b = unit_vertex(f, p)
        S = vertex_budget(f, b, k, numerator, targets)
        E = expand_vertex(numerator, f, k, b, S, modulus, targets=targets)
    for iu, u in enumerate(points):
        for iv, v in enumerate(points):
            w = tuple(p * vv - uu for vv, uu in zip(v, u))
            if not E.is_complete(w):
                continue
            lhs = M.entries[iu][iv]
            lhs = lhs if isinstance(lhs, TPoly) else TPoly([lhs])
            rhs = E.coefficient(w)
            rhs = rhs if isinstance(rhs, TPoly) else TPoly([rhs])
            if bool((lhs - rhs) % modulus):
                return False
    return True


def higher_hw_condition(
    f: LaurentPoly, mu: OpenSubset, k: int, p: int, sigma: FrobeniusLift | None = None
):
    """Check ord_p(det HW^(l)(mu)) = L(l, mu) with unit cofactor for all l <= k.

    Returns (ok, report) where report[l] holds both numbers per level.  For
    t-families ord_p is the Gauss valuation (minimum over t-coefficients) and
    the unit test applies to the lowest-degree coefficient achieving it, which
    operationalises invertibility after clearing the declared Hasse-Witt
    denominators.
    """
    if k < 1:
        raise ValueError("level k must be >= 1")
    if sigma is None:
        sigma = FrobeniusLift.identity()
    report = {}
    ok = True
    for level in range(1, k + 1):
        M = higher_hw_matrix(f, mu, level, p, sigma, None)
        if any(isinstance(e, TPoly) for row in M.entries for e in row):
            ent = [
                [e if isinstance(e, TPoly) else TPoly([e]) for e in row]
                for row in M.entries
            ]
            det = tpoly_det(ent)
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
