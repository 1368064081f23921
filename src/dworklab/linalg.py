"""Small exact linear-algebra kernels shared by the matrix-producing modules.

Matrices are plain lists of lists.  Entries are ints (residues mod p^N) or
TPoly values.  mat_inv_mod, solve_mod, solve_mod_multi and tmat_inv_series
are wrappers over one Gauss-Jordan elimination over an arith.Ring: Z/p^N, or
the series ring (Z/p^N)[t]/t^T for tmat_inv_series.  It insists on unit
pivots, because over Z/p^N a non-unit pivot silently destroys precision.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import NonUnitError, Ring, TPoly


class RankDeficiencyError(ArithmeticError):
    """The linear system does not pin down the unknowns with unit pivots."""


class InconsistentSystemError(ArithmeticError):
    """The stacked congruence system has no solution at the stated modulus."""


def identity_matrix(k, one=1, zero=0):
    return [[one if i == j else zero for j in range(k)] for i in range(k)]


def mat_mul(A, B, modulus=None):
    """Matrix product, reduced mod `modulus` when one is given.  Entries may be
    ints or TPolys; a caller in a series ring truncates the product itself."""
    reduce = Ring(modulus).reduce
    cols = list(zip(*B))
    return [
        [reduce(sum((a * b for a, b in zip(row, col) if a and b), 0)) for col in cols]
        for row in A
    ]


def mat_trace(A, modulus=None):
    return Ring(modulus).reduce(sum(A[i][i] for i in range(len(A))))


def mat_pow(A, k, modulus=None):
    result = identity_matrix(len(A))
    base = A
    while k:
        if k & 1:
            result = mat_mul(result, base, modulus)
        k >>= 1
        if k:
            base = mat_mul(base, base, modulus)
    return result


def mat_inv_mod(A, modulus: int):
    """Inverse over Z/modulus: the solve with identity right-hand sides."""
    return _inverse(A, Ring(modulus))


def tmat_inv_series(A, modulus: int, t_trunc: int | None):
    """Inverse of a TPoly matrix over (Z/modulus)[t]/(t^t_trunc), by the same
    elimination: a pivot needs a unit constant term.  With t_trunc None the
    entries are ints and the ring is Z/modulus."""
    try:
        return _inverse(A, Ring(modulus, t_trunc))
    except RankDeficiencyError:
        raise NonUnitError("no pivot with unit constant term") from None


def solve_mod(A, b, modulus: int):
    """Solve A x = b over Z/modulus with unit pivots.

    A has shape (rows, cols) with rows >= cols allowed; b is a list of rows.
    Raises RankDeficiencyError if fewer than cols unit pivots can be found and
    InconsistentSystemError if eliminated rows leave a nonzero residual.
    """
    return _eliminate(A, [b], Ring(modulus))[0]


def solve_mod_multi(A, bs, modulus: int):
    """solve_mod with several right-hand sides sharing one elimination."""
    return _eliminate(A, bs, Ring(modulus))


def _inverse(A, ring: Ring):
    columns = _eliminate(A, identity_matrix(len(A)), ring)
    return [list(row) for row in zip(*columns)]


def _eliminate(A, bs, ring: Ring):
    """Gauss-Jordan elimination of [A | bs] over `ring` with unit pivots.

    Returns one solution vector per right-hand side in bs, reduced in `ring`.
    """
    rows = len(A)
    cols = len(A[0]) if A else 0
    nb = len(bs)
    reduce = ring.reduce
    work = [[reduce(x) for x in row] + [reduce(b[i]) for b in bs] for i, row in enumerate(A)]
    for col in range(cols):
        piv = next((i for i in range(col, rows) if ring.is_unit(work[i][col])), None)
        if piv is None:
            raise RankDeficiencyError(
                f"no unit pivot in column {col}; add probes or raise truncation"
            )
        work[col], work[piv] = work[piv], work[col]
        inv = ring.inv(work[col][col])
        work[col] = [reduce(x * inv) for x in work[col]]
        for i in range(rows):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [reduce(x - f * y) for x, y in zip(work[i], work[col])]
    for i in range(cols, rows):
        for k in range(nb):
            if work[i][cols + k]:
                raise InconsistentSystemError(
                    f"residual on eliminated row for rhs {k} mod {ring.modulus}"
                )
    return [[work[i][cols + k] for i in range(cols)] for k in range(nb)]


def int_det(mat) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    m = [row[:] for row in mat]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for j in range(i + 1, n):
                if m[j][i] != 0:
                    m[i], m[j] = m[j], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                m[j][k] = (m[j][k] * m[i][i] - m[j][i] * m[i][k]) // prev
        prev = m[i][i]
    return sign * m[-1][-1]


def tpoly_det(A) -> TPoly:
    """Exact determinant of a matrix of integer TPoly entries.

    Evaluates at enough integer points and Lagrange-interpolates; this avoids
    the coefficient blow-up of fraction-free elimination over Z[t].
    """
    k = len(A)
    if k == 0:
        return TPoly([1])
    deg_bound = sum(max(e.degree() for e in row) for row in A)
    points = list(range(deg_bound + 1))
    values = []
    for x in points:
        values.append(int_det([[e.evaluate(x) for e in row] for row in A]))
    coeffs = _lagrange_interpolate(points, values)
    return TPoly(coeffs)


def _lagrange_interpolate(xs, ys):
    """Interpolating polynomial coefficients; asserts the result is integral."""
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        # numerator polynomial prod_{j != i} (t - x_j), built incrementally
        num = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            num = _poly_mul_linear(num, -xs[j])
            denom *= xs[i] - xs[j]
        scale = Fraction(ys[i]) / denom
        for d in range(len(num)):
            coeffs[d] += num[d] * scale
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise ArithmeticError("interpolation produced a non-integer coefficient")
        out.append(int(c))
    return out


def _poly_mul_linear(poly, const):
    """poly * (t + const) over Fractions."""
    out = [Fraction(0)] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i] += c * const
        out[i + 1] += c
    return out
