"""Small exact linear-algebra kernels shared by the matrix-producing modules.

Matrices are plain lists of lists.  Entries are ints (residues mod p^N) or
TPoly values; the solvers that need division insist on unit pivots, because
over Z/p^N a non-unit pivot silently destroys precision.  The integer
solvers (mat_inv_mod, solve_mod, solve_mod_multi) share one elimination over
Z/p^N; the inverse over (Z/p^N)[t]/(t^T) in tmat_inv_series is separate.
"""

from __future__ import annotations

from fractions import Fraction

from .arith import NonUnitError, TPoly, inv_mod


class RankDeficiencyError(ArithmeticError):
    """The linear system does not pin down the unknowns with unit pivots."""


class InconsistentSystemError(ArithmeticError):
    """The stacked congruence system has no solution at the stated modulus."""


def identity_matrix(k, one=1, zero=0):
    return [[one if i == j else zero for j in range(k)] for i in range(k)]


def mat_mul(A, B, modulus=None):
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = 0
            for t in range(inner):
                a = A[i][t]
                b = B[t][j]
                if a == 0 or b == 0:
                    continue
                acc = acc + a * b
            if modulus is not None:
                acc = acc % modulus
            row.append(acc)
        out.append(row)
    return out


def mat_trace(A, modulus=None):
    acc = sum(A[i][i] for i in range(len(A)))
    return acc % modulus if modulus is not None else acc


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
    k = len(A)
    columns = _eliminate(A, identity_matrix(k), modulus)
    return [list(row) for row in zip(*columns)]


def _is_unit(x: int, modulus: int) -> bool:
    # modulus is p^N here so unit means not divisible by p; gcd check is
    # equally correct and avoids threading p through.
    from math import gcd

    return gcd(x % modulus, modulus) == 1


def solve_mod(A, b, modulus: int):
    """Solve A x = b over Z/modulus with unit pivots.

    A has shape (rows, cols) with rows >= cols allowed; b is a list of rows.
    Raises RankDeficiencyError if fewer than cols unit pivots can be found and
    InconsistentSystemError if eliminated rows leave a nonzero residual.
    """
    return _eliminate(A, [b], modulus)[0]


def solve_mod_multi(A, bs, modulus: int):
    """solve_mod with several right-hand sides sharing one elimination."""
    return _eliminate(A, bs, modulus)


def _eliminate(A, bs, modulus: int):
    """Gauss-Jordan elimination of [A | bs] over Z/modulus with unit pivots.

    Returns one solution vector per right-hand side in bs.
    """
    rows = len(A)
    cols = len(A[0]) if A else 0
    nb = len(bs)
    work = [
        [A[i][j] % modulus for j in range(cols)] + [bs[k][i] % modulus for k in range(nb)]
        for i in range(rows)
    ]
    for col in range(cols):
        piv = None
        for i in range(col, rows):
            if _is_unit(work[i][col], modulus):
                piv = i
                break
        if piv is None:
            raise RankDeficiencyError(
                f"no unit pivot in column {col}; add probes or raise truncation"
            )
        work[col], work[piv] = work[piv], work[col]
        inv = inv_mod(work[col][col], modulus)
        work[col] = [x * inv % modulus for x in work[col]]
        for i in range(rows):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [(x - f * y) % modulus for x, y in zip(work[i], work[col])]
    for i in range(cols, rows):
        for k in range(nb):
            if work[i][cols + k] % modulus != 0:
                raise InconsistentSystemError(
                    f"residual on eliminated row for rhs {k} mod {modulus}"
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
    deg_bound = 0
    for i in range(k):
        deg_bound += max(
            (e.degree() if isinstance(e, TPoly) else 0)
            for e in A[i]
        )
    points = list(range(deg_bound + 1))
    values = []
    for x in points:
        B = [[e.evaluate(x) if isinstance(e, TPoly) else e for e in row] for row in A]
        values.append(int_det(B))
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


def tmat_mul(A, B, modulus: int, t_trunc: int | None = None):
    """Product of TPoly matrices with reduction mod (modulus, t^t_trunc)."""
    rows, inner, cols = len(A), len(B), len(B[0]) if B else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = TPoly()
            for t in range(inner):
                a, b = A[i][t], B[t][j]
                if not a or not b:
                    continue
                acc = acc + a * b
            acc = acc % modulus
            if t_trunc is not None:
                acc = acc.truncate(t_trunc)
            row.append(acc)
        out.append(row)
    return out


def tmat_inv_series(A, modulus: int, t_trunc: int):
    """Inverse of a TPoly matrix over (Z/modulus)[t]/(t^t_trunc).

    Pivots must have unit constant term; this is the series-ring analogue of
    the unit-pivot rule.
    """
    k = len(A)
    one = TPoly([1])
    zero = TPoly()
    work = [
        [A[i][j] % modulus for j in range(k)]
        + [one if j == i else zero for j in range(k)]
        for i in range(k)
    ]
    for col in range(k):
        piv = None
        for i in range(col, k):
            if _is_unit(work[i][col][0], modulus):
                piv = i
                break
        if piv is None:
            raise NonUnitError("no pivot with unit constant term")
        work[col], work[piv] = work[piv], work[col]
        inv = work[col][col].inverse_series(t_trunc, modulus)
        work[col] = [
            (x * inv % modulus).truncate(t_trunc) for x in work[col]
        ]
        for i in range(k):
            if i != col and work[i][col]:
                f = work[i][col]
                work[i] = [
                    ((x - f * y) % modulus).truncate(t_trunc)
                    for x, y in zip(work[i], work[col])
                ]
    return [row[k:] for row in work]
