"""Small exact linear-algebra kernels shared by the matrix-producing modules.

Matrices are plain lists of lists.  Entries are ints (residues mod p^N) or
TPoly values.  mat_inv_mod, solve_mod, solve_mod_multi and tmat_inv_series
are wrappers over one Gauss-Jordan elimination over an arith.Ring: Z/p^N, or
for tmat_inv_series the series ring (Z/p^N)[t]/t^T, or Q[[t]]/t^T when its
modulus is None.  It insists on unit pivots, because over Z/p^N a non-unit
pivot silently destroys precision.  tpoly_det is exact over Z[t]: it divides
the least t-powers out of rows and columns, then interpolates int_det values.
"""

from __future__ import annotations

from .arith import NonUnitError, Ring, TPoly


class RankDeficiencyError(ArithmeticError):
    """The linear system does not pin down the unknowns with unit pivots."""


class InconsistentSystemError(ArithmeticError):
    """The stacked congruence system has no solution at the stated modulus."""


def identity_matrix(k):
    return [[int(i == j) for j in range(k)] for i in range(k)]


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


def tmat_inv_series(A, modulus: int | None, t_trunc: int | None):
    """Inverse of a TPoly matrix over (Z/modulus)[t]/(t^t_trunc), by the same
    elimination: a pivot needs a unit constant term.  With modulus None the
    ring is Q[[t]]/(t^t_trunc) and a pivot's constant term must be +-1.  With
    t_trunc None the entries are ints and the ring is Z/modulus."""
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
            raise RankDeficiencyError(f"no unit pivot in column {col}")
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


def independent_rows(rows) -> list:
    """Indices of the integer rows that are independent of the rows before
    them, by fraction-free forward elimination; there are rank-many."""
    echelon, picked = [], []
    for i, v in enumerate(rows):
        for j, b in echelon:
            c = v[j]
            if c:
                v = [x * b[j] - c * y for x, y in zip(v, b)]
        j = next((j for j, x in enumerate(v) if x), None)
        if j is not None:
            echelon.append((j, v))
            picked.append(i)
    return picked


def tpoly_det(A) -> TPoly:
    """Exact determinant of a matrix of integer TPoly entries.

    Divides t^r_i out of each row i, r_i its least t-degree, and then t^c_j
    out of each column j, so det A = t^(sum r + sum c) det B exactly.  det B
    is evaluated at the integer points 0..d, d the smaller of the sums of B's
    row-max and column-max degrees, and interpolated over Z; this avoids the
    coefficient blow-up of fraction-free elimination over Z[t].
    """
    shift = 0
    for _ in range(2):  # rows, then (after a transpose) columns
        vals = [_t_valuation(row) for row in A]
        if None in vals:
            return TPoly()
        shift += sum(vals)
        A = list(zip(*[[TPoly(e.coeffs[v:]) for e in row] for row, v in zip(A, vals)]))
    deg_bound = min(sum(max(e.degree() for e in line) for line in M) for M in (A, zip(*A)))
    values = [int_det([[e.evaluate(x) for e in row] for row in A]) for x in range(deg_bound + 1)]
    return TPoly([0] * shift + _interpolate(values))


def _t_valuation(entries):
    """Least t-degree of a nonzero coefficient of the TPoly entries; None if all are zero."""
    return min((next(d for d, c in enumerate(e.coeffs) if c) for e in entries if e), default=None)


def _interpolate(values):
    """Integer coefficients of the polynomial P of degree <= d with
    P(x) = values[x] at x = 0, 1, ..., d, where d = len(values) - 1.

    Newton's forward differences give d! P(t) = sum_k D^k P(0) (d!/k!)
    t(t-1)...(t-k+1), which Horner expands over Z; one exact division by d!
    remains.  Raises ArithmeticError when P has a non-integer coefficient.
    """
    diffs, row = [], list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    coeffs, scale = [], 1  # scale = d!/k!
    for k in reversed(range(len(diffs))):
        coeffs = [x - k * y for x, y in zip([0] + coeffs, coeffs + [0])]  # times (t - k)
        coeffs[0] += diffs[k] * scale
        scale *= k or 1
    if any(c % scale for c in coeffs):
        raise ArithmeticError("interpolation produced a non-integer coefficient")
    return [c // scale for c in coeffs]
