import itertools
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dworklab.linalg import (
    InconsistentSystemError,
    RankDeficiencyError,
    identity_matrix,
    int_det,
    mat_inv_mod,
    mat_mul,
    solve_mod,
    solve_mod_multi,
)
from dworklab.polytope import _kernel_vector, _rank

PRIMES = st.sampled_from([3, 5, 7])


def leibniz_det(M):
    k = len(M)
    total = 0
    for perm in itertools.permutations(range(k)):
        pairs = itertools.combinations(range(k), 2)
        inversions = sum(1 for i, j in pairs if perm[i] > perm[j])
        total += (-1) ** inversions * prod(M[i][perm[i]] for i in range(k))
    return total


@st.composite
def modular_system(draw, extra_rows=0):
    """(p, p^N, A) with A a (k + extra_rows) x k matrix of residues mod p^N."""
    p = draw(PRIMES)
    modulus = p ** draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    entry = st.integers(0, modulus - 1)
    A = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k + extra_rows,
                      max_size=k + extra_rows))
    return p, modulus, A


def column(vec):
    return [[x] for x in vec]


class TestModularElimination:
    @settings(max_examples=60, deadline=None)
    @given(modular_system())
    def test_inverse(self, system):
        p, modulus, A = system
        assume(int_det(A) % p)
        assert mat_mul(A, mat_inv_mod(A, modulus), modulus) == identity_matrix(len(A))

    @settings(max_examples=60, deadline=None)
    @given(modular_system(), st.data())
    def test_solve_satisfies_system(self, system, data):
        p, modulus, A = system
        assume(int_det(A) % p)
        b = data.draw(st.lists(st.integers(0, modulus - 1), min_size=len(A), max_size=len(A)))
        x = solve_mod(A, b, modulus)
        assert mat_mul(A, column(x), modulus) == column(b)

    @settings(max_examples=40, deadline=None)
    @given(modular_system(extra_rows=2), st.data())
    def test_tall_consistent_system_recovers_solution(self, system, data):
        p, modulus, A = system
        # a unit k x k minor in the top rows pins the solution down uniquely
        assume(int_det(A[: len(A[0])]) % p)
        x0 = data.draw(st.lists(st.integers(0, modulus - 1), min_size=len(A[0]),
                                max_size=len(A[0])))
        b = [row[0] for row in mat_mul(A, column(x0), modulus)]
        assert solve_mod(A, b, modulus) == x0

    @settings(max_examples=40, deadline=None)
    @given(modular_system(extra_rows=1), st.data())
    def test_multi_agrees_with_single(self, system, data):
        p, modulus, A = system
        k = len(A[0])
        assume(int_det(A[:k]) % p)
        rhs = st.lists(st.integers(0, modulus - 1), min_size=k, max_size=k)
        xs = data.draw(st.lists(rhs, min_size=1, max_size=3))
        bs = [[row[0] for row in mat_mul(A, column(x), modulus)] for x in xs]
        assert solve_mod_multi(A, bs, modulus) == [solve_mod(A, b, modulus) for b in bs]

    @settings(max_examples=40, deadline=None)
    @given(modular_system(), st.data())
    def test_singular_mod_p_raises(self, system, data):
        p, modulus, A = system
        k = len(A)
        # last row = c * row 0 + p * (anything): det is divisible by p
        c = data.draw(st.integers(0, modulus - 1))
        noise = data.draw(st.lists(st.integers(0, modulus - 1), min_size=k, max_size=k))
        base = A[0] if k > 1 else [0]
        A = A[:-1] + [[(c * x + p * y) % modulus for x, y in zip(base, noise)]]
        assert int_det(A) % p == 0
        with pytest.raises(RankDeficiencyError):
            mat_inv_mod(A, modulus)
        with pytest.raises(RankDeficiencyError):
            solve_mod(A, [1] * k, modulus)

    @settings(max_examples=40, deadline=None)
    @given(modular_system(), st.data())
    def test_inconsistent_overdetermined_raises(self, system, data):
        p, modulus, A = system
        assume(int_det(A) % p)
        b = data.draw(st.lists(st.integers(0, modulus - 1), min_size=len(A), max_size=len(A)))
        shift = data.draw(st.integers(1, modulus - 1))
        # row 0 again, with a right-hand side that differs from the first copy
        with pytest.raises(InconsistentSystemError):
            solve_mod(A + [A[0]], b + [(b[0] + shift) % modulus], modulus)
        with pytest.raises(InconsistentSystemError):
            solve_mod_multi(A + [A[0]], [b + [(b[0] + shift) % modulus]], modulus)


@st.composite
def integer_rows(draw):
    """n - 1 random rows of length n, then up to two random or dependent rows,
    so that both rank n - 1 and other ranks are common."""
    n = draw(st.integers(1, 4))
    entry = st.integers(-3, 3)
    vector = st.lists(entry, min_size=n, max_size=n)
    rows = draw(st.lists(vector, min_size=max(n - 1, 1), max_size=max(n - 1, 1)))
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            a, b = draw(entry), draw(entry)
            rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
        else:
            rows.append(draw(vector))
    return rows


class TestIntegerKernels:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 4).flatmap(
        lambda k: st.lists(st.lists(st.integers(-5, 5), min_size=k, max_size=k),
                           min_size=k, max_size=k)))
    def test_int_det_matches_leibniz(self, M):
        assert int_det(M) == leibniz_det(M)

    def test_int_det_empty(self):
        assert int_det([]) == 1

    @settings(max_examples=80, deadline=None)
    @given(integer_rows())
    def test_echelon_rank_and_kernel(self, rows):
        n = len(rows[0])
        brute_rank = max(
            (r for r in range(1, min(len(rows), n) + 1)
             for ri in itertools.combinations(range(len(rows)), r)
             for ci in itertools.combinations(range(n), r)
             if leibniz_det([[rows[i][j] for j in ci] for i in ri])),
            default=0,
        )
        assert _rank(rows) == brute_rank
        vec = _kernel_vector(rows, n)
        if brute_rank != n - 1:
            assert vec is None
            return
        # signed maximal minors of n - 1 independent rows span the kernel
        basis = next(
            [rows[i] for i in ri]
            for ri in itertools.combinations(range(len(rows)), n - 1)
            if _rank([rows[i] for i in ri]) == n - 1
        )
        minors = [
            (-1) ** j * leibniz_det([[r[c] for c in range(n) if c != j] for r in basis])
            for j in range(n)
        ]
        g = 0
        for x in minors:
            g = gcd(g, x)
        expected = tuple(x // g for x in minors)
        assert vec in (expected, tuple(-x for x in expected))
        assert all(sum(a * b for a, b in zip(r, vec)) == 0 for r in rows)
