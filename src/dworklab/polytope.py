"""Newton polytopes and open subsets in the finite face topology.

A lattice polytope is stored by vertices plus facet inequalities a.u >= c
with primitive integer normals.  An *open subset* here is the polytope minus
a set of its facets: the interior, the whole polytope and the vertex stars,
whose lattice points index beta and Hasse-Witt matrices, all have this form.

The hull algorithm is deliberately brute force (every n-subset of the
support is tested as a facet candidate): exact integer arithmetic at desk
scale beats asymptotics here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd

from .linalg import independent_rows, int_det

MAX_DIMENSION = 6
MAX_HULL_POINTS = 64


class DegenerateSupportError(ValueError):
    """Support does not span the ambient space; the theory needs dim = n."""


def _rank(rows) -> int:
    return len(independent_rows(rows))


def _kernel_vector(rows, n):
    """A primitive integer vector orthogonal to all rows, or None if the
    orthogonal complement is not one-dimensional: the signed maximal minors
    of n - 1 independent rows, divided by their gcd."""
    picked = independent_rows(rows)
    if len(picked) != n - 1:
        return None
    basis = [rows[i] for i in picked]
    vec = [
        (-1) ** j * int_det([[r[c] for c in range(n) if c != j] for r in basis])
        for j in range(n)
    ]
    g = gcd(*vec)
    return tuple(x // g for x in vec)


def _dot(a, u):
    return sum(x * y for x, y in zip(a, u))


def _supporting_normal(rows, points, n):
    """The primitive normal of the n - 1 vectors `rows`, signed so that every
    vector of `points` is on its nonnegative side, or None."""
    normal = _kernel_vector(rows, n)
    if normal is None:
        return None
    vals = [_dot(normal, q) for q in points]
    if all(v >= 0 for v in vals):
        return normal
    if all(v <= 0 for v in vals):
        return tuple(-x for x in normal)
    return None


class LatticePolytope:
    """Convex hull of lattice points with an exact facet description."""

    def __init__(self, n, vertices, facets):
        self.n = n
        self.vertices = tuple(sorted(tuple(v) for v in vertices))
        self.facets = tuple(facets)  # (normal tuple, offset int), polytope = {a.u >= c}

    def __repr__(self):
        return f"LatticePolytope(n={self.n}, vertices={list(self.vertices)})"

    def __eq__(self, other):
        return (
            isinstance(other, LatticePolytope)
            and self.n == other.n
            and self.vertices == other.vertices
        )

    def __hash__(self):
        return hash((self.n, self.vertices))

    def contains(self, u, k: int = 1) -> bool:
        """Membership in the k-fold dilate."""
        return all(_dot(a, u) >= k * c for a, c in self.facets)

    def is_interior(self, u) -> bool:
        return all(_dot(a, u) > c for a, c in self.facets)

    def bounding_box(self, k: int = 1):
        lo = [min(k * v[i] for v in self.vertices) for i in range(self.n)]
        hi = [max(k * v[i] for v in self.vertices) for i in range(self.n)]
        return lo, hi

    def lattice_points(self, k: int = 1):
        """All lattice points of the k-fold dilate, lexicographically sorted."""
        lo, hi = self.bounding_box(k)
        ranges = [range(lo[i], hi[i] + 1) for i in range(self.n)]
        return [u for u in itertools.product(*ranges) if self.contains(u, k)]


def newton_polytope(points) -> LatticePolytope:
    """Convex hull with facet description; rejects non-full-dimensional input."""
    pts = sorted({tuple(p) for p in points})
    if not pts:
        raise ValueError("need at least one point")
    n = len(pts[0])
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the configured ceiling {MAX_DIMENSION}")
    if len(pts) > MAX_HULL_POINTS:
        raise ValueError("too many support points for the brute-force hull")
    base = pts[0]
    if _rank([[p[i] - base[i] for i in range(n)] for p in pts[1:]]) < n:
        raise DegenerateSupportError(
            "support is not full-dimensional; the Newton polytope must have interior"
        )
    facets = set()
    for j, b0 in enumerate(pts):
        diffs = [[p[i] - b0[i] for i in range(n)] for p in pts]
        for rows in itertools.combinations(diffs[j + 1:], n - 1):
            normal = _supporting_normal(rows, diffs, n)
            if normal is not None:
                facets.add((normal, _dot(normal, b0)))
    facet_list = sorted(facets)
    # vertices: points whose active facet normals span the whole space
    verts = []
    for p in pts:
        active = [a for a, c in facet_list if _dot(a, p) == c]
        if len(active) >= n and _rank(active) == n:
            verts.append(p)
    return LatticePolytope(n, verts, facet_list)


@dataclass(frozen=True)
class OpenSubset:
    """The polytope minus a set of its facets, open in the face topology."""

    polytope: LatticePolytope
    removed: tuple  # of facet indices

    def contains(self, u, k: int = 1) -> bool:
        """Membership of u in the k-fold dilate k*mu."""
        return self.polytope.contains(u, k) and self._off_removed(u, k)

    def lattice_points(self, k: int = 1):
        return [u for u in self.polytope.lattice_points(k) if self._off_removed(u, k)]

    def _off_removed(self, u, k: int) -> bool:
        """Whether u lies on none of the removed facets of k*P."""
        P = self.polytope
        return all(_dot(P.facets[i][0], u) != k * P.facets[i][1] for i in self.removed)


def whole_polytope(P: LatticePolytope) -> OpenSubset:
    return OpenSubset(P, ())


def interior(P: LatticePolytope) -> OpenSubset:
    """The open interior: remove every facet (hence every proper face)."""
    return OpenSubset(P, tuple(range(len(P.facets))))


def vertex_star(P: LatticePolytope, u) -> OpenSubset:
    """Remove every face that avoids u.

    Every maximal face avoiding u is a facet (if all facets through a face
    contain u, the face itself does), so it suffices to remove the facets
    whose equality fails at u.
    """
    u = tuple(u)
    if u not in P.vertices:
        raise ValueError(f"{u} is not a vertex")
    return OpenSubset(P, tuple(i for i, (a, c) in enumerate(P.facets) if _dot(a, u) != c))


def lattice_points_in_dilate(mu: OpenSubset, k: int):
    """Lattice points of k*mu in lexicographic order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return mu.lattice_points(k)


def is_reflexive(P: LatticePolytope) -> bool:
    """All facets at lattice distance one from the interior origin."""
    origin = (0,) * P.n
    if not P.is_interior(origin):
        raise ValueError("the origin is not an interior point")
    return all(c == -1 for _, c in P.facets)


def cone_facet_normals(generators, n):
    """Primitive inner normals of the facets of the cone spanned by the
    generators (assumed pointed and full-dimensional)."""
    gens = [tuple(g) for g in generators if any(g)]
    normals = {
        _supporting_normal(subset, gens, n)
        for subset in itertools.combinations(gens, n - 1)
    }
    return sorted(normals - {None})


def simplex_cone_volume_one(vertex_vectors, n) -> bool:
    """Whether the vertex vectors generate a saturated sublattice (all lattice
    points of their nonnegative span are integer combinations).

    The index of the generated lattice inside its saturation is the gcd of the
    maximal minors of the generator matrix, so volume one means that gcd is 1.
    """
    vecs = [tuple(v) for v in vertex_vectors]
    r = _rank([list(v) for v in vecs])
    if r != len(vecs):
        return False
    g = 0
    for cols in itertools.combinations(range(n), r):
        sub = [[v[c] for c in cols] for v in vecs]
        g = gcd(g, abs(int_det(sub)))
        if g == 1:
            return True
    return g == 1


def all_proper_faces_volume_one(P: LatticePolytope) -> bool:
    """Check that every proper face is a simplex of volume one (the shape
    hypothesis under which higher Hasse-Witt conditions hold generically).

    The facets decide this: every proper face lies in a facet, and any
    subset of a basis of Z^n spans a saturated sublattice.
    """
    for a, c in P.facets:
        verts = [v for v in P.vertices if _dot(a, v) == c]
        if len(verts) != P.n or not simplex_cone_volume_one(verts, P.n):
            return False
    return True

