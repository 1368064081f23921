"""Newton polytopes, their faces, and open subsets in the finite face topology.

A lattice polytope is stored by vertices plus facet inequalities a.u >= c
with primitive integer normals.  An *open subset* is the polytope minus a
union of closed faces; complements of faces are exactly the sets whose
lattice points index beta and Hasse-Witt matrices.

The hull algorithm is deliberately brute force (every n-subset of the
support is tested as a facet candidate): exact integer arithmetic at desk
scale beats asymptotics here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .linalg import int_det

MAX_DIMENSION = 6
MAX_HULL_POINTS = 64


class DegenerateSupportError(ValueError):
    """Support does not span the ambient space; the theory needs dim = n."""


def _rref(rows):
    """Reduced row echelon form over Q: (reduced rows, pivot columns)."""
    mat = [[Fraction(x) for x in r] for r in rows]
    cols = len(mat[0]) if mat else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == len(mat):
            break
        piv = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    return mat, pivots


def _rank(rows) -> int:
    return len(_rref(rows)[1])


def _kernel_vector(rows, n):
    """A primitive integer vector orthogonal to all rows, or None if the
    orthogonal complement is not one-dimensional."""
    mat, pivots = _rref(rows)
    if len(pivots) != n - 1:
        return None
    free = [c for c in range(n) if c not in pivots][0]
    vec = [Fraction(0)] * n
    vec[free] = Fraction(1)
    for row_idx, c in enumerate(pivots):
        vec[c] = -mat[row_idx][free]
    denom = 1
    for x in vec:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints)


def _dot(a, u):
    return sum(x * y for x, y in zip(a, u))


@dataclass(frozen=True)
class Face:
    """A closed face, recorded by its active facet set and its vertices."""

    active: frozenset
    vertices: frozenset

    def dim(self) -> int:
        verts = sorted(self.vertices)
        if len(verts) == 1:
            return 0
        base = verts[0]
        return _rank([[v[i] - base[i] for i in range(len(base))] for v in verts[1:]])


class LatticePolytope:
    """Convex hull of lattice points with an exact facet description."""

    def __init__(self, n, vertices, facets):
        self.n = n
        self.vertices = tuple(sorted(tuple(v) for v in vertices))
        self.facets = tuple(facets)  # (normal tuple, offset int), polytope = {a.u >= c}
        self._faces = None

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

    def active_facets(self, u, k: int = 1):
        return frozenset(
            i for i, (a, c) in enumerate(self.facets) if _dot(a, u) == k * c
        )

    def is_interior(self, u, k: int = 1) -> bool:
        return all(_dot(a, u) > k * c for a, c in self.facets)

    def bounding_box(self, k: int = 1):
        lo = [min(k * v[i] for v in self.vertices) for i in range(self.n)]
        hi = [max(k * v[i] for v in self.vertices) for i in range(self.n)]
        return lo, hi

    def lattice_points(self, k: int = 1):
        """All lattice points of the k-fold dilate, lexicographically sorted."""
        lo, hi = self.bounding_box(k)
        ranges = [range(lo[i], hi[i] + 1) for i in range(self.n)]
        return [u for u in itertools.product(*ranges) if self.contains(u, k)]

    def faces(self):
        """All proper nonempty faces, computed by closing facet vertex sets
        under intersection."""
        if self._faces is not None:
            return self._faces
        facet_verts = []
        for i, (a, c) in enumerate(self.facets):
            fv = frozenset(v for v in self.vertices if _dot(a, v) == c)
            facet_verts.append(fv)
        seen = {}
        frontier = set(facet_verts)
        while frontier:
            new = set()
            for fv in frontier:
                if not fv or fv in seen:
                    continue
                active = frozenset(
                    i for i, (a, c) in enumerate(self.facets)
                    if all(_dot(a, v) == c for v in fv)
                )
                seen[fv] = Face(active=active, vertices=fv)
                for other in facet_verts:
                    inter = fv & other
                    if inter and inter not in seen:
                        new.add(inter)
            frontier = new
        self._faces = tuple(
            sorted(seen.values(), key=lambda f: (len(f.vertices), sorted(f.vertices)))
        )
        return self._faces

    def facet_faces(self):
        out = []
        for i, (a, c) in enumerate(self.facets):
            fv = frozenset(v for v in self.vertices if _dot(a, v) == c)
            active = frozenset(
                j for j, (b, d) in enumerate(self.facets)
                if all(_dot(b, v) == d for v in fv)
            )
            out.append(Face(active=active, vertices=fv))
        return out

    def to_json(self) -> dict:
        return {
            "vertices": [list(v) for v in self.vertices],
            "facets": [{"a": list(a), "c": c} for a, c in self.facets],
        }


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
    if n == 1:
        lo = min(p[0] for p in pts)
        hi = max(p[0] for p in pts)
        return LatticePolytope(1, [(lo,), (hi,)], [((1,), lo), ((-1,), -hi)])

    facets = {}
    for subset in itertools.combinations(pts, n):
        b0 = subset[0]
        rows = [[q[i] - b0[i] for i in range(n)] for q in subset[1:]]
        normal = _kernel_vector(rows, n)
        if normal is None:
            continue
        c = _dot(normal, b0)
        vals = [_dot(normal, p) - c for p in pts]
        if all(v >= 0 for v in vals):
            facets[(normal, c)] = True
        elif all(v <= 0 for v in vals):
            neg = tuple(-x for x in normal)
            facets[(neg, -c)] = True
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
    """polytope minus a union of closed faces (complement open in the face
    topology)."""

    polytope: LatticePolytope
    removed: tuple  # of Face

    def contains(self, u, k: int = 1) -> bool:
        """Membership of u in the k-fold dilate k*mu."""
        P = self.polytope
        if not P.contains(u, k):
            return False
        for face in self.removed:
            if all(
                _dot(P.facets[i][0], u) == k * P.facets[i][1] for i in face.active
            ):
                return False
        return True

    def lattice_points(self, k: int = 1):
        return [u for u in self.polytope.lattice_points(k) if self.contains(u, k)]

    def describe(self) -> str:
        if not self.removed:
            return "full"
        if len(self.removed) == len(self.polytope.facet_faces()):
            all_facets = {f.active for f in self.polytope.facet_faces()}
            if {f.active for f in self.removed} == all_facets:
                return "interior"
        return f"minus {len(self.removed)} faces"


def whole_polytope(P: LatticePolytope) -> OpenSubset:
    return OpenSubset(P, ())


def interior(P: LatticePolytope) -> OpenSubset:
    """The open interior: remove every facet (hence every proper face)."""
    return OpenSubset(P, tuple(P.facet_faces()))


def vertex_star(P: LatticePolytope, u) -> OpenSubset:
    """Remove the union of all faces that avoid u.

    Every maximal face avoiding u is a facet (if all facets through a face
    contain u, the face itself does), so it suffices to remove the facets
    whose equality fails at u.
    """
    u = tuple(u)
    if u not in P.vertices:
        raise ValueError(f"{u} is not a vertex")
    removed = [f for f in P.facet_faces() if u not in f.vertices]
    return OpenSubset(P, tuple(removed))


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
    if n == 1:
        s = 1 if gens[0][0] > 0 else -1
        if any((g[0] > 0) != (s > 0) for g in gens):
            raise ValueError("cone is not pointed")
        return [(s,)]
    normals = {}
    for subset in itertools.combinations(gens, n - 1):
        normal = _kernel_vector([list(g) for g in subset], n)
        if normal is None:
            continue
        vals = [_dot(normal, g) for g in gens]
        if all(v >= 0 for v in vals):
            normals[normal] = True
        elif all(v <= 0 for v in vals):
            normals[tuple(-x for x in normal)] = True
    return sorted(normals)


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
    hypothesis under which higher Hasse-Witt conditions hold generically)."""
    for face in P.faces():
        verts = sorted(face.vertices)
        if len(verts) != face.dim() + 1:
            return False
        if not simplex_cone_volume_one(verts, P.n):
            return False
    return True

