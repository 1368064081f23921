import random
from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dworklab.polytope import (
    DegenerateSupportError,
    _rank,
    all_proper_faces_volume_one,
    cone_facet_normals,
    interior,
    is_reflexive,
    lattice_points_in_dilate,
    newton_polytope,
    simplex_cone_volume_one,
    vertex_star,
    whole_polytope,
)

SIMPLEX = [(1, 0), (0, 1), (-1, -1)]


class TestHull:
    def test_standard_simplex(self):
        P = newton_polytope(SIMPLEX)
        assert set(P.vertices) == set(SIMPLEX)
        assert len(P.facets) == 3

    def test_unit_triangle(self):
        P = newton_polytope([(0, 0), (1, 0), (0, 1)])
        assert len(P.vertices) == 3

    def test_segment(self):
        P = newton_polytope([(0,), (1,)])
        assert P.vertices == ((0,), (1,))
        # the general hull: facets in sorted order, as in every dimension
        assert P.facets == (((-1,), -1), ((1,), 0))

    def test_interior_point_not_vertex(self):
        P = newton_polytope(SIMPLEX + [(0, 0)])
        assert set(P.vertices) == set(SIMPLEX)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSupportError):
            newton_polytope([(0, 0), (1, 1), (2, 2)])

    def test_facet_normals_primitive(self):
        import math

        P = newton_polytope([(2, 0), (0, 2), (-2, -2)])
        for a, _ in P.facets:
            assert math.gcd(*[abs(x) for x in a]) == 1


class TestLatticePoints:
    def test_interior_of_simplex(self):
        P = newton_polytope(SIMPLEX)
        assert lattice_points_in_dilate(interior(P), 1) == [(0, 0)]

    def test_whole_simplex(self):
        P = newton_polytope(SIMPLEX)
        assert lattice_points_in_dilate(whole_polytope(P), 1) == [
            (-1, -1),
            (0, 0),
            (0, 1),
            (1, 0),
        ]

    def test_double_interior(self):
        P = newton_polytope(SIMPLEX)
        pts = lattice_points_in_dilate(interior(P), 2)
        assert len(pts) == 4
        total = lattice_points_in_dilate(whole_polytope(P), 2)
        assert len(total) == 10  # Ehrhart: 6k^2/... checked by Pick below

    @given(st.integers(1, 6))
    def test_pick_for_simplex(self, k):
        # area 3/2, boundary 3 per unit dilate
        P = newton_polytope(SIMPLEX)
        count = len(lattice_points_in_dilate(whole_polytope(P), k))
        assert count == (3 * k * k + 3 * k + 2) // 2

    @given(st.integers(1, 5))
    def test_interior_duality(self, k):
        P = newton_polytope(SIMPLEX)
        strict = [
            u
            for u in P.lattice_points(k)
            if all(sum(a * x for a, x in zip(f[0], u)) > k * f[1] for f in P.facets)
        ]
        assert strict == lattice_points_in_dilate(interior(P), k)

    def test_reflexive_layering(self):
        # every nonzero lattice point sits on the boundary of exactly one dilate
        P = newton_polytope(SIMPLEX)
        for k in range(1, 5):
            for u in P.lattice_points(k):
                if u == (0, 0):
                    continue
                layers = [
                    j
                    for j in range(1, k + 1)
                    if P.contains(u, j)
                    and any(sum(map(mul, a, u)) == j * c for a, c in P.facets)
                ]
                assert len(layers) == 1


class TestReflexive:
    def test_simplex(self):
        assert is_reflexive(newton_polytope(SIMPLEX))

    def test_hyperoctahedron(self):
        assert is_reflexive(newton_polytope([(1, 0), (0, 1), (-1, 0), (0, -1)]))

    def test_error_when_origin_not_interior(self):
        P = newton_polytope([(0,), (2,)])
        with pytest.raises(ValueError):
            is_reflexive(P)
        assert is_reflexive(newton_polytope([(-1,), (1,)]))

    def test_non_reflexive(self):
        assert not is_reflexive(newton_polytope([(2, 0), (0, 2), (-2, -2)]))


class TestVertexStar:
    def test_unit_triangle_origin(self):
        P = newton_polytope([(0, 0), (1, 0), (0, 1)])
        mu = vertex_star(P, (0, 0))
        assert lattice_points_in_dilate(mu, 1) == [(0, 0)]

    def test_unit_square_far_corner(self):
        P = newton_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
        mu = vertex_star(P, (1, 1))
        assert lattice_points_in_dilate(mu, 1) == [(1, 1)]

    def test_segment(self):
        P = newton_polytope([(0,), (1,)])
        mu = vertex_star(P, (0,))
        assert lattice_points_in_dilate(mu, 1) == [(0,)]

    def test_not_a_vertex(self):
        P = newton_polytope(SIMPLEX)
        with pytest.raises(ValueError):
            vertex_star(P, (0, 0))


def _dot(a, u):
    return sum(map(mul, a, u))


def _facet_vertex_sets(P):
    return [frozenset(v for v in P.vertices if _dot(a, v) == c) for a, c in P.facets]


def _faces_volume_one_oracle(P):
    """Every proper face, found by closing the facet vertex sets under
    nonempty intersection, is a simplex of volume one."""
    facets = _facet_vertex_sets(P)
    faces, frontier = set(), set(facets)
    while frontier:
        faces |= frontier
        frontier = {f & g for f in frontier for g in facets if f & g} - faces
    for face in faces:
        verts = sorted(face)
        dim = _rank([[x - y for x, y in zip(v, verts[0])] for v in verts[1:]])
        if len(verts) != dim + 1 or not simplex_cone_volume_one(verts, P.n):
            return False
    return True


class TestFaces:
    def test_volume_one_matches_face_closure(self):
        # the facets decide the check that the whole face lattice states
        rng = random.Random(0)
        drawn = true_cases = 0
        while drawn < 1000:
            n = rng.randint(1, 3)
            k = rng.randint(n + 1, 8)
            support = {tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(k)}
            try:
                P = newton_polytope(support)
            except DegenerateSupportError:
                continue
            drawn += 1
            expected = _faces_volume_one_oracle(P)
            assert all_proper_faces_volume_one(P) == expected, support
            true_cases += expected
        assert true_cases > 0

    @pytest.mark.parametrize("support", [
        SIMPLEX,
        [(0, 0), (1, 0), (0, 1), (1, 1)],
        [(0,), (2,)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
    ])
    def test_vertex_star_is_off_the_facets_missing_the_vertex(self, support):
        P = newton_polytope(support)
        facets = list(zip(P.facets, _facet_vertex_sets(P)))
        for v in P.vertices:
            mu = vertex_star(P, v)
            for k in range(1, 4):
                for u in P.lattice_points(k):
                    off = all(_dot(a, u) != k * c for (a, c), verts in facets if v not in verts)
                    assert mu.contains(u, k) == off

    def test_volume_one_checks(self):
        assert simplex_cone_volume_one([(1, 0), (0, 1)], 2)
        assert not simplex_cone_volume_one([(1, 1), (1, -1)], 2)
        assert all_proper_faces_volume_one(newton_polytope(SIMPLEX))
        # 2-dilated simplex has lattice points strictly inside edges
        assert not all_proper_faces_volume_one(
            newton_polytope([(2, 0), (0, 2), (-2, -2)])
        )


class TestConeNormals:
    def test_quadrant(self):
        assert cone_facet_normals([(1, 0), (0, 1)], 2) == [(0, 1), (1, 0)]

    def test_one_dimensional(self):
        assert cone_facet_normals([(2,), (3,)], 1) == [(1,)]
