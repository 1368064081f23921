from operator import mul

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dworklab.polytope import (
    DegenerateSupportError,
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
        assert P.facets == (((1,), 0), ((-1,), -1))

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

    @given(st.integers(1, 4))
    def test_face_interior_partition(self, k):
        # every lattice point of k*Delta has a unique minimal face
        P = newton_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
        for u in P.lattice_points(k):
            active = frozenset(
                i for i, (a, c) in enumerate(P.facets)
                if sum(x * y for x, y in zip(a, u)) == k * c
            )
            matching = [
                f for f in P.faces() if f.active <= active and active <= f.active
            ]
            if active:
                assert len(matching) == 1
            else:
                assert not matching  # interior points lie in no proper face

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


class TestFaces:
    def test_face_count_square(self):
        P = newton_polytope([(0, 0), (1, 0), (0, 1), (1, 1)])
        faces = P.faces()
        dims = sorted(f.dim() for f in faces)
        assert dims == [0, 0, 0, 0, 1, 1, 1, 1]

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
