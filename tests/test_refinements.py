"""Tests for refinements of a single toric monoid."""

import itertools
import random
from fractions import Fraction

import pytest

from blowup import exactla as la
from blowup.monoids import ToricMonoid
from blowup.refinements import (MonoidRefinement, RefinementFailure,
                                intersect_members, maximal_faces_avoiding,
                                planar_refine, smoothing, star_subdivide,
                                trivial_refinement)

from test_monoids import random_positive_monoid


def random_point_in(m: ToricMonoid, rng):
    """A random nonnegative rational combination of the rays."""
    v = tuple(Fraction(0) for _ in range(m.ambient_dim))
    for g in m.rays:
        c = Fraction(rng.randint(0, 12), rng.randint(1, 4))
        v = tuple(x + c * y for x, y in zip(v, g))
    return v


def check_cover(sigma: ToricMonoid, r: MonoidRefinement, rng, points=200):
    """Random points of the cone lie in some member; maximal members
    have disjoint relative interiors."""
    for _ in range(points):
        p = random_point_in(sigma, rng)
        hits = [m for m in r.maximal_members() if m.in_support(p)]
        assert hits, f"point {p} not covered"
        interior_hits = [m for m in hits if m.in_relative_interior(p)]
        assert len(interior_hits) <= 1, f"point {p} interior to several"


def all_pairs_failures(r: MonoidRefinement):
    """Reference for MonoidRefinement.validate that checks the common-face
    axiom on every pair of members."""
    failures = []
    member_set = set(r.members)
    for m in r.members:
        for g in m.rays:
            if not r.base.in_support(g):
                failures.append(RefinementFailure(
                    "support", f"ray {g} outside supp(base)", g))
        for f in m.face_monoids():
            if f not in member_set:
                failures.append(RefinementFailure(
                    "face_closed",
                    f"face {f.rays} of member {m.rays} missing", f.rays))
    for m1, m2 in itertools.combinations(r.members, 2):
        inter = intersect_members(m1, m2)
        if not (inter.is_face_of(m1) and inter.is_face_of(m2)):
            failures.append(RefinementFailure(
                "common_face",
                f"intersection of {m1.rays} and {m2.rays} is not a "
                "common face", inter.rays))
    return failures + r._check_cover()


class TestValidate:
    def test_overlapping_maximal_members(self):
        a = ToricMonoid.make(2, la.identity(2), [(1, 0), (1, 2)])
        b = ToricMonoid.make(2, la.identity(2), [(1, 1), (0, 1)])
        r = MonoidRefinement(ToricMonoid.free(2),
                             a.face_monoids() + b.face_monoids())
        failures = r.validate()
        assert RefinementFailure(
            "common_face", f"intersection of {b.rays} and {a.rays} is not "
            "a common face", ((1, 1), (1, 2))) in failures
        assert failures == all_pairs_failures(r)

    def test_matches_all_pairs_reference(self):
        rng = random.Random(8)
        axioms = set()
        for _ in range(8):
            m = random_positive_monoid(rng, rng.choice([2, 3]))
            r1 = star_subdivide(m, m.interior_point())
            r2 = star_subdivide(m, la.vadd(m.rays[0],
                                           la.vscale(2, m.rays[-1])))
            dropped = r1.maximal_members()[0]
            families = [r1, r2,
                        MonoidRefinement(m, r1.members + r2.members),
                        MonoidRefinement(m, r1.members[1:]),
                        MonoidRefinement(m, [x for x in r1.members
                                             if x != dropped])]
            for r in families:
                failures = r.validate()
                assert failures == all_pairs_failures(r)
                axioms.update(f.axiom for f in failures)
        assert {"common_face", "face_closed", "cover"} <= axioms


class TestTrivial:
    def test_trivial_is_valid(self):
        m = ToricMonoid.free(2)
        r = trivial_refinement(m)
        assert r.validate() == []
        assert r.is_trivial()


class TestStarSubdivide:
    def test_quadrant_diagonal(self):
        m = ToricMonoid.free(2)
        r = star_subdivide(m, (1, 1))
        assert r.validate() == []
        maxes = sorted(mm.rays for mm in r.maximal_members())
        assert maxes == [(((0, 1), (1, 1))), (((1, 0), (1, 1)))]
        assert r.is_smooth()

    def test_center_on_ray_is_trivial(self):
        m = ToricMonoid.free(2)
        r = star_subdivide(m, (1, 0))
        assert len(r.maximal_members()) == 1
        assert r.maximal_members()[0] == m

    def test_weighted_center(self):
        # Weighted centers give members over sublattices (root charts):
        # the piece on (1,0),(1,2) omits (1,1) from its own lattice.
        m = ToricMonoid.free(2)
        r = star_subdivide(m, (1, 2))
        assert r.validate() == []
        piece = next(mm for mm in r.maximal_members()
                     if (1, 0) in mm.rays)
        assert piece.in_support((1, 1))
        assert not piece.contains((1, 1))

    def test_random_covers(self):
        rng = random.Random(3)
        for _ in range(10):
            m = random_positive_monoid(rng, rng.choice([2, 3]))
            p = m.interior_point()
            r = star_subdivide(m, p)
            assert r.validate() == []
            check_cover(m, r, rng, points=50)


class TestSmoothing:
    def test_index_two_cone(self):
        # Smoothing keeps the rays and passes to the ray lattice, so the
        # members are free on their own lattices (a root-style chart).
        m = ToricMonoid.make(2, la.identity(2), [(1, 0), (1, 2)])
        r = smoothing(m)
        assert r.validate() == []
        assert r.is_smooth()
        top = next(mm for mm in r.maximal_members() if mm.dim == 2)
        assert top.rays == m.rays
        assert m.contains((1, 1)) and not top.contains((1, 1))

    def test_smooth_input_untouched(self):
        m = ToricMonoid.free(3)
        r = smoothing(m)
        assert r.is_trivial()

    def test_nonsimplicial_rejected(self):
        from blowup.errors import NotSimplicial
        m = ToricMonoid.make(3, la.identity(3),
                             [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
        with pytest.raises(NotSimplicial):
            smoothing(m)

    def test_random_smoothings(self):
        rng = random.Random(6)
        done = 0
        while done < 12:
            m = random_positive_monoid(rng, rng.choice([2, 3]))
            if not m.is_simplicial():
                continue
            done += 1
            r = smoothing(m)
            assert r.validate() == []
            assert r.is_smooth()
            check_cover(m, r, rng, points=40)


class TestIntersect:
    def test_half_open_overlap(self):
        a = ToricMonoid.make(2, la.identity(2), [(1, 0), (1, 1)])
        b = ToricMonoid.make(2, la.identity(2), [(0, 1), (1, 1)])
        c = intersect_members(a, b)
        assert c.rays == ((1, 1),)

    def test_disjoint_interiors(self):
        a = ToricMonoid.make(2, la.identity(2), [(1, 0), (1, 1)])
        b = ToricMonoid.make(2, la.identity(2), [(0, 1), (-1, 1)])
        c = intersect_members(a, b)
        assert c.dim == 0

    def test_full_overlap(self):
        m = ToricMonoid.free(2)
        assert intersect_members(m, m) == m


class TestPlanar:
    # planar_refine takes spanning rows of the cutting subspace M.
    def test_quadrant_split_by_diagonal(self):
        m = ToricMonoid.free(2)
        r = planar_refine(m, [(1, 1)])
        assert r.validate() == []
        rays = {g for mm in r.maximal_members() for g in mm.rays}
        assert (1, 1) in rays
        assert len(r.maximal_members()) == 2

    def test_plane_through_interior_of_octant(self):
        m = ToricMonoid.free(3)
        plane = [(1, 1, 0), (0, 0, 1)]  # normal (1,-1,0)
        r = planar_refine(m, plane)
        assert r.validate() == []
        rng = random.Random(7)
        check_cover(m, r, rng, points=100)
        # Every maximal member lies on one side of the plane.
        for mm in r.maximal_members():
            signs = {(la.dot(g, (1, -1, 0)) > 0) - (la.dot(g, (1, -1, 0)) < 0)
                     for g in mm.rays}
            assert not ({1, -1} <= signs)

    def test_subspace_missing_cone_is_trivial(self):
        m = ToricMonoid.free(2)
        r = planar_refine(m, [(1, -1)])
        assert r.is_trivial()

    def test_avoiding_faces(self):
        m = ToricMonoid.free(2)
        faces = maximal_faces_avoiding(m, [(1, 1)])
        dims = sorted(f.dim for f in faces)
        assert dims == [1, 1]  # both rays avoid the diagonal line


class TestLocalize:
    def test_localize_to_facet(self):
        m = ToricMonoid.free(2)
        r = star_subdivide(m, (1, 1))
        f = ToricMonoid.make(2, [(1, 0)], [(1, 0)])
        lr = r.localize(f)
        assert lr.base == f
        assert len(lr.maximal_members()) == 1

    def test_member_containing(self):
        m = ToricMonoid.free(2)
        r = star_subdivide(m, (1, 1))
        mm = r.member_containing((3, 1))
        assert mm.in_support((3, 1))
