"""Tests for refinements of a single toric monoid."""

import functools
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup import exactla as la
from blowup import refinements
from blowup.complexes import complex_from_monoid, star_subdivide_complex
from blowup.monoids import ToricMonoid
from blowup.refinements import (MonoidRefinement, RefinementFailure,
                                intersect_members, maximal_faces_avoiding,
                                planar_refine, smoothing, star_subdivide,
                                trivial_refinement)

from test_monoids import random_positive_monoid
from test_sections import ambient_facet_functionals


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


def ref_interior_facets(r: MonoidRefinement):
    """Reference for MonoidRefinement._interior_facets that tests the
    rays of each facet against the base's ambient facet functionals."""
    functionals = ambient_facet_functionals(r.base)
    facets = {}
    for m in r.maximal_members():
        for f in m.facet_faces():
            if all(any(la.dot(u, g) for g in f.rays) for u in functionals):
                facets.setdefault(f.rays, []).append((m, f))
    return facets


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
        for f in m.faces():
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
    return failures + r._check_cover(ref_interior_facets(r))


class TestValidate:
    def test_overlapping_maximal_members(self):
        a = ToricMonoid.make(2, la.identity(2), [(1, 0), (1, 2)])
        b = ToricMonoid.make(2, la.identity(2), [(1, 1), (0, 1)])
        r = MonoidRefinement(ToricMonoid.free(2),
                             a.faces() + b.faces())
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


def faces_of(*monoids):
    return [f for m in monoids for f in m.faces()]


def count_intersections(monkeypatch):
    """Count the calls validate makes to intersect_members."""
    calls = []

    def counted(m1, m2):
        calls.append((m1, m2))
        return intersect_members(m1, m2)
    monkeypatch.setattr(refinements, "intersect_members", counted)
    return calls


# Families that pass every check validate makes before the pairwise one
# except the named condition of the refinements module docstring, so that
# skipping the pairwise check on any of them would lose common_face
# failures.
def _stray_ray():
    return MonoidRefinement(ToricMonoid.free(2), star_subdivide(
        ToricMonoid.free(2), (1, 1)).members + (
            ToricMonoid.make(2, [(2, 1)], [(2, 1)]),))


def _same_side():
    # Two copies of one cone over different lattices, on the same side of
    # both of their (equal) facets.
    a, b = star_subdivide(ToricMonoid.free(2), (1, 1)).maximal_members()
    c = ToricMonoid.make(2, la.identity(2), [(2, 1), (4, 1)])
    d = ToricMonoid.make(2, [(2, 1), (4, 1)], [(2, 1), (4, 1)])
    return MonoidRefinement(ToricMonoid.free(2), faces_of(a, b, c, d))


def _nested():
    # A cone inside another: three owners of the facet on (1, 1).
    a, b = star_subdivide(ToricMonoid.free(2), (1, 1)).maximal_members()
    c = ToricMonoid.make(2, la.identity(2), [(1, 1), (2, 1)])
    return MonoidRefinement(ToricMonoid.free(2), faces_of(a, b, c))


def _two_stars():
    m = ToricMonoid.free(2)
    return MonoidRefinement(m, star_subdivide(m, (1, 1)).members
                            + star_subdivide(m, (1, 2)).members)


def _relattice(base, center):
    """The star subdivision of base (a monoid on all of Z^d) at center,
    with a maximal member on a proper sublattice, if there is one, moved
    to Z^d, and that member's faces added: a facet it shares can then
    carry two lattices."""
    r = star_subdivide(base, center)
    d = base.ambient_dim
    old = next((m for m in r.maximal_members()
                if m.lattice != la.identity(d)), r.maximal_members()[0])
    new = ToricMonoid.make(d, la.identity(d), old.rays)
    return MonoidRefinement(base, [m for m in r.members if m != old]
                            + list(new.faces()))


def _shared_facet_two_lattices():
    return _relattice(ToricMonoid.free(3), (1, 2, 2))


@st.composite
def refinement_families(draw):
    """Valid star subdivisions and smoothings, and corrupted families:
    a maximal member dropped, two star subdivisions merged, a maximal
    member moved to another lattice, a stray lower-dimensional member,
    and non-simplicial families."""
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    base = random_positive_monoid(rng, draw(st.sampled_from([2, 3])))

    def center():
        return la.primitive(functools.reduce(
            la.vadd, (la.vscale(rng.randint(0, 2), g) for g in base.rays),
            base.rays[draw(st.integers(0, len(base.rays) - 1))]))
    star = star_subdivide(base, center())
    kind = draw(st.sampled_from(["star", "smoothing", "drop", "merge",
                                 "relattice", "stray", "nonsimplicial"]))
    if kind == "star":
        return star
    top = star.maximal_members()
    if kind == "smoothing":
        return smoothing(draw(st.sampled_from(top)))
    if kind == "drop":
        gone = draw(st.sampled_from(top))
        return MonoidRefinement(base, [m for m in star.members if m != gone])
    if kind == "merge":
        return MonoidRefinement(base, star.members
                                + star_subdivide(base, center()).members)
    if kind == "relattice":
        return _relattice(base, center())
    if kind == "stray":
        p = la.primitive(functools.reduce(
            la.vadd, (la.vscale(rng.randint(1, 3), g)
                      for g in draw(st.sampled_from(top)).rays)))
        return MonoidRefinement(base, star.members
                                + (ToricMonoid.make(base.ambient_dim,
                                                    [p], [p]),))
    extra = star.members if draw(st.booleans()) else ()
    return MonoidRefinement(base, base.faces() + extra)


class TestFastValidation:
    """validate skips the pairwise common-face check on triangulations
    (the module docstring's conditions (1)-(5)); its report must equal
    the all-pairs reference on every family."""

    @settings(max_examples=60, deadline=None)
    @given(refinement_families())
    def test_agrees_with_all_pairs(self, r):
        assert r.validate() == all_pairs_failures(r)
        assert r._interior_facets() == ref_interior_facets(r)

    @pytest.mark.parametrize("family, condition", [
        (_stray_ray, 3), (_nested, 4), (_same_side, 4),
        (_shared_facet_two_lattices, 4), (_two_stars, 5)])
    def test_each_condition_is_needed(self, family, condition,
                                      monkeypatch):
        r = family()
        assert r.is_simplicial()
        calls = count_intersections(monkeypatch)
        failures = r.validate()
        assert calls, f"condition {condition} did not force the full check"
        assert any(f.axiom == "common_face" for f in failures)
        assert failures == all_pairs_failures(r)

    def test_cli_documents_need_no_intersection(self, monkeypatch):
        """Star subdivisions of the dimension-3 documents of the CLI
        tests (the octant and the cone over a square) validate without
        one intersection, as monoid and as complex refinements."""
        square = ToricMonoid.make(
            3, la.identity(3), [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
        calls = count_intersections(monkeypatch)
        for base in (ToricMonoid.free(3), square):
            q, ids = complex_from_monoid(base)
            top = next(a for a, m in ids.items() if m == base)
            for v in [base.interior_point(), (1, 1, 2), (1, 1, 1),
                      la.vadd(base.rays[0], base.rays[1])]:
                assert star_subdivide(base, v).validate() == []
                if base.in_relative_interior(v):
                    star_subdivide_complex(q, top, v).validate()
        assert calls == []


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
