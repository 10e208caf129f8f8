"""Tests for monoidal complexes, morphisms and complex refinements."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup import exactla as la
from blowup.binomial import normal_form, variety_complex
from blowup.complexes import (ComplexMorphism, ComplexRefinement,
                              MonoidalComplex, assemble_from_local,
                              complex_from_monoid,
                              extend_refinement, fiber_product_complex,
                              identity_refinement,
                              morphism_to_point, mutual_smooth_refinement,
                              natural_smooth_refinement, nsdim,
                              planar_refine_complex, product_complex,
                              pullback_refinement, smooth_complex,
                              star_subdivide_complex, terminal_complex)
from blowup.errors import (NotAComplex, NotARefinement, NotCompatible,
                           NotInSupport)
from blowup.manifolds import corner_model
from blowup.monoids import MonoidHom, ToricMonoid
from blowup.refinements import (MonoidRefinement, star_subdivide,
                                trivial_refinement)

from test_manifolds import same_face_ids
from test_monoids import random_positive_monoid
from test_refinements import check_cover


def quadrant_complex():
    return complex_from_monoid(ToricMonoid.free(2))


def square_cone():
    return ToricMonoid.make(3, la.identity(3),
                            [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])


def top_element(q: MonoidalComplex) -> str:
    return max(q.elements, key=lambda a: q.monoids[a].dim)


def random_complex(rng, dim, max_elements=12):
    while True:
        m = random_positive_monoid(rng, dim)
        q, _ = complex_from_monoid(m)
        if len(q.elements) <= max_elements:
            return q


def commutes_through_every_middle(q: MonoidalComplex) -> bool:
    """The former commutation check of MonoidalComplex.validate, kept as a
    reference: every chain a < c through every element between them."""
    for a, c in q._chains():
        for b in q.elements:
            if b in (a, c) or not (q.leq(a, b) and q.leq(b, c)):
                continue
            composite = la.mat_mul(q.face_maps[(a, b)], q.face_maps[(b, c)])
            direct = q.face_maps[(a, c)]
            if q.monoids[a].dim and any(
                    la.apply_row(r, composite) != la.apply_row(r, direct)
                    for r in q.monoids[a].lattice):
                return False
    return True


def face_of_free3(q: MonoidalComplex, *axes: int) -> str:
    """The element of complex_from_monoid(free(3)) on the given axes."""
    rays = tuple(sorted(la.identity(3)[i] for i in axes))
    (e,) = [e for e in q.elements if q.monoids[e].rays == rays]
    return e


class TestComplex:
    def test_face_complex_of_quadrant(self):
        q, ids = quadrant_complex()
        q.validate()
        assert len(q.elements) == 4
        top = top_element(q)
        assert [a for a in q.elements if q.above(a) == (a,)] == [top]
        assert len(q.below(top)) == 4
        assert q.dim() == 2
        assert q.is_smooth()

    def test_square_cone_complex(self):
        q, _ = complex_from_monoid(square_cone())
        q.validate()
        assert len(q.elements) == 10
        assert not q.is_simplicial()

    def test_subcomplex(self):
        q, _ = quadrant_complex()
        top = top_element(q)
        rest = [a for a in q.elements if a != top]
        sub = q.subcomplex(rest)
        sub.validate()
        assert len(sub.elements) == 3
        with pytest.raises(NotAComplex):
            q.subcomplex([top])  # not downward closed

    def test_validate_rejects_incomplete(self):
        # A 2-dim monoid with no elements for its proper faces.
        m = ToricMonoid.free(2)
        q = MonoidalComplex({"a": m}, [], {})
        with pytest.raises(NotAComplex):
            q.validate()

    def test_validate_checks_face_map_shapes_first(self):
        # b -> a is 1 x 2 into a 1-dimensional monoid; every other axiom
        # holds once the MonoidHom shape assert is gone (python -O).
        q = MonoidalComplex({"a": ToricMonoid.free(1),
                             "b": ToricMonoid.trivial(1)},
                            [("b", "a")], {("b", "a"): ((1, 2),)})
        with pytest.raises(NotAComplex, match="face map b -> a is not 1 x 1"):
            q.validate()

    def test_composites_along_a_chain_out_of_id_order(self):
        # A < C < D < B given by its covering maps only: (A, B) comes
        # before (A, D) and (C, B) in id order, so it is filled from them
        # on a second pass.
        monoids = {e: ToricMonoid.free(n)
                   for e, n in zip("ACDB", (1, 2, 3, 4))}
        maps = {("A", "C"): ((0, 1),),
                ("C", "D"): ((0, 0, 1), (1, 0, 0)),
                ("D", "B"): ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))}
        q = MonoidalComplex(monoids, list(maps), maps)
        assert q.face_maps[("A", "B")] == ((0, 1, 0, 0),) == la.mat_mul(
            la.mat_mul(maps[("A", "C")], maps[("C", "D")]), maps[("D", "B")])

    @pytest.mark.parametrize("chain", [((0,), (0, 1)),
                                       ((0,), (0, 1, 2))])
    def test_validate_rejects_a_broken_face_map(self, chain):
        # Ray e1 sent onto ray e2 by the face map of a cover (into the
        # face e1 e2) or of a non-cover (into the top): injective onto a
        # face, but not equal to the composite through e1 e2.
        q, _ = complex_from_monoid(ToricMonoid.free(3))
        pair = tuple(face_of_free3(q, *axes) for axes in chain)
        swap = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
        bad = MonoidalComplex(q.monoids, q.order,
                              {**q.face_maps, pair: swap})
        assert bad.face_maps[pair] == swap
        assert not commutes_through_every_middle(bad)
        with pytest.raises(NotAComplex, match="do not commute"):
            bad.validate()


class TestMorphism:
    def test_identity_refinement(self):
        q, _ = quadrant_complex()
        r = identity_refinement(q)
        r.validate()
        assert r.is_identity_like()

    def test_morphism_to_point(self):
        q, _ = quadrant_complex()
        phi = morphism_to_point(q)
        phi.validate()
        assert phi.target.elements == ("pt",)

    def test_compose(self):
        q, _ = quadrant_complex()
        r = star_subdivide_complex(q, top_element(q), (1, 1))
        phi = r.morphism.compose(morphism_to_point(q))
        phi.validate()

    def test_compose_rejects_a_middle_with_the_same_element_ids(self):
        corner, lines = (identity_refinement(x.basic_complex()).morphism
                         for x in same_face_ids())
        with pytest.raises(NotAComplex, match="^morphisms do not compose"):
            corner.compose(lines)

    def test_compose_through_an_equal_middle(self):
        q = corner_model(2).basic_complex()
        r = _star_at_top(q)
        phi = r.morphism.compose(
            identity_refinement(corner_model(2).basic_complex()).morphism)
        phi.validate()
        assert phi.target is not q and phi.target == q

    def test_image_in_is_computed_once(self):
        # The corner complex: face maps change the ambient dimension, so
        # one source element has a different image in each target above.
        q = corner_model(3).basic_complex()
        phi = star_subdivide_complex(q, top_element(q), (1, 1, 2)).morphism
        pairs = [(e, s) for e in phi.source.elements for s in q.elements
                 if q.leq(phi.node_map[e], s)]
        first = {p: phi.image_in(*p) for p in pairs}
        with mock.patch.object(la, "mat_mul",
                               side_effect=la.mat_mul) as mat_mul:
            assert all(phi.image_in(*p) is first[p] for p in pairs)
        assert not mat_mul.called
        for e, s in pairs:
            m = la.mat_mul(phi.homs[e], q.face_maps[(phi.node_map[e], s)])
            assert first[(e, s)] == MonoidHom(
                phi.source.monoids[e], q.monoids[s], m)._build_image()


class TestStarSubdivideComplex:
    def test_subdivide_quadrant(self):
        q, _ = quadrant_complex()
        top = top_element(q)
        r = star_subdivide_complex(q, top, (1, 1))
        r.validate()
        # vertex, 2 old rays, the center ray and the 2 subdivided cones
        assert len(r.members_over(top)) == 6
        assert r.source.is_smooth()
        local = r.localize(top)
        assert set(local.members) == set(
            star_subdivide(q.monoids[top], (1, 1)).members)

    def test_subdivide_at_face_propagates(self):
        q, _ = complex_from_monoid(ToricMonoid.free(3))
        facet = next(a for a in q.elements
                     if q.monoids[a].rays == ((0, 1, 0), (1, 0, 0)))
        r = star_subdivide_complex(q, facet, (1, 1, 0))
        r.validate()
        # The top octant must also be subdivided.
        top = top_element(q)
        assert len([e for e in r.members_over(top)
                    if r.source.monoids[e].dim == 3]) == 2

    @pytest.mark.parametrize("sigma, v", [
        (ToricMonoid.free(3), (0, 1, 1)),
        (square_cone(), (0, 1, 2)),
    ])
    def test_boundary_center_subdivides_its_carrier(self, sigma, v):
        # v lies on a proper face of the top monoid: the result is the
        # subdivision at the element carrying that face.
        q, _ = complex_from_monoid(sigma)
        top = top_element(q)
        r = star_subdivide_complex(q, top, v)
        r.validate()
        face = q.monoids[top].smallest_face_containing(v)
        carrier = next(c for c in q.elements if q.monoids[c] == face)
        direct = star_subdivide_complex(q, carrier, v)
        assert set(r.localize(top).members) == \
            set(direct.localize(top).members)
        assert set(r.localize(carrier).members) == \
            set(star_subdivide(face, v).members)

    def test_center_outside_the_monoid_is_rejected(self):
        q, _ = complex_from_monoid(ToricMonoid.free(3))
        with pytest.raises(NotInSupport):
            star_subdivide_complex(q, top_element(q), (0, -1, 1))


class TestAssemble:
    def test_member_without_its_faces_rejected(self):
        # The subdivided cones without their common interior ray: the
        # family agrees on every boundary face, but the index of glued
        # elements has no entry for the missing ray.
        q, _ = quadrant_complex()
        top = top_element(q)
        star = star_subdivide(q.monoids[top], (1, 1))
        local = {a: trivial_refinement(q.monoids[a]) for a in q.elements}
        local[top] = MonoidRefinement(
            q.monoids[top], [m for m in star.members if m.rays != ((1, 1),)])
        with pytest.raises(NotARefinement):
            assemble_from_local(q, local)

    def test_disagreeing_faces_rejected(self):
        q, _ = complex_from_monoid(ToricMonoid.free(3))
        facet = next(a for a in q.elements
                     if q.monoids[a].rays == ((0, 1, 0), (1, 0, 0)))
        local = {a: trivial_refinement(q.monoids[a]) for a in q.elements}
        local[facet] = star_subdivide(q.monoids[facet], (1, 1, 0))
        with pytest.raises(NotARefinement):
            assemble_from_local(q, local)


class TestNaturalSmooth:
    def test_square_cone(self):
        q, _ = complex_from_monoid(square_cone())
        r = natural_smooth_refinement(q)
        r.validate()
        assert r.source.is_smooth()
        top = top_element(q)
        rng = random.Random(1)
        check_cover(q.monoids[top], r.localize(top), rng, points=100)

    def test_idempotent(self):
        q, _ = complex_from_monoid(square_cone())
        r = natural_smooth_refinement(q)
        again = natural_smooth_refinement(r.source)
        assert again.is_identity_like()

    def test_smooth_input_identity(self):
        q, _ = quadrant_complex()
        assert natural_smooth_refinement(q).is_identity_like()

    def test_random_complexes(self):
        rng = random.Random(2)
        for _ in range(8):
            q = random_complex(rng, rng.choice([2, 3]))
            r = natural_smooth_refinement(q)
            r.validate()
            assert r.source.is_smooth()
            # validate checks commutation through covers only.
            assert commutes_through_every_middle(q)
            assert commutes_through_every_middle(r.source)

    def test_nsdim(self):
        assert nsdim(ToricMonoid.free(3)) == 0
        assert nsdim(square_cone()) == square_cone().dim


class TestPlanarComplex:
    def test_split_quadrant(self):
        q, _ = quadrant_complex()
        subs = {a: [(1, 1)] for a in q.elements}
        r = planar_refine_complex(q, subs)
        r.validate()
        top = top_element(q)
        assert len([e for e in r.members_over(top)
                    if r.source.monoids[e].dim == 2]) == 2


class TestExtend:
    def test_extend_facet_subdivision(self):
        q, _ = complex_from_monoid(ToricMonoid.free(3))
        facet = next(a for a in q.elements
                     if q.monoids[a].rays == ((0, 1, 0), (1, 0, 0)))
        closed = list(q.below(facet))
        local0 = {a: (star_subdivide(q.monoids[a], (1, 1, 0))
                      if a == facet else trivial_refinement(q.monoids[a]))
                  for a in closed}
        r = extend_refinement(q, local0)
        r.validate()
        assert r.source.is_smooth()
        # The given part is restricted exactly.
        assert set(r.localize(facet).members) == set(local0[facet].members)

    def test_not_downward_closed_rejected(self):
        q, _ = complex_from_monoid(ToricMonoid.free(3))
        facet = next(a for a in q.elements if q.monoids[a].dim == 2)
        with pytest.raises(NotAComplex):
            extend_refinement(
                q, {facet: trivial_refinement(q.monoids[facet])})


class TestProducts:
    def test_product_of_quadrants(self):
        q1, _ = quadrant_complex()
        q2, _ = complex_from_monoid(ToricMonoid.free(1))
        p, p1, p2 = product_complex(q1, q2)
        p.validate()
        p1.validate()
        p2.validate()
        assert len(p.elements) == 8  # 4 x 2
        assert p.dim() == 3

    def test_fiber_product_of_identities(self):
        q, _ = quadrant_complex()
        ident = identity_refinement(q).morphism
        f, p1, p2 = fiber_product_complex(ident, ident)
        f.validate()
        assert len(f.elements) == len(q.elements)

    def test_pullback_refinement(self):
        q, _ = quadrant_complex()
        top = top_element(q)
        r = star_subdivide_complex(q, top, (1, 1))
        pulled = pullback_refinement(r, identity_refinement(q).morphism)
        pulled.validate()
        assert len(pulled.members_over(top)) == len(r.members_over(top))

    def test_fiber_product_needs_a_common_target(self):
        line, square = (identity_refinement(corner_model(n).basic_complex())
                        for n in (1, 2))
        with pytest.raises(NotCompatible, match="^the two morphisms must "
                           "share a target$"):
            fiber_product_complex(line.morphism, square.morphism)
        with pytest.raises(NotCompatible):
            pullback_refinement(_star_at_top(square.target), line.morphism)
        with pytest.raises(NotCompatible):
            mutual_smooth_refinement(line, square)


def _identity_homs(morphism):
    return all(morphism.homs[e] is la.identity(
        morphism.target.monoids[morphism.node_map[e]].ambient_dim)
        for e in morphism.source.elements)


def _identity_self_maps(q):
    return all(q.face_maps[(a, a)] is la.identity(q.monoids[a].ambient_dim)
               for a in q.elements)


def _star_at_top(q):
    top = top_element(q)
    return star_subdivide_complex(q, top, q.monoids[top].interior_point())


class TestIdentityObject:
    """Products and images through la.identity are free only when the
    matrix is that object.  A later edit that builds its own identity
    passes every other test and loses the shortcut; these catch it."""

    def test_assembled_refinements(self):
        q = corner_model(3).basic_complex()
        local = {a: trivial_refinement(m) for a, m in q.monoids.items()}
        ns = natural_smooth_refinement(complex_from_monoid(square_cone())[0])
        for r in (assemble_from_local(q, local), _star_at_top(q), ns):
            assert _identity_homs(r.morphism)

    def test_identity_refinement(self):
        q, _ = complex_from_monoid(square_cone())
        assert _identity_homs(identity_refinement(q).morphism)

    def test_variety_inclusion(self):
        pd, inclusion = variety_complex(
            normal_form([((1, 1, 0, 0), (0, 0, 1, 1))]))
        assert _identity_homs(inclusion)

    def test_self_maps(self):
        q = corner_model(3).basic_complex()
        sq, _ = complex_from_monoid(square_cone())
        r = _star_at_top(sq)
        f, _, _ = fiber_product_complex(r.morphism, r.morphism)
        pd, _ = variety_complex(normal_form([((1, 0), (0, 1))]))
        for c in (q, sq, r.source, f, pd):
            assert _identity_self_maps(c)


class TestMutual:
    def test_two_subdivisions(self):
        q, _ = quadrant_complex()
        top = top_element(q)
        r1 = star_subdivide_complex(q, top, (1, 2))
        r2 = star_subdivide_complex(q, top, (2, 1))
        total, to1, to2 = mutual_smooth_refinement(r1, r2)
        total.validate()
        to1.validate()
        to2.validate()
        assert total.source.is_smooth()
        # total.source lives in the doubled ambient space of the fiber
        # product; both centers must appear among the projected rays.
        rays = {g for e in total.members_over(top)
                for g in total.source.monoids[e].rays}
        halves = {la.primitive(g[:2]) for g in rays if any(g[:2])}
        assert (1, 2) in halves and (2, 1) in halves


class TestSameness:
    def test_equal_complexes_built_apart(self):
        q1, q2 = (corner_model(2).basic_complex() for _ in range(2))
        assert q1 is not q2
        assert q1 == q2
        assert q1 != corner_model(1).basic_complex()

    def test_face_maps_count(self):
        """Equality reads the data, not validity: these differ only in
        the face map a -> b."""
        monoids = {"a": ToricMonoid.free(1), "b": ToricMonoid.free(2)}
        q1, q2 = (MonoidalComplex(monoids, [("a", "b")], {("a", "b"): m})
                  for m in (((1, 0),), ((0, 1),)))
        assert (q1.monoids, q1.order) == (q2.monoids, q2.order)
        assert q1 != q2


class TestMemos:
    """image_face and members_over are kept per complex and per
    refinement; what they return must be what a fresh computation gives,
    and no caller can change the memo."""

    def test_members_over_returns_a_copy(self):
        q, _ = quadrant_complex()
        top = top_element(q)
        r = star_subdivide_complex(q, top, (1, 1))
        first = r.members_over(top)
        expected = dict(first)
        first.clear()
        first["stray"] = q.monoids[top]
        again = r.members_over(top)
        assert again == expected and again is not first
        again.pop(next(iter(again)))
        assert r.members_over(top) == expected
        assert set(r.localize(top).members) == set(expected.values())

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_image_face_is_the_image_monoid_on_every_chain(self, seed):
        """On a random face complex, its natural smooth refinement's source
        and a corner model's basic complex (whose face maps change the
        ambient dimension), asked twice."""
        rng = random.Random(seed)
        q = random_complex(rng, rng.choice([2, 3]))
        for c in (q, natural_smooth_refinement(q).source,
                  corner_model(rng.choice([2, 3])).basic_complex()):
            for _ in range(2):
                for a, b in c._chains():
                    assert c.image_face(a, b) == \
                        c.hom(a, b)._build_image()
