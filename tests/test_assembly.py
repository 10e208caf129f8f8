"""Gluing of local refinements against the former assemble_from_local,
kept here as a reference: it computes carriers, images and index entries
for every element, refined or not, and builds order pairs at every element
above each glued one.  Outputs and errors must agree to the element id and
the message."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup import complexes
from blowup import exactla as la
from blowup.complexes import (ComplexMorphism, ComplexRefinement,
                              MonoidalComplex, assemble_from_local,
                              complex_from_monoid, extend_refinement,
                              natural_smooth_refinement, smooth_complex,
                              star_subdivide_complex)
from blowup.errors import InvariantViolated, NotARefinement
from blowup.fiber import FiberProblem, b_normal_transversality, fiber_complex
from blowup.monoids import MonoidHom, ToricMonoid
from blowup.refinements import (smoothing, star_subdivide,
                                trivial_refinement)

from test_complexes import random_complex, square_cone
from test_fiber import simple_bmap
from test_monoids import random_positive_monoid
from test_refinement_drivers import random_downward_closed_refinement


def ref_assemble_from_local(q, local):
    """The former gluing: every element's members are located, imaged
    into every element above and indexed there.  It took a refinement for
    every element, so an element local omits gets its trivial one."""
    local = {**trivial_family(q), **local}
    for a in q.elements:
        if local[a].base != q.monoids[a]:
            raise NotARefinement(f"local refinement at {a} has wrong base")
    carrier = {}
    for a in q.elements:
        sigma = q.monoids[a]
        for m in local[a].members:
            carrier[(a, m)] = frozenset(
                sigma.smallest_face_containing(m.interior_point()).rays
                if m.dim else ())
    images = {}
    for a, b in q._chains():
        img_rays = set(q.image_face(a, b).rays)
        h = q.face_maps[(a, b)]
        images[(a, b)] = {m: MonoidHom(m, q.monoids[b], h).image_monoid()
                          for m in local[a].members}
        localized = set(m for m in local[b].members
                        if carrier[(b, m)] <= img_rays)
        if set(images[(a, b)].values()) != localized:
            raise NotARefinement(
                f"local refinements at {a} and {b} disagree on the "
                f"common face")
    monoids, home, index = {}, {}, {}
    for c in q.elements:
        whole = frozenset(q.monoids[c].rays)
        residents = [m for m in local[c].members if carrier[(c, m)] == whole]
        for k, m in enumerate(residents):
            eid = f"{c}/{k}"
            monoids[eid] = m
            home[eid] = c
            for a in q.above(c):
                img = m if a == c else images[(c, a)][m]
                index.setdefault((a, img), eid)

    def element_at(a, m):
        eid = index.get((a, m))
        if eid is None:
            raise NotARefinement(
                f"member {m.rays} of the local refinement at {a} is not "
                "the image of any glued element")
        return eid

    order, maps = [], {}
    for a in q.elements:
        for m in local[a].members:
            e_m = element_at(a, m)
            for f in m.faces():
                e_f = element_at(a, f)
                if e_f != e_m:
                    order.append((e_f, e_m))
                    maps[(e_f, e_m)] = q.face_maps[(home[e_f], home[e_m])]
    source = MonoidalComplex(monoids, order, maps)
    node = {eid: home[eid] for eid in source.elements}
    homs = {eid: la.identity(q.monoids[a].ambient_dim)
            for eid, a in node.items()}
    return ComplexRefinement(ComplexMorphism(source, q, node, homs))


def glued(r):
    """Element ids with monoid keys, the order, the face maps, the node
    map and the homs: the id-level output of a gluing."""
    s, phi = r.source, r.morphism
    return ([(e, s.monoids[e].key) for e in s.elements], sorted(s.order),
            sorted(s.face_maps.items()), sorted(phi.node_map.items()),
            sorted(phi.homs.items()))


def outcome(assemble, q, local):
    """glued() of the result, or the type and message of the error."""
    try:
        return glued(assemble(q, local))
    except (NotARefinement, InvariantViolated) as e:
        return type(e).__name__, str(e)


def assembled_families(run):
    """The (complex, local family) pairs that run() hands to
    assemble_from_local, the one it fails on included."""
    seen = []
    real = complexes.assemble_from_local

    def record(q, local):
        seen.append((q, dict(local)))
        return real(q, local)

    with mock.patch.object(complexes, "assemble_from_local",
                           side_effect=record):
        try:
            run()
        except (NotARefinement, InvariantViolated):
            pass
    return seen


def assert_agree(families):
    for q, local in families:
        assert outcome(assemble_from_local, q, local) == \
            outcome(ref_assemble_from_local, q, local)


def random_star(q, rng):
    """A star subdivision of q at a random positive combination of the
    extremals of a random nonzero element."""
    a = rng.choice([e for e in q.elements if q.monoids[e].dim > 0])
    v = la.zeros(q.monoids[a].ambient_dim)
    for g in q.monoids[a].rays:
        v = la.vadd(v, la.vscale(rng.randint(1, 2), g))
    return star_subdivide_complex(q, a, v)


def trivial_family(q):
    return {a: trivial_refinement(q.monoids[a]) for a in q.elements}


def element_with_rays(q, rays):
    return next(a for a in q.elements if q.monoids[a].rays == rays)


def with_face_map(q, pair, matrix):
    """q with the face map of one pair replaced."""
    maps = dict(q.face_maps)
    maps[pair] = matrix
    return MonoidalComplex(q.monoids, [p for p in q.order if p[0] != p[1]],
                           maps)


class TestAgainstReference:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_random_complex_families(self, seed):
        rng = random.Random(seed)
        q = random_complex(rng, rng.choice([2, 3]))
        families = assembled_families(lambda: random_star(q, rng))
        families += assembled_families(lambda: natural_smooth_refinement(q))
        local0 = random_downward_closed_refinement(q, rng)
        families += assembled_families(
            lambda: extend_refinement(q, local0, smooth=False))
        assert len(families) >= 3
        assert_agree(families)

    def test_smoothing_simplicial_complexes(self):
        rng = random.Random(3)
        done = 0
        while done < 6:
            q = random_complex(rng, rng.choice([2, 3]))
            if q.is_simplicial():
                assert_agree(assembled_families(lambda: smooth_complex(q)))
                done += 1

    def test_fiber_complex_steps(self):
        # NS on the fiber complexes of criterion-6 pairs, drawn as the
        # acceptance suite draws them; defect (b) stops some of them in
        # the gluing, with the same error on both versions.
        rng = random.Random(4001)
        done = failed = 0
        while done < 20:
            nt = rng.randint(1, 2)
            p = FiberProblem(simple_bmap(rng, rng.randint(1, 3), nt),
                             simple_bmap(rng, rng.randint(1, 3), nt))
            if not b_normal_transversality(p).transversal:
                continue
            fc = fiber_complex(p)[0]
            families = assembled_families(
                lambda: natural_smooth_refinement(fc))
            failed += outcome(assemble_from_local,
                              *families[-1])[0] == "InvariantViolated"
            assert_agree(families)
            done += 1
        assert failed > 0

    def test_smooth_monoids_smooth_trivially(self):
        rng = random.Random(8)
        for _ in range(20):
            for f in random_positive_monoid(rng, rng.randint(1, 4)).faces():
                if f.is_smooth():
                    assert set(smoothing(f).members) == \
                        set(trivial_refinement(f).members)


class TestOmittedElements:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_trivial_entries_may_be_dropped(self, seed):
        """On the families of test_random_complex_families, a local family
        with every element given and the same family without its trivial
        entries glue to the same refinement, ids included."""
        rng = random.Random(seed)
        q = random_complex(rng, rng.choice([2, 3]))
        families = assembled_families(lambda: random_star(q, rng))
        families += assembled_families(lambda: natural_smooth_refinement(q))
        local0 = random_downward_closed_refinement(q, rng)
        families += assembled_families(
            lambda: extend_refinement(q, local0, smooth=False))
        for fq, local in families:
            full = {**trivial_family(fq), **local}
            refined = {a: r for a, r in full.items() if not r.is_trivial()}
            assert outcome(assemble_from_local, fq, refined) == \
                outcome(assemble_from_local, fq, full)


class TestErrors:
    def test_image_not_a_face(self):
        # Both ends unrefined; the ray (1, 0) is sent into the interior.
        q, _ = complex_from_monoid(ToricMonoid.free(2))
        ray = element_with_rays(q, ((1, 0),))
        top = element_with_rays(q, ((0, 1), (1, 0)))
        bad = with_face_map(q, (ray, top), ((1, 1), (0, 1)))
        local = trivial_family(bad)
        expected = ("NotARefinement", f"local refinements at {ray} and "
                    f"{top} disagree on the common face")
        assert outcome(assemble_from_local, bad, local) == expected
        assert outcome(ref_assemble_from_local, bad, local) == expected

    def test_image_of_lower_dimension(self):
        # The quadrant sent onto a ray of the square cone, so not a
        # complex: its face map is not injective.  The dimension test
        # rejects the chain; the former gluing let it pass and failed on
        # completeness at the cone.
        q, _ = complex_from_monoid(ToricMonoid.free(2))
        top = element_with_rays(q, ((0, 1), (1, 0)))
        order = [p for p in q.order if p[0] != p[1]] + \
            [(a, "apex") for a in q.elements]
        maps = dict(q.face_maps)
        for a in q.elements:
            maps[(a, "apex")] = ((0, 0, 1), (0, 0, 1))
        bad = MonoidalComplex(dict(q.monoids, apex=square_cone()), order,
                              maps)
        local = trivial_family(bad)
        assert outcome(assemble_from_local, bad, local) == (
            "NotARefinement", f"local refinements at {top} and apex "
            "disagree on the common face")
        assert outcome(ref_assemble_from_local, bad, local)[0] == \
            "NotARefinement"

    def test_refined_below_unrefined(self):
        q, _ = complex_from_monoid(ToricMonoid.free(3))
        facet = element_with_rays(q, ((0, 1, 0), (1, 0, 0)))
        local = trivial_family(q)
        local[facet] = star_subdivide(q.monoids[facet], (1, 1, 0))
        assert outcome(assemble_from_local, q, local) == \
            outcome(ref_assemble_from_local, q, local)
        with pytest.raises(NotARefinement, match="disagree"):
            assemble_from_local(q, local)

    def test_incomplete_complex(self):
        # Z_+^3 over the zero face and the rays (0, 0, 1), (0, 1, 0) only.
        # The first unresolved member in key order is the face spanned by
        # those two rays, though the ray (1, 0, 0) comes first by
        # dimension.
        full, _ = complex_from_monoid(ToricMonoid.free(3))
        keep = [element_with_rays(full, rays) for rays in
                ((), ((0, 0, 1),), ((0, 1, 0),),
                 ((0, 0, 1), (0, 1, 0), (1, 0, 0)))]
        q = MonoidalComplex(
            {a: full.monoids[a] for a in keep},
            [(a, b) for a, b in full.order
             if a != b and a in keep and b in keep],
            {p: m for p, m in full.face_maps.items()
             if p[0] in keep and p[1] in keep})
        local = trivial_family(q)
        expected = ("NotARefinement",
                    f"member {((0, 0, 1), (0, 1, 0))} of the local "
                    f"refinement at {keep[-1]} is not the image of any "
                    "glued element")
        assert outcome(assemble_from_local, q, local) == expected
        assert outcome(ref_assemble_from_local, q, local) == expected

    def test_single_monoid_without_faces(self):
        q = MonoidalComplex({"a": ToricMonoid.free(2)}, [], {})
        local = trivial_family(q)
        assert outcome(assemble_from_local, q, local)[0] == "NotARefinement"
        assert outcome(assemble_from_local, q, local) == \
            outcome(ref_assemble_from_local, q, local)

    def test_wrong_width_between_unrefined(self):
        # The hom of each chain is still built, so its shape check fires
        # where the former gluing fired it.
        q, _ = complex_from_monoid(ToricMonoid.free(2))
        ray = element_with_rays(q, ((1, 0),))
        top = element_with_rays(q, ((0, 1), (1, 0)))
        bad = with_face_map(q, (ray, top), ((1, 0, 0), (0, 1, 0)))
        local = trivial_family(bad)
        expected = ("InvariantViolated", "matrix cols mismatch target")
        assert outcome(assemble_from_local, bad, local) == expected
        assert outcome(ref_assemble_from_local, bad, local) == expected
