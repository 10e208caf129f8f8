"""Tests for corner complexes, b-maps and generalized blow-up."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup import exactla as la
from blowup.complexes import identity_refinement, star_subdivide_complex
from blowup.errors import (NotAComplex, NotAFace, NotCompatible,
                           NotInSupport)
from blowup.manifolds import (BMap, CornerComplex, blowup_domain,
                              chart_lift, check_basic_complex_iso,
                              check_blowdown, corner_model,
                              factor_through_refinement,
                              generalized_blowup, identity_bmap,
                              is_compatible, iterated_blowup, lift_bmap,
                              lift_face, local_atlas, ordinary_blowup)


def square():
    return corner_model(2)


def corner_blowup():
    return ordinary_blowup(square(), "H1&H2")


def fixpoint_closure(faces, order):
    """Reference: the reflexive transitive closure by repeated passes over
    all pairs of related pairs, until nothing is added."""
    rel = set((a, a) for a in faces)
    rel.update(order)
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(rel), list(rel)):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    return frozenset(rel)


def covers(x: CornerComplex):
    """The pairs of x's order one codimension apart."""
    return [(a, b) for a, b in x.order if x.codim(b) == x.codim(a) + 1]


def random_iterated_blowups(rng, count):
    """Iterated blow-ups of corner models at random centers of
    codimension at least two, taken in order of decreasing codimension;
    draws whose later center does not lift are skipped."""
    out = []
    while len(out) < count:
        x = corner_model(rng.choice([2, 3]))
        deep = [f for f in x.faces if x.codim(f) >= 2]
        centers = rng.sample(deep, rng.randint(1, len(deep)))
        centers.sort(key=lambda f: -x.codim(f))
        try:
            out.append(iterated_blowup(x, centers))
        except NotAFace:
            continue
    return out


class TestCornerComplex:
    def test_corner_model_counts(self):
        x = corner_model(3)
        assert len(x.faces) == 8
        assert x.hypersurfaces() == ("H1", "H2", "H3")
        assert x.codim("H1&H2&H3") == 3
        assert x.codim("X") == 0
        x.validate()

    def test_order_is_containment(self):
        x = square()
        assert x.leq("X", "H1")
        assert x.leq("H1", "H1&H2")
        assert not x.leq("H1", "H2")

    def test_basic_complex(self):
        x = square()
        q = x.basic_complex()
        q.validate()
        assert q.is_smooth()
        assert q.monoids["H1&H2"].dim == 2

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_order_matches_fixpoint_closure_on_corner_models(self, n):
        x = corner_model(n)
        assert x.order == fixpoint_closure(x.faces, covers(x))
        assert CornerComplex(x.incidence, covers(x)).order == x.order

    def test_order_matches_fixpoint_closure_on_iterated_blowups(self):
        for bl in random_iterated_blowups(random.Random(7), 4):
            x = bl.total
            gens = covers(x)
            assert CornerComplex(x.incidence, gens).order == \
                fixpoint_closure(x.faces, gens) == x.order

    def test_validate_rejects_missing_subface(self):
        bad = CornerComplex(
            {"X": [], "H1&H2": ["H1", "H2"], "H1": ["H1"]},
            [("X", "H1"), ("X", "H1&H2"), ("H1", "H1&H2")])
        with pytest.raises(NotAComplex):
            bad.validate()


class TestBMap:
    def test_identity(self):
        x = square()
        f = identity_bmap(x)
        f.validate()
        assert f.exponent_matrix("H1&H2") == la.identity(2)

    def test_validate_rejects_exponent_face_mismatch(self):
        x, y = corner_model(1), corner_model(1)
        f = BMap(x, y, {"X": "X", "H1": "H1"}, {})  # no exponent on H1
        with pytest.raises(NotAComplex):
            f.validate()

    def test_compose(self):
        x = square()
        y = corner_model(1)
        f = BMap(x, y, {"X": "X", "H1": "H1", "H2": "H1", "H1&H2": "H1"},
                 {("H1", "H1"): 1, ("H2", "H1"): 2})
        f.validate()
        g = BMap(y, y, {"X": "X", "H1": "H1"}, {("H1", "H1"): 3})
        c = f.compose(g)
        c.validate()
        assert c.alpha("H2", "H1") == 6

    def test_compose_rejects_mismatched_middle(self):
        f = identity_bmap(square())
        g = identity_bmap(corner_model(1))
        with pytest.raises(NotAComplex):
            f.compose(g)


class TestOrdinaryBlowup:
    def test_corner_of_square(self):
        bl, charts = corner_blowup()
        bl.total.validate()
        assert len(bl.total.hypersurfaces()) == 3
        assert sorted(charts) == [((1, 0), (0, 1)), ((1, 1), (0, 1))] or \
            len(charts) == 2
        # The exceptional hypersurface maps to the corner with exponent
        # one on both coordinates.
        exc = next(h for h in bl.total.hypersurfaces()
                   if bl.blowdown.face_map[h] == "H1&H2")
        assert bl.blowdown.alpha(exc, "H1") == 1
        assert bl.blowdown.alpha(exc, "H2") == 1
        # Proper transforms keep exponent one to their images.
        others = [h for h in bl.total.hypersurfaces() if h != exc]
        for h in others:
            img = bl.blowdown.face_map[h]
            assert bl.blowdown.alpha(h, img) == 1
        assert check_basic_complex_iso(bl)

    def test_chart_matrices(self):
        bl, _ = corner_blowup()
        atlas = local_atlas(bl.refinement)
        mats = sorted(c.nu for c in atlas.charts.values())
        assert mats == [((0, 1), (1, 1)), ((1, 0), (1, 1))]

    def test_weighted(self):
        bl, charts = ordinary_blowup(square(), "H1&H2", weights=(1, 2))
        bl.total.validate()
        assert sorted(charts) == [((1, 0), (1, 2)), ((1, 2), (0, 1))]
        exc = next(h for h in bl.total.hypersurfaces()
                   if bl.blowdown.face_map[h] == "H1&H2")
        assert bl.blowdown.alpha(exc, "H1") == 1
        assert bl.blowdown.alpha(exc, "H2") == 2

    @pytest.mark.parametrize("weights", [(1,), (0, 1), (1, 2, 3)])
    def test_bad_weights_rejected(self, weights):
        with pytest.raises(NotInSupport):
            ordinary_blowup(square(), "H1&H2", weights=weights)

    def test_blowdown_recognized(self):
        bl, _ = corner_blowup()
        is_bd, is_diffeo = check_blowdown(bl.blowdown)
        assert is_bd and not is_diffeo
        ident = identity_bmap(square())
        assert check_blowdown(ident) == (True, True)


class TestAtlas:
    def test_transitions_unimodular(self):
        bl, _ = corner_blowup()
        atlas = local_atlas(bl.refinement)
        for t in atlas.transitions.values():
            d = la.det(t)
            assert abs(d) == 1
            assert all(Fraction(x).denominator == 1
                       for row in t for x in row)

    def test_separators_separate(self):
        bl, _ = corner_blowup()
        atlas = local_atlas(bl.refinement)
        for (e1, e2), u in atlas.separators.items():
            nu1 = atlas.charts[e1].nu
            nu2 = atlas.charts[e2].nu
            shared = set(nu1) & set(nu2)
            for g in nu1:
                if g not in shared:
                    assert la.dot(g, u) > 0
            for g in nu2:
                if g not in shared:
                    assert la.dot(g, u) < 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_separators_are_the_primitive_facet_normals(self, seed):
        """A separator vanishes on the shared facet of its two charts and
        is positive on the first chart's other ray and negative on the
        second's, which fixes it up to positive scale; it is primitive,
        which fixes the scale."""
        bl, = random_iterated_blowups(random.Random(seed), 1)
        atlas = local_atlas(bl.refinement)
        for (e1, e2), u in atlas.separators.items():
            nu1, nu2 = atlas.charts[e1].nu, atlas.charts[e2].nu
            shared = set(nu1) & set(nu2)
            assert len(shared) == atlas.n - 1
            assert la.vec_gcd(u) == 1
            assert all(la.dot(g, u) == 0 for g in shared)
            assert all(la.dot(g, u) > 0 for g in nu1 if g not in shared)
            assert all(la.dot(g, u) < 0 for g in nu2 if g not in shared)

    def test_weighted_atlas(self):
        bl, _ = ordinary_blowup(square(), "H1&H2", weights=(2, 3))
        atlas = local_atlas(bl.refinement)
        assert len(atlas.charts) >= 2
        for t in atlas.transitions.values():
            assert la.det(t) != 0


class TestLift:
    def test_self_lift_is_identity(self):
        bl, _ = corner_blowup()
        lift = lift_bmap(bl.blowdown, bl)
        assert lift.bmap == identity_bmap(bl.total)
        lift.factoring.validate()

    def test_lift_composes_to_original(self):
        bl, _ = corner_blowup()
        x = corner_model(1)
        # H1 -> the corner with exponents (1, 2): direction inside one
        # member of the subdivision.
        f = BMap(x, square(), {"X": "X", "H1": "H1&H2"},
                 {("H1", "H1"): 1, ("H1", "H2"): 2})
        f.validate()
        assert is_compatible(f, bl.refinement)
        lift = lift_bmap(f, bl)
        lift.bmap.validate()
        assert lift.bmap.compose(bl.blowdown) == f

    def test_incompatible_raises(self):
        bl, _ = corner_blowup()
        with pytest.raises(NotCompatible):
            lift_bmap(identity_bmap(square()), bl)

    def test_is_compatible_false(self):
        bl, _ = corner_blowup()
        assert not is_compatible(identity_bmap(square()), bl.refinement)
        assert is_compatible(bl.blowdown, bl.refinement)

    def test_factor_through_refinement_names_the_element(self):
        # The corner's generators (1, 0) and (0, 1) lie in no one member
        # of the subdivision at (1, 1).
        bl, _ = corner_blowup()
        psi = identity_bmap(square()).induced_morphism()
        with pytest.raises(NotCompatible) as err:
            factor_through_refinement(psi, bl.refinement)
        assert "face H1&H2 " in str(err.value)
        assert "direction (1, 1)" in str(err.value)

    def test_factoring_composes_back(self):
        # psi == r . factoring, on the generators of every face.
        bl, _ = corner_blowup()
        f = BMap(corner_model(1), square(), {"X": "X", "H1": "H1&H2"},
                 {("H1", "H1"): 1, ("H1", "H2"): 2})
        psi = f.induced_morphism()
        factoring = factor_through_refinement(psi, bl.refinement)
        factoring.validate()
        back = factoring.compose(bl.refinement.morphism)
        assert back.node_map == psi.node_map
        assert back.homs == psi.homs

    def test_chart_lift(self):
        nu = la.mat([(1, 0), (1, 1)])
        delta = la.mat([(1, 1), (2, 3)])
        mu = chart_lift(delta, nu)
        assert la.mat_mul(mu, nu) == delta

    def test_chart_lift_off_the_lattice_rejected(self):
        nu = la.mat([(1, 1), (1, -1)])
        with pytest.raises(NotCompatible):
            chart_lift(la.mat([(1, 0)]), nu)

    def test_blowup_domain_makes_liftable(self):
        bl, _ = corner_blowup()
        f = identity_bmap(square())
        dom, lift, minimal = blowup_domain(f, bl)
        lift.bmap.validate()
        assert check_blowdown(dom.blowdown)[0]
        assert lift.bmap.compose(bl.blowdown) == dom.blowdown.compose(f)


class TestIterated:
    def test_lift_face(self):
        bl, _ = corner_blowup()
        lifted = lift_face(bl, "H1")
        assert bl.refinement.morphism.node_map[lifted] == "H1"

    def test_center_does_not_survive(self):
        bl, _ = corner_blowup()
        with pytest.raises(NotAFace):
            lift_face(bl, "H1&H2")

    def test_two_centers(self):
        x = corner_model(3)
        bl = iterated_blowup(x, ["H1&H2&H3", "H1&H2"])
        bl.total.validate()
        assert len(bl.total.hypersurfaces()) == 5
        assert check_basic_complex_iso(bl)
        assert check_blowdown(bl.blowdown)[0]
        assert len(bl.total.faces) == 18
