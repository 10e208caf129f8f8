"""Tests for corner complexes, b-maps and generalized blow-up."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup import exactla as la
from blowup.complexes import (assemble_from_local, complex_from_monoid,
                              identity_refinement, star_subdivide_complex)
from blowup.errors import (InvariantViolated, NotAComplex, NotAFace,
                           NotARefinement, NotCompatible, NotInSupport,
                           NotSmooth)
from blowup.manifolds import (BMap, CornerComplex, blowup_domain,
                              chart_lift, check_blowdown, corner_model,
                              factor_through_refinement,
                              generalized_blowup, identity_bmap,
                              is_compatible, iterated_blowup, lift_bmap,
                              lift_face, local_atlas, ordinary_blowup)
from blowup.monoids import ToricMonoid
from blowup.refinements import MonoidRefinement, intersect_members


def check_basic_complex_iso(b) -> bool:
    """Verify that the basic complex of the blown-up corner complex is
    isomorphic to the refining complex: each element's monoid is freely
    generated by the rays below it."""
    rs = b.refinement.source
    for e in rs.elements:
        m = rs.monoids[e]
        below_rays = [w for w in rs.elements
                      if rs.monoids[w].dim == 1 and rs.leq(w, e)]
        if len(below_rays) != m.dim or not m.is_smooth():
            return False
        gens = set(rs.image_face(w, e).rays[0] for w in below_rays)
        if gens != set(m.rays):
            return False
    return True


def square():
    return corner_model(2)


def renamed_square():
    """The square with its boundary faces named A, B and AB: the
    hypersurfaces H1 and H2 are not face ids."""
    return CornerComplex({"X": [], "A": ["H1"], "B": ["H2"],
                          "AB": ["H1", "H2"]},
                         [("X", "A"), ("X", "B"), ("A", "AB"), ("B", "AB")])


def corner_blowup():
    return ordinary_blowup(square(), "H1&H2")


def same_face_ids():
    """Two valid manifolds with the same face ids that are not the same:
    a corner C of A and B, and three disjoint hypersurfaces A, B and C."""
    corner = CornerComplex({"X": [], "A": ["A"], "B": ["B"],
                            "C": ["A", "B"]},
                           [("X", "A"), ("X", "B"), ("A", "C"), ("B", "C")])
    lines = CornerComplex({"X": [], "A": ["A"], "B": ["B"], "C": ["C"]},
                          [("X", "A"), ("X", "B"), ("X", "C")])
    return corner, lines


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


def former_atlas(r):
    """The former atlas construction, kept as an oracle: charts are
    adjacent when their cones meet in an n - 1 dimensional cone, and the
    separator is a cleared solution of the linear program: zero on the
    shared rays, positive on the first chart's other ray and negative on
    the second's."""
    q = r.target
    top = max(q.elements, key=lambda a: q.monoids[a].dim)
    n = q.monoids[top].dim
    members = {e: img for e, img in r.members_over(top).items()
               if img.dim == n}
    transitions = {}
    separators = {}
    for e1, e2 in itertools.permutations(sorted(members), 2):
        m1, m2 = members[e1], members[e2]
        common = intersect_members(m1, m2)
        if common.dim != n - 1:
            continue
        transitions[(e1, e2)] = la.mat_mul(la.mat(m1.rays),
                                           la.inverse_q(la.mat(m2.rays)))
        shared = set(common.rays)
        strict = [g for g in m1.rays if g not in shared]
        strict += [tuple(-x for x in g) for g in m2.rays if g not in shared]
        u = la.lp_feasible(n, strict=strict, zero=list(shared))
        separators[(e1, e2)] = la.clear_denominators(u)
    charts = {e: la.mat(m.rays) for e, m in members.items()}
    return n, charts, transitions, separators


def former_ray_bmap(total, morphism, target):
    """The former blow-down readout, kept as an oracle: the exponents of
    a hypersurface are the coordinates of the ray of its image monoid in
    the target's axes."""
    exps = {}
    for w in total.hypersurfaces():
        img = morphism.hom(w).image_monoid()
        if img.dim:
            (gen,) = img.rays
            for h, k in zip(target.axes(morphism.node_map[w]), gen):
                if k:
                    exps[(w, h)] = k
    return dict(morphism.node_map), exps


def former_compose(f, then):
    """The exponents of f.compose(then) as BMap.compose read them before
    it summed over the stored exponents, kept as an oracle: every triple
    of hypersurfaces (g, h, k) through alpha."""
    exps = {}
    for g in f.source.hypersurfaces():
        for k in then.target.hypersurfaces():
            val = sum(f.alpha(g, h) * then.alpha(h, k)
                      for h in f.target.hypersurfaces())
            if val:
                exps[(g, k)] = val
    return exps


def weighted_blowup(weights):
    """The weighted blow-up of the corner of R^k_+, k = len(weights)."""
    x = corner_model(len(weights))
    return ordinary_blowup(x, max(x.faces, key=x.codim), weights)[0]


def overlapping_square_refinement():
    """The faces of cone((1, 0), (1, 1)) and of cone((1, 0), (0, 1))
    glued over the corner of the square: the cones overlap, so this is
    not a refinement."""
    q = square().basic_complex()
    cones = [ToricMonoid.from_generators(2, gens)
             for gens in ([(1, 0), (1, 1)], [(1, 0), (0, 1)])]
    members = [f for c in cones for f in c.faces()]
    return assemble_from_local(
        q, {"H1&H2": MonoidRefinement(q.monoids["H1&H2"], members)})


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

    def test_basic_complex_is_built_once(self):
        x = square()
        assert x.basic_complex() is x.basic_complex()

    def test_validate_rejects_a_cyclic_order(self):
        bad = CornerComplex({"X": [], "H1": ["H1"]},
                            [("X", "H1"), ("H1", "X")])
        with pytest.raises(NotAComplex, match="not antisymmetric"):
            bad.validate()

    def test_validate_rejects_hypersurfaces_named_apart_from_faces(self):
        """Exponents are keyed by face id and axes by hypersurface name,
        so a corner complex whose hypersurface H1 is the face A passed
        validate and then broke every b-map built on it."""
        bad = renamed_square()
        with pytest.raises(NotAComplex, match="hypersurface H1 is not a "
                                              "face with incidence"):
            bad.validate()

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

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_compose_matches_the_former_triple_sum(self, seed):
        """A blow-down of an iterated blow-up followed by its blow-down,
        and with an exponent keyed by a face that is no hypersurface,
        which neither reading counts."""
        rng = random.Random(seed)
        bl, = random_iterated_blowups(rng, 1)
        x = bl.total
        deep = [f for f in x.faces if x.codim(f) >= 2]
        g = iterated_blowup(x, [rng.choice(deep)]).blowdown
        assert g.compose(bl.blowdown).exponents == \
            former_compose(g, bl.blowdown)
        g.exponents[(g.source.hypersurfaces()[0], rng.choice(deep))] = 5
        assert g.compose(bl.blowdown).exponents == \
            former_compose(g, bl.blowdown)

    def test_compose_rejects_mismatched_middle(self):
        f = identity_bmap(square())
        g = identity_bmap(corner_model(1))
        with pytest.raises(NotAComplex):
            f.compose(g)

    def test_compose_rejects_a_middle_with_the_same_face_ids(self):
        corner, lines = same_face_ids()
        with pytest.raises(NotAComplex, match="^b-maps do not compose"):
            identity_bmap(corner).compose(identity_bmap(lines))

    def test_equality_compares_the_manifolds(self):
        """Maps with one face map and one set of exponents into two
        manifolds with the same face ids are different maps."""
        z = corner_model(1, prefix="G")
        corner, lines = same_face_ids()
        face_map, exps = {"X": "X", "G1": "A"}, {("G1", "A"): 1}
        into = [BMap(z, y, face_map, exps) for y in (corner, lines)]
        for f in into:
            f.validate()
        assert into[0] != into[1]
        assert into[0] == BMap(corner_model(1, prefix="G"),
                               same_face_ids()[0], face_map, exps)


class TestSameness:
    def test_equal_manifolds_built_apart(self):
        assert corner_model(2) is not corner_model(2)
        assert corner_model(2) == corner_model(2)
        assert corner_model(2) != corner_model(2, prefix="G")

    def test_same_face_ids_are_not_the_same_manifold(self):
        corner, lines = same_face_ids()
        corner.validate()
        lines.validate()
        assert corner.faces == lines.faces
        assert corner != lines

    def test_manifolds_and_complexes_are_not_hashable(self):
        x = corner_model(1)
        for obj in (x, x.basic_complex()):
            with pytest.raises(TypeError):
                hash(obj)


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

    def test_overlapping_charts_have_no_separator(self):
        """On the overlapping non-refinement the two charts share a ray
        but lie on one side of it."""
        with pytest.raises(InvariantViolated,
                           match="have no separating functional"):
            local_atlas(overlapping_square_refinement())


def assert_matches_former(bl):
    """The atlas and the blow-down of bl equal the former constructions,
    key order included."""
    atlas = local_atlas(bl.refinement)
    n, charts, transitions, separators = former_atlas(bl.refinement)
    assert atlas.n == n
    assert {e: c.nu for e, c in atlas.charts.items()} == charts
    assert list(atlas.transitions.items()) == list(transitions.items())
    assert list(atlas.separators.items()) == list(separators.items())
    f = bl.blowdown
    assert (f.face_map, f.exponents) == former_ray_bmap(
        bl.total, bl.refinement.morphism, f.target)


class TestFormerConstructions:
    """local_atlas reads adjacency and separators off the chart matrices
    and their inverses, and the blow-down reads exponents in the free ray
    basis; both agree with the general constructions they replace."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_iterated_blowups(self, seed):
        bl, = random_iterated_blowups(random.Random(seed), 1)
        assert_matches_former(bl)

    @pytest.mark.parametrize("weights",
                             [(1, 2), (2, 3), (3, 5), (1, 2, 3)])
    def test_weighted_blowups(self, weights):
        bl = weighted_blowup(weights)
        assert len(local_atlas(bl.refinement).separators) >= 2
        assert_matches_former(bl)


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

    @pytest.mark.parametrize("nu, message", [
        ([(1, 1), (2, 2)], "is singular"),
        ([(1, 1)], "are not 1 wide")])
    def test_chart_lift_needs_a_square_nonsingular_chart(self, nu,
                                                         message):
        with pytest.raises(NotCompatible, match=message):
            chart_lift(la.mat([(1, 0)]), la.mat(nu))

    def test_chart_lift_needs_rows_as_wide_as_the_chart(self):
        with pytest.raises(NotCompatible, match="are not 2 wide"):
            chart_lift(la.mat([(1, 0, 0)]), la.identity(2))

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


def cone_refinement():
    """The identity refinement of the face complex of cone((1, 0), (1, 2)),
    which is not smooth."""
    q, _ = complex_from_monoid(ToricMonoid.from_generators(
        2, [(1, 0), (1, 1), (1, 2)]))
    return identity_refinement(q)


# Corner complexes whose basic complex has no top element: the empty one,
# and the interval's X < H1 and X < H2.
TOPLESS = {"empty": ({}, []),
           "interval": ({"X": [], "H1": ["H1"], "H2": ["H2"]},
                        [("X", "H1"), ("X", "H2")])}


def topless_refinement(name):
    """The identity refinement of the basic complex of TOPLESS[name]."""
    return identity_refinement(
        CornerComplex(*TOPLESS[name]).basic_complex())


class TestPreconditions:
    """Each library function checks that its arguments fit before it
    computes, with the message the command line prints."""

    def test_blowup_along_a_refinement_of_another_complex(self):
        cube_refinement = ordinary_blowup(corner_model(3),
                                          "H1&H2&H3")[0].refinement
        with pytest.raises(NotARefinement, match="^the refinement's target "
                           "is not the basic complex of the manifold$"):
            generalized_blowup(square(), cube_refinement)

    def test_foreign_refinement_is_reported_before_smoothness(self):
        r = cone_refinement()
        assert not r.is_smooth()
        with pytest.raises(NotARefinement):
            generalized_blowup(square(), r)

    def test_equal_basic_complex_fits(self):
        bl, _ = corner_blowup()
        again = generalized_blowup(square(), bl.refinement)
        assert again.total == bl.total

    @pytest.mark.parametrize("lift", [lift_bmap, blowup_domain])
    def test_lift_of_a_map_into_another_manifold(self, lift):
        bl, _ = corner_blowup()
        with pytest.raises(NotCompatible, match="^the b-map's target is not "
                           "the manifold that is blown up$"):
            lift(identity_bmap(corner_model(3)), bl)

    def test_blowup_domain_checks_before_pulling_back(self, monkeypatch):
        import blowup.manifolds as manifolds

        def pulled(*args):
            raise AssertionError("pulled back before the check")

        monkeypatch.setattr(manifolds, "pullback_refinement", pulled)
        bl, _ = corner_blowup()
        with pytest.raises(NotCompatible):
            blowup_domain(identity_bmap(corner_model(3)), bl)

    def test_atlas_of_a_refinement_that_is_not_smooth(self):
        r = cone_refinement()
        assert not r.is_smooth()
        with pytest.raises(NotSmooth, match="^chart atlases need a smooth "
                           "refinement$"):
            local_atlas(r)

    @pytest.mark.parametrize("name", sorted(TOPLESS))
    def test_atlas_of_a_complex_without_a_top_element(self, name):
        """Neither complex is the face complex of a monoid, which the
        charts are read off, though each refinement is smooth."""
        r = topless_refinement(name)
        assert r.is_smooth()
        with pytest.raises(NotARefinement, match="^chart atlases need a "
                           "refinement of a complex with a top element$"):
            local_atlas(r)

    def test_bmap_validates_its_manifolds(self):
        # The face A is cut by H1, which has no face of its own; the map
        # itself is consistent.
        x = CornerComplex({"X": [], "A": ["H1"]}, [("X", "A")])
        f = BMap(x, corner_model(1), {"X": "X", "A": "H1"},
                 {("H1", "H1"): 1})
        with pytest.raises(NotAComplex, match="^hypersurface H1 is not a "
                           r"face with incidence \['H1'\]$"):
            f.validate()
        with pytest.raises(NotAComplex):
            BMap(corner_model(1), x, {"X": "X", "H1": "A"},
                 {("H1", "H1"): 1}).validate()
