"""Tests for fiber products of b-maps."""

import random

import pytest

from blowup import exactla as la
from blowup.errors import InvariantViolated, NotCompatible, NotTransverse
from blowup.fiber import (FiberProblem, b_normal_transversality,
                          factor_through, fiber_complex,
                          resolve_fiber_product, theorem_b_check)
from blowup.manifolds import (BMap, check_blowdown, corner_model,
                              identity_bmap, lift_bmap, ordinary_blowup)

from test_manifolds import same_face_ids


def sum_map():
    """The square mapped to the half line by the sum of the boundary
    defining functions."""
    x = corner_model(2)
    y = corner_model(1)
    f = BMap(x, y, {"X": "X", "H1": "H1", "H2": "H1", "H1&H2": "H1"},
             {("H1", "H1"): 1, ("H2", "H1"): 1})
    f.validate()
    return f


def addition_problem():
    f = sum_map()
    return FiberProblem(f, f)


def simple_bmap(rng, n_src, n_tgt):
    """A random simple b-map: exponents are zero or one and each target
    hypersurface is hit by at most one source hypersurface, so distinct
    source hypersurfaces have disjoint image supports."""
    x = corner_model(n_src, prefix="G")
    y = corner_model(n_tgt)
    hs = [f"G{i + 1}" for i in range(n_src)]
    ht = [f"H{j + 1}" for j in range(n_tgt)]
    while True:
        owner = {h: rng.choice([None] + hs) for h in ht}
        exps = {(g, h): 1 for h, g in owner.items() if g is not None}
        targets_of = {g: {h for h, o in owner.items() if o == g}
                      for g in hs}
        face_map = {}
        for f in x.faces:
            imgs = set()
            for g in x.incidence[f]:
                imgs |= targets_of[g]
            face_map[f] = "X" if not imgs else "&".join(sorted(imgs))
        fm = BMap(x, y, face_map, exps)
        try:
            fm.validate()
        except Exception:
            continue
        return fm


class TestTransversality:
    def test_addition_is_transversal(self):
        rep = b_normal_transversality(addition_problem())
        assert rep.transversal
        assert not rep.smooth
        assert "necessary" in rep.note

    def test_corner_pair_system(self):
        rep = b_normal_transversality(addition_problem())
        corner = next(r for r in rep.pairs
                      if r.face1 == "H1&H2" and r.face2 == "H1&H2")
        assert corner.system is not None
        assert corner.system.gammas == ((1, 1, -1, -1),)
        assert not corner.smooth
        assert sorted(corner.monoid.rays) == [
            (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)]

    def test_failing_rank(self):
        # Two maps into the quadrant that only see the first coordinate.
        x = corner_model(1, prefix="G")
        y = corner_model(2)
        f = BMap(x, y, {"X": "H2", "G1": "H1&H2"},
                 {("G1", "H1"): 1})
        # face X maps to H2 but no exponent: invalid; build a valid
        # non-transversal example instead: both maps hit only H1.
        f = BMap(x, y, {"X": "X", "G1": "H1"}, {("G1", "H1"): 1})
        f.validate()
        p = FiberProblem(f, f)
        rep = b_normal_transversality(p)
        assert rep.transversal  # image faces are just H1, rank 1 needed
        # Now a target corner reached by exponents on one coordinate only.
        x2 = corner_model(2, prefix="G")
        g = BMap(x2, y,
                 {"X": "X", "G1": "H1", "G2": "H1", "G1&G2": "H1"},
                 {("G1", "H1"): 1, ("G2", "H1"): 1})
        g.validate()
        q = FiberProblem(g, identity_bmap(y))
        rep2 = b_normal_transversality(q)
        assert rep2.transversal


class TestTheoremB:
    def test_addition_not_universal(self):
        smooth, fc, p1, p2, off = theorem_b_check(addition_problem())
        assert not smooth
        assert off == ["H1&H2*H1&H2"]
        fc.validate()
        p1.validate()
        p2.validate()

    def test_identity_pair_universal(self):
        y = corner_model(2)
        p = FiberProblem(identity_bmap(y), identity_bmap(y))
        smooth, fc, p1, p2, off = theorem_b_check(p)
        assert smooth and not off
        assert len(fc.elements) == len(y.faces)

    def test_random_simple_maps_universal(self):
        # b-transversal pairs of simple b-maps always have smooth fiber
        # monoids.
        rng = random.Random(31)
        done = 0
        while done < 20:
            f1 = simple_bmap(rng, rng.randint(1, 3), 2)
            f2 = simple_bmap(rng, rng.randint(1, 3), 2)
            p = FiberProblem(f1, f2)
            if not b_normal_transversality(p).transversal:
                continue
            done += 1
            smooth, _, _, _, off = theorem_b_check(p)
            assert smooth, off


class TestResolve:
    def test_addition_resolution(self):
        res = resolve_fiber_product(addition_problem())
        res.corner.validate()
        res.h1.validate()
        res.h2.validate()
        assert len(res.corner.faces) == 18
        assert len(res.corner.hypersurfaces()) == 5

    def test_projections_commute(self):
        p = addition_problem()
        res = resolve_fiber_product(p)
        assert res.h1.compose(p.f1) == res.h2.compose(p.f2)

    def test_universal_case_is_isomorphism(self):
        y = corner_model(2)
        p = FiberProblem(identity_bmap(y), identity_bmap(y))
        res = resolve_fiber_product(p)
        assert res.refinement.is_identity_like()
        assert len(res.corner.faces) == len(y.faces)


    @pytest.mark.xfail(strict=True, raises=InvariantViolated, reason=(
        "la.block_diag reads a block's width from its first row, so a "
        "face map out of a 0-dimensional element loses its width and "
        "MonoidHom rejects it: matrix cols mismatch target"))
    def test_criterion_6_pairs_resolve(self):
        """The 50 transversal pairs of acceptance criterion 6, drawn as it
        draws them, resolve to smooth complexes with valid projections.
        Today 6 of them do."""
        rng = random.Random(4001)
        done = 0
        while done < 50:
            nt = rng.randint(1, 2)
            f1 = simple_bmap(rng, rng.randint(1, 3), nt)
            f2 = simple_bmap(rng, rng.randint(1, 3), nt)
            p = FiberProblem(f1, f2)
            if not b_normal_transversality(p).transversal:
                continue
            done += 1
            res = resolve_fiber_product(p)
            assert res.refinement.source.is_smooth()
            res.h1.validate()
            res.h2.validate()


class TestFactorThrough:
    def test_edge_factor_without_blowup(self):
        # A map into the smooth (H1, H1) pair factors directly.
        p = addition_problem()
        res = resolve_fiber_product(p)
        z = corner_model(1, prefix="G")
        g = BMap(z, p.f1.source, {"X": "X", "G1": "H1"},
                 {("G1", "H1"): 1})
        g.validate()
        bl, lifted = factor_through(g, g, res)
        assert bl is None
        lifted.validate()
        assert lifted.compose(res.h1) == g
        assert lifted.compose(res.h2) == g

    def test_diagonal_identity_needs_blowup(self):
        # The diagonal of the square hits opposite vertices of the fiber
        # cone, so the domain must be blown up at the corner.
        p = addition_problem()
        res = resolve_fiber_product(p)
        x = p.f1.source
        g = identity_bmap(x)
        bl, lifted = factor_through(g, g, res)
        assert bl is not None
        lifted.validate()
        assert lifted.compose(res.h1) == bl.blowdown.compose(g)
        assert lifted.compose(res.h2) == bl.blowdown.compose(g)

    def test_halfspace_needs_domain_blowup(self):
        p = addition_problem()
        res = resolve_fiber_product(p)
        z = corner_model(1, prefix="G")
        g1 = BMap(z, p.f1.source, {"X": "X", "G1": "H1&H2"},
                  {("G1", "H1"): 1, ("G1", "H2"): 1})
        g1.validate()
        bl, lifted = factor_through(g1, g1, res)
        assert bl is not None
        lifted.validate()
        # The composite through the resolution agrees with the original
        # maps composed with the domain blow-down.
        assert lifted.compose(res.h1) == bl.blowdown.compose(g1)
        assert lifted.compose(res.h2) == bl.blowdown.compose(g1)

    def test_factor_without_blowup_is_the_lift(self):
        # Over the blow-down of the square's corner and the identity, the
        # resolution is the blow-up itself (h1 is a diffeomorphism), so the
        # factoring of (lift of g, g) is the lift of g read through h1.
        y = corner_model(2)
        bl, _ = ordinary_blowup(y, "H1&H2")
        p = FiberProblem(bl.blowdown, identity_bmap(y))
        res = resolve_fiber_product(p)
        assert check_blowdown(res.h1) == (True, True)
        z = corner_model(1, prefix="G")
        g = BMap(z, y, {"X": "X", "G1": "H1&H2"},
                 {("G1", "H1"): 1, ("G1", "H2"): 2})
        lift = lift_bmap(g, bl)
        dom, h = factor_through(lift.bmap, g, res)
        assert dom is None
        h.validate()
        assert h.compose(res.h1) == lift.bmap
        assert h.compose(res.h2) == g

    def test_different_domains_rejected(self):
        p = addition_problem()
        res = resolve_fiber_product(p)
        g1 = identity_bmap(p.f1.source)
        g2 = BMap(corner_model(1, prefix="G"), p.f2.source,
                  {"X": "X", "G1": "H1"}, {("G1", "H1"): 1})
        with pytest.raises(NotCompatible, match="^common domain required$"):
            factor_through(g1, g2, res)

    def test_problem_needs_a_common_target(self):
        with pytest.raises(NotCompatible):
            FiberProblem(sum_map(), identity_bmap(corner_model(2)))

    def test_same_face_ids_are_not_a_common_target(self):
        corner, lines = same_face_ids()
        with pytest.raises(NotCompatible, match="^the two maps must share "
                           "a target$"):
            FiberProblem(identity_bmap(corner), identity_bmap(lines))

    def test_equal_targets_built_apart_are_common(self):
        p = FiberProblem(sum_map(), sum_map())
        assert p.f1.target is not p.f2.target
        res = resolve_fiber_product(p)
        assert res.h1.compose(p.f1) == res.h2.compose(p.f2)

    def test_noncommuting_rejected(self):
        p = addition_problem()
        res = resolve_fiber_product(p)
        z = corner_model(1, prefix="G")
        g1 = BMap(z, p.f1.source, {"X": "X", "G1": "H1"},
                  {("G1", "H1"): 1})
        g2 = BMap(z, p.f2.source, {"X": "X", "G1": "H1"},
                  {("G1", "H1"): 2})
        g1.validate()
        g2.validate()
        with pytest.raises(NotCompatible):
            factor_through(g1, g2, res)
