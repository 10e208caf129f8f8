"""Acceptance suite: nine end-to-end criteria, each printing one
pass/fail line.  The lines bypass pytest's capture so they appear in a
plain `pytest -v` run; every criterion is also an ordinary test."""

import gc
import itertools
import random
import sys
import time
from fractions import Fraction

import pytest

from blowup import exactla as la
from blowup import monoids
from blowup.chartcheck import verify_transitions
from blowup.complexes import (ComplexRefinement, complex_from_monoid,
                              identity_refinement,
                              natural_smooth_refinement,
                              star_subdivide_complex)
from blowup.binomial import (normal_form, resolve, universal_resolution,
                             variety_complex)
from blowup.fiber import (FiberProblem, b_normal_transversality,
                          theorem_b_check)
from blowup.manifolds import (BMap, corner_model, generalized_blowup,
                              identity_bmap, lift_bmap, local_atlas,
                              ordinary_blowup)
from blowup.monoids import ToricMonoid
from blowup.refinements import star_subdivide

from test_monoids import box_hilbert_oracle, random_positive_monoid
from test_fiber import simple_bmap, sum_map


def report(k, detail, t0=None):
    stamp = f" ({time.monotonic() - t0:.2f} s)" if t0 is not None else ""
    line = f"criterion {k}: PASS{stamp} {detail}"
    print(line)
    # Also write past pytest's capture so the line shows without -s.
    print(line, file=sys.__stdout__)


def test_criterion_1_hilbert_figure():
    t0 = time.monotonic()
    m = ToricMonoid.from_generators(2, [(2, 0), (1, 1), (0, 2)])
    assert sorted(m.extremals()) == [(0, 2), (2, 0)]
    assert not m.is_smooth()
    hb = sorted(m.hilbert_basis())
    assert len(hb) == 3
    assert hb == box_hilbert_oracle(m, 2)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, "generated quadrant monoid: extremals, smoothness and "
              "Hilbert basis match the box oracle", t0)


def test_criterion_2_corner_blowup_figure():
    t0 = time.monotonic()
    x = corner_model(2)
    bl, charts = ordinary_blowup(x, "H1&H2")
    assert charts == [((1, 1), (0, 1)), ((1, 0), (1, 1))]
    assert len(bl.total.hypersurfaces()) == 3
    exc = next(h for h in bl.total.hypersurfaces()
               if bl.blowdown.face_map[h] == "H1&H2")
    assert (bl.blowdown.alpha(exc, "H1"),
            bl.blowdown.alpha(exc, "H2")) == (1, 1)
    # The refinement is the star subdivision at (1, 1).
    star = star_subdivide(ToricMonoid.free(2), (1, 1))
    assert set(bl.refinement.localize("H1&H2").members) == \
        set(star.members)
    report(2, "ordinary corner blow-up reproduces the star subdivision, "
              "chart matrices and front-face exponents exactly", t0)


def random_suite_complex(rng):
    dim = rng.choice([2, 2, 3, 3, 4])
    m = random_positive_monoid(rng, dim)
    q, _ = complex_from_monoid(m)
    if len(q.elements) <= 12:
        return q
    keep = set()
    for a in sorted(q.elements, key=lambda e: q.monoids[e].dim):
        closure = set(q.below(a)) | keep
        if len(closure) <= 12:
            keep = closure
    return q.subcomplex(sorted(keep))


def downward_closed_subset(q, rng):
    seeds = rng.sample(list(q.elements),
                       k=rng.randint(1, min(2, len(q.elements))))
    keep = set()
    for a in seeds:
        keep |= set(q.below(a))
    return sorted(keep)


def localized_members(r: ComplexRefinement, a: str):
    return set(r.localize(a).members)


def test_criterion_3_ns_properties():
    t0 = time.monotonic()
    rng = random.Random(1009)
    suite = [random_suite_complex(rng) for _ in range(50)]
    for q in suite:
        assert len(q.elements) <= 12 and q.dim() <= 4
        r = natural_smooth_refinement(q)
        r.validate()
        assert r.source.is_smooth()
        # Idempotence.
        assert natural_smooth_refinement(r.source).is_identity_like()
        # Subcomplex compatibility: ns(Q) restricted to a downward
        # closed Q0 equals ns(Q0).
        sub_ids = downward_closed_subset(q, rng)
        q0 = q.subcomplex(sub_ids)
        r0 = natural_smooth_refinement(q0)
        for a in sub_ids:
            assert localized_members(r, a) == localized_members(r0, a)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(3, "natural smooth refinement on 50 random complexes: smooth, "
              "valid, idempotent and compatible with subcomplexes", t0)


def random_support_point(m: ToricMonoid, rng):
    v = tuple(Fraction(0) for _ in range(m.ambient_dim))
    for g in m.rays:
        c = Fraction(rng.randint(0, 12), rng.randint(1, 4))
        v = tuple(x + c * y for x, y in zip(v, g))
    return v


def test_criterion_4_refinement_cover_oracle():
    t0 = time.monotonic()
    rng = random.Random(2003)
    refinements = []
    for _ in range(5):
        q = random_suite_complex(rng)
        r = natural_smooth_refinement(q)
        top = max(q.elements, key=lambda a: q.monoids[a].dim)
        refinements.append((q.monoids[top], r.localize(top)))
    m = ToricMonoid.free(2)
    refinements.append((m, star_subdivide(m, (2, 3))))
    violations = 0
    for sigma, r in refinements:
        maxes = r.maximal_members()
        top_dim = max(mm.dim for mm in maxes)
        for _ in range(1000):
            p = random_support_point(sigma, rng)
            hits = [mm for mm in maxes if mm.in_support(p)]
            if not hits:
                violations += 1
                continue
            for d in {mm.dim for mm in maxes}:
                interior = [mm for mm in maxes if mm.dim == d
                            and mm.in_relative_interior(p)]
                if len(interior) > 1:
                    violations += 1
    assert violations == 0
    report(4, f"{len(refinements)} refinements x 1000 support points: "
              "all covered, relative interiors disjoint, 0 violations",
           t0)


def random_blowup(x, rng):
    """A blow-up of x along a random iterated star subdivision."""
    q = x.basic_complex()
    r = identity_refinement(q)
    for _ in range(rng.randint(1, 2)):
        rs = r.source
        pool = [e for e in rs.elements if rs.monoids[e].dim >= 2]
        if not pool:
            break
        a = rng.choice(sorted(pool))
        v = rs.monoids[a].interior_point()
        r = r.compose(star_subdivide_complex(rs, a, v))
    return generalized_blowup(x, r)


def check_delta_mu_nu(f: BMap, blowup, lift):
    """The exact exponent identity at every face of the source."""
    r = blowup.refinement
    for face in f.source.faces:
        e = lift.factoring.node_map[face]
        sigma_id = f.face_map[face]
        incl = la.mat_mul(
            r.morphism.homs[e],
            r.target.face_maps[(r.morphism.node_map[e], sigma_id)])
        mu = lift.factoring.homs[face]
        delta = f.exponent_matrix(face)
        assert la.mat_mul(mu, incl) == delta


def test_criterion_5_lifting_identities():
    t0 = time.monotonic()
    rng = random.Random(3001)
    for i in range(100):
        n = rng.choice([2, 2, 3])
        y = corner_model(n)
        blowup = random_blowup(y, rng)
        # A compatible map: the blow-down of a finer refinement.
        finer = blowup.refinement
        rs = finer.source
        pool = [e for e in rs.elements if rs.monoids[e].dim >= 2]
        if pool:
            a = rng.choice(sorted(pool))
            v = rs.monoids[a].interior_point()
            finer = finer.compose(star_subdivide_complex(rs, a, v))
        fine_bl = generalized_blowup(y, finer)
        f = fine_bl.blowdown
        lift = lift_bmap(f, blowup)
        check_delta_mu_nu(f, blowup, lift)
        assert lift.bmap.compose(blowup.blowdown) == f
        # Functoriality: precompose with a blow-down of the source.
        g_bl = random_blowup(f.source, rng)
        g = g_bl.blowdown
        composed_lift = lift_bmap(g.compose(f), blowup)
        assert composed_lift.bmap == g.compose(lift.bmap)
    elapsed = time.monotonic() - t0
    report(5, "100 compatible pairs: delta = mu nu, lift composes back "
              "to the map, lifting commutes with precomposition", t0)


def test_criterion_6_fiber_monoid_oracle():
    t0 = time.monotonic()
    f = sum_map()
    p = FiberProblem(f, f)
    smooth, fc, _, _, offenders = theorem_b_check(p)
    corner = fc.monoids["H1&H2*H1&H2"]
    expected = [(0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)]
    assert sorted(corner.extremals()) == expected
    assert sorted(corner.hilbert_basis()) == box_hilbert_oracle(corner, 1)
    assert not corner.is_simplicial()
    assert not smooth and offenders == ["H1&H2*H1&H2"]
    rng = random.Random(4001)
    done = 0
    while done < 50:
        nt = rng.randint(1, 2)
        f1 = simple_bmap(rng, rng.randint(1, 3), nt)
        f2 = simple_bmap(rng, rng.randint(1, 3), nt)
        pair = FiberProblem(f1, f2)
        if not b_normal_transversality(pair).transversal:
            continue
        done += 1
        ok, _, _, _, off = theorem_b_check(pair)
        assert ok, off
    report(6, "addition-pattern fiber monoid matches the box oracle and "
              "is non-simplicial; 50 transversal simple b-map pairs all "
              "smooth", t0)


def count_indefinite(res):
    b = res.system
    total = res.refinement
    px = total.target
    bad = 0
    x = corner_model(b.boundary_dim)
    for fid in px.elements:
        coords = tuple(int(h[1:]) - 1 for h in sorted(x.incidence[fid]))
        gs = [tuple(g[i] for i in coords) for g in b.gammas]
        dim = px.monoids[fid].dim
        for e in total.members_over(fid):
            img = total.morphism.image_in(e, fid)
            if img.dim != dim:
                continue
            for g in gs:
                vals = [la.dot(row, g) for row in img.rays]
                if any(v > 0 for v in vals) and any(v < 0 for v in vals):
                    bad += 1
    return bad


def test_criterion_7_binomial_resolutions():
    t0 = time.monotonic()
    diag = universal_resolution(normal_form([((1, 0), (0, 1))]))
    assert count_indefinite(diag) == 0
    cusp = universal_resolution(normal_form([((2, 0), (0, 3))]))
    assert count_indefinite(cusp) == 0
    rays = {g for e in cusp.refinement.members_over("H1&H2")
            for g in cusp.refinement.morphism.image_in(e, "H1&H2").rays}
    assert (3, 2) in rays
    report(7, "diagonal and cusp resolve with 0 indefinite transformed "
              "exponents; the cusp refinement contains the ray (3, 2)",
           t0)


def test_criterion_8_numeric_atlases():
    t0 = time.monotonic()
    atlases = []
    bl, _ = ordinary_blowup(corner_model(2), "H1&H2")
    atlases.append(bl.refinement)
    for w in ((1, 2), (2, 3)):
        blw, _ = ordinary_blowup(corner_model(2), "H1&H2", weights=w)
        atlases.append(blw.refinement)
    rng = random.Random(5003)
    for _ in range(3):
        atlases.append(random_blowup(corner_model(3), rng).refinement)
    overlaps = 0
    for r in atlases:
        atlas = local_atlas(r)
        rep = verify_transitions(atlas)
        assert rep.failures == []
        overlaps += len(atlas.transitions)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(8, f"{len(atlases)} atlases verified exactly: transition @ nu2 = "
              f"nu1 and a reverse transition on all {overlaps} ordered "
              "overlaps", t0)


def test_criterion_9_extension():
    t0 = time.monotonic()
    from blowup.complexes import extend_refinement
    rng = random.Random(6007)
    done = 0
    while done < 25:
        q = random_suite_complex(rng)
        sub_ids = downward_closed_subset(q, rng)
        q0 = q.subcomplex(sub_ids)
        pool = [a for a in q0.elements if q0.monoids[a].dim >= 1]
        if not pool:
            continue
        a = rng.choice(sorted(pool))
        r0 = star_subdivide_complex(q0, a, q0.monoids[a].interior_point())
        local0 = {e: r0.localize(e) for e in q0.elements}
        r = extend_refinement(q, local0, smooth=False)
        r.validate()
        for e in q0.elements:
            assert localized_members(r, e) == set(local0[e].members)
        done += 1
    report(9, "25 random triples: extension is a valid refinement "
              "restricting exactly to the given part", t0)


def refinement_snapshot(r: ComplexRefinement):
    """Element ids, canonical monoid keys, node map and homs of r."""
    m = r.morphism
    return ([(e, m.source.monoids[e].key) for e in m.source.elements],
            [(e, m.target.monoids[e].key) for e in m.target.elements],
            m.node_map, m.homs)


def test_cold_and_warm_runs_agree():
    """Monoids kept alive by earlier calls (the recent ring of
    blowup.monoids) change no result: a resolve and a criterion-5 lift
    round give the same keys, ids, signs and exponents from an empty
    ring as when run again right after."""
    def run():
        res = resolve(normal_form([((1, 1, 0), (0, 0, 2))]))
        rng = random.Random(3001)
        y = corner_model(2)
        blowup = random_blowup(y, rng)
        finer = blowup.refinement
        rs = finer.source
        a = max(e for e in rs.elements if rs.monoids[e].dim >= 2)
        finer = finer.compose(star_subdivide_complex(
            rs, a, rs.monoids[a].interior_point()))
        lift = lift_bmap(generalized_blowup(y, finer).blowdown, blowup)
        return (refinement_snapshot(res.refinement), res.lifted,
                res.chart_signs, refinement_snapshot(blowup.refinement),
                lift.bmap.face_map, lift.bmap.exponents,
                lift.factoring.node_map, lift.factoring.homs)

    monoids._recent.clear()
    gc.collect()
    cold = run()
    built = list(monoids._recent)
    assert 0 < len(built) < monoids._RECENT
    assert run() == cold
    # Each monoid the second run needed was still alive: it built none.
    assert list(monoids._recent) == built
