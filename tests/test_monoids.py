"""Tests for toric monoids against brute-force lattice oracles."""

import functools
import gc
import itertools
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from blowup import exactla as la
from blowup import monoids
from blowup.errors import (BlowupError, EnumerationTooLarge,
                           InvariantViolated, NotInSupport,
                           NotPointedLattice, NotSaturated, NotSharp)
from blowup.monoids import MonoidHom, ToricMonoid, fiber_product
from blowup.refinements import intersect_members

from test_exactla import fm_feasible
from test_sections import monoid_pairs, random_monoid


def ray_monoid(ambient_dim, v):
    """The monoid on a single ray, carrying its span as lattice."""
    return ToricMonoid.make(ambient_dim, [v], [v])


def random_positive_monoid(rng, dim, max_entry=3):
    """A pointed full-lattice monoid with rays in the positive orthant."""
    while True:
        k = rng.randint(dim, dim + 2)
        rays = []
        for _ in range(k):
            v = tuple(rng.randint(0, max_entry) for _ in range(dim))
            if any(v):
                rays.append(v)
        if not rays:
            continue
        try:
            return ToricMonoid.make(dim, la.identity(dim), rays)
        except NotPointedLattice:
            continue


def lp_extreme_rays(gens, r):
    """Reference for make on the full lattice Z^r: None if the cone of
    gens contains a line, else its sorted primitive extreme rays, both
    decided by exact LP (a generator is extremal iff it is not in the cone
    of the others), solved by Fourier-Motzkin elimination, independent of
    the double description that make uses."""
    if fm_feasible(r, strict=gens) is None:
        return None
    prim = sorted(set(la.primitive(g) for g in gens))
    out = []
    for i, v in enumerate(prim):
        others = prim[:i] + prim[i + 1:]
        k = len(others)
        # lambda @ others == s v with lambda >= 0 and s > 0.
        zero = [tuple(o[j] for o in others) + (-v[j],) for j in range(r)]
        nonneg = [tuple(int(j == t) for j in range(k + 1))
                  for t in range(k)]
        strict = [tuple(int(j == k) for j in range(k + 1))]
        if fm_feasible(k + 1, strict=strict, nonneg=nonneg,
                       zero=zero) is None:
            out.append(v)
    return out


# The slowest monoid document of the CLI benchmark workload: dimension 4,
# 21 generators, which are its Hilbert basis.  Deciding extremality by one
# Fourier-Motzkin LP per generator took over 9 s on it.
LARGE_DOC = (
    (0, 1, 0, 3), (1, 1, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1), (1, 1, 1, 2),
    (1, 2, 0, 3), (1, 2, 1, 2), (2, 1, 1, 0), (2, 1, 1, 1), (2, 1, 2, 2),
    (2, 1, 3, 3), (2, 2, 3, 2), (2, 2, 3, 3), (2, 2, 3, 4), (2, 2, 3, 5),
    (2, 3, 3, 0), (2, 3, 3, 1), (2, 3, 3, 2), (2, 3, 3, 3), (2, 3, 3, 4),
    (3, 1, 1, 0))


def box_hilbert_oracle(m: ToricMonoid, bound: int):
    """Irreducible nonzero monoid elements with entries in [0, bound].

    Only valid for monoids inside the positive orthant, where any
    decomposition of a box point stays inside the box.
    """
    n = m.ambient_dim
    pts = [v for v in itertools.product(range(bound + 1), repeat=n)
           if any(v) and m.contains(v)]
    pset = set(pts)
    basis = []
    for v in pts:
        reducible = False
        for a in pset:
            b = tuple(x - y for x, y in zip(v, a))
            if b != v and any(b) and b in pset:
                reducible = True
                break
        if not reducible:
            basis.append(v)
    return sorted(basis)


class TestConstruction:
    def test_free_is_smooth(self):
        m = ToricMonoid.free(3)
        assert m.is_smooth()
        assert m.index() == 1
        assert sorted(m.hilbert_basis()) == sorted(la.identity(3))

    def test_canonical_key_ignores_ray_order(self):
        a = ToricMonoid.make(2, la.identity(2), [(0, 1), (1, 0)])
        b = ToricMonoid.make(2, la.identity(2), [(1, 0), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a == ToricMonoid.free(2)

    def test_rays_reduced_to_extremals(self):
        m = ToricMonoid.make(2, la.identity(2), [(1, 0), (1, 1), (0, 1)])
        assert sorted(m.rays) == [(0, 1), (1, 0)]

    def test_from_generators_saturates(self):
        # Generated by (2,0),(1,1),(0,2): index-2 sublattice, saturated.
        m = ToricMonoid.from_generators(2, [(2, 0), (1, 1), (0, 2)])
        assert m.contains((1, 1))
        assert not m.contains((1, 0))
        assert m.in_support((1, 0))

    def test_not_pointed_rejected(self):
        with pytest.raises(NotSharp):
            ToricMonoid.make(1, la.identity(1), [(1,), (-1,)])

    def test_not_sharp_raised_under_optimize(self):
        code = ("import sys\n"
                "from blowup.errors import NotSharp\n"
                "from blowup.monoids import ToricMonoid\n"
                "try:\n"
                "    ToricMonoid.make(2, ((1, 0), (0, 1)),\n"
                "                     [(1, 0), (-1, 0), (0, 1)])\n"
                "except NotSharp:\n"
                "    print('NotSharp', sys.flags.optimize)\n")
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["NotSharp", "1"]

    def test_ambient_mismatch_raised_under_optimize(self):
        """Homs that do not compose, a fiber product over targets of
        different dimensions and members of different ambient spaces raise
        a typed error, also under python -O."""
        code = ("import sys\n"
                "from blowup.errors import InvariantViolated\n"
                "from blowup.monoids import MonoidHom, ToricMonoid, "
                "fiber_product\n"
                "from blowup.refinements import intersect_members\n"
                "m1, m2 = ToricMonoid.free(1), ToricMonoid.free(2)\n"
                "h1 = MonoidHom(m1, m1, ((1,),))\n"
                "h2 = MonoidHom(m2, m2, ((1, 0), (0, 1)))\n"
                "for call in (lambda: h1.compose(h2),\n"
                "             lambda: fiber_product(h1, h2),\n"
                "             lambda: intersect_members(m1, m2)):\n"
                "    try:\n"
                "        call()\n"
                "    except InvariantViolated:\n"
                "        print('InvariantViolated')\n"
                "print(sys.flags.optimize)\n")
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["InvariantViolated"] * 3 + ["1"]

    @settings(max_examples=120, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda r: st.tuples(
        st.just(r), st.booleans(),
        st.lists(st.tuples(*[st.integers(-2, 2)] * r),
                 min_size=r, max_size=r + 3))))
    def test_rays_and_sharpness_match_lp_oracle(self, data):
        r, sublattice, gens = data
        gens = [g for g in gens if any(g)]
        assume(gens and la.rank(gens) == r)
        lattice = gens if sublattice else la.identity(r)
        expected = lp_extreme_rays(gens, r)
        if expected is None:
            with pytest.raises(NotSharp):
                ToricMonoid.make(r, lattice, gens)
            return
        m = ToricMonoid.make(r, lattice, gens)
        assert sorted(la.primitive(g) for g in m.rays) == expected

    def test_large_document_is_its_own_hilbert_basis(self):
        m = ToricMonoid.from_generators(4, LARGE_DOC)
        assert m.hilbert_basis() == tuple(sorted(LARGE_DOC))

    def test_trivial(self):
        m = ToricMonoid.trivial(2)
        assert m.dim == 0
        assert m.hilbert_basis() == ()
        assert m.contains((0, 0))
        assert not m.contains((1, 0))


def dfs_saturation_gap(ambient_dim, generators):
    """Reference for from_generators: the monoid the generators span, and
    the first element of its Hilbert basis that is no nonnegative integer
    combination of them (None if there is none), found by depth-first
    search bounded by a grading, the sum of the facet normals."""
    gens = [g for g in la.mat(generators) if not la.is_zero(g)]
    m = ToricMonoid.make(ambient_dim, gens, gens)
    coords = [m.lattice_coords_int(g) for g in gens]
    grading = functools.reduce(la.vadd, m.facet_normals(), la.zeros(m.dim))

    def combination(t, idx):
        if la.is_zero(t):
            return True
        if idx == len(coords):
            return False
        g = coords[idx]
        cmax = la.dot(grading, t) // la.dot(grading, g)
        return any(combination(la.vsub(t, la.vscale(c, g)), idx + 1)
                   for c in range(cmax, -1, -1))
    for h in m.hilbert_basis():
        if not combination(m.lattice_coords_int(h), 0):
            return m, h
    return m, None


@st.composite
def generator_sets(draw):
    """Nonnegative generators in dimension 2-4, and, when saturated is
    drawn, the Hilbert basis of the monoid they span plus sums of its
    elements instead, so that they span a saturated monoid."""
    dim = draw(st.integers(2, 4))
    entry = st.integers(0, 3 if dim < 4 else 2)
    gens = draw(st.lists(st.tuples(*[entry] * dim), min_size=dim,
                         max_size=dim + 3))
    if draw(st.booleans()):
        basis = ToricMonoid.make(dim, gens, [g for g in gens if any(g)]
                                 ).hilbert_basis()
        if basis:
            extra = draw(st.lists(st.tuples(st.sampled_from(basis),
                                            st.sampled_from(basis)),
                                  max_size=2))
            gens = draw(st.permutations(
                list(basis) + [la.vadd(a, b) for a, b in extra]))
    return dim, gens


class TestFromGenerators:
    @settings(max_examples=100, deadline=None)
    @given(generator_sets())
    def test_matches_depth_first_search(self, data):
        dim, gens = data
        expected, gap = dfs_saturation_gap(dim, gens)
        if gap is None:
            assert ToricMonoid.from_generators(dim, gens) is expected
        else:
            with pytest.raises(NotSaturated) as err:
                ToricMonoid.from_generators(dim, gens)
            assert str(err.value) == (f"lattice point {gap} is in the "
                                      "saturation but not the generated "
                                      "monoid")


class TestMembership:
    def test_sublattice_membership(self):
        m = ToricMonoid.make(1, la.mat([(2,)]), [(2,)])
        assert m.contains((2,))
        assert not m.contains((1,))
        assert m.in_support((1,))

    def test_relative_interior(self):
        m = ToricMonoid.free(2)
        assert m.in_relative_interior((1, 1))
        assert not m.in_relative_interior((1, 0))
        p = m.interior_point()
        assert m.in_relative_interior(p)

    def test_interior_point_of_face(self):
        m = ray_monoid(2, (1, 0))
        p = m.interior_point()
        assert p[0] > 0 and p[1] == 0


def subset_extreme_rays(rows, s):
    """Reference for exactla.cone_rays: try the kernel line of every
    (s - 1)-subset of the rows, in both directions.  None if the cone
    contains a line."""
    rows = sorted(set(la.primitive(a) for a in rows if any(a)))
    if la.rank(rows) < s:
        return None
    out = set()
    for sub in itertools.combinations(rows, s - 1):
        kern = la.right_kernel_q(sub) if sub else ((1,),)
        if len(kern) != 1:
            continue
        y = la.clear_denominators(kern[0])
        for cand in (y, tuple(-x for x in y)):
            vals = [la.dot(a, cand) for a in rows]
            active = [a for a, x in zip(rows, vals) if x == 0]
            if min(vals) >= 0 and la.rank(active) == s - 1:
                out.add(cand)
    return tuple(sorted(out))


class TestConeDuality:
    # Up to dimension 4, rays with s - 2 common rows are always adjacent.
    # Sparse rows in dimensions 5 and 6 give degenerate cones, where the
    # adjacency test itself decides; the example is one of them.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda s: st.tuples(
        st.just(s), st.lists(
            st.tuples(*[st.integers(-1, 1) if s > 4
                        else st.integers(-2, 2)] * s),
            min_size=s - 1, max_size=s + 5))))
    @example((5, [(0, 0, 1, 1, -1), (1, -1, 1, 1, 1), (0, 1, 0, 0, 1),
                  (1, 0, 0, 1, 0), (0, 1, 1, 0, 1), (-1, 0, 0, 1, -1),
                  (-1, 0, 0, -1, 0), (1, 0, 1, 1, 0)]))
    def test_double_description_matches_subsets(self, data):
        s, rows = data
        expected = subset_extreme_rays(rows, s)
        if expected is None:
            with pytest.raises(NotSharp):
                la.cone_rays(rows, s)
        else:
            assert la.cone_rays(rows, s) == expected


class TestHilbert:
    def test_quadratic_cone(self):
        # Cone over (1,0),(1,2): Hilbert basis needs the interior (1,1).
        m = ToricMonoid.make(2, la.identity(2), [(1, 0), (1, 2)])
        assert sorted(m.hilbert_basis()) == [(1, 0), (1, 1), (1, 2)]
        assert not m.is_smooth()
        assert m.is_simplicial()
        assert m.index() == 2

    def test_random_against_box_oracle(self):
        rng = random.Random(11)
        for _ in range(25):
            dim = rng.choice([2, 2, 3])
            m = random_positive_monoid(rng, dim)
            hb = sorted(m.hilbert_basis())
            bound = max(max(v) for v in hb)
            assert hb == box_hilbert_oracle(m, bound)

    def test_generates_monoid(self):
        rng = random.Random(12)
        for _ in range(10):
            m = random_positive_monoid(rng, 2)
            hb = m.hilbert_basis()
            # Random small nonneg combinations land back in the monoid.
            for _ in range(20):
                cs = [rng.randint(0, 3) for _ in hb]
                v = la.zeros(m.ambient_dim)
                for c, g in zip(cs, hb):
                    v = la.vadd(v, la.vscale(c, g))
                assert m.contains(v)

    def test_enumeration_bound(self):
        """|det| is read off the Smith form before any point is visited: a
        simplex at the bound is enumerated, one over it raises on every
        call, and nothing is cached for it."""
        with mock.patch.object(monoids, "_MAX_PARALLELEPIPED", 6):
            assert len(monoids._parallelepiped_points(((1, 0), (1, 6)),
                                                      2)) == 6
            m = ToricMonoid.make(2, la.identity(2), [(1, 0), (5, 7)])
            for _ in range(2):
                with pytest.raises(EnumerationTooLarge,
                                   match=r"\|det\| 7, over the "
                                         r"enumeration bound 6$"):
                    m.hilbert_basis()
            assert "hilbert" not in m._cache
        assert m.hilbert_basis() == ((1, 0), (1, 1), (3, 4), (5, 7))


class TestFaces:
    def test_quadrant_face_lattice(self):
        m = ToricMonoid.free(2)
        fs = m.faces()
        assert len(fs) == 4  # 0, two rays, the whole quadrant
        dims = sorted(f.dim for f in fs)
        assert dims == [0, 1, 1, 2]

    def test_smallest_face_containing(self):
        m = ToricMonoid.free(2)
        f = m.smallest_face_containing((3, 0))
        assert f.dim == 1
        assert m.smallest_face_containing((1, 1)) == m
        assert m.smallest_face_containing((0, 0)).dim == 0

    def test_is_face_of(self):
        m = ToricMonoid.make(2, la.identity(2), [(1, 0), (1, 2)])
        assert ray_monoid(2, (1, 0)).is_face_of(m)
        assert not ray_monoid(2, (1, 1)).is_face_of(m)

    def test_face_count_cone_over_square(self):
        rays = [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]
        m = ToricMonoid.make(3, la.identity(3), rays)
        # 1 vertex + 4 rays + 4 facets + 1 full cone.
        assert len(m.faces()) == 10
        assert not m.is_simplicial()


class TestSubspaceOps:
    def test_intersect_with_subspace(self):
        m = ToricMonoid.free(2)
        d = m.intersect_with_subspace([(1, 1)])
        assert d.dim == 1
        assert d.rays == ((1, 1),) or d.rays == (la.primitive((1, 1)),)

    def test_intersect_keeps_lattice_saturated(self):
        m = ToricMonoid.make(2, la.identity(2), [(1, 0), (1, 2)])
        d = m.intersect_with_subspace([(2, 2)])
        assert d.contains((1, 1))

    def test_join(self):
        m = ToricMonoid.free(2)
        t1 = ray_monoid(2, (1, 0))
        t2 = ray_monoid(2, (0, 1))
        assert m.join(t1, t2) == m


class TestHoms:
    def test_validate_rejects_escape(self):
        src = ToricMonoid.free(1)
        tgt = ToricMonoid.free(2)
        bad = MonoidHom(src, tgt, la.mat([(1, -1)]))
        with pytest.raises(NotInSupport):
            bad.validate()

    def test_image_monoid(self):
        src = ToricMonoid.free(2)
        tgt = ToricMonoid.free(2)
        h = MonoidHom(src, tgt, la.mat([(1, 1), (0, 1)]))
        img = h.image_monoid()
        assert sorted(img.rays) == [(0, 1), (1, 1)]

    def test_compose(self):
        m = ToricMonoid.free(2)
        h1 = MonoidHom(m, m, la.mat([(1, 1), (0, 1)]))
        h2 = MonoidHom(m, m, la.mat([(1, 0), (1, 1)]))
        c = h1.compose(h2)
        assert c.matrix == la.mat_mul(h1.matrix, h2.matrix)

    def test_fiber_product_diagonal(self):
        n = ToricMonoid.free(1)
        h = MonoidHom(n, n, la.identity(1))
        fp = fiber_product(h, h)
        assert fp.ambient_dim == 2
        assert fp.rays == ((1, 1),)

    def test_fiber_product_addition_pattern(self):
        # Two coordinates each mapping by sum to a line.
        s = ToricMonoid.free(2)
        t = ToricMonoid.free(1)
        h = MonoidHom(s, t, la.mat([(1,), (1,)]))
        fp = fiber_product(h, h)
        assert fp.ambient_dim == 4
        assert sorted(fp.rays) == [(0, 1, 0, 1), (0, 1, 1, 0),
                                   (1, 0, 0, 1), (1, 0, 1, 0)]
        assert not fp.is_simplicial()


class TestInterning:
    def test_equal_data_is_the_same_object(self):
        a = ToricMonoid.make(2, la.identity(2), [(1, 0), (1, 2)])
        b = ToricMonoid.make(2, [(1, 1), (0, 1)], [(3, 6), (2, 0), (2, 1)])
        assert a is b
        assert ToricMonoid.make(2, la.identity(2), [(1, 0), (0, 1)]) \
            is ToricMonoid.free(2)
        face = a.smallest_face_containing((1, 2))
        assert face is a.smallest_face_containing((2, 4))
        assert face is ToricMonoid.make(2, [(1, 2)], [(1, 2)])

    def test_table_drops_unreferenced_monoids(self):
        m = ToricMonoid.make(3, la.identity(3),
                             [(1, 0, 0), (1, 7, 0), (1, 0, 9), (1, 5, 8)])
        m.hilbert_basis()  # fills m's caches with faces
        key = m.key
        assert monoids._interned.get(key) is m
        del m
        gc.collect()
        # The recent ring still holds it; once cleared, nothing does.
        assert key in monoids._interned
        monoids._recent.clear()
        assert key not in monoids._interned

    def test_freed_without_the_cycle_collector(self):
        """Results that are the monoid itself (the whole face, a section by
        its own span, an identity image) make no reference cycle, and
        neither do the section keys and membership memos, so the monoids
        go when their last references do."""
        m = ToricMonoid.make(3, la.identity(3),
                             [(1, 0, 0), (1, 7, 0), (1, 0, 9), (1, 5, 8)])
        key = m.key
        enabled = gc.isenabled()
        gc.disable()
        try:
            m.hilbert_basis()
            assert m.faces()[-1] is m
            assert m.smallest_face_containing(m.interior_point()) is m
            before = section_keys()
            assert m.intersect_with_subspace(m.lattice) is m
            h = MonoidHom(m, ToricMonoid.trivial(1), ((1,), (0,), (0,)))
            fp = fiber_product(h, h)
            filed = section_keys() - before
            results = {monoids._interned[k] for k in filed}
            assert fp in results and results <= {m, fp}
            assert MonoidHom(m, m, la.identity(3)).image_monoid() is m
            assert m.faces()[-1] == m.faces()[-1]
            for _ in range(2):
                assert m.contains((2, 5, 8)) and not m.contains((0, 1, 0))
                assert fp.contains((1, 7, 0, 1, 0, 9))
            keys = [key, fp.key]
            del m, h, fp, results
            assert all(k in monoids._interned for k in keys + list(filed))
            monoids._recent.clear()
            assert not any(k in monoids._interned for k in keys + list(filed))
        finally:
            if enabled:
                gc.enable()

    def test_input_keys_and_cached_images_are_dropped(self):
        lattice = [(1, 1, 0), (0, 1, 0), (0, 0, 1)]
        gens = [(2, 0, 0), (1, 7, 0), (1, 0, 9), (1, 5, 8)]
        given = (3, la.mat(lattice), la.mat(gens))
        m = ToricMonoid.make(3, lattice, gens)
        assert monoids._interned.get(given) is m and given != m.key
        # An injective and a non-injective image, cached on m.
        maps = ((3, ((1, 0, 0), (0, 1, 0), (1, 1, 1))),
                (1, ((2,), (4,), (6,))))
        images = [MonoidHom(m, ToricMonoid.trivial(d), matrix).image_monoid()
                  for d, matrix in maps]
        assert all(m._cache[("image", d, matrix)] is img
                   for (d, matrix), img in zip(maps, images))
        keys = [given, m.key] + [img.key for img in images]
        assert all(monoids._interned.get(k) is not None for k in keys)
        del m, images
        gc.collect()
        assert all(k in monoids._interned for k in keys)
        monoids._recent.clear()
        assert not any(k in monoids._interned for k in keys)

    def test_recent_ring_keeps_the_last_monoids_built(self):
        k = 5
        keys = []
        for i in range(monoids._RECENT + k):
            # Fresh monoids, none of them built by any other test.
            m = ToricMonoid.make(2, la.identity(2),
                                 [(1, 0), (i + 1, 7919)])
            keys.append(m.key)
        del m
        gc.collect()
        assert len(monoids._recent) == monoids._RECENT
        assert not any(key in monoids._interned for key in keys[:k])
        assert all(monoids._interned.get(key) is not None
                   for key in keys[-monoids._RECENT:])
        assert [r.key for r in monoids._recent] == keys[-monoids._RECENT:]

    def test_hits_do_not_renew_a_monoid(self):
        """Only a build enters the ring, so a monoid hit after it was built
        still leaves after _RECENT more builds."""
        m = ToricMonoid.make(2, la.identity(2), [(1, 0), (1, 7907)])
        key = m.key
        del m
        for i in range(monoids._RECENT):
            assert monoids._intern(*key).key == key
            ToricMonoid.make(2, la.identity(2), [(1, 0), (i + 2, 7907)])
        gc.collect()
        assert key not in monoids._interned


@st.composite
def monoid_and_matrix(draw):
    """A random monoid (a random face of a random positive monoid, so the
    lattice may be a proper sublattice) and a random integer matrix from
    its ambient space."""
    dim = draw(st.integers(1, 3))
    sigma = random_positive_monoid(random.Random(draw(st.integers(0, 999))),
                                   dim)
    m = draw(st.sampled_from(sigma.faces()))
    cols = draw(st.integers(1, 4))
    matrix = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * cols),
                           min_size=dim, max_size=dim))
    return m, la.mat(matrix)


class TestImageMonoid:
    @settings(max_examples=80, deadline=None)
    @given(monoid_and_matrix())
    def test_injective_shortcut_matches_make(self, data):
        m, matrix = data
        cols = len(matrix[0])
        lattice = la.mat_mul(m.lattice, matrix)
        rays = [la.apply_row(g, matrix) for g in m.rays]
        injective = m.dim == 0 or la.rank(lattice) == m.dim
        hom = MonoidHom(m, ToricMonoid.trivial(cols), matrix)
        # The uncached builder, so that make is seen on every example.
        with mock.patch.object(ToricMonoid, "make",
                               side_effect=ToricMonoid.make) as make:
            try:
                got, raised = hom._build_image(), None
            except BlowupError as e:
                got, raised = None, type(e)
        assert make.called == (not injective)
        try:
            expected = ToricMonoid.make(cols, lattice, rays)
        except BlowupError as e:
            assert raised is type(e)
            with pytest.raises(type(e)):
                hom.image_monoid()
        else:
            assert raised is None and got.key == expected.key
            assert hom.image_monoid() is got

    def test_image_ignores_the_target_object(self):
        m = ToricMonoid.make(2, la.identity(2), [(1, 0), (1, 3)])
        matrix = ((1, 0, 2), (0, 1, 1))
        first = MonoidHom(m, ToricMonoid.free(3), matrix).image_monoid()
        other = ToricMonoid.make(3, la.identity(3),
                                 [(1, 0, 0), (0, 1, 0), (1, 1, 1)])
        assert MonoidHom(m, other, matrix).image_monoid() is first
        assert first == ToricMonoid.make(3, la.mat_mul(m.lattice, matrix),
                                         [(1, 0, 2), (1, 3, 5)])


def cone_over_square():
    return ToricMonoid.make(3, la.identity(3),
                            [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)])


def outcome(f):
    """f(), or the type of the BlowupError it raises."""
    try:
        return f()
    except BlowupError as e:
        return type(e)


class TestIdentityImage:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_build_image(self, data):
        m, matrix = data.draw(monoid_and_matrix())
        d = m.ambient_dim
        matrix = data.draw(st.sampled_from(
            [la.identity(d), la.mat(la.identity(d)), matrix]))
        hom = MonoidHom(m, ToricMonoid.trivial(len(matrix[0])), matrix)
        # The uncached builder is the oracle: image_monoid skips it for
        # la.identity.
        assert outcome(hom.image_monoid) == outcome(hom._build_image)

    def test_identity_image_is_the_source(self):
        m = cone_over_square()
        hom = MonoidHom(m, ToricMonoid.free(3), la.identity(3))
        assert hom.image_monoid() is m
        assert hom._build_image() is m

    @pytest.mark.parametrize("rows, cols", [(4, 3), (3, 4), (2, 3)])
    def test_identity_of_the_wrong_size_raises(self, rows, cols):
        with pytest.raises(InvariantViolated):
            MonoidHom(cone_over_square(), ToricMonoid.trivial(cols),
                      la.identity(rows)).image_monoid()


@st.composite
def generators_and_variant(draw):
    """Cone generators of a monoid in Z^r, with or without a sublattice
    spanned by the generators, and a rewriting of the same input: the
    generators shuffled, rescaled or duplicated."""
    r = draw(st.integers(1, 3))
    gens = draw(st.lists(st.tuples(*[st.integers(-2, 3)] * r),
                         min_size=r, max_size=r + 2))
    gens = [g for g in gens if any(g)]
    sublattice = draw(st.booleans())
    kind = draw(st.sampled_from(["shuffle", "rescale", "duplicate"]))
    if kind == "shuffle":
        variant = draw(st.permutations(gens))
    elif kind == "rescale":
        variant = [la.vscale(draw(st.integers(1, 3)), g) for g in gens]
    else:
        variant = gens + draw(st.lists(st.sampled_from(gens), min_size=1)) \
            if gens else gens
    return r, sublattice, gens, variant


class TestMakeMemo:
    """make is memoized on its input: an equal input, or any input with the
    same canonical data, gives the first call's object."""

    @settings(max_examples=120, deadline=None)
    @given(generators_and_variant())
    def test_rewritten_inputs_return_the_first_object(self, data):
        r, sublattice, gens, variant = data
        assume(gens and la.rank(gens) == r)
        lattice = gens if sublattice else la.identity(r)
        try:
            first = ToricMonoid.make(r, lattice, gens)
        except BlowupError:
            return
        assert ToricMonoid.make(r, lattice, gens) is first
        assert ToricMonoid.make(r, lattice, variant) is first
        assert ToricMonoid.make(r, first.lattice, first.rays) is first
        assert ToricMonoid.make(*first.key) is first
        # A build that bypasses the memo (and the intern table).
        with mock.patch.object(monoids, "_interned",
                               weakref.WeakValueDictionary()):
            fresh = ToricMonoid.make(r, lattice, variant)
        assert fresh is not first and fresh == first

    def test_iterator_input(self):
        m = ToricMonoid.make(2, iter(la.identity(2)),
                             iter([(1, 0), (1, 4)]))
        assert m.rays == ((1, 0), (1, 4))
        assert ToricMonoid.make(2, la.identity(2), [(1, 0), (1, 4)]) is m

    def test_repeat_does_no_hermite_reduction(self):
        gens = [(1, 0, 0), (1, 6, 0), (1, 0, 5)]
        m = ToricMonoid.make(3, gens, gens)
        with mock.patch.object(la, "row_space_basis",
                               side_effect=la.row_space_basis) as rsb:
            assert ToricMonoid.make(3, gens, gens) is m
        assert not rsb.called

    def test_errors_are_raised_on_every_call(self):
        gens = [(1, 0), (-1, 0), (0, 1)]
        for _ in range(3):
            with pytest.raises(NotSharp):
                ToricMonoid.make(2, la.identity(2), gens)
        assert (2, la.identity(2), la.mat(gens)) not in monoids._interned
        m = ToricMonoid.make(2, la.identity(2), [(1, 0), (1, 5)])
        for v in [(0, 1), (-1, 0), (0, 1), (Fraction(-1, 2), 1), (0, 1)]:
            with pytest.raises(NotInSupport):
                m.smallest_face_containing(v)
        assert not any(k[0] == "smallest_face" for k in m._cache
                       if isinstance(k, tuple))


def empty_table():
    """Patch in an empty intern table: a build under it uses no memo that
    the table holds."""
    return mock.patch.object(monoids, "_interned",
                             weakref.WeakValueDictionary())


def rebuilt(m):
    """A copy of m with empty caches (under empty_table)."""
    return monoids._intern(*m.key)


def section_keys():
    return {k for k in monoids._interned.keys() if k[0] == "section"}


class TestSectionMemo:
    """_cone_section files its result in the intern table under its
    inputs: fiber products, intersections and subspace sections return the
    first call's object on a repeat, with the key of an uncached build."""

    @settings(max_examples=100, deadline=None)
    @given(monoid_pairs(), st.integers(1, 4), st.integers(0, 4))
    def test_fiber_product(self, data, d2, dt):
        d1, seed, low = data
        rng = random.Random(seed)
        s1, s2 = random_monoid(rng, d1, low), random_monoid(rng, d2, low)
        t = ToricMonoid.trivial(dt)

        def matrix(rows):
            return la.mat(tuple(rng.randint(low, 2) for _ in range(dt))
                          for _ in range(rows))
        # Two pairs of maps on the same sources: equal placements and
        # facets, other maps.
        for a1, a2 in [(matrix(d1), matrix(d2)) for _ in range(2)]:
            first = fiber_product(MonoidHom(s1, t, a1), MonoidHom(s2, t, a2))
            assert fiber_product(MonoidHom(s1, t, a1),
                                 MonoidHom(s2, t, a2)) is first
            with empty_table():
                fresh = fiber_product(MonoidHom(rebuilt(s1), t, a1),
                                      MonoidHom(rebuilt(s2), t, a2))
            assert fresh is not first and fresh.key == first.key

    @settings(max_examples=100, deadline=None)
    @given(monoid_pairs())
    def test_intersect_members(self, data):
        d, seed, low = data
        rng = random.Random(seed)
        m1, *others = [random_monoid(rng, d, low) for _ in range(3)]
        # m1 against two others: equal placements, other facets and maps.
        for m2 in others:
            first = intersect_members(m1, m2)
            assert intersect_members(m1, m2) is first
            with empty_table():
                fresh = intersect_members(rebuilt(m1), rebuilt(m2))
            assert fresh.key == first.key

    @settings(max_examples=100, deadline=None)
    @given(monoid_pairs(), st.integers(0, 4))
    def test_intersect_with_subspace(self, data, k):
        d, seed, low = data
        rng = random.Random(seed)
        pair = [random_monoid(rng, d, low) for _ in range(2)]
        rows = [tuple(rng.randint(-2, 2) for _ in range(d))
                for _ in range(min(k, d))]
        for m in pair:
            first = m.intersect_with_subspace(rows)
            assert m.intersect_with_subspace(rows) is first
            with empty_table():
                fresh = rebuilt(m).intersect_with_subspace(rows)
            assert fresh.key == first.key

    @settings(max_examples=150, deadline=None)
    @given(monoid_pairs(), st.integers(1, 2), st.integers(0, 1))
    def test_direct_calls_and_errors(self, data, width, cols):
        """On arbitrary placements, not always injective, so that some
        calls raise: a result is filed under the inputs and returned again;
        an error is raised again on every call and nothing is filed."""
        d, seed, low = data
        rng = random.Random(seed)
        m = random_monoid(rng, d, low)
        place = la.mat(tuple(rng.randint(-1, 1) for _ in range(width))
                       for _ in range(m.dim))
        phi = la.mat(tuple(rng.randint(-1, 1) for _ in range(cols))
                     for _ in range(m.dim))
        self.check_call(width, place, m.facet_normals(), phi)

    def test_error_on_a_line(self):
        """The quadrant placed onto a line contains a line."""
        assert self.check_call(1, ((1,), (-1,)), la.identity(2),
                               ((0,), (0,))) is NotSharp

    @staticmethod
    def check_call(ambient_dim, place, facets, phi):
        """The type of the error raised, or None; checks the memo."""
        key = ("section", ambient_dim, place, facets, phi)

        def call():
            return monoids._cone_section(ambient_dim, place, facets, phi)
        try:
            first = call()
        except BlowupError as e:
            for _ in range(2):
                with pytest.raises(type(e)):
                    call()
            assert key not in monoids._interned
            return type(e)
        assert monoids._interned.get(key) is first and call() is first
        with empty_table():
            assert call().key == first.key
        return None

    def test_inputs_that_differ_in_one_part(self):
        """Sections that share every input but the facets, or every input
        but the map, are told apart."""
        quadrant = ToricMonoid.free(2)
        wedge = ToricMonoid.make(2, la.identity(2), [(1, 0), (2, 9)])
        # One lattice (the placement) and one subspace (the map).
        assert quadrant.intersect_with_subspace([(0, 1)]) == \
            ray_monoid(2, (0, 1))
        assert wedge.intersect_with_subspace([(0, 1)]) == \
            ToricMonoid.trivial(2)
        # One pair of sources (placement and facets), two maps.
        point = ToricMonoid.trivial(1)
        h = MonoidHom(quadrant, point, ((1,), (1,)))
        g = MonoidHom(quadrant, point, ((1,), (0,)))
        assert fiber_product(h, h).rays == ((0, 1, 0, 1), (0, 1, 1, 0),
                                            (1, 0, 0, 1), (1, 0, 1, 0))
        assert fiber_product(g, g).rays == ((0, 0, 0, 1), (0, 1, 0, 0),
                                            (1, 0, 1, 0))


def uncached_contains(m, v):
    """ToricMonoid.contains without its memo."""
    c = m.lattice_coords_int(v)
    if c is None:
        return False
    return all(la.dot(u, c) >= 0 for u in m.facet_normals())


class TestContainsMemo:
    @settings(max_examples=100, deadline=None)
    @given(monoid_pairs(),
           st.lists(st.integers(-3, 3), min_size=32, max_size=32))
    def test_agrees_with_uncached(self, data, entries):
        d, seed, low = data
        m = random_monoid(random.Random(seed), d, low)
        vs = [tuple(entries[i:i + d]) for i in range(0, 8 * d, d)]
        vs += list(m.rays) + [m.interior_point()]
        for v in vs + vs[::-1]:  # the second pass hits the memo
            assert m.contains(v) == uncached_contains(m, v)

    def test_repeat_is_a_cache_hit(self):
        m = ToricMonoid.make(2, la.identity(2), [(1, 0), (2, 9)])
        assert m.contains([4, 9]) and not m.contains((0, 1))
        with mock.patch.object(la, "solve_row_echelon",
                               side_effect=AssertionError):
            assert m.contains((4, 9)) and not m.contains(iter([0, 1]))
