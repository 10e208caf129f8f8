"""The one cone-section routine against the three routines it replaced.

`ToricMonoid.intersect_with_subspace`, `monoids.fiber_product` and
`refinements.intersect_members` each cut a cone by a lattice kernel and
take the saturated span of the section.  They now share
`monoids._cone_section`.  The former separate versions are kept below as
references: on random monoids, subspaces and homs they must give the same
canonical keys and raise the same error types.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from blowup import exactla as la
from blowup.errors import InvariantViolated, NotPointedLattice, NotSharp
from blowup.monoids import MonoidHom, ToricMonoid, fiber_product
from blowup.refinements import intersect_members


def ref_saturated_span(rows, r):
    """Basis of Z^r cap span_Q(rows), as rows."""
    if not rows or all(la.is_zero(x) for x in rows):
        return ()
    cutters = la.right_kernel_q(la.mat(rows))
    if not cutters:
        return la.identity(r)
    cols = la.transpose(la.mat(la.clear_denominators(u) for u in cutters))
    return la.saturated_kernel(cols)


def ref_saturated_span_ambient(gens, lattice):
    """Basis of the lattice (an HNF row basis) cap span(gens), in ambient
    coordinates."""
    coords = []
    for g in gens:
        c = la.solve_row_echelon(g, lattice)
        if c is None:
            raise InvariantViolated(f"generator {g} outside the lattice span")
        coords.append(la.clear_denominators(c))
    return la.mat_mul(ref_saturated_span(la.mat(coords), len(lattice)),
                      lattice)


def ref_intersect_with_subspace(m, subspace_rows):
    """The former section of a monoid by a subspace: the cutters pulled
    back to lattice coordinates, their saturated kernel, the cone section
    and its saturated span."""
    r = m.dim
    if r == 0:
        return m
    subspace_rows = la.mat(subspace_rows)
    amb_rows = [v for v in subspace_rows if not la.is_zero(v)]
    cutters = la.right_kernel_q(amb_rows) if amb_rows \
        else la.identity(m.ambient_dim)
    eq = [la.clear_denominators(w) for w in (
        tuple(la.dot(b, u) for b in m.lattice) for u in cutters)
        if not la.is_zero(w)]
    sat = la.saturated_kernel(la.transpose(la.mat(eq))) if eq \
        else la.identity(r)
    ray_coords = la.cone_section_rays(m.facet_normals(), sat)
    if not ray_coords:
        return ToricMonoid.trivial(m.ambient_dim)
    span = ref_saturated_span(ray_coords, r)
    lattice = la.mat_mul(span, m.lattice)
    rays = [la.apply_row(c, m.lattice) for c in ray_coords]
    return ToricMonoid.make(m.ambient_dim, lattice, rays)


def ref_fiber_product(h1, h2):
    """The former fiber product, with its own kernel and section code."""
    s1, s2 = h1.source, h2.source
    if h1.target.ambient_dim != h2.target.ambient_dim:
        raise InvariantViolated("fiber product over different targets")
    r1, r2 = s1.dim, s2.dim
    d1, d2 = s1.ambient_dim, s2.ambient_dim
    if r1 == 0 and r2 == 0:
        return ToricMonoid.trivial(d1 + d2)
    m1 = la.mat_mul(s1.lattice, h1.matrix) if r1 else ()
    m2 = la.mat_mul(s2.lattice, h2.matrix) if r2 else ()
    stacked = la.mat(list(m1) + [tuple(-x for x in row) for row in m2])
    kern = la.saturated_kernel(stacked)
    if not kern:
        return ToricMonoid.trivial(d1 + d2)
    big_lattice = tuple(row + la.zeros(d2) for row in s1.lattice) + \
        tuple(la.zeros(d1) + row for row in s2.lattice)
    facets1 = [u + la.zeros(r2) for u in s1.facet_normals()]
    facets2 = [la.zeros(r1) + u for u in s2.facet_normals()]
    ray_coords = la.cone_section_rays(facets1 + facets2, kern)
    if not ray_coords:
        return ToricMonoid.trivial(d1 + d2)
    span = ref_saturated_span(ray_coords, r1 + r2)
    lattice = la.mat_mul(span, big_lattice)
    rays = [la.apply_row(c, big_lattice) for c in ray_coords]
    return ToricMonoid.make(d1 + d2, lattice, rays)


def ambient_facet_functionals(m):
    """The facet normals of m extended to ambient integer functionals:
    each vanishes on its facet and is positive on the other rays."""
    return [la.scale_to_int(la.solve_row(u, la.transpose(m.lattice)))
            for u in m.facet_normals()]


def ref_cone_intersection_rays(m1, m2, span_rows):
    """Extreme rays of supp(m1) cap supp(m2) cap span(span_rows), in
    ambient coordinates, from ambient equations and facet functionals."""
    d = m1.ambient_dim
    eq = []
    ineq = []
    for m in (m1, m2):
        for u in la.right_kernel_q(m.lattice):
            eq.append(la.clear_denominators(u))
        ineq.extend(ambient_facet_functionals(m))
    for u in la.right_kernel_q(span_rows):
        eq.append(la.clear_denominators(u))
    if eq:
        basis = la.right_kernel_q(la.mat(eq))
        if not basis:
            return ()
        k_int = la.mat(la.clear_denominators(b) for b in basis)
    else:
        k_int = la.identity(d)
    return la.cone_section_rays(ineq, k_int)


def ref_intersect_members(m1, m2):
    """The former intersection: the lattice intersection from a stacked
    kernel, the cone intersection in ambient coordinates, and the
    saturated span of its rays inside the lattice intersection."""
    if m1.ambient_dim != m2.ambient_dim:
        raise InvariantViolated("members in different ambient spaces")
    d = m1.ambient_dim
    if m1 == m2:
        return m1
    if m1.dim == 0 or m2.dim == 0:
        return ToricMonoid.trivial(d)
    stacked = la.mat(list(m1.lattice)
                     + [tuple(-v for v in row) for row in m2.lattice])
    kern = la.saturated_kernel(stacked)
    lattice_rows = [la.apply_row(k[:m1.dim], m1.lattice) for k in kern]
    if not lattice_rows or all(la.is_zero(r) for r in lattice_rows):
        return ToricMonoid.trivial(d)
    rays = ref_cone_intersection_rays(m1, m2, la.mat(lattice_rows))
    if not rays:
        return ToricMonoid.trivial(d)
    span = ref_saturated_span_ambient(
        rays, la.row_space_basis(la.mat(lattice_rows)))
    return ToricMonoid.make(d, span, rays)


def outcome(call):
    """The canonical key of the result, or the type of the error."""
    try:
        return call().key
    except Exception as e:  # compared by type against the reference
        return type(e)


def random_monoid(rng, d, low):
    """The monoid spanned by a few random vectors of Z^d, with the group
    they generate as lattice (so possibly a sublattice), or, half of the
    time, one of its faces; the trivial monoid when the vectors span a
    line or nothing."""
    gens = [tuple(rng.randint(low, 2) for _ in range(d))
            for _ in range(rng.randint(1, d + 2))]
    gens = [g for g in gens if any(g)]
    try:
        m = ToricMonoid.make(d, gens, gens)
    except (NotSharp, NotPointedLattice):
        return ToricMonoid.trivial(d)
    return m if rng.random() < 0.5 else rng.choice(m.faces())


def monoid_pairs(max_dim=4):
    """A seed for two monoids in one ambient Z^d, d in 1..max_dim, and a
    lower bound on their entries (0 keeps them in the positive orthant,
    where they overlap more often)."""
    return st.tuples(st.integers(1, max_dim), st.integers(0, 10 ** 6),
                     st.sampled_from([0, -1, -2]))


class TestSectionOracle:
    @settings(max_examples=150, deadline=None)
    @given(monoid_pairs())
    def test_intersect_members_matches_reference(self, data):
        d, seed, low = data
        rng = random.Random(seed)
        m1 = random_monoid(rng, d, low)
        m2 = m1 if rng.random() < 0.05 else random_monoid(rng, d, low)
        assert outcome(lambda: intersect_members(m1, m2)) == \
            outcome(lambda: ref_intersect_members(m1, m2))

    @settings(max_examples=150, deadline=None)
    @given(monoid_pairs(), st.integers(0, 4))
    def test_intersect_with_subspace_matches_reference(self, data, k):
        d, seed, low = data
        rng = random.Random(seed)
        m = random_monoid(rng, d, low)
        rows = [tuple(rng.randint(-2, 2) for _ in range(d))
                for _ in range(min(k, d))]
        assert outcome(lambda: m.intersect_with_subspace(rows)) == \
            outcome(lambda: ref_intersect_with_subspace(m, rows))

    @settings(max_examples=150, deadline=None)
    @given(monoid_pairs(), st.integers(1, 4), st.integers(0, 4))
    def test_fiber_product_matches_reference(self, data, d2, dt):
        d1, seed, low = data
        rng = random.Random(seed)
        s1 = random_monoid(rng, d1, low)
        s2 = random_monoid(rng, d2, low)
        t = ToricMonoid.trivial(dt)

        def matrix(rows):
            return la.mat(tuple(rng.randint(low, 2) for _ in range(dt))
                          for _ in range(rows))
        h1 = MonoidHom(s1, t, matrix(d1))
        h2 = MonoidHom(s2, t, matrix(d2))
        assert outcome(lambda: fiber_product(h1, h2)) == \
            outcome(lambda: ref_fiber_product(h1, h2))

    def test_zero_dimensional_sources_and_targets(self):
        """Trivial sources, a 0-dimensional target and a trivial member
        give the trivial monoid, as they did."""
        free2, point = ToricMonoid.free(2), ToricMonoid.trivial(0)
        for s1, s2, t in ((ToricMonoid.trivial(2), free2, point),
                          (free2, free2, point),
                          (ToricMonoid.trivial(1), ToricMonoid.trivial(2),
                           ToricMonoid.trivial(3))):
            h1 = MonoidHom(s1, t, la.mat([la.zeros(t.ambient_dim)]
                                         * s1.ambient_dim))
            h2 = MonoidHom(s2, t, la.mat([la.zeros(t.ambient_dim)]
                                         * s2.ambient_dim))
            assert fiber_product(h1, h2).key == ref_fiber_product(h1, h2).key
        # Over a point the fiber product is the whole product.
        h = MonoidHom(free2, point, la.mat([()] * 2))
        assert fiber_product(h, h) == ToricMonoid.free(4)
        for m in (free2, ToricMonoid.trivial(2)):
            assert intersect_members(m, ToricMonoid.trivial(2)).key == \
                ref_intersect_members(m, ToricMonoid.trivial(2)).key

    def test_ambient_mismatch_matches_reference(self):
        m1, m2 = ToricMonoid.free(1), ToricMonoid.free(2)
        h1 = MonoidHom(m1, m1, ((1,),))
        h2 = MonoidHom(m2, m2, la.identity(2))
        assert outcome(lambda: fiber_product(h1, h2)) is InvariantViolated
        assert outcome(lambda: ref_fiber_product(h1, h2)) is InvariantViolated
        assert outcome(lambda: intersect_members(m1, m2)) is \
            InvariantViolated
        assert outcome(lambda: ref_intersect_members(m1, m2)) is \
            InvariantViolated
