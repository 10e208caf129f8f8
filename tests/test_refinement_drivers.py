"""The refinement drivers against their former multi-pass versions, kept
here as references: nsdim by span membership, extension by rounds of
increasing dimension, and the natural smooth refinement with its separate
candidate and fallback selections.  Outputs must agree to the element id."""

import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from blowup import binomial
from blowup import exactla as la
from blowup.binomial import resolve
from blowup.complexes import (MonoidalComplex, assemble_from_local,
                              complex_from_monoid, extend_refinement,
                              identity_refinement, natural_smooth_refinement,
                              nsdim, smooth_complex, star_subdivide_complex)
from blowup.errors import InvariantViolated, NotAComplex
from blowup.monoids import MonoidHom, ToricMonoid
from blowup.refinements import MonoidRefinement, trivial_refinement

from test_binomial import addition_pattern, cusp, random_systems
from test_complexes import random_complex, square_cone
from test_monoids import random_positive_monoid


def span_nsdim(sigma: ToricMonoid) -> int:
    """The former nsdim: the largest rank of a face whose extremals all
    lie in the span of the extremals dependent on the others, by one
    exact solve per extremal."""
    if sigma.is_simplicial():
        return 0
    rays = sigma.ray_coords()
    dependent = []
    for i, c in enumerate(rays):
        others = [d for j, d in enumerate(rays) if j != i]
        if la.rank(la.mat(others)) == la.rank(la.mat(others + [c])):
            dependent.append(c)

    def in_span(c):
        if not dependent:
            return la.is_zero(c)
        return la.solve_row(c, la.mat(dependent)) is not None

    best = 0
    for fs in sigma._face_sets():
        sub = [rays[i] for i in fs]
        if all(in_span(c) for c in sub):
            best = max(best, la.rank(la.mat(sub)) if sub else 0)
    return best


def round_extend(q: MonoidalComplex, local0):
    """The former extension loop (without smoothing): rounds that refine
    trivially what they can and cone the damaged monoids of least
    dimension."""
    local = dict(local0)
    domain = set(local)
    order_by_dim = sorted(q.elements, key=lambda a: (q.monoids[a].dim, a))
    while len(domain) < len(q.elements):
        progressed = False
        damaged = []
        for a in order_by_dim:
            if a in domain:
                continue
            faces = [b for b in q.below(a) if b != a]
            harmed = any(b in domain and not local[b].is_trivial()
                         for b in faces)
            ready = all(b in domain for b in faces)
            if ready and not harmed:
                local[a] = trivial_refinement(q.monoids[a])
                domain.add(a)
                progressed = True
            elif ready:
                damaged.append(a)
        if not damaged:
            if progressed:
                continue
            raise NotAComplex("extension stalled")
        d = min(q.monoids[a].dim for a in damaged)
        for a in damaged:
            if q.monoids[a].dim != d:
                continue
            sigma = q.monoids[a]
            v = tuple(sigma.interior_point())
            boundary = set()
            for b in q.below(a):
                if b != a:
                    for m in local[b].members:
                        boundary.add(MonoidHom(
                            m, sigma, q.face_maps[(b, a)]).image_monoid())
            members = list(boundary)
            for m in boundary:
                members.append(ToricMonoid.make(
                    sigma.ambient_dim, la.mat(list(m.lattice) + [v]),
                    list(m.rays) + [v]))
            local[a] = MonoidRefinement(sigma, members)
            domain.add(a)
    return assemble_from_local(q, local)


def selection_ns(q: MonoidalComplex):
    """The former natural smooth refinement: candidates of maximal nsdim
    that are fully non-simplicial, else the fully non-simplicial ones of
    largest nsdim, the least id first."""
    def fully(m):
        return m.dim > 0 and span_nsdim(m) == m.dim

    total = identity_refinement(q)
    current = q
    for _ in range(1000):
        scores = {a: span_nsdim(current.monoids[a])
                  for a in current.elements}
        k = max(scores.values(), default=0)
        if k == 0:
            return total.compose(smooth_complex(current))
        candidates = sorted(a for a in current.elements
                            if scores[a] == k and fully(current.monoids[a]))
        if not candidates:
            full = [a for a in current.elements if fully(current.monoids[a])]
            k = max(scores[a] for a in full)
            candidates = sorted(a for a in full if scores[a] == k)
        a = candidates[0]
        step = star_subdivide_complex(current, a,
                                      current.monoids[a].interior_point())
        total = total.compose(step)
        current = step.source
    raise InvariantViolated("natural smooth refinement did not terminate")


def shape(r):
    """Element ids with monoid keys, node maps and homs: what the id-level
    output of a refinement is."""
    phi = r.morphism
    return [(e, r.source.monoids[e].key, phi.node_map[e], phi.homs[e])
            for e in r.source.elements]


def disjoint_union(*complexes):
    """Complexes side by side, their ids prefixed by position."""
    monoids, order, maps = {}, [], {}
    for k, q in enumerate(complexes):
        monoids.update({f"{k}.{a}": m for a, m in q.monoids.items()})
        order += [(f"{k}.{a}", f"{k}.{b}") for a, b in q.order if a != b]
        maps.update({(f"{k}.{a}", f"{k}.{b}"): m
                     for (a, b), m in q.face_maps.items()})
    return MonoidalComplex(monoids, order, maps)


def resolve_extension_inputs(systems):
    """The (complex, local0) pairs that resolve hands to the extension,
    for each system (those of defect (a) included)."""
    seen = []

    def record(q, local0, smooth=None):
        seen.append((q, dict(local0)))
        return extend_refinement(q, local0, smooth)

    with mock.patch.object(binomial, "extend_refinement",
                           side_effect=record):
        for b in systems:
            try:
                resolve(b)
            except InvariantViolated:
                pass  # defect (a): the extension itself ran
    return seen


def random_downward_closed_refinement(q: MonoidalComplex, rng):
    """A random downward closed set of elements of q with the localized
    refinements of a random iterated star subdivision of q."""
    r = identity_refinement(q)
    for _ in range(rng.randint(1, 2)):
        rs = r.source
        a = rng.choice([e for e in rs.elements if rs.monoids[e].dim >= 2])
        v = la.zeros(rs.monoids[a].ambient_dim)
        for g in rs.monoids[a].rays:
            v = la.vadd(v, la.vscale(rng.randint(1, 2), g))
        r = r.compose(star_subdivide_complex(rs, a, v))
    pool = [a for a in q.elements if q.above(a) != (a,)]
    keep = set()
    for a in rng.sample(pool, rng.randint(1, len(pool))):
        keep.update(q.below(a))
    return {a: r.localize(a) for a in keep}


class TestNsdim:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4))
    def test_matches_span_definition(self, seed, dim):
        m = random_positive_monoid(random.Random(seed), dim)
        assert nsdim(m) == span_nsdim(m)

    def test_dependent_rays_short_of_full(self):
        # A cone in dimension 4 over a square pyramid: the apex is
        # independent, so nsdim is that of the square face, 3.
        apex = ToricMonoid.make(
            4, la.identity(4), [(0, 0, 1, 0), (1, 0, 1, 0), (0, 1, 1, 0),
                                (1, 1, 1, 0), (0, 0, 0, 1)])
        assert nsdim(apex) == span_nsdim(apex) == 3
        assert nsdim(square_cone()) == span_nsdim(square_cone()) == 3


class TestExtensionSweep:
    def test_matches_rounds_on_resolve_subcomplexes(self):
        systems = [cusp(), addition_pattern()] + random_systems(
            random.Random(11), 12, max_dim=3)
        inputs = resolve_extension_inputs(systems)
        assert len(inputs) == len(systems)
        for q, local0 in inputs:
            assert shape(extend_refinement(q, local0, smooth=False)) == \
                shape(round_extend(q, local0))

    def test_matches_rounds_on_random_complexes(self):
        rng = random.Random(2)
        for _ in range(8):
            q = random_complex(rng, rng.choice([2, 3]))
            local0 = random_downward_closed_refinement(q, rng)
            assert shape(extend_refinement(q, local0, smooth=False)) == \
                shape(round_extend(q, local0))

    def test_matches_rounds_on_larger_complexes(self):
        # Face complexes of more than ten elements, whose ids do not sort
        # in dimension order ("f10" before "f2").
        rng = random.Random(5)
        done = 0
        while done < 3:
            q, _ = complex_from_monoid(random_positive_monoid(rng, 4))
            if len(q.elements) <= 10:
                continue
            local0 = random_downward_closed_refinement(q, rng)
            assert shape(extend_refinement(q, local0, smooth=False)) == \
                shape(round_extend(q, local0))
            done += 1


class TestNaturalSmoothSelection:
    def test_matches_selection_loop_on_random_complexes(self):
        rng = random.Random(2)
        for _ in range(8):
            q = random_complex(rng, rng.choice([2, 3]))
            assert shape(natural_smooth_refinement(q)) == \
                shape(selection_ns(q))

    def test_matches_selection_loop_on_extensions(self):
        systems = [addition_pattern()] + random_systems(
            random.Random(11), 6, max_dim=3)
        for q, local0 in resolve_extension_inputs(systems):
            src = extend_refinement(q, local0, smooth=False).source
            assert shape(natural_smooth_refinement(src)) == \
                shape(selection_ns(src))

    def test_ties_go_to_the_least_id(self):
        sq, _ = complex_from_monoid(square_cone())
        q = disjoint_union(sq, sq)
        r = natural_smooth_refinement(q)
        assert shape(r) == shape(selection_ns(q))
        assert r.source.is_smooth()


def relabeled(q: MonoidalComplex, rng):
    """q with its elements renamed at random, so they sort in a random
    order; returns the complex and the map old id -> new id."""
    names = rng.sample(range(10 ** 6), len(q.elements))
    new = {a: f"e{k}" for a, k in zip(q.elements, names)}
    return MonoidalComplex(
        {new[a]: m for a, m in q.monoids.items()},
        [(new[a], new[b]) for a, b in q.order if a != b],
        {(new[a], new[b]): m for (a, b), m in q.face_maps.items()}), new


def id_free(r):
    """The sorted monoid keys of the source, each with the key of its
    target monoid, and the order's shape: each pair a < b of the source
    as the keys of its ends."""
    s, phi = r.source, r.morphism
    key = {e: s.monoids[e].key for e in s.elements}
    return (sorted((key[e], r.target.monoids[phi.node_map[e]].key)
                   for e in s.elements),
            sorted((key[a], key[b]) for a, b in s.order if a != b))


class TestRelabeling:
    """The drivers name elements by construction order, but the ids of
    their input do not leak into the result."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_star_subdivision(self, seed):
        rng = random.Random(seed)
        q = random_complex(rng, rng.choice([2, 3]))
        p, new = relabeled(q, rng)
        a = rng.choice([e for e in q.elements if q.monoids[e].dim > 0])
        v = la.zeros(q.monoids[a].ambient_dim)
        for g in q.monoids[a].rays:
            v = la.vadd(v, la.vscale(rng.randint(1, 2), g))
        assert id_free(star_subdivide_complex(p, new[a], v)) == \
            id_free(star_subdivide_complex(q, a, v))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_smoothing(self, seed):
        rng = random.Random(seed)
        q = random_complex(rng, rng.choice([2, 3]))
        while not q.is_simplicial():
            q = random_complex(rng, 3)
        p, _ = relabeled(q, rng)
        assert id_free(smooth_complex(p)) == id_free(smooth_complex(q))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_extension(self, seed):
        """Without the smoothing, whose natural smooth refinement breaks
        ties by least id."""
        rng = random.Random(seed)
        q = random_complex(rng, rng.choice([2, 3]))
        local0 = random_downward_closed_refinement(q, rng)
        p, new = relabeled(q, rng)
        moved = {new[a]: r for a, r in local0.items()}
        assert id_free(extend_refinement(p, moved, smooth=False)) == \
            id_free(extend_refinement(q, local0, smooth=False))
