"""Monoidal complexes: functors from a finite poset to toric monoids whose
arrows are isomorphisms onto faces.

Every complex here is complete (each face of each monoid is the image of
at least one smaller element) and reduced (at most one).  Elements carry
string ids; a face map for a <= b is an integer matrix from the ambient
space of a to the ambient space of b, acting on row vectors.
"""

import collections
import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from . import exactla as la
from .errors import (InvariantViolated, NotAComplex, NotARefinement,
                     NotInSupport)
from .monoids import MonoidHom, ToricMonoid
from .monoids import fiber_product as monoid_fiber_product
from .refinements import (MonoidRefinement, cone_over, planar_refine,
                          smoothing, star_subdivide, trivial_refinement)

class MonoidalComplex:
    """A finite poset of elements with a toric monoid for each element and
    a face map for each related pair."""

    def __init__(self, monoids: Dict[str, ToricMonoid],
                 order: Iterable[Tuple[str, str]],
                 face_maps: Dict[Tuple[str, str], la.Mat]):
        self.elements = tuple(sorted(monoids))
        self.monoids = dict(monoids)
        # The reflexive transitive closure of order, by depth-first search
        # from each element (elements named only in order included).
        succ: Dict[str, set] = {a: set() for a in self.elements}
        for a, b in order:
            succ.setdefault(a, set()).add(b)
            succ.setdefault(b, set())
        self._above = {}
        for a in succ:
            seen, stack = {a}, [a]
            while stack:
                for b in succ[stack.pop()] - seen:
                    seen.add(b)
                    stack.append(b)
            self._above[a] = frozenset(seen)
        below: Dict[str, set] = {a: set() for a in self._above}
        for a, ups in self._above.items():
            for b in ups:
                below[b].add(a)
        self._below = {b: frozenset(s) for b, s in below.items()}
        self.order = frozenset((a, b) for a, ups in self._above.items()
                               for b in ups)
        for a, b in self.order:
            if a != b and a in self._above[b]:
                raise NotAComplex(f"order is not antisymmetric at {a}, {b}")
        self.face_maps = dict(face_maps)
        for a in self.elements:
            self.face_maps[(a, a)] = la.identity(self.monoids[a].ambient_dim)
        # Fill in composites along chains, pass after pass, until a pass
        # fills none: a composite may need one filled later in its pass.
        missing = [p for p in self._chains() if p not in self.face_maps]
        while missing:
            for a, b in missing:
                for c in sorted(self._above[a] & self._below[b] - {a, b}):
                    if (a, c) in self.face_maps and (c, b) in self.face_maps:
                        self.face_maps[(a, b)] = la.mat_mul(
                            self.face_maps[(a, c)], self.face_maps[(c, b)])
                        break
            left = [p for p in missing if p not in self.face_maps]
            if len(left) == len(missing):
                raise NotAComplex(f"missing face maps for {left}")
            missing = left

    def _chains(self):
        return [(a, b) for (a, b) in sorted(self.order) if a != b]

    def leq(self, a: str, b: str) -> bool:
        return b in self._above.get(a, ())

    def below(self, b: str) -> Tuple[str, ...]:
        return tuple(sorted(self._below.get(b, ())))

    def above(self, a: str) -> Tuple[str, ...]:
        return tuple(sorted(self._above.get(a, ())))

    def hom(self, a: str, b: str) -> MonoidHom:
        return MonoidHom(self.monoids[a], self.monoids[b],
                         self.face_maps[(a, b)])

    def image_face(self, a: str, b: str) -> ToricMonoid:
        """The image of sigma_a inside sigma_b."""
        return self.hom(a, b).image_monoid()

    def is_smooth(self) -> bool:
        return all(m.is_smooth() for m in self.monoids.values())

    def is_simplicial(self) -> bool:
        return all(m.is_simplicial() for m in self.monoids.values())

    def dim(self) -> int:
        return max((m.dim for m in self.monoids.values()), default=0)

    def validate(self) -> None:
        """Raise NotAComplex unless the data is a complete reduced
        monoidal complex.

        Commutation along a < c is checked on a's lattice through the
        covers b of a below c only.  The checks before it make each face
        map send a's lattice into the lattice above it.  So for a < b < c
        and a cover b' <= b of a, on a's lattice a -> c = (a -> b')(b' -> c)
        and a -> b = (a -> b')(b' -> b), and induction on the interval
        [b', c] gives b' -> c = (b' -> b)(b -> c) on the lattice of b'."""
        for a, b in self._chains():
            rows = self.monoids[a].ambient_dim
            cols = self.monoids[b].ambient_dim
            m = self.face_maps[(a, b)]
            if len(m) != rows or any(len(r) != cols for r in m):
                raise NotAComplex(
                    f"face map {a} -> {b} is not {rows} x {cols}")
        for a, b in self._chains():
            h = self.hom(a, b)
            if not h.is_injective():
                raise NotAComplex(f"face map {a} -> {b} is not injective")
            img = self.image_face(a, b)
            if not img.is_face_of(self.monoids[b]):
                raise NotAComplex(
                    f"image of {a} in {b} is not a face: {img.rays}")
        covers = {}
        for a in self.elements:
            ups = self._above[a] - {a}
            covers[a] = [b for b in sorted(ups)
                         if len(self._below[b] & ups) == 1]
        for a, c in self._chains():
            for b in covers[a]:
                if b == c or not self.leq(b, c):
                    continue
                composite = la.mat_mul(self.face_maps[(a, b)],
                                       self.face_maps[(b, c)])
                direct = self.face_maps[(a, c)]
                ha = self.monoids[a]
                if ha.dim and any(
                        la.apply_row(r, composite) != la.apply_row(r, direct)
                        for r in ha.lattice):
                    raise NotAComplex(
                        f"face maps do not commute along {a} <= {b} <= {c}")
        for b in self.elements:
            hits = collections.Counter(self.image_face(a, b)
                                       for a in self.below(b))
            for f in self.monoids[b].faces():
                if hits[f] == 0:
                    raise NotAComplex(
                        f"complex is not complete: face {f.rays} of {b} "
                        "has no preimage")
                if hits[f] > 1:
                    raise NotAComplex(
                        f"complex is not reduced: face {f.rays} of {b} "
                        "has several preimages")

    def subcomplex(self, ids: Sequence[str]) -> "MonoidalComplex":
        """The induced complex on a downward closed set of elements."""
        keep = set(ids)
        for b in keep:
            for a in self.below(b):
                if a not in keep:
                    raise NotAComplex(
                        f"subcomplex is not downward closed: {a} < {b}")
        return MonoidalComplex(
            {a: self.monoids[a] for a in keep},
            [(a, b) for (a, b) in self.order if a in keep and b in keep],
            {(a, b): m for (a, b), m in self.face_maps.items()
             if a in keep and b in keep})


def complex_from_monoid(sigma: ToricMonoid) -> Tuple[MonoidalComplex,
                                                     Dict[str, ToricMonoid]]:
    """The face complex of a single monoid; all elements share sigma's
    ambient space and all face maps are the identity.  Returns the complex
    and the map element id -> face monoid."""
    ids = {f"f{k}": f for k, f in enumerate(sigma.faces())}
    by_monoid = {f.key: i for i, f in ids.items()}
    order = []
    for i, f in ids.items():
        for j, g in ids.items():
            if i != j and f.is_face_of(g):
                order.append((i, j))
    ident = la.identity(sigma.ambient_dim)
    maps = {(a, b): ident for a, b in order}
    return MonoidalComplex(ids, order, maps), ids


@dataclass
class ComplexMorphism:
    """A morphism of monoidal complexes: an order preserving map of posets
    together with a monoid homomorphism over each element, commuting with
    the face maps."""
    source: MonoidalComplex
    target: MonoidalComplex
    node_map: Dict[str, str]
    homs: Dict[str, la.Mat]
    # image_in by (a, sigma_id).  Nothing changes node_map, homs or the
    # target's face maps after construction.
    _images: Dict[Tuple[str, str], ToricMonoid] = field(
        default_factory=dict, init=False, compare=False, repr=False)

    def hom(self, a: str) -> MonoidHom:
        return MonoidHom(self.source.monoids[a],
                         self.target.monoids[self.node_map[a]],
                         self.homs[a])

    def image_in(self, a: str, sigma_id: str) -> ToricMonoid:
        """The image of the source monoid at a inside a target element
        above node_map[a]."""
        image = self._images.get((a, sigma_id))
        if image is None:
            m = la.mat_mul(self.homs[a], self.target.face_maps[
                (self.node_map[a], sigma_id)])
            image = self._images[(a, sigma_id)] = MonoidHom(
                self.source.monoids[a], self.target.monoids[sigma_id],
                m).image_monoid()
        return image

    def validate(self) -> None:
        for a, b in self.source._chains():
            fa, fb = self.node_map[a], self.node_map[b]
            if not self.target.leq(fa, fb):
                raise NotAComplex(
                    f"node map is not order preserving on {a} <= {b}")
            left = la.mat_mul(self.homs[a], self.target.face_maps[(fa, fb)])
            right = la.mat_mul(self.source.face_maps[(a, b)], self.homs[b])
            src = self.source.monoids[a]
            if src.dim and any(la.apply_row(r, left) != la.apply_row(r, right)
                               for r in src.lattice):
                raise NotAComplex(
                    f"morphism squares do not commute at {a} <= {b}")
        for a in self.source.elements:
            self.hom(a).validate()

    def compose(self, then: "ComplexMorphism") -> "ComplexMorphism":
        """self followed by then (so self.target must be then.source)."""
        if self.target is not then.source and \
                self.target.elements != then.source.elements:
            raise NotAComplex("morphisms do not compose: the first target "
                              "is not the second source")
        node = {a: then.node_map[self.node_map[a]]
                for a in self.source.elements}
        homs = {a: la.mat_mul(self.homs[a], then.homs[self.node_map[a]])
                for a in self.source.elements}
        return ComplexMorphism(self.source, then.target, node, homs)


class ComplexRefinement:
    """A refinement of complexes: a morphism phi: R -> Q, injective over
    each element, sending each element of R to the smallest element of Q
    containing its image, such that the images over each sigma form a
    refinement of sigma."""

    def __init__(self, morphism: ComplexMorphism):
        self.morphism = morphism

    @property
    def source(self) -> MonoidalComplex:
        return self.morphism.source

    @property
    def target(self) -> MonoidalComplex:
        return self.morphism.target

    def localize(self, sigma_id: str) -> MonoidRefinement:
        """The induced refinement of the monoid at a target element."""
        return MonoidRefinement(self.target.monoids[sigma_id],
                                self.members_over(sigma_id).values())

    def members_over(self, sigma_id: str) -> Dict[str, ToricMonoid]:
        """The source elements over a target element or its faces, in
        element order, each with its image in that element's monoid."""
        phi = self.morphism
        return {e: phi.image_in(e, sigma_id) for e in self.source.elements
                if self.target.leq(phi.node_map[e], sigma_id)}

    def validate(self) -> None:
        self.morphism.validate()
        self.source.validate()
        for e in self.source.elements:
            h = self.morphism.hom(e)
            if not h.is_injective():
                raise NotARefinement(f"refinement hom at {e} not injective")
            img = h.image_monoid()
            src = self.source.monoids[e]
            if img.dim != src.dim:
                raise NotARefinement(f"hom at {e} drops dimension")
            # Minimality of the target element.
            tgt = self.target.monoids[self.morphism.node_map[e]]
            if img.dim > 0:
                f = tgt.smallest_face_containing(img.interior_point())
                if f != tgt:
                    raise NotARefinement(
                        f"{e} maps into a proper face of its target")
            elif tgt.dim != 0:
                raise NotARefinement(
                    f"{e} maps into a proper face of its target")
        for sigma_id in self.target.elements:
            images = list(self.members_over(sigma_id).values())
            if len(set(images)) != len(images):
                raise NotARefinement(
                    f"two elements have the same image in {sigma_id}")
            local = MonoidRefinement(self.target.monoids[sigma_id], images)
            failures = local.validate()
            if failures:
                raise NotARefinement(
                    f"images over {sigma_id} are not a refinement: "
                    f"{failures[0].axiom}: {failures[0].detail}")

    def is_identity_like(self) -> bool:
        """True if the refinement is a renaming: node map bijective and
        every image equals its target monoid."""
        node = self.morphism.node_map
        if len(set(node.values())) != len(self.source.elements) or \
                len(self.source.elements) != len(self.target.elements):
            return False
        for e in self.source.elements:
            if self.morphism.hom(e).image_monoid() != \
                    self.target.monoids[node[e]]:
                return False
        return True

    def is_smooth(self) -> bool:
        return self.source.is_smooth()

    def compose(self, finer: "ComplexRefinement") -> "ComplexRefinement":
        """Refine further: finer must refine self.source; the result
        refines self.target."""
        return ComplexRefinement(finer.morphism.compose(self.morphism))


def identity_refinement(q: MonoidalComplex) -> ComplexRefinement:
    node = {a: a for a in q.elements}
    homs = {a: la.identity(q.monoids[a].ambient_dim) for a in q.elements}
    return ComplexRefinement(ComplexMorphism(q, q, node, homs))


# ---------------------------------------------------------------------------
# Gluing refinements from compatible local data.
# ---------------------------------------------------------------------------


def assemble_from_local(q: MonoidalComplex,
                        local: Dict[str, MonoidRefinement]
                        ) -> ComplexRefinement:
    """Glue per-element refinements into a refinement of the complex.

    local[a] refines q.monoids[a] for each element a the caller refines;
    an element it omits, or refines trivially, is unrefined: its members
    are the faces of its monoid.  The family must be compatible: for
    a <= b, the members of b supported on the image face of a are exactly
    the images of the members of a.

    The unrefined elements form a downward closed subcomplex, which is
    copied: an unrefined c becomes c/0 with q.monoids[c], below the copy
    of each unrefined d above it by q's face map.  On a chain a <= b with
    both ends unrefined the compatibility check is exactly that the image
    of sigma_a is a face of sigma_b of the same dimension, and
    completeness at b that every face of sigma_b is sigma_b or such an
    image.  Every chain that ends in or starts from a refined element is
    checked member by member.

    Raises:
        NotARefinement: if the family is incompatible.
    """
    for a in q.elements:
        if a in local and local[a].base != q.monoids[a]:
            raise NotARefinement(f"local refinement at {a} has wrong base")
    refined = {a for a in q.elements
               if a in local and not local[a].is_trivial()}

    def members(a: str) -> Tuple[ToricMonoid, ...]:
        return local[a].members if a in refined else q.monoids[a].faces()

    # The rays of the smallest face of q.monoids[a] containing each member
    # of a refined local[a]; a member of an unrefined element is that face.
    carrier: Dict[Tuple[str, ToricMonoid], FrozenSet[la.Vec]] = {}
    for a in q.elements:
        if a in refined:
            sigma = q.monoids[a]
            for m in local[a].members:
                carrier[(a, m)] = frozenset(
                    sigma.smallest_face_containing(m.interior_point()).rays
                    if m.dim else ())
    # images[(a, b)][m]: the image in q.monoids[b] of a member m of a, for
    # refined b; face_image[(a, b)] is the image of sigma_a.
    images: Dict[Tuple[str, str], Dict[ToricMonoid, ToricMonoid]] = {}
    face_image: Dict[Tuple[str, str], ToricMonoid] = {}
    for a, b in q._chains():
        img = face_image[(a, b)] = q.image_face(a, b)
        if a in refined or b in refined:
            h = q.face_maps[(a, b)]
            images[(a, b)] = {m: MonoidHom(m, q.monoids[b], h).image_monoid()
                              for m in members(a)}
            img_rays = set(img.rays)
            localized = set(m for m in members(b)
                            if (carrier[(b, m)] if b in refined
                                else frozenset(m.rays)) <= img_rays)
            agree = set(images[(a, b)].values()) == localized
        else:
            agree = img.dim == q.monoids[a].dim and \
                img in q.monoids[b].faces()
        if not agree:
            raise NotARefinement(
                f"local refinements at {a} and {b} disagree on the "
                f"common face")

    # A new element for each member of local[c] whose relative interior is
    # in that of q.monoids[c] (its home c), numbered in key order (the
    # order of local[c].members); it is found over every element a above
    # c by its image in a.
    monoids: Dict[str, ToricMonoid] = {}
    home: Dict[str, str] = {}
    index: Dict[Tuple[str, ToricMonoid], str] = {}
    for c in q.elements:
        sigma = q.monoids[c]
        whole = frozenset(sigma.rays)
        residents = [m for m in local[c].members
                     if carrier[(c, m)] == whole] if c in refined else [sigma]
        for k, m in enumerate(residents):
            eid = f"{c}/{k}"
            monoids[eid] = m
            home[eid] = c
            for a in q.above(c):
                if a == c:
                    img = m
                elif a in refined:
                    img = images[(c, a)][m]
                else:
                    img = face_image[(c, a)]
                index.setdefault((a, img), eid)

    def element_at(a: str, m: ToricMonoid) -> str:
        eid = index.get((a, m))
        if eid is None:
            raise NotARefinement(
                f"member {m.rays} of the local refinement at {a} is not "
                "the image of any glued element")
        return eid

    # Each glued element's order pairs come from its faces at its home.
    order = []
    maps = {}
    for a in q.elements:
        if a in refined:
            homed = []
            for m in local[a].members:
                e_m = element_at(a, m)
                if home[e_m] == a:
                    homed.append((e_m, m))
        else:
            if any((a, f) not in index for f in q.monoids[a].faces()):
                # Name the first member (or face of one) in key order.
                for m in trivial_refinement(q.monoids[a]).members:
                    for f in (m, *m.faces()):
                        element_at(a, f)
            homed = [(f"{a}/0", q.monoids[a])]
        for e_m, m in homed:
            for f in m.faces():
                e_f = element_at(a, f)
                if e_f != e_m:
                    order.append((e_f, e_m))
                    maps[(e_f, e_m)] = q.face_maps[(home[e_f], a)]
    source = MonoidalComplex(monoids, order, maps)
    node = {eid: home[eid] for eid in source.elements}
    homs = {eid: la.identity(q.monoids[a].ambient_dim)
            for eid, a in node.items()}
    return ComplexRefinement(ComplexMorphism(source, q, node, homs))


# ---------------------------------------------------------------------------
# Subdivisions of complexes.
# ---------------------------------------------------------------------------


def star_subdivide_complex(q: MonoidalComplex, a_id: str,
                           v) -> ComplexRefinement:
    """Star subdivision of the complex at a vector v in the monoid of
    element a_id: every monoid above the carrier of v is star subdivided
    at the image of v, every other monoid is refined trivially.  The
    carrier is a_id when v is in the relative interior of its monoid, and
    otherwise the element whose image is the smallest face containing v.

    Raises:
        NotInSupport: if v is not in the monoid of a_id.
    """
    sigma = q.monoids[a_id]
    if not sigma.in_relative_interior(v):
        face = sigma.smallest_face_containing(v)
        for c in q.below(a_id):
            if q.image_face(c, a_id) == face:
                w = _lattice_preimage(q.monoids[c], q.face_maps[(c, a_id)],
                                      v)
                if w is None:
                    raise NotInSupport(f"{tuple(v)} is not in the monoid")
                return star_subdivide_complex(q, c, w)
        raise NotAComplex(f"no element of the complex maps onto the face "
                          f"{face.rays} of {a_id}")
    local = {b: star_subdivide(q.monoids[b],
                               la.apply_row(v, q.face_maps[(a_id, b)]))
             for b in q.above(a_id)}
    return assemble_from_local(q, local)


def _lattice_preimage(m: ToricMonoid, mat: la.Mat, v) -> Optional[la.Vec]:
    """The point of m's lattice that mat sends to v, or None if there is
    none; mat must be injective on m's lattice."""
    if la.is_zero(v):
        return la.zeros(m.ambient_dim)
    c = la.solve_row_int(v, la.mat_mul(m.lattice, mat)) if m.dim else None
    return None if c is None else la.apply_row(c, m.lattice)


def planar_refine_complex(q: MonoidalComplex,
                          subspaces: Dict[str, Sequence]
                          ) -> ComplexRefinement:
    """Planar refinement of a smooth complex: refine each monoid by the
    given subspace (rows spanning it, in that monoid's ambient space); an
    element without one is not cut.  The family must be face compatible:
    the subspace cut of a face must agree with the face of the subspace
    cut."""
    local = {a: planar_refine(q.monoids[a], subspaces[a])
             for a in q.elements if a in subspaces}
    return assemble_from_local(q, local)


def smooth_complex(q: MonoidalComplex) -> ComplexRefinement:
    """Smoothing of a simplicial complex: smooth each monoid by freeing
    its extremals.  A smooth monoid is left out, so refined trivially:
    each subset of its extremals spans a saturated sublattice, so its
    smoothing is its face family."""
    local = {a: smoothing(m) for a, m in q.monoids.items()
             if not m.is_smooth()}
    return assemble_from_local(q, local)


# ---------------------------------------------------------------------------
# Products and fiber products.
# ---------------------------------------------------------------------------


def fiber_pair_id(a: str, b: str) -> str:
    """The id of the fiber product element over the pair (a, b)."""
    return f"{a}*{b}"


def fiber_product_complex(phi1: ComplexMorphism, phi2: ComplexMorphism
                          ) -> Tuple[MonoidalComplex, ComplexMorphism,
                                     ComplexMorphism]:
    """Fiber product of two morphisms with a common target.

    Elements are the pairs (a, b) with phi1(a) == phi2(b) whose fiber
    monoid meets the relative interiors of both factors; the monoid over
    (a, b) is the fiber product of the two monoids over the common image.
    Returns the complex together with the two projections.
    """
    q1, q2 = phi1.source, phi2.source
    pairs = []
    for a in q1.elements:
        for b in q2.elements:
            if phi1.node_map[a] != phi2.node_map[b]:
                continue
            m = monoid_fiber_product(phi1.hom(a), phi2.hom(b))
            d1 = q1.monoids[a].ambient_dim
            p = m.interior_point()
            if q1.monoids[a].in_relative_interior(p[:d1]) and \
                    q2.monoids[b].in_relative_interior(p[d1:]):
                pairs.append((fiber_pair_id(a, b), a, b, m))
    monoids = {eid: m for eid, _, _, m in pairs}
    order = []
    maps = {}
    for (e1, a, b, _), (e2, c, d, _) in itertools.product(pairs, repeat=2):
        if (a, b) != (c, d) and q1.leq(a, c) and q2.leq(b, d):
            order.append((e1, e2))
            maps[(e1, e2)] = la.block_diag(q1.face_maps[(a, c)],
                                           q2.face_maps[(b, d)])
    f = MonoidalComplex(monoids, order, maps)
    node1, homs1, node2, homs2 = {}, {}, {}, {}
    for eid, a, b, _ in pairs:
        d1 = q1.monoids[a].ambient_dim
        d2 = q2.monoids[b].ambient_dim
        node1[eid] = a
        homs1[eid] = la.identity(d1) + (la.zeros(d1),) * d2
        node2[eid] = b
        homs2[eid] = (la.zeros(d2),) * d1 + la.identity(d2)
    proj1 = ComplexMorphism(f, q1, node1, homs1)
    proj2 = ComplexMorphism(f, q2, node2, homs2)
    return f, proj1, proj2


def terminal_complex() -> MonoidalComplex:
    return MonoidalComplex({"pt": ToricMonoid.trivial(0)}, [], {})


def morphism_to_point(q: MonoidalComplex) -> ComplexMorphism:
    t = terminal_complex()
    node = {a: "pt" for a in q.elements}
    homs = {a: tuple(() for _ in range(q.monoids[a].ambient_dim))
            for a in q.elements}
    return ComplexMorphism(q, t, node, homs)


def product_complex(q1: MonoidalComplex, q2: MonoidalComplex
                    ) -> Tuple[MonoidalComplex, ComplexMorphism,
                               ComplexMorphism]:
    return fiber_product_complex(morphism_to_point(q1),
                                 morphism_to_point(q2))


def pullback_refinement(r: ComplexRefinement, psi: ComplexMorphism
                        ) -> ComplexRefinement:
    """Pull a refinement of Q back along psi: Q1 -> Q to a refinement of
    Q1 (the fiber product Q1 x_Q R with its first projection)."""
    _, p1, _ = fiber_product_complex(psi, r.morphism)
    pulled = ComplexRefinement(p1)
    # Regluing puts every source monoid in the ambient space of its target
    # element, with an identity hom.
    return assemble_from_local(
        psi.source, {a: pulled.localize(a) for a in psi.source.elements})


# ---------------------------------------------------------------------------
# The natural smooth refinement.
# ---------------------------------------------------------------------------


def nsdim(sigma: ToricMonoid) -> int:
    """Dimension of the largest face all of whose extremals are dependent
    on the others (in the span of the rest); zero iff simplicial."""
    if sigma.is_simplicial():
        return 0
    rays = sigma.ray_coords()
    dependent = {i for i in range(len(rays))
                 if la.rank(rays[:i] + rays[i + 1:]) == sigma.dim}
    return max(la.rank([rays[i] for i in fs])
               for fs in sigma._face_sets() if fs <= dependent)


def natural_smooth_refinement(q: MonoidalComplex) -> ComplexRefinement:
    """The canonical smooth refinement: repeatedly star subdivide a fully
    non-simplicial monoid (nsdim equal to its dimension) of maximal nsdim
    at the sum of its extremals, the least element id among ties, then
    smooth the resulting simplicial complex.

    The nsdim of every element is computed once per complex; each step
    must lower the measure (largest nsdim, number of elements with it).
    """
    total = identity_refinement(q)
    current = q
    scores = {a: nsdim(q.monoids[a]) for a in q.elements}
    for _ in range(1000):
        if max(scores.values(), default=0) == 0:
            return total.compose(smooth_complex(current))
        fully = [a for a in current.elements
                 if scores[a] == current.monoids[a].dim > 0]
        k = max(scores[a] for a in fully)
        a = min(a for a in fully if scores[a] == k)
        step = star_subdivide_complex(current, a,
                                      current.monoids[a].interior_point())
        total = total.compose(step)
        current = step.source
        new_scores = {b: nsdim(current.monoids[b]) for b in current.elements}
        if max(new_scores.values()) >= k and \
                sum(s == k for s in new_scores.values()) >= \
                sum(s == k for s in scores.values()):
            raise InvariantViolated(
                "subdivision must strictly reduce the nsdim measure")
        scores = new_scores
    raise InvariantViolated("natural smooth refinement did not terminate")


# ---------------------------------------------------------------------------
# Extension of refinements from a subcomplex.
# ---------------------------------------------------------------------------


def extend_refinement(q: MonoidalComplex,
                      local0: Dict[str, MonoidRefinement],
                      smooth: Optional[bool] = None) -> ComplexRefinement:
    """Extend a refinement of a downward closed subcomplex to the whole
    complex.

    Visits the other elements once, by increasing number of elements
    below them (then by id): an element has strictly more elements below
    it than each of its proper faces, so this is a linear extension of the
    order and every face is refined before the elements above it.  An
    element none of whose proper faces is refined nontrivially is refined
    trivially; any other gets the cone over its refined boundary from the
    sum of its extremals.  If the given refinement is smooth (or
    smooth=True), the extension is made smooth with the natural smooth
    refinement, which leaves the given part untouched.
    """
    for b in local0:
        for a in q.below(b):
            if a not in local0:
                raise NotAComplex(
                    f"refined subcomplex is not downward closed at {a}")
    local = {a: r for a, r in local0.items() if not r.is_trivial()}
    if smooth is None:
        smooth = all(r.is_smooth() for r in local0.values())
    for a in sorted(q.elements, key=lambda a: (len(q.below(a)), a)):
        faces = [b for b in q.below(a) if b != a]
        if a in local0 or not any(b in local for b in faces):
            continue
        sigma = q.monoids[a]
        # Unrefined faces add their images; their faces come from those below.
        boundary = {MonoidHom(m, sigma, q.face_maps[(b, a)]).image_monoid()
                    for b in faces for m in (local[b].members if b in local
                                             else (q.monoids[b],))}
        v = sigma.interior_point()
        local[a] = MonoidRefinement(
            sigma, [*boundary, *(cone_over(m, v) for m in boundary)])
    result = assemble_from_local(q, local)
    if smooth:
        result = result.compose(natural_smooth_refinement(result.source))
        for a in local0:
            if set(result.localize(a).members) != set(local0[a].members):
                raise NotARefinement(
                    "smooth extension failed to restrict to the given "
                    f"refinement at {a}")
    return result


def mutual_smooth_refinement(r1: ComplexRefinement, r2: ComplexRefinement
                             ) -> Tuple[ComplexRefinement, ComplexMorphism,
                                        ComplexMorphism]:
    """A smooth refinement of the common target refining both r1 and r2,
    with the morphisms to r1.source and r2.source."""
    f, p1, p2 = fiber_product_complex(r1.morphism, r2.morphism)
    ns = natural_smooth_refinement(f)
    refined = ComplexRefinement(p1).compose(ns)  # refines r1.source
    total = r1.compose(refined)
    to_r1 = ns.morphism.compose(p1)
    to_r2 = ns.morphism.compose(p2)
    return total, to_r1, to_r2
