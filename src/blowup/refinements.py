"""Refinements of a single toric monoid.

A refinement of sigma is a finite family of submonoids (each with its own
lattice, all living in the ambient space of sigma) that is closed under
faces, has pairwise intersections which are common faces, and whose
supports cover supp(sigma).

Checking the common-face axiom costs an exact intersection per pair of
members.  For a simplicial family the axiom follows, by the pseudo-manifold
characterization of triangulations (De Loera, Rambau & Santos,
*Triangulations*, Springer 2010, on a slice of the fan), from: (1) every
member is simplicial; (2) every ray is in supp(sigma) and every face of a
member is a member; (3) every member is a face of a maximal member; (4)
every facet of a maximal member off the boundary of supp(sigma) is a facet
of exactly two maximal members, as one monoid (lattice included), on
opposite sides of it; (5) the interior point of one maximal member is in
the support of no other.  Lattices then agree on each common face through
the facets around it.  MonoidRefinement.validate skips the pairwise check
when (1)-(5) hold, so its report is the same either way.
"""

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import exactla as la
from .errors import (InvariantViolated, NotAFace, NotARefinement,
                     NotInSupport, NotSimplicial)
from .monoids import ToricMonoid, fiber_section


@dataclass(frozen=True)
class RefinementFailure:
    """One violated refinement axiom with a witness."""
    axiom: str  # "face_closed" | "common_face" | "cover" | "support"
    detail: str
    witness: Optional[tuple] = None


class MonoidRefinement:
    """A candidate refinement: a base monoid and a family of submonoids."""

    def __init__(self, base: ToricMonoid, members: Sequence[ToricMonoid]):
        self.base = base
        self.members = tuple(sorted(set(members), key=lambda m: m.key))

    def __eq__(self, other):
        return (isinstance(other, MonoidRefinement)
                and self.base == other.base
                and self.members == other.members)

    def __hash__(self):
        return hash((self.base.key, tuple(m.key for m in self.members)))

    def __repr__(self):
        return (f"MonoidRefinement(base dim {self.base.dim}, "
                f"{len(self.members)} members)")

    def maximal_members(self) -> Tuple[ToricMonoid, ...]:
        return tuple(m for m in self.members if m.dim == self.base.dim)

    def is_trivial(self) -> bool:
        return set(self.members) == set(self.base.faces())

    def is_smooth(self) -> bool:
        return all(m.is_smooth() for m in self.members)

    def is_simplicial(self) -> bool:
        return all(m.is_simplicial() for m in self.members)

    def validate(self) -> List[RefinementFailure]:
        """Check the refinement axioms; an empty list means valid.

        Two faces of one member meet in a face of that member, which is a
        common face of both (each carries the member's saturated
        sublattice), so the common-face axiom is checked only on pairs
        with no common owner, and not at all when conditions (1)-(5) of
        the module docstring show the family is a triangulation.
        """
        failures = []
        member_set = set(self.members)
        owners = {}  # monoid -> indices of the members it is a face of
        for i, m in enumerate(self.members):
            for g in m.rays:
                if not self.base.in_support(g):
                    failures.append(RefinementFailure(
                        "support", f"ray {g} outside supp(base)", g))
            for f in m.faces():
                owners.setdefault(f, set()).add(i)
                if f not in member_set:
                    failures.append(RefinementFailure(
                        "face_closed",
                        f"face {f.rays} of member {m.rays} missing",
                        f.rays))
        facets = self._interior_facets()
        if failures or not self._is_triangulation(owners, facets):
            for m1, m2 in itertools.combinations(self.members, 2):
                if not owners[m1].isdisjoint(owners[m2]):
                    continue
                inter = intersect_members(m1, m2)
                if not (inter.is_face_of(m1) and inter.is_face_of(m2)):
                    failures.append(RefinementFailure(
                        "common_face",
                        f"intersection of {m1.rays} and {m2.rays} is not a "
                        "common face", inter.rays))
        failures.extend(self._check_cover(facets))
        return failures

    def _interior_facets(self) -> Dict[tuple, list]:
        """The facets of the maximal members that are not on the boundary
        of supp(base), keyed by their rays: each with its owners, as
        (maximal member, facet) pairs.  A ray outside the span of the base
        is off every facet of the base."""
        base = self.base
        facets = {}
        for m in self.maximal_members():
            for f in m.facet_faces():
                coords = [base.lattice_coords(g) for g in f.rays]
                if not any(all(c is not None and la.dot(u, c) == 0
                               for c in coords)
                           for u in base.facet_normals()):
                    facets.setdefault(f.rays, []).append((m, f))
        return facets

    def _is_triangulation(self, owners, facets) -> bool:
        """Conditions (1) and (3)-(5) of the module docstring."""
        maximal = self.maximal_members()
        if not maximal or not self.is_simplicial():
            return False
        if any(all(self.members[i].dim < self.base.dim for i in o)
               for o in owners.values()):
            return False
        coords = self.base.lattice_coords
        for cone_key, pair in facets.items():
            if len(pair) != 2:
                return False
            (m1, f1), (m2, f2) = pair
            if f1 != f2:
                return False
            far1, far2 = (next(g for g in m.rays if g not in cone_key)
                          for m in (m1, m2))
            # A normal of the facet's hyperplane, in base coordinates (every
            # ray is in supp(base) here); the far rays are on opposite sides.
            (u,) = la.right_kernel_q([coords(g) for g in cone_key])
            if la.dot(u, coords(far1)) * la.dot(u, coords(far2)) >= 0:
                return False
        p = maximal[0].interior_point()
        return not any(m.in_support(p) for m in maximal[1:])

    def _check_cover(self, facets) -> List[RefinementFailure]:
        """Exact cover criterion: each of the _interior_facets() of the
        maximal members is shared by exactly two of them."""
        base = self.base
        if base.dim == 0:
            return []
        if not self.maximal_members():
            return [RefinementFailure(
                "cover", "no full-dimensional member",
                base.interior_point())]
        failures = []
        for cone_key, owners in facets.items():
            if len(owners) != 2:
                witness = la.zeros(base.ambient_dim)
                for g in cone_key:
                    witness = la.vadd(witness, g)
                failures.append(RefinementFailure(
                    "cover",
                    f"interior facet {cone_key} belongs to "
                    f"{len(owners)} maximal members", witness))
        return failures

    def localize(self, tau: ToricMonoid) -> "MonoidRefinement":
        """The induced refinement of a face tau of the base."""
        if not tau.is_face_of(self.base):
            raise NotAFace("localization target is not a face of the base")
        members = [m for m in self.members
                   if all(tau.in_support(g) for g in m.rays)]
        return MonoidRefinement(tau, members)

    def member_containing(self, v) -> ToricMonoid:
        """The smallest member whose support contains v.

        Raises:
            NotInSupport: if no member support contains v.
        """
        best = None
        for m in self.members:
            if m.in_support(v):
                if best is None or m.dim < best.dim:
                    best = m
        if best is None:
            raise NotInSupport(f"{tuple(v)} is not covered by any member")
        return best


def intersect_members(m1: ToricMonoid, m2: ToricMonoid) -> ToricMonoid:
    """The set intersection of two toric monoids in a common ambient
    space, as a toric monoid: (N1 cap N2) cap (C1 cap C2)."""
    if m1.ambient_dim != m2.ambient_dim:
        raise InvariantViolated(
            f"members in different ambient spaces: dimensions "
            f"{m1.ambient_dim} != {m2.ambient_dim}")
    d = m1.ambient_dim
    identity = la.identity(d)
    # Pairs (x, y) of lattice coordinates with x @ L1 == y @ L2, placed
    # in the ambient by x @ L1 alone.
    return fiber_section(m1, identity, m2, identity, d,
                         m1.lattice + (la.zeros(d),) * m2.dim)


def trivial_refinement(sigma: ToricMonoid) -> MonoidRefinement:
    return MonoidRefinement(sigma, sigma.faces())


def star_subdivide(sigma: ToricMonoid, v) -> MonoidRefinement:
    """Star subdivision of sigma at a nonzero v in sigma: the faces not
    containing v, together with tau + Z_+ v for each such face tau.

    The subdivision is smooth when every proper face of sigma is smooth
    and v is an extremal-sum style interior choice; smoothness is a
    property of the result, not a precondition.
    """
    if la.is_zero(v):
        raise NotInSupport("subdivision center must be nonzero")
    if not sigma.contains(v):
        raise NotInSupport(f"{tuple(v)} is not in the monoid")
    members = []
    for tau in sigma.faces():
        if tau.in_support(v):
            continue
        members += [tau, cone_over(tau, v)]
    return MonoidRefinement(sigma, members)


def cone_over(tau: ToricMonoid, v) -> ToricMonoid:
    """The monoid tau + Z_+ v, with lattice that of tau plus Z v, for v
    outside the span of tau."""
    return ToricMonoid.make(tau.ambient_dim,
                            la.mat(list(tau.lattice) + [tuple(v)]),
                            list(tau.rays) + [tuple(v)])


def smoothing(sigma: ToricMonoid) -> MonoidRefinement:
    """The smoothing of a simplicial monoid: members are the free monoids
    generated by the subsets of the extremals.

    Raises:
        NotSimplicial: if sigma is not simplicial.
    """
    if not sigma.is_simplicial():
        raise NotSimplicial("smoothing is defined for simplicial monoids")
    members = []
    for k in range(len(sigma.rays) + 1):
        for sub in itertools.combinations(sigma.rays, k):
            members.append(ToricMonoid.make(sigma.ambient_dim,
                                            la.mat(sub), sub))
    return MonoidRefinement(sigma, members)


def maximal_faces_avoiding(sigma: ToricMonoid,
                           subspace_rows: Sequence) -> Tuple[ToricMonoid, ...]:
    """Faces of sigma meeting the subspace only at 0, maximal among
    those."""
    avoiding = []
    for tau in sigma.faces():
        if tau.dim == 0:
            avoiding.append(tau)
            continue
        section = tau.intersect_with_subspace(subspace_rows)
        if section.dim == 0:
            avoiding.append(tau)
    maximal = []
    for t in avoiding:
        if not any(t != o and t.is_face_of(o) for o in avoiding):
            maximal.append(t)
    return tuple(sorted(maximal, key=lambda m: m.key))


def planar_refine(sigma: ToricMonoid, subspace_rows: Sequence
                  ) -> MonoidRefinement:
    """Refinement of sigma by a subspace M: the faces of the joins
    mu * tau, where mu = sigma cap M and tau runs over the maximal faces
    meeting M trivially."""
    mu = sigma.intersect_with_subspace(subspace_rows)
    members = []
    for tau in maximal_faces_avoiding(sigma, subspace_rows):
        joined = sigma.join(mu, tau)
        members.extend(joined.faces())
    return MonoidRefinement(sigma, members)
