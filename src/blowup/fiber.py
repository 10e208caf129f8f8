"""Fiber products of b-maps.

Given two b-maps with a common target, the combinatorial fiber product is
the fiber product of their basic monoidal complexes.  When every fiber
monoid is smooth the result is the universal fiber product; otherwise
the natural smooth refinement resolves it into a corner complex with
projection b-maps to both factors, read off the free ray bases of the
refinement as a blow-down is.  Each face pair also carries a
binomial-system model of the local fiber product.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import exactla as la
from .binomial import BinomialSystem, normal_form
from .complexes import (ComplexMorphism, ComplexRefinement, MonoidalComplex,
                        fiber_pair_id, fiber_product_complex,
                        natural_smooth_refinement)
from .errors import NotCompatible, NotTransverse
from .manifolds import (BMap, CornerComplex, _pulled_back_blowup,
                        _ray_exponents, _smooth_corner,
                        factor_through_refinement)
from .monoids import MonoidHom, ToricMonoid
from .monoids import fiber_product as monoid_fiber_product


@dataclass
class FiberProblem:
    """Two b-maps with a common target."""
    f1: BMap
    f2: BMap

    def __post_init__(self):
        if self.f1.target != self.f2.target:
            raise NotCompatible("the two maps must share a target")

    def relevant_pairs(self) -> List[Tuple[str, str, str]]:
        """Face pairs (F1, F2) whose images are the same face G; only
        these contribute points to the fiber product."""
        out = []
        for a in self.f1.source.faces:
            for b in self.f2.source.faces:
                if self.f1.face_map[a] == self.f2.face_map[b]:
                    out.append((a, b, self.f1.face_map[a]))
        return out


@dataclass
class PairReport:
    """The local fiber product over one face pair."""
    face1: str
    face2: str
    image: str
    monoid: ToricMonoid
    smooth: bool
    transversal: bool
    system: Optional[BinomialSystem]


@dataclass
class FiberReport:
    pairs: List[PairReport]
    transversal: bool
    smooth: bool
    note: str = ("b-normal transversality is a necessary condition only: "
                 "tangential directions are outside this model")


def b_normal_transversality(p: FiberProblem) -> FiberReport:
    """Rank test per relevant face pair: the combined exponent matrices
    must surject onto the normal directions of the common image face.
    Each pair also gets its fiber monoid and, unless the image face is the
    interior, a binomial model of the local fiber product: one equation
    per target coordinate, comparing the two pulled back defining
    functions."""
    reports = []
    for a, b, g in p.relevant_pairs():
        n1 = p.f1.exponent_matrix(a)
        n2 = p.f2.exponent_matrix(b)
        d1, d2 = len(n1), len(n2)
        dg = p.f1.target.codim(g)
        h1 = MonoidHom(ToricMonoid.free(d1), ToricMonoid.free(dg), n1)
        h2 = MonoidHom(ToricMonoid.free(d2), ToricMonoid.free(dg), n2)
        tv = dg == 0 or la.rank(la.mat(list(n1) + list(n2))) == dg
        m = monoid_fiber_product(h1, h2)
        system = None
        if dg:
            eqs = [(tuple(row[i] for row in n1) + la.zeros(d2),
                    la.zeros(d1) + tuple(row[i] for row in n2))
                   for i in range(dg)]
            gs = [tuple(x - y for x, y in zip(al, be)) for al, be in eqs]
            system = normal_form(eqs,
                                 tangential_dim=dg - la.rank(la.mat(gs)))
        reports.append(PairReport(a, b, g, m, m.is_smooth(), tv, system))
    return FiberReport(reports,
                       transversal=all(r.transversal for r in reports),
                       smooth=all(r.smooth for r in reports))


def fiber_complex(p: FiberProblem) -> Tuple[MonoidalComplex,
                                            ComplexMorphism,
                                            ComplexMorphism]:
    """The fiber product of the basic complexes with its projections."""
    return fiber_product_complex(p.f1.induced_morphism(),
                                 p.f2.induced_morphism())


def theorem_b_check(p: FiberProblem):
    """Decide whether the fiber product is already a union of smooth
    corner complexes.

    Returns (smooth flag, fiber complex, projections, offending element
    ids).  When the flag is true the fiber complex is the universal fiber
    product and the offenders list is empty.
    """
    fc, p1, p2 = fiber_complex(p)
    offenders = sorted(e for e in fc.elements
                       if not fc.monoids[e].is_smooth())
    return (not offenders), fc, p1, p2, offenders


@dataclass
class ResolvedFiberProduct:
    """A resolved fiber product: the smooth complex, its corner complex,
    b-maps to both factors and the per-pair binomial models."""
    problem: FiberProblem
    fiber: MonoidalComplex
    refinement: ComplexRefinement
    corner: CornerComplex
    h1: BMap
    h2: BMap
    report: FiberReport


def resolve_fiber_product(p: FiberProblem) -> ResolvedFiberProduct:
    """Resolve the fiber product by its natural smooth refinement into a
    corner complex with b-maps to the two factors.

    Raises:
        NotTransverse: if the combinatorial transversality test fails.
    """
    report = b_normal_transversality(p)
    if not report.transversal:
        bad = [(q.face1, q.face2) for q in report.pairs
               if not q.transversal]
        raise NotTransverse(f"face pairs fail the rank test: {bad}")
    fc, p1, p2 = fiber_complex(p)
    r = natural_smooth_refinement(fc)
    corner = _smooth_corner(r.source)
    h1 = _ray_exponents(corner, r.morphism.compose(p1), p.f1.source)
    h2 = _ray_exponents(corner, r.morphism.compose(p2), p.f2.source)
    return ResolvedFiberProduct(p, fc, r, corner, h1, h2, report)


def factor_through(g1: BMap, g2: BMap, resolved: ResolvedFiberProduct):
    """Factor a commuting pair of maps through a resolved fiber product.

    g1: Z -> X1 and g2: Z -> X2 must satisfy g1 . f1 = g2 . f2, for f1
    and f2 the maps of resolved.problem.  If the induced morphism of Z
    factors through the resolving refinement, the unique map g: Z ->
    resolved corner complex is returned with no domain blow-up; otherwise
    the domain Z is blown up first and g is a map from the blown-up
    domain.

    Returns (domain blow-up or None, g: BMap).

    Raises:
        NotCompatible: if g1 and g2 have different domains, or the square
            does not commute.
    """
    if g1.source != g2.source:
        raise NotCompatible("common domain required")
    c1 = g1.compose(resolved.problem.f1)
    c2 = g2.compose(resolved.problem.f2)
    if c1 != c2:
        raise NotCompatible("g1 . f1 and g2 . f2 disagree")
    z = g1.source
    pz = z.basic_complex()
    fc = resolved.fiber
    node = {}
    homs = {}
    for face in pz.elements:
        a = g1.face_map[face]
        b = g2.face_map[face]
        eid = fiber_pair_id(a, b)
        if eid not in fc.elements:
            raise NotCompatible(
                f"image pair {eid} is missing from the fiber complex")
        node[face] = eid
        m1 = g1.exponent_matrix(face)
        m2 = g2.exponent_matrix(face)
        homs[face] = la.mat(tuple(r1) + tuple(r2)
                            for r1, r2 in zip(m1, m2))
    psi = ComplexMorphism(pz, fc, node, homs)
    r = resolved.refinement
    dom = None
    try:
        factoring = factor_through_refinement(psi, r)
    except NotCompatible:
        dom, _ = _pulled_back_blowup(z, r, psi)
        factoring = factor_through_refinement(
            dom.blowdown.induced_morphism().compose(psi), r)
    return dom, _ray_exponents(dom.total if dom else z, factoring,
                               resolved.corner)
