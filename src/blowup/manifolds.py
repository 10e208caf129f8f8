"""Boundary combinatorics of manifolds with corners and b-maps.

A corner complex records the boundary face poset of a manifold with
corners: each face has an id, an incidence set of boundary hypersurfaces,
and the order G <= F means G contains F (so codim is monotone).  A b-map
is a face map together with a matrix of nonnegative boundary exponents.
The basic monoidal complex of a corner complex assigns the free monoid on
the incident hypersurfaces to each face; generalized blow-up turns a
smooth refinement of this complex back into a corner complex together
with its blow-down b-map.  Every member of a smooth refinement is free on
its rays, so chart atlases and the exponents of every b-map into a
blown-up space (blow-downs, lifts, fiber-product projections) are read
off those ray bases.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from . import exactla as la
from .complexes import (ComplexMorphism, ComplexRefinement, MonoidalComplex,
                        _lattice_preimage, identity_refinement,
                        natural_smooth_refinement, pullback_refinement,
                        star_subdivide_complex)
from .errors import (BlowupError, InvariantViolated, NotAComplex, NotAFace,
                     NotARefinement, NotCompatible, NotInSupport, NotSmooth)
from .monoids import ToricMonoid


class CornerComplex:
    """The face poset of a manifold with corners, with hypersurface
    incidence data; the order is that of its basic complex."""

    def __init__(self, incidence: Dict[str, Sequence[str]],
                 order: Sequence[Tuple[str, str]]):
        self.faces = tuple(sorted(incidence))
        self.incidence = {f: frozenset(incidence[f]) for f in self.faces}
        self._hypersurfaces = tuple(
            f for f in self.faces if len(self.incidence[f]) == 1)
        self._relations = tuple(order)
        self._basic: Optional[MonoidalComplex] = None

    def __eq__(self, other):
        """The same manifold: this object, or one with equal incidence and
        order."""
        return self is other or isinstance(other, CornerComplex) and \
            (self.incidence, self.order) == (other.incidence, other.order)

    __hash__ = None

    @property
    def order(self) -> FrozenSet[Tuple[str, str]]:
        """The reflexive transitive closure of the given relations."""
        return self.basic_complex().order

    def codim(self, f: str) -> int:
        return len(self.incidence[f])

    def leq(self, a: str, b: str) -> bool:
        return self.basic_complex().leq(a, b)

    def below(self, b: str) -> Tuple[str, ...]:
        return self.basic_complex().below(b)

    def hypersurfaces(self) -> Tuple[str, ...]:
        return self._hypersurfaces

    def validate(self) -> None:
        for a, b in self.order:
            if not self.incidence[a] <= self.incidence[b]:
                raise NotAComplex(
                    f"{a} <= {b} but incidence is not nested")
        for f in self.faces:
            below = self.below(f)
            for s in _subsets(self.incidence[f]):
                hits = [g for g in below if self.incidence[g] == s]
                if len(hits) != 1:
                    raise NotAComplex(
                        f"face {f} has {len(hits)} subfaces with "
                        f"incidence {sorted(s)}")
        # Exponents are keyed by the codim-1 face id and axes by the
        # hypersurface name, so each hypersurface must name its own face.
        for h in sorted(set().union(*self.incidence.values())):
            if self.incidence.get(h) != {h}:
                raise NotAComplex(
                    f"hypersurface {h} is not a face with incidence {[h]}")

    def axes(self, f: str) -> Tuple[str, ...]:
        """The coordinate order of the incident hypersurfaces at f."""
        return tuple(sorted(self.incidence[f]))

    def basic_complex(self) -> MonoidalComplex:
        """The basic monoidal complex: the free monoid on the incident
        hypersurfaces over each face, with coordinate inclusion face
        maps, built on first use and kept.  A cyclic order raises
        NotAComplex."""
        if self._basic is None:
            monoids = {f: ToricMonoid.free(self.codim(f)) for f in self.faces}
            maps = {}
            for a, b in self._relations:
                ax_a, ax_b = self.axes(a), self.axes(b)
                maps[(a, b)] = la.mat(
                    [tuple(1 if h == k else 0 for k in ax_b) for h in ax_a])
            self._basic = MonoidalComplex(monoids, self._relations, maps)
        return self._basic


def _subsets(s: frozenset):
    items = sorted(s)
    for k in range(len(items) + 1):
        for c in itertools.combinations(items, k):
            yield frozenset(c)


def model_hypersurfaces(n: int, prefix: str = "H") -> Tuple[str, ...]:
    """The boundary hypersurfaces of R^n_+ in coordinate order."""
    return tuple(f"{prefix}{i}" for i in range(1, n + 1))


def corner_model(n: int, prefix: str = "H") -> CornerComplex:
    """The corner complex of the local model R^n_+: one face for every
    subset of the n boundary hypersurfaces."""
    hypers = model_hypersurfaces(n, prefix)
    incidence = {}
    order = []
    for k in range(n + 1):
        for c in itertools.combinations(hypers, k):
            incidence[_face_id(c)] = frozenset(c)
    for f, inc in incidence.items():
        for g, inc2 in incidence.items():
            if f != g and inc <= inc2:
                order.append((f, g))
    return CornerComplex(incidence, order)


def _face_id(hypers: Sequence[str]) -> str:
    return "X" if not hypers else "&".join(sorted(hypers))


@dataclass
class BMap:
    """The combinatorial shadow of a b-map: an order preserving face map
    and nonnegative boundary exponents alpha(G, H) for source hypersurface
    G and target hypersurface H."""
    source: CornerComplex
    target: CornerComplex
    face_map: Dict[str, str]
    exponents: Dict[Tuple[str, str], int] = field(default_factory=dict)

    def alpha(self, g: str, h: str) -> int:
        return self.exponents.get((g, h), 0)

    def validate(self) -> None:
        """Raises:
            NotAComplex: unless the source and target manifolds, and then
                the face map and exponents, are valid."""
        self.source.validate()
        self.target.validate()
        for a, b in self.source.order:
            if not self.target.leq(self.face_map[a], self.face_map[b]):
                raise NotAComplex(
                    f"face map not order preserving on {a} <= {b}")
        for (g, h), e in self.exponents.items():
            if e < 0:
                raise NotAComplex(f"negative exponent alpha({g}, {h})")
        for f in self.source.faces:
            expected = frozenset(
                h for h in self.target.hypersurfaces()
                if any(self.alpha(g, h) > 0
                       for g in self.source.incidence[f]))
            actual = self.target.incidence[self.face_map[f]]
            if expected != actual:
                raise NotAComplex(
                    f"face {f}: exponents are positive on {sorted(expected)} "
                    f"but the image face is cut by {sorted(actual)}")

    def exponent_matrix(self, f: str) -> la.Mat:
        """The matrix of the induced monoid map at face f, rows indexed by
        source axes, columns by target axes of the image face."""
        src_ax = self.source.axes(f)
        tgt_ax = self.target.axes(self.face_map[f])
        return la.mat([tuple(self.alpha(g, h) for h in tgt_ax)
                       for g in src_ax])

    def induced_morphism(self) -> ComplexMorphism:
        """The morphism of basic complexes sending e_G to the sum of
        alpha(G, H) e_H."""
        px = self.source.basic_complex()
        py = self.target.basic_complex()
        homs = {f: self.exponent_matrix(f) for f in self.source.faces}
        return ComplexMorphism(px, py, dict(self.face_map), homs)

    def compose(self, then: "BMap") -> "BMap":
        """self followed by then."""
        if then.source != self.target:
            raise NotAComplex("b-maps do not compose: the first target is "
                              "not the second source")
        face_map = {f: then.face_map[self.face_map[f]]
                    for f in self.source.faces}
        # alpha(g, k) = sum over h of alpha(g, h) then.alpha(h, k), over the
        # stored exponents between hypersurfaces only: a decoded b-map may
        # store an exponent at a pair of other faces, which counts nowhere.
        srcs, mids, tgts = (set(x.hypersurfaces()) for x in
                            (self.source, self.target, then.target))
        out_of: Dict[str, List[Tuple[str, int]]] = {}
        for (h, k), b in then.exponents.items():
            if h in mids and k in tgts:
                out_of.setdefault(h, []).append((k, b))
        exps: Dict[Tuple[str, str], int] = {}
        for (g, h), a in self.exponents.items():
            if g in srcs:
                for k, b in out_of.get(h, ()):
                    exps[(g, k)] = exps.get((g, k), 0) + a * b
        return BMap(self.source, then.target, face_map,
                    {gk: e for gk, e in exps.items() if e})

    def __eq__(self, other):
        if not isinstance(other, BMap):
            return NotImplemented
        if (self.source, self.target, self.face_map) != \
                (other.source, other.target, other.face_map):
            return False
        keys = set(self.exponents) | set(other.exponents)
        return all(self.alpha(*k) == other.alpha(*k) for k in keys)


def identity_bmap(x: CornerComplex) -> BMap:
    return BMap(x, x, {f: f for f in x.faces},
                {(h, h): 1 for h in x.hypersurfaces()})


# ---------------------------------------------------------------------------
# Generalized blow-up.
# ---------------------------------------------------------------------------


@dataclass
class Blowup:
    """A generalized blow-up: the new corner complex, the blow-down b-map
    and the refinement that produced it."""
    total: CornerComplex
    blowdown: BMap
    refinement: ComplexRefinement


def generalized_blowup(x: CornerComplex, r: ComplexRefinement) -> Blowup:
    """Blow up x along a smooth refinement r of its basic complex.

    Faces of the result are the elements of r; the face of an element tau
    has codimension dim(tau), and the hypersurfaces are the rays of r.
    The basic complex of the result is canonically isomorphic to r's
    source complex.

    Raises:
        NotARefinement: unless r's target == x's basic complex.
        NotSmooth: if r is not smooth.
    """
    if r.target != x.basic_complex():
        raise NotARefinement("the refinement's target is not the basic "
                             "complex of the manifold")
    total = _smooth_corner(r.source)
    return Blowup(total, _ray_exponents(total, r.morphism, x), r)


def _smooth_corner(rs: MonoidalComplex) -> CornerComplex:
    """The corner complex of a smooth complex: a face for each element,
    cut by the hypersurfaces of the rays below it.

    Raises:
        NotSmooth: if rs is not smooth.
    """
    if not rs.is_smooth():
        raise NotSmooth("blow-up requires a smooth refinement")
    rays = [e for e in rs.elements if rs.monoids[e].dim == 1]
    incidence = {e: frozenset(w for w in rays if rs.leq(w, e))
                 for e in rs.elements}
    return CornerComplex(incidence,
                         [(a, b) for (a, b) in rs.order if a != b])


def _ray_exponents(x: CornerComplex, phi: ComplexMorphism,
                   y: CornerComplex) -> BMap:
    """The b-map from x to y with the face map of phi: P_x -> P_y, for y
    the corner complex of the smooth complex phi.target.  The exponents
    of a hypersurface h of x are the coordinates of the image of its ray
    in the free basis of rays of phi(h), the ray of w being the image of
    the hypersurface w of y."""
    q = phi.target
    exps = {}
    for h in x.hypersurfaces():
        e = phi.node_map[h]
        m = q.monoids[e]
        coeffs = _smooth_coords(
            m, phi.hom(h).apply(phi.source.monoids[h].rays[0]))
        for w in y.incidence[e]:
            k = coeffs[m.rays.index(q.image_face(w, e).rays[0])]
            if k:
                exps[(h, w)] = k
    return BMap(x, y, dict(phi.node_map), exps)


# ---------------------------------------------------------------------------
# Chart atlases for local models.
# ---------------------------------------------------------------------------


@dataclass
class Chart:
    element: str
    nu: la.Mat  # rows are the free generators of the chart monoid


@dataclass
class ChartAtlas:
    """Charts and transition data for a smooth refinement of Z_+^n.

    Each maximal element gives a chart t -> t^nu with nu the matrix whose
    rows are the generators.  For each pair of adjacent charts the
    transition is t -> t^(nu1 nu2^{-1}), and a separating functional u
    vanishes on the common face, is positive on the remaining generators
    of the first chart and negative on those of the second.
    """
    n: int
    charts: Dict[str, Chart]
    transitions: Dict[Tuple[str, str], Tuple[Tuple[Fraction, ...], ...]]
    separators: Dict[Tuple[str, str], la.Vec]


def local_atlas(r: ComplexRefinement) -> ChartAtlas:
    """Atlas of a smooth refinement of the face complex of Z_+^n (the
    local model of a depth-n corner).

    Two charts are adjacent when they share n - 1 rays, the facet in
    which two members of a refinement meet.  The rows of nu2 are a basis
    dual to the columns of nu2^{-1}, so minus the column of nu2's ray off
    that facet vanishes on it and is negative on nu2's other ray; it
    separates when it is positive on nu1's other ray.

    Raises:
        NotSmooth: if r is not smooth.
        NotARefinement: unless r's target has a top element, one above
            every other, as the face complex of a monoid has.
    """
    if not r.is_smooth():
        raise NotSmooth("chart atlases need a smooth refinement")
    q = r.target
    top = max(q.elements, key=lambda a: q.monoids[a].dim, default=None)
    if top is None or not all(q.leq(a, top) for a in q.elements):
        raise NotARefinement("chart atlases need a refinement of a complex "
                             "with a top element")
    n = q.monoids[top].dim
    charts = {e: Chart(e, la.mat(img.rays))
              for e, img in r.members_over(top).items() if img.dim == n}
    inverses = {e: la.inverse_q(c.nu) for e, c in charts.items()}
    transitions = {}
    separators = {}
    for e1, e2 in itertools.permutations(sorted(charts), 2):
        nu1, nu2 = charts[e1].nu, charts[e2].nu
        shared = set(nu1) & set(nu2)
        if len(shared) != n - 1:
            continue
        inv2 = inverses[e2]
        transitions[(e1, e2)] = la.mat_mul(nu1, inv2)
        (j,) = (i for i, g in enumerate(nu2) if g not in shared)
        u = la.clear_denominators(tuple(-row[j] for row in inv2))
        (far1,) = (g for g in nu1 if g not in shared)
        if la.dot(far1, u) <= 0:
            raise InvariantViolated(
                f"charts {e1} and {e2} have no separating functional")
        separators[(e1, e2)] = u
    return ChartAtlas(n, charts, transitions, separators)


# ---------------------------------------------------------------------------
# Compatibility and lifting of b-maps.
# ---------------------------------------------------------------------------


@dataclass
class Lift:
    """A lift of f: X -> Y through the blow-down of [Y; R]: the lifted
    b-map and the factoring morphism P_X -> R."""
    bmap: BMap
    factoring: ComplexMorphism


def factor_through_refinement(psi: ComplexMorphism,
                              r: ComplexRefinement) -> ComplexMorphism:
    """Factor psi: P -> Q through the refinement r of Q, for P a basic
    complex (the rows of psi.homs[z] are the images of z's generators).

    Each element z goes to the smallest member of r over psi(z) whose
    image holds the generators, and they are solved in its lattice.

    Raises:
        NotCompatible: if no member over psi(z) holds them; the message
            names z and the sum of the generators.
    """
    rs = r.source
    node = {}
    homs = {}
    for z in psi.source.elements:
        sigma_id = psi.node_map[z]
        gens = psi.homs[z]
        best = None
        for e, img in r.members_over(sigma_id).items():
            if (best is None or img.dim < best[1].dim) and \
                    all(img.contains(g) for g in gens):
                best = (e, img)
        if best is None:
            raise NotCompatible(
                f"image of face {z} crosses the refinement: "
                f"direction {tuple(map(sum, zip(*gens)))}")
        e = node[z] = best[0]
        incl = la.mat_mul(r.morphism.homs[e],
                          r.target.face_maps[(r.morphism.node_map[e],
                                              sigma_id)])
        rows = []
        for g in gens:
            w = _lattice_preimage(rs.monoids[e], incl, g)
            if w is None:
                raise InvariantViolated(f"{g} is outside the lattice of {e}")
            rows.append(w)
        homs[z] = la.mat(rows)
    return ComplexMorphism(psi.source, rs, node, homs)


def is_compatible(f: BMap, r: ComplexRefinement) -> bool:
    try:
        factor_through_refinement(f.induced_morphism(), r)
    except NotCompatible:
        return False
    return True


def _check_maps_into(f: BMap, blowup: Blowup) -> None:
    """Raise NotCompatible unless f maps into the manifold that blowup
    blows up."""
    if f.target != blowup.blowdown.target:
        raise NotCompatible("the b-map's target is not the manifold that "
                            "is blown up")


def lift_bmap(f: BMap, blowup: Blowup) -> Lift:
    """Lift f: X -> Y through the blow-down [Y; R] -> Y.

    Raises:
        NotCompatible: if f's target is not Y, or if f does not factor
            through the refinement.
    """
    _check_maps_into(f, blowup)
    factoring = factor_through_refinement(f.induced_morphism(),
                                          blowup.refinement)
    return Lift(_ray_exponents(f.source, factoring, blowup.total),
                factoring)


def _smooth_coords(m: ToricMonoid, v) -> la.Vec:
    """Coordinates of a monoid point in the free basis of a smooth
    monoid, following the ray order of m.rays."""
    if m.dim == 0:
        return ()
    c = la.solve_row_int(v, m.rays)
    if c is None:
        raise InvariantViolated(f"{v} is not a lattice point of the smooth "
                                f"monoid {m.rays}")
    return c


def chart_lift(delta: la.Mat, nu: la.Mat) -> la.Mat:
    """Exponent matrix mu with delta == mu @ nu, for a map x = a(x') x'^delta
    factoring through the chart t -> t^nu.

    Raises:
        NotCompatible: unless nu is square and nonsingular, delta's rows
            are as wide as nu, and mu is integral.
    """
    n = len(nu)
    # Widths first: solve_row_int truncates a row of the wrong width.
    if any(len(row) != n for row in tuple(nu) + tuple(delta)):
        raise NotCompatible(f"{delta} and the chart {nu} are not {n} wide")
    if la.rank(nu) < n:
        raise NotCompatible(f"the chart {nu} is singular")
    mu = [la.solve_row_int(row, nu) for row in delta]
    if None in mu:
        raise NotCompatible(f"{delta} does not factor through the chart "
                            f"{nu}")
    return la.mat(mu)


# ---------------------------------------------------------------------------
# Ordinary, weighted and iterated blow-up; blowing up the domain.
# ---------------------------------------------------------------------------


def ordinary_blowup(x: CornerComplex, face_id: str,
                    weights: Optional[Sequence[int]] = None
                    ) -> Tuple[Blowup, List[la.Mat]]:
    """Blow up a boundary face: star subdivide the basic complex at the
    (weighted) sum of the generators of the face monoid.

    Returns the blow-up and the chart exponent matrices, one per
    coordinate of the face: the identity with row i replaced by the
    weight vector.
    """
    px = x.basic_complex()
    k = x.codim(face_id)
    if weights is None:
        weights = [1] * k
    if len(weights) != k or any(w < 1 for w in weights):
        raise NotInSupport(f"weights {tuple(weights)} for {face_id} must "
                           f"be {k} integers of at least 1")
    v = tuple(int(w) for w in weights)
    r = star_subdivide_complex(px, face_id, v)
    if not r.source.is_smooth():
        # Weighted centers need not give a smooth subdivision; make it so.
        r = r.compose(natural_smooth_refinement(r.source))
    b = generalized_blowup(x, r)
    charts = []
    for i in range(k):
        rows = [tuple(v) if j == i else la.identity(k)[j] for j in range(k)]
        charts.append(la.mat(rows))
    return b, charts


def lift_face(b: Blowup, face_id: str) -> str:
    """The lift (proper transform) of a face of the base to the blow-up:
    the unique element of the refinement whose image is the whole face
    monoid.

    Raises:
        NotAFace: if the face does not survive as a single face.
    """
    r = b.refinement
    sigma = r.target.monoids[face_id]
    for e, img in r.members_over(face_id).items():
        if r.morphism.node_map[e] == face_id and img == sigma:
            return e
    raise NotAFace(f"face {face_id} does not lift to a single face")


def iterated_blowup(x: CornerComplex, face_ids: Sequence[str]) -> Blowup:
    """Blow up a sequence of boundary faces, lifting each later center to
    the current blow-up."""
    current = identity_refinement(x.basic_complex())
    total_blowup = generalized_blowup(x, current)
    for fid in face_ids:
        lifted = lift_face(total_blowup, fid)
        rs = total_blowup.refinement.source
        v = rs.monoids[lifted].interior_point()
        step = star_subdivide_complex(rs, lifted, v)
        current = total_blowup.refinement.compose(step)
        total_blowup = generalized_blowup(x, current)
    return total_blowup


def blowup_domain(f: BMap, blowup: Blowup) -> Tuple[Blowup, Lift, bool]:
    """Make f liftable by blowing up its domain: pull the refinement back
    along the induced morphism, take its natural smooth refinement, blow
    up the domain and lift f composed with the new blow-down.

    Returns the domain blow-up, the lift of f . beta, and whether the
    domain blow-up was already minimal (pullback already smooth).

    Raises:
        NotCompatible: if f's target is not the blown-up manifold.
    """
    _check_maps_into(f, blowup)
    dom, minimal = _pulled_back_blowup(f.source, blowup.refinement,
                                       f.induced_morphism())
    lifted = lift_bmap(dom.blowdown.compose(f), blowup)
    return dom, lifted, minimal


def _pulled_back_blowup(x: CornerComplex, r: ComplexRefinement,
                        psi: ComplexMorphism) -> Tuple[Blowup, bool]:
    """Blow up x along the pullback of r by psi: P_x -> r.target, made
    smooth by its natural smooth refinement if it is not; also whether
    the pullback was smooth already."""
    pulled = pullback_refinement(r, psi)
    minimal = pulled.source.is_smooth()
    s = pulled if minimal else \
        pulled.compose(natural_smooth_refinement(pulled.source))
    return generalized_blowup(x, s), minimal


def check_blowdown(f: BMap) -> Tuple[bool, bool]:
    """Decide whether f looks like a generalized blow-down: its induced
    morphism must be a smooth refinement of the target's basic complex.
    Its source is the basic complex of f's source, whose monoids are all
    free, so only the refinement axioms need checking.

    Returns (is_blowdown, is_diffeomorphism).
    """
    ref = ComplexRefinement(f.induced_morphism())
    try:
        ref.validate()
    except BlowupError:
        return False, False
    return True, ref.is_identity_like()
