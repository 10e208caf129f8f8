"""Interior binomial structures on the local model R^n_+ x R^m.

A binomial system records equations x^alpha = x^beta between the boundary
variables, reduced to exponent vectors gamma = alpha - beta, together with
a count of smooth equations y_j = 0 in the tangential variables.  The
boundary faces met by the zero set, the monoidal complex it carries and
its resolution by a compatible smooth refinement of the ambient complex
are all computed exactly.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import exactla as la
from .complexes import (ComplexMorphism, ComplexRefinement, MonoidalComplex,
                        extend_refinement, identity_refinement,
                        natural_smooth_refinement, planar_refine_complex)
from .errors import (DependentDifferentials, InvariantViolated,
                     NotInSupport, NotSmooth)
from .manifolds import CornerComplex, corner_model, model_hypersurfaces
from .monoids import ToricMonoid


@dataclass(frozen=True)
class BinomialSystem:
    """Normal form of a local binomial structure: independent indefinite
    exponent vectors plus a count of smooth equations."""
    boundary_dim: int
    tangential_dim: int
    gammas: Tuple[la.Vec, ...]
    smooth_count: int

    @property
    def codim(self) -> int:
        return len(self.gammas) + self.smooth_count


def _single_signed(v) -> bool:
    return all(x >= 0 for x in v) or all(x <= 0 for x in v)


def normal_form(pairs: Sequence[Tuple[Sequence[int], Sequence[int]]],
                smooth_count: int = 0,
                tangential_dim: int = 0) -> BinomialSystem:
    """Reduce raw equations x^alpha = x^beta to a binomial system.

    A maximal independent set of the differences gamma = alpha - beta is
    retained; each dependent combination corresponds to a smooth positive
    function and becomes an additional smooth equation, which requires a
    tangential direction to house it.

    Raises:
        ValueError: if there are no equations, or an equation's exponent
            vectors differ in length or have a negative entry.
        DependentDifferentials: if the dependencies exceed the available
            tangential directions, so the logarithmic differentials of the
            system cannot be independent.
        NotInSupport: if a retained exponent vector is single-signed, so
            the zero set misses the corner of the local model.
    """
    if not pairs and smooth_count == 0:
        raise ValueError("empty system")
    n = len(pairs[0][0]) if pairs else 0
    gammas: List[la.Vec] = []
    extra_smooth = 0
    for alpha, beta in pairs:
        if len(alpha) != n or len(beta) != n:
            raise ValueError(f"equation alpha {tuple(alpha)}, beta "
                             f"{tuple(beta)}: exponents are not {n} long")
        if any(a < 0 for a in alpha) or any(b < 0 for b in beta):
            raise ValueError(f"equation alpha {tuple(alpha)}, beta "
                             f"{tuple(beta)}: negative exponent")
        g = tuple(int(a) - int(b) for a, b in zip(alpha, beta))
        if la.is_zero(g):
            extra_smooth += 1
            continue
        stacked = la.mat(gammas + [g])
        if gammas and la.rank(stacked) == la.rank(la.mat(gammas)):
            extra_smooth += 1
            continue
        gammas.append(g)
    total_smooth = smooth_count + extra_smooth
    if total_smooth > tangential_dim:
        raise DependentDifferentials(
            f"{total_smooth} smooth equations but only {tangential_dim} "
            "tangential directions")
    for g in gammas:
        if _single_signed(g):
            raise NotInSupport(
                f"exponent vector {g} is single-signed; the zero set "
                "does not meet the corner of the local model")
    return BinomialSystem(n, tangential_dim, tuple(gammas), total_smooth)


@dataclass(frozen=True)
class VarietyFace:
    """A boundary face met by the zero set: its id, the coordinate subset
    S in axis order, an interior witness and the face monoid in Z^{|S|}."""
    face_id: str
    coords: Tuple[int, ...]
    witness: la.Vec
    monoid: ToricMonoid


@dataclass
class VarietyComplex:
    """All boundary faces of a binomial system, with the kernel subspace
    W of the exponent vectors, the corner model of R^n_+ and the axes of
    each of its faces as coordinates."""
    system: BinomialSystem
    kernel_basis: la.Mat
    faces: Dict[Tuple[int, ...], VarietyFace]
    corner: CornerComplex
    coords: Dict[str, Tuple[int, ...]]


def _kernel_rows(gammas: Sequence[la.Vec], n: int) -> la.Mat:
    """Integer rows spanning the common kernel of the exponent vectors."""
    if not gammas:
        return la.identity(n)
    basis = la.right_kernel_q(la.mat(gammas))
    return la.mat(la.clear_denominators(b) for b in basis)


def _restricted(gammas: Sequence[la.Vec],
                coords: Sequence[int]) -> List[la.Vec]:
    return [tuple(g[i] for i in coords) for g in gammas]


def boundary_faces(b: BinomialSystem) -> VarietyComplex:
    """Detect the boundary faces of the local model met by the zero set.

    A coordinate subset S is met iff there is w in W = cap ker(gamma_i)
    with w_i < 0 for i in S and w_j = 0 otherwise: the direction along
    which interior solutions degenerate into the face.  So the met subsets
    are the supports of the faces of the cone R_+^n cap W, and minus the
    sum of a face's rays is a witness.  Each met face takes its id and
    axis order from corner_model(n).
    """
    n = b.boundary_dim
    x = corner_model(n)
    index = {h: i for i, h in enumerate(model_hypersurfaces(n))}
    coords = {f: tuple(index[h] for h in x.axes(f)) for f in x.faces}
    face_of = {frozenset(c): f for f, c in coords.items()}
    met = []
    for f in _face_monoid(b, tuple(range(n))).faces():
        w = la.zeros(n)
        for ray in f.rays:
            w = la.vsub(w, ray)
        fid = face_of[frozenset(i for i in range(n) if w[i])]
        sub = coords[fid]
        met.append((len(sub), sub, fid, la.primitive(w) if sub else w))
    faces = {sub: VarietyFace(fid, sub, w, _face_monoid(b, sub))
             for _, sub, fid, w in sorted(met)}
    return VarietyComplex(b, _kernel_rows(b.gammas, n), faces, x, coords)


def _face_monoid(b: BinomialSystem, coords: Tuple[int, ...]) -> ToricMonoid:
    """The monoid Z_+^S cap ker(gamma|_S) in ambient Z^{|S|}."""
    s = len(coords)
    if s == 0:
        return ToricMonoid.trivial(0)
    free = ToricMonoid.free(s)
    restricted = [g for g in _restricted(b.gammas, coords)
                  if not la.is_zero(g)]
    if not restricted:
        return free
    rows = _kernel_rows(restricted, s)
    return free.intersect_with_subspace(rows)


def variety_complex(b: BinomialSystem,
                    vc: Optional[VarietyComplex] = None
                    ) -> Tuple[MonoidalComplex, ComplexMorphism]:
    """The monoidal complex of the zero set, with its injective morphism
    into the basic complex of the local model: that complex's order and
    face maps restricted to the met faces, with the variety monoids."""
    if vc is None:
        vc = boundary_faces(b)
    px = vc.corner.basic_complex()
    monoids = {vf.face_id: vf.monoid for vf in vc.faces.values()}
    order = [(a, c) for a in monoids for c in px.above(a)
             if c != a and c in monoids]
    pd = MonoidalComplex(monoids, order,
                         {p: px.face_maps[p] for p in order})
    node = {e: e for e in pd.elements}
    homs = {e: la.identity(pd.monoids[e].ambient_dim)
            for e in pd.elements}
    return pd, ComplexMorphism(pd, px, node, homs)


@dataclass
class Resolution:
    """A resolution of a binomial system: a smooth refinement of the
    ambient complex restricting to the chosen refinement of the variety
    complex, with the lifted variety elements and the per-chart signs of
    the transformed exponent vectors."""
    system: BinomialSystem
    variety: VarietyComplex
    pd: MonoidalComplex
    inclusion: ComplexMorphism
    variety_refinement: ComplexRefinement
    refinement: ComplexRefinement
    lifted: Tuple[str, ...]
    chart_signs: Dict[Tuple[str, int], int]
    universal: bool = False


def resolve(b: BinomialSystem,
            r_d: Optional[ComplexRefinement] = None) -> Resolution:
    """Resolve the zero set: extend a smooth refinement of its complex to
    a smooth refinement of the ambient complex under which the zero set
    lifts to a product-type submanifold.

    The ambient complex is first refined by the kernel subspaces (so the
    variety complex sits inside as a subcomplex), then the given
    refinement of the subcomplex is extended to a smooth refinement of the
    whole.  If r_d is None the natural smooth refinement of the variety
    complex is used.

    Raises:
        NotSmooth: if r_d is not smooth.
        InvariantViolated: if a variety monoid is not a member of the
            planar refinement, or a transformed exponent vector is
            indefinite in a full-dimensional chart.
    """
    vc = boundary_faces(b)
    pd, inclusion = variety_complex(b, vc)
    px = inclusion.target
    if r_d is None:
        r_d = natural_smooth_refinement(pd)
    if not r_d.is_smooth():
        raise NotSmooth("the refinement of the variety complex is not "
                        "smooth")
    subspaces = {}
    for fid in px.elements:
        restricted = [g for g in _restricted(b.gammas, vc.coords[fid])
                      if not la.is_zero(g)]
        subspaces[fid] = _kernel_rows(restricted, len(vc.coords[fid]))
    planar = planar_refine_complex(px, subspaces)
    sq = planar.source

    # Locate the variety monoids among the planar members.
    e_of: Dict[Tuple[int, ...], str] = {}
    for sub, vf in vc.faces.items():
        for e in sq.elements:
            if planar.morphism.node_map[e] == vf.face_id and \
                    sq.monoids[e] == vf.monoid:
                e_of[sub] = e
                break
        if sub not in e_of:
            raise InvariantViolated(f"variety face {sub} missing from the "
                                    "planar refinement")
    local0 = {e_of[sub]: r_d.localize(vf.face_id)
              for sub, vf in vc.faces.items()}
    extension = extend_refinement(sq, local0, smooth=True)
    total = planar.compose(extension)

    chart_signs: Dict[Tuple[str, int], int] = {}
    for fid in px.elements:
        gs = _restricted(b.gammas, vc.coords[fid])
        dim = px.monoids[fid].dim
        for e, img in total.members_over(fid).items():
            if img.dim != dim:
                continue
            for i, g in enumerate(gs):
                beta = tuple(la.dot(row, g) for row in img.rays)
                if not _single_signed(beta):
                    raise InvariantViolated(
                        f"indefinite transformed exponent in chart {e}")
                sign = (1 if any(x > 0 for x in beta)
                        else -1 if any(x < 0 for x in beta) else 0)
                chart_signs[(e, i)] = sign
    sub_elements = set(e_of.values())
    lifted = tuple(sorted(
        e for e in extension.source.elements
        if extension.morphism.node_map[e] in sub_elements))
    return Resolution(b, vc, pd, inclusion, r_d, total, lifted,
                      chart_signs)


def universal_resolution(b: BinomialSystem) -> Resolution:
    """The universal resolution, defined when the variety complex is
    already smooth: resolve with its trivial refinement.

    Raises:
        NotSmooth: if the variety complex is not smooth; a nontrivial
            smooth refinement (for instance the natural one) must then be
            chosen by the caller.
    """
    pd, _ = variety_complex(b)
    if not pd.is_smooth():
        raise NotSmooth(
            "the variety complex is not smooth; resolve with a smooth "
            "refinement of it (for instance its natural smooth "
            "refinement) instead")
    res = resolve(b, identity_refinement(pd))
    res.universal = True
    return res
