"""Toric monoids: finitely generated, sharp, saturated, torsion free.

A toric monoid is stored canonically as a pair (lattice, cone): the monoid
is the set of lattice points in a pointed rational cone spanning the same
subspace as the lattice.  The lattice is a sublattice of an ambient Z^d,
given by a Hermite-reduced row basis; the cone is given by its extreme
rays, each scaled to the primitive lattice point on the ray.  Two monoids
are equal iff their canonical data agree.

Construction decides sharpness and extremality from the facet normals of
the cone spanned by the generators, with no linear programming: the
normals are the extreme rays of the dual cone (one routine,
exactla.cone_rays, serves both directions of cone duality, and sections
of a cone by a subspace); the cone is pointed iff they have full rank r,
and a generator spans an extreme ray iff no generator lies on a strictly
larger set of facets.

Every monoid cut out of a cone by a linear map (a section by a subspace,
a fiber product, an intersection of two monoids) is built by one routine,
_cone_section: saturated kernel, cone section, saturated span, make.

Monoids are interned: while one is alive, every construction with equal
canonical data returns that same object, so derived data (lattice
coordinates of the rays, facets, faces, Hilbert basis) is computed once
per distinct monoid.  The table holds weak references; besides it, a ring
holds strong references to the last _RECENT monoids built.

Constructions are memoized on their inputs: make also files its result
under its input (make of a canonical key returns that monoid, so one table
serves both), _cone_section files its result there under its inputs (the
placement, the facets and the map it cuts by), and images, subspace
sections, smallest faces and membership tests are cached on the monoid
they come from.  A memo lives as long as its monoid; errors are never
cached.  No cache refers back to its monoid: a cached result that is the
monoid itself is stored as a marker, and the face that is the whole
monoid is built on each call.  So there are no reference cycles, and
a monoid is freed once it is unreferenced and has left the recent ring.
Which constructions hit a memo depends on the order of constructions
only, never on when the cyclic garbage collector runs.
"""

import collections
import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from . import exactla as la
from .errors import (EnumerationTooLarge, InvariantViolated, NotAFace,
                     NotInSupport, NotPointedLattice, NotSaturated, NotSharp,
                     NotSimplicial)

Vec = la.Vec
Mat = la.Mat


class ToricMonoid:
    """N cap C for a sublattice N of Z^d and a pointed cone C with
    span(C) = span(N)."""

    __slots__ = ("ambient_dim", "lattice", "rays", "_hash", "_cache",
                 "__weakref__")

    def __init__(self, ambient_dim: int, lattice: Mat, rays: Mat,
                 _canonical: bool = False):
        if not _canonical:
            raise TypeError("use the classmethod constructors")
        self.ambient_dim = ambient_dim
        self.lattice = lattice  # HNF row basis of N, possibly ()
        self.rays = rays        # sorted primitive extremal lattice points
        self._hash = hash(self.key)
        self._cache = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def make(cls, ambient_dim: int, lattice_rows: Sequence,
             cone_generators: Sequence) -> "ToricMonoid":
        """Monoid N cap C from a lattice basis and cone generators.

        The cone generators may be any nonzero rational vectors in the span
        of the lattice; they are replaced by the primitive lattice points
        on the extreme rays.

        Raises:
            NotSharp: if the cone contains a line.
            NotPointedLattice: if span(cone) != span(lattice).
        """
        given = (ambient_dim, la.mat(lattice_rows), la.mat(cone_generators))
        monoid = _interned.get(given)
        if monoid is not None:
            return monoid
        lattice = la.row_space_basis(given[1])
        r = len(lattice)
        coords = set()
        for g in given[2]:
            if la.is_zero(g):
                continue
            c = la.solve_row_echelon(g, lattice)
            if c is None:
                raise NotPointedLattice(
                    f"generator {tuple(g)} outside the lattice span")
            coords.add(la.clear_denominators(c))
        coords = sorted(coords)
        if la.rank(coords) != r:
            raise NotPointedLattice("cone does not span the lattice span")
        facets = la.cone_rays(coords, r)
        if la.rank(facets) != r:
            raise NotSharp("cone contains a line")
        # The smallest face containing c is generated by the generators
        # on every facet that c is on.  It is more than a ray iff one of
        # them (an extreme ray of that face) is on a strictly larger set.
        on = [frozenset(i for i, u in enumerate(facets) if la.dot(u, c) == 0)
              for c in coords]
        rays = tuple(sorted(la.apply_row(c, lattice)
                            for c, z in zip(coords, on)
                            if not any(w > z for w in on)))
        monoid = _interned[given] = _intern(ambient_dim, lattice, rays)
        return monoid

    @classmethod
    def from_generators(cls, ambient_dim: int,
                        generators: Sequence) -> "ToricMonoid":
        """Monoid generated by integer vectors, checked for saturation.

        The lattice is the group generated by the generators and the cone
        is the cone they span.  Raises NotSaturated (with an offending
        lattice point as the message) if the generators span a strictly
        smaller monoid than lattice-cap-cone.
        """
        gens = la.mat(generators)
        monoid = cls.make(ambient_dim, gens, [g for g in gens
                                              if not la.is_zero(g)])
        # A Hilbert basis element is irreducible in the saturation, so it
        # is in the generated monoid iff it is one of the generators.
        given = set(gens)
        for h in monoid.hilbert_basis():
            if h not in given:
                raise NotSaturated(f"lattice point {h} is in the saturation "
                                   "but not the generated monoid")
        return monoid

    @classmethod
    def trivial(cls, ambient_dim: int) -> "ToricMonoid":
        return _intern(ambient_dim, (), ())

    @classmethod
    def free(cls, n: int) -> "ToricMonoid":
        """Z_+^n in ambient Z^n."""
        return _intern(n, la.identity(n), tuple(sorted(la.identity(n))))

    # -- canonical identity --------------------------------------------------

    @property
    def key(self):
        return (self.ambient_dim, self.lattice, self.rays)

    def __eq__(self, other):
        return self is other or (isinstance(other, ToricMonoid)
                                 and self.key == other.key)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"ToricMonoid(dim={self.dim}, ambient={self.ambient_dim}, "
                f"rays={list(self.rays)})")

    # -- basic structure -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.lattice)

    def _cached(self, name, fn):
        """fn(), computed once per name.  A result that is the monoid
        itself is stored as _SELF, so that the cache holds no reference
        back to its monoid (see the module docstring)."""
        if name not in self._cache:
            value = fn()
            self._cache[name] = _SELF if value is self else value
        value = self._cache[name]
        return self if value is _SELF else value

    def ray_coords(self) -> Mat:
        """Extremal rays in lattice coordinates (rows of an integer
        matrix)."""
        def build():
            out = []
            for g in self.rays:
                c = self.lattice_coords_int(g)
                if c is None:
                    raise InvariantViolated(f"ray {g} outside the lattice")
                out.append(c)
            return tuple(out)
        return self._cached("ray_coords", build)

    def extremals(self) -> Mat:
        """Primitive generators of the extreme rays, in ambient
        coordinates."""
        return self.rays

    def lattice_coords(self, v) -> Optional[Tuple[Fraction, ...]]:
        """Rational coordinates of v in the lattice basis, or None if v is
        outside the lattice span."""
        return la.solve_row_echelon(v, self.lattice)

    def lattice_coords_int(self, v) -> Optional[Vec]:
        c = self.lattice_coords(v)
        if c is None or any(x.denominator != 1 for x in c):
            return None
        return tuple(x.numerator for x in c)

    def from_coords(self, c) -> Vec:
        if self.dim == 0:
            return la.zeros(self.ambient_dim)
        return la.apply_row(c, self.lattice)

    def facet_normals(self) -> Mat:
        """Primitive integer facet normals, in lattice coordinates."""
        return self._cached(
            "facets", lambda: la.cone_rays(self.ray_coords(), self.dim))

    def contains(self, v) -> bool:
        """Monoid membership for an integer ambient vector."""
        v = tuple(v)

        def build():
            c = self.lattice_coords_int(v)
            if c is None:
                return False
            return all(la.dot(u, c) >= 0 for u in self.facet_normals())
        return self._cached(("contains", v), build)

    def in_support(self, v) -> bool:
        """Cone membership for a rational ambient vector."""
        c = self.lattice_coords(v)
        if c is None:
            return False
        return all(la.dot(u, c) >= 0 for u in self.facet_normals())

    def in_relative_interior(self, v) -> bool:
        c = self.lattice_coords(v)
        if c is None:
            return False
        return all(la.dot(u, c) > 0 for u in self.facet_normals())

    def interior_point(self) -> Vec:
        """The sum of the extremal generators (a relative interior point
        when the monoid is nontrivial)."""
        p = la.zeros(self.ambient_dim)
        for g in self.rays:
            p = la.vadd(p, g)
        return p

    def is_simplicial(self) -> bool:
        return len(self.rays) == self.dim

    def is_smooth(self) -> bool:
        if not self.is_simplicial():
            return False
        if self.dim == 0:
            return True
        return abs(la.det(self.ray_coords())) == 1

    def index(self) -> int:
        """Index of the group generated by the extremals in the lattice
        (simplicial monoids only)."""
        if not self.is_simplicial():
            raise NotSimplicial("index is defined for simplicial monoids")
        if self.dim == 0:
            return 1
        return abs(int(la.det(self.ray_coords())))

    # -- faces ---------------------------------------------------------------

    def _face_sets(self) -> Tuple[frozenset, ...]:
        """All faces as frozensets of extremal ray indices."""
        def build():
            coords = self.ray_coords()
            facets = self.facet_normals()
            top = frozenset(range(len(coords)))
            seen = {top}
            frontier = [top]
            while frontier:
                f = frontier.pop()
                for u in facets:
                    child = frozenset(i for i in f
                                      if la.dot(u, coords[i]) == 0)
                    if child not in seen:
                        seen.add(child)
                        frontier.append(child)
            if self.dim > 0:
                seen.add(frozenset())
            return tuple(sorted(seen, key=lambda s: (len(s), sorted(s))))
        return self._cached("face_sets", build)

    def _face_from_set(self, gen_set: frozenset) -> "Face":
        if len(gen_set) == len(self.rays):
            # The whole monoid.  This Face holds self, so it is built on
            # each call rather than cached.
            return Face(monoid=self, generator_indices=tuple(sorted(gen_set)),
                        functional=la.zeros(self.ambient_dim))

        def build():
            coords = self.ray_coords()
            sub = tuple(coords[i] for i in sorted(gen_set))
            span_basis = _saturated_span(sub, self.dim)
            lattice = la.mat_mul(span_basis, self.lattice) \
                if span_basis else ()
            monoid = _intern(self.ambient_dim,
                             la.row_space_basis(lattice) if lattice else (),
                             tuple(sorted(self.rays[i]
                                          for i in sorted(gen_set))))
            vanish = [u for u in self.facet_normals()
                      if all(la.dot(u, c) == 0 for c in sub)]
            u_r = la.zeros(self.dim)
            for u in vanish:
                u_r = la.vadd(u_r, u)
            return Face(monoid=monoid,
                        generator_indices=tuple(sorted(gen_set)),
                        functional=self._extend_functional(u_r))
        return self._cached(("face", gen_set), build)

    def _extend_functional(self, u_lattice) -> Vec:
        """Ambient integer functional restricting to u_lattice on the
        lattice basis."""
        if self.dim == 0 or la.is_zero(u_lattice):
            return la.zeros(self.ambient_dim)
        sol = la.solve_row(u_lattice, la.transpose(self.lattice))
        if sol is None:
            raise InvariantViolated(
                f"functional {u_lattice} does not extend to the ambient")
        return la.scale_to_int(sol)

    def faces(self) -> Tuple["Face", ...]:
        """All faces, ordered by dimension then by canonical key."""
        def build():
            out = [self._face_from_set(s) for s in self._face_sets()[:-1]]
            out.sort(key=lambda f: (f.monoid.dim, f.monoid.key))
            return tuple(out)
        # The whole monoid is the last face set and the last face.
        return self._cached("faces", build) + \
            (self._face_from_set(self._face_sets()[-1]),)

    def face_monoids(self) -> Tuple["ToricMonoid", ...]:
        return tuple(f.monoid for f in self.faces())

    def facet_faces(self) -> Tuple["Face", ...]:
        return tuple(f for f in self.faces() if f.monoid.dim == self.dim - 1)

    def smallest_face_containing(self, v) -> "Face":
        """Smallest face whose support contains the rational vector v.

        Raises:
            NotInSupport: if v is outside supp(monoid).
        """
        v = tuple(v)

        def build():
            c = self.lattice_coords(v)
            if c is None:
                raise NotInSupport(f"{v} is outside the lattice span")
            facets = self.facet_normals()
            vals = [la.dot(u, c) for u in facets]
            if any(x < 0 for x in vals):
                raise NotInSupport(f"{v} is outside the support")
            active = [u for u, x in zip(facets, vals) if x == 0]
            coords = self.ray_coords()
            return frozenset(i for i in range(len(coords))
                             if all(la.dot(u, coords[i]) == 0
                                    for u in active))
        return self._face_from_set(self._cached(("smallest_face", v), build))

    def is_face_of(self, other: "ToricMonoid") -> bool:
        return any(self == f for f in other.face_monoids())

    # -- Hilbert basis -------------------------------------------------------

    def hilbert_basis(self) -> Mat:
        """The unique minimal generating set, as ambient vectors sorted
        lexicographically.

        Raises:
            EnumerationTooLarge: if a simplex of the triangulation has
                |det| over _MAX_PARALLELEPIPED.
        """
        def build():
            coords = _hilbert_basis_coords(self.ray_coords(), self.dim,
                                           self._face_sets(),
                                           self.facet_normals())
            return tuple(sorted(self.from_coords(c) for c in coords))
        return self._cached("hilbert", build)

    # -- derived monoids -----------------------------------------------------

    def intersect_with_subspace(self, subspace_rows: Sequence) -> "ToricMonoid":
        """The full submonoid N cap C cap M for a rational subspace M given
        by spanning rows."""
        if self.dim == 0:
            return self
        subspace_rows = la.mat(subspace_rows)

        def build():
            amb_rows = [m for m in subspace_rows if not la.is_zero(m)]
            # Ambient functionals cutting out the subspace.
            cutters = [la.clear_denominators(u)
                       for u in la.right_kernel_q(amb_rows)] if amb_rows \
                else la.identity(self.ambient_dim)
            return _cone_section(
                self.ambient_dim, self.lattice, self.facet_normals(),
                la.mat_mul(self.lattice, la.transpose(cutters)))
        return self._cached(("section", subspace_rows), build)

    def join(self, tau1: "ToricMonoid", tau2: "ToricMonoid") -> "ToricMonoid":
        """The smallest full submonoid containing the full submonoids tau1
        and tau2: the monoid cut out of self by supp(tau1) + supp(tau2)."""
        for t in (tau1, tau2):
            if not self.is_full_submonoid(t):
                raise NotAFace(f"{t} is not a full submonoid")
        gens = tau1.rays + tau2.rays
        # Full submonoids carry sublattices, so each ray has integer
        # coordinates in the lattice of self.
        span = _saturated_span([self.lattice_coords_int(g) for g in gens],
                               self.dim)
        return ToricMonoid.make(self.ambient_dim,
                                la.mat_mul(span, self.lattice), gens)

    def is_full_submonoid(self, tau: "ToricMonoid") -> bool:
        """True if tau equals self cap supp(tau) (with the induced
        lattice)."""
        if tau.ambient_dim != self.ambient_dim:
            return False
        if tau.dim == 0:
            return True
        return tau == self.intersect_with_subspace(tau.lattice)


# Stands for a monoid in its own cache (see ToricMonoid._cached).
_SELF = object()

_interned: "weakref.WeakValueDictionary[tuple, ToricMonoid]" = \
    weakref.WeakValueDictionary()

# How many of the monoids built last are kept alive, memos and all, after
# their last outside reference goes.  256 covers the working set of the
# benchmark's binomial resolves (214 distinct monoids on its seed-0 ops);
# 1024 gave no more on them or on criterion-5 lifts, and on the CLI round
# trip it cost +3.5 MB of peak RSS (+9.3%) where 256 costs +0.8 MB (+2%).
# Only a build enters the ring: also appending on each hit measured
# slower, since repeats crowd distinct monoids out.
_RECENT = 256
_recent: "collections.deque[ToricMonoid]" = collections.deque(maxlen=_RECENT)


def _intern(ambient_dim: int, lattice: Mat, rays: Mat) -> ToricMonoid:
    """The live monoid with this canonical data, made if there is none."""
    key = (ambient_dim, lattice, rays)
    monoid = _interned.get(key)
    if monoid is None:
        monoid = ToricMonoid(ambient_dim, lattice, rays, _canonical=True)
        _interned[key] = monoid
        _recent.append(monoid)
    return monoid


def _saturated_span(rows, r):
    """Basis of Z^r cap span_Q(rows), as rows."""
    if not rows or all(la.is_zero(x) for x in rows):
        return ()
    cutters = la.right_kernel_q(la.mat(rows))
    if not cutters:
        return la.identity(r)
    cols = la.transpose(la.mat(la.clear_denominators(u) for u in cutters))
    return la.saturated_kernel(cols)


def _hilbert_basis_coords(coords, r, face_sets, facets):
    """Hilbert basis of the cone in Z^r given by extremal rays (lattice =
    all of Z^r in these coordinates)."""
    if r == 0:
        return ()
    simplices = _pulling_triangulation(coords, r, face_sets)
    candidates = set(coords)
    for simplex in simplices:
        w = la.mat(simplex)
        for p in _parallelepiped_points(w, r):
            if not la.is_zero(p):
                candidates.add(p)
    cand = sorted(candidates)

    def in_monoid(v):
        return all(la.dot(u, v) >= 0 for u in facets)

    basis = []
    for x in cand:
        redundant = False
        for y in cand:
            if y == x:
                continue
            d = la.vsub(x, y)
            if la.is_zero(d):
                continue
            if in_monoid(d):
                redundant = True
                break
        if not redundant:
            basis.append(x)
    return tuple(basis)


def _pulling_triangulation(coords, r, face_sets):
    """Triangulate a full-dimensional pointed cone into simplicial
    subcones on the same rays (pulling triangulation, lex-first vertex)."""
    index_of = {c: i for i, c in enumerate(coords)}
    by_set = {s: s for s in face_sets}

    def dim_of(sub):
        return la.rank(la.mat([coords[i] for i in sub])) if sub else 0

    dims = {s: dim_of(s) for s in face_sets}

    def facets_of(face_set):
        d = dims[face_set]
        return [s for s in face_sets if s < face_set and dims[s] == d - 1]

    def tri(face_set):
        members = sorted(face_set, key=lambda i: coords[i])
        d = dims[face_set]
        if len(members) == d:
            return [tuple(coords[i] for i in members)]
        v0 = members[0]
        out = []
        for f in facets_of(face_set):
            if v0 in f:
                continue
            for s in tri(f):
                out.append(s + (coords[v0],))
        return out

    top = frozenset(range(len(coords)))
    return tri(top)


# Most lattice points _parallelepiped_points enumerates: |det| of the
# simplex, the product of its Smith diagonal.  The largest |det| that the
# test suite and the benchmark's inputs reach is 63.  The Hilbert basis of
# the cone of (0, 1) and (N, -1) takes 1.2 s of CPU at N = 10^4 and 12 s
# at N = 99,999; at N = 10^6 it did not finish in a minute.
_MAX_PARALLELEPIPED = 10 ** 5


def _parallelepiped_points(w, r):
    """Lattice points of {lam @ w : 0 <= lam_i < 1} for a nonsingular
    integer r x r matrix w."""
    u, d, v = la.smith_normal_form(w)
    diag = [d[i][i] for i in range(r)]
    if not all(diag):
        raise InvariantViolated(f"singular simplex {w}")
    det = math.prod(diag)  # the number of points
    if det > _MAX_PARALLELEPIPED:
        raise EnumerationTooLarge(
            f"a simplex of the Hilbert basis triangulation has |det| {det}, "
            f"over the enumeration bound {_MAX_PARALLELEPIPED}")
    v_inv = la.inverse_q(v)
    w_inv = la.inverse_q(w)
    points = set()
    for z in itertools.product(*[range(x) for x in diag]):
        x = la.apply_row(z, v_inv)
        x = tuple(int(e) for e in x)
        lam = la.apply_row(x, w_inv)
        frac = tuple(f - (f.numerator // f.denominator) for f in
                     (Fraction(t) for t in lam))
        p = la.apply_row(frac, w)
        points.add(tuple(int(e) for e in p))
    return points


@dataclass(frozen=True)
class Face:
    """A face of a toric monoid, with a supporting functional: an ambient
    integer functional vanishing on the face and positive on the rest of
    the monoid's extremals."""
    monoid: ToricMonoid
    generator_indices: Tuple[int, ...]
    functional: Vec


@dataclass(frozen=True)
class MonoidHom:
    """A monoid homomorphism induced by an integer matrix on the ambient
    lattices, acting on row vectors by right multiplication."""
    source: ToricMonoid
    target: ToricMonoid
    matrix: Mat

    def __post_init__(self):
        rs, cs = la.shape(self.matrix)
        assert rs == self.source.ambient_dim, "matrix rows mismatch source"
        assert rs == 0 or cs == self.target.ambient_dim, \
            "matrix cols mismatch target"

    def apply(self, v) -> Vec:
        if not self.matrix:
            return la.zeros(self.target.ambient_dim)
        return la.apply_row(v, self.matrix)

    def validate(self) -> None:
        for h in self.source.hilbert_basis():
            img = self.apply(h)
            if not self.target.contains(img):
                raise NotInSupport(
                    f"image {img} of generator {h} is outside the target")

    def is_injective(self) -> bool:
        if self.source.dim == 0:
            return True
        m = la.mat_mul(self.source.lattice, self.matrix)
        return la.rank(m) == self.source.dim

    def image_monoid(self) -> ToricMonoid:
        """The image as a toric monoid (requires injectivity to be the
        isomorphic image), cached on the source: it depends only on the
        matrix and the target's ambient dimension."""
        return self.source._cached(
            ("image", self.target.ambient_dim, la.mat(self.matrix)),
            self._build_image)

    def _build_image(self) -> ToricMonoid:
        lattice = la.mat_mul(self.source.lattice, self.matrix)
        rays = [self.apply(g) for g in self.source.rays]
        basis = la.row_space_basis(lattice)
        if len(basis) == self.source.dim:
            # Injective on the lattice: an isomorphism onto the image
            # lattice keeps the rays extremal and primitive.
            return _intern(self.target.ambient_dim, basis,
                           tuple(sorted(rays)))
        return ToricMonoid.make(self.target.ambient_dim, lattice, rays)

    def compose(self, then: "MonoidHom") -> "MonoidHom":
        if self.target.ambient_dim != then.source.ambient_dim:
            raise InvariantViolated(
                f"homs do not compose: target ambient dimension "
                f"{self.target.ambient_dim} != source ambient dimension "
                f"{then.source.ambient_dim}")
        return MonoidHom(self.source, then.target,
                         la.mat_mul(self.matrix, then.matrix))


def fiber_product(h1: MonoidHom, h2: MonoidHom) -> ToricMonoid:
    """The fiber product of h1: s1 -> t and h2: s2 -> t, as a toric monoid
    in the concatenated ambient space.

    The lattice is (N1 x N2) cap ker(h1 - h2), saturated inside N1 x N2,
    and the cone is (supp s1 x supp s2) cap the same subspace.
    """
    s1, s2 = h1.source, h2.source
    if h1.target.ambient_dim != h2.target.ambient_dim:
        raise InvariantViolated(
            f"fiber product over different targets: ambient dimensions "
            f"{h1.target.ambient_dim} != {h2.target.ambient_dim}")
    d1, d2 = s1.ambient_dim, s2.ambient_dim
    place = tuple(row + la.zeros(d2) for row in s1.lattice) + \
        tuple(la.zeros(d1) + row for row in s2.lattice)
    return fiber_section(s1, h1.matrix, s2, h2.matrix, d1 + d2, place)


def fiber_section(s1: ToricMonoid, a1: Mat, s2: ToricMonoid, a2: Mat,
                  ambient_dim: int, place: Mat) -> ToricMonoid:
    """The pairs (x, y) of lattice points of s1 and s2 with
    x @ L1 @ a1 == y @ L2 @ a2, placed in Z^ambient_dim as (x, y) @ place.

    Here L1, L2 are the lattice bases of s1, s2, in lattice coordinates
    x in Z^dim(s1) and y in Z^dim(s2), and place has dim(s1) + dim(s2)
    rows; it must be injective on the pairs.
    """
    r1, r2 = s1.dim, s2.dim
    facets = [u + la.zeros(r2) for u in s1.facet_normals()] + \
        [la.zeros(r1) + u for u in s2.facet_normals()]
    phi = la.mat_mul(s1.lattice, a1) + tuple(
        tuple(-x for x in row) for row in la.mat_mul(s2.lattice, a2))
    return _cone_section(ambient_dim, place, facets, phi)


def _cone_section(ambient_dim: int, place: Mat, facets, phi: Mat
                  ) -> ToricMonoid:
    """The monoid of the points c @ place for c in Z^r with u . c >= 0 for
    every row u of facets and c @ phi == 0.

    facets are the normals of a pointed cone in Z^r, phi has r rows, and
    place (r rows, ambient coordinates) must be injective on ker(phi).
    """
    given = ("section", ambient_dim, la.mat(place), la.mat(facets),
             la.mat(phi))
    monoid = _interned.get(given)
    if monoid is not None:
        return monoid
    ray_coords = la.cone_section_rays(facets, la.saturated_kernel(phi))
    if not ray_coords:
        monoid = ToricMonoid.trivial(ambient_dim)
    else:
        # Restrict the lattice to the span of the section cone so that the
        # canonical span condition holds.
        span = _saturated_span(ray_coords, len(place))
        monoid = ToricMonoid.make(
            ambient_dim, la.mat_mul(span, place),
            [la.apply_row(c, place) for c in ray_coords])
    _interned[given] = monoid
    return monoid
