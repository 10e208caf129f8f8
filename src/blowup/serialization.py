"""Every JSON document the package reads or writes.

Integers that do not fit a double are written as decimal strings so
arbitrary precision survives transport; rationals are written "p/q".
Serialization is canonical: keys sorted, element ids sorted, matrices
written row by row.  Each document kind is written and read here: the
core objects, and the result documents that the command line prints
(one `*_to_doc` writer per kind, so a handler in `cli` decodes, calls
the library and returns a writer's output).  `_versioned` writes the
kind and the version of every versioned document; `validation`,
`hilbert_basis` and `faces` carry no version.  Each decoder first checks
the kind, the version and the JSON type of every field it reads against
its entry in _FIELDS, then decodes its integers and matrices strictly
and checks that the ids it cross-references exist.  Each of these raises
MalformedDocument; a missing field, a field of the wrong type, a number
that does not parse or an unknown id is named by its path, such as
`complex.face_maps[3].pair: missing`, and a decoder reading a document
nested in another is given that document's path.  The face maps of a
complex are checked against its elements' ambient dimensions
(NotAComplex, as in its validation) before the complex composes the
missing ones.  A binomial system document is read back only if it is
its own normal form.  Decoders return objects that pass their
validation, run once the whole document is decoded: nested parts are
decoded by the non-validating halves (named with a leading underscore),
so each is checked as far as its parent's validation goes.
"""

import json
from dataclasses import replace
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Tuple

from . import exactla as la
from .complexes import (ComplexMorphism, ComplexRefinement, MonoidalComplex,
                        check_shape)
from .binomial import (BinomialSystem, Resolution, VarietyComplex,
                       normal_form)
from .chartcheck import CheckReport
# Also imported from here by callers of the decoders.
from .errors import MalformedDocument, NotARefinement
from .fiber import FiberReport, ResolvedFiberProduct
from .manifolds import BMap, Blowup, ChartAtlas, CornerComplex, Lift
from .monoids import ToricMonoid
from .refinements import MonoidRefinement

VERSION = 1
_SAFE = 2 ** 53


def _enc_int(x: int):
    return x if abs(x) < _SAFE else str(x)


def _enc_num(x):
    f = Fraction(x)
    if f.denominator == 1:
        return _enc_int(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _at(path: str, steps) -> str:
    """The path of a field: path, then each step as .key or [index]."""
    return path + "".join(f"[{s}]" if isinstance(s, int) else f".{s}"
                          for s in steps)


def _dec_num(x, path: str, *steps) -> Fraction:
    """The value of an integer, or a string such as "-3/4"; path and
    steps name the field when it is not one."""
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as e:
        raise MalformedDocument(
            f"{_at(path, steps)}: bad number {x!r}") from e


def _dec_int(x, path: str, *steps) -> int:
    f = _dec_num(x, path, *steps)
    if f.denominator != 1:
        raise MalformedDocument(
            f"{_at(path, steps)}: expected an integer, got {x!r}")
    return int(f)


def _enc_mat(m) -> List[List]:
    return [[_enc_num(x) for x in row] for row in m]


def _dec_int_mat(doc, path: str, *steps) -> la.Mat:
    return la.mat(tuple(_dec_int(x, path, *steps, i, j)
                        for j, x in enumerate(row))
                  for i, row in enumerate(doc))


def _dec_q_mat(doc, path: str, *steps) -> Tuple[Tuple[Fraction, ...], ...]:
    return tuple(tuple(_dec_num(x, path, *steps, i, j)
                       for j, x in enumerate(row))
                 for i, row in enumerate(doc))


def _versioned(kind: str, **fields) -> Dict[str, Any]:
    """A document of the kind with the fields, at VERSION: the one place
    that writes a version."""
    return {"kind": kind, "version": VERSION, **fields}


# ---------------------------------------------------------------------------
# The field reader.
# ---------------------------------------------------------------------------

# The JSON types a field can have, each by the words its error uses.  A
# number is an integer, not a boolean, or a string, as large integers and
# rationals are written; its value is left to _dec_num.  A matrix is a
# list of rows of numbers, each entry named by its own path.  A nested
# document is an object that its own decoder checks.
_ID = "a string"
_NUM = "a number"
_OBJECT = "an object"
_PAIR = "a pair of ids"
_MATRIX = "a list of equally long rows"
# Coefficients may be null, which reads as absent.
_NUMBERS = "a list of numbers or null"

_IS = {
    _ID: lambda x: isinstance(x, str),
    _NUM: lambda x: isinstance(x, (int, str)) and not isinstance(x, bool),
    _OBJECT: lambda x: isinstance(x, dict),
    _PAIR: lambda x: (isinstance(x, list) and len(x) == 2
                     and all(isinstance(i, str) for i in x)),
    _MATRIX: lambda x: (isinstance(x, list)
                       and all(isinstance(row, list) for row in x)
                       and len({len(row) for row in x}) <= 1),
    # Any JSON number or string, or a boolean: verify_lift checks the
    # values and rejects a boolean.
    _NUMBERS: lambda x: x is None or (isinstance(x, list) and all(
        isinstance(c, (int, float, str)) for c in x)),
}

_MORPHISM = {"source": _OBJECT, "target": _OBJECT, "node_map": {"*": _ID},
             "homs": [{"id": _ID, "matrix": _MATRIX}]}

# The fields each kind's decoder reads, besides kind and version: a dict
# is an object with these fields (optional ones end in "?"), or with any
# keys if its one field is "*", and [t] is a list of t.
_FIELDS = {
    "monoid": {"ambient_dim": _NUM, "generators": _MATRIX},
    "complex": {"elements": [{"id": _ID, "monoid": _OBJECT}],
                "relations": [_PAIR],
                "face_maps": [{"pair": _PAIR, "matrix": _MATRIX}]},
    "morphism": _MORPHISM,
    "refinement": _MORPHISM,
    "extension_problem": {"complex": _OBJECT,
                          "given": [{"id": _ID, "members": [_OBJECT]}]},
    "manifold": {"faces": [{"id": _ID, "hyps": [_ID], "below": [_ID]}]},
    "bmap": {"source": _OBJECT, "target": _OBJECT, "face_map": {"*": _ID},
             "alpha": [{"pair": _PAIR, "e": _NUM}]},
    "lift_check": {"delta": _MATRIX, "nu": _MATRIX, "mu": _MATRIX,
                   "coefficients?": _NUMBERS},
    "binomial_system": {"boundary_dim": _NUM, "tangential_dim": _NUM,
                        "gammas": _MATRIX, "smooth_count": _NUM},
    "binomial_input": {"equations": [{"alpha": [_NUM], "beta": [_NUM]}],
                       "smooth_count?": _NUM, "tangential_dim?": _NUM},
    "fiber_problem": {"f1": _OBJECT, "f2": _OBJECT},
    "factor_problem": {"f1": _OBJECT, "f2": _OBJECT, "g1": _OBJECT,
                       "g2": _OBJECT},
}


def _check(node, schema, path: str) -> None:
    """Raise MalformedDocument, naming the path of the first offending
    field, unless node has the fields and JSON types of schema."""
    if isinstance(schema, dict):
        if not isinstance(node, dict):
            raise MalformedDocument(f"{path}: expected {_OBJECT}")
        if "*" in schema:
            for key, value in node.items():
                _check(value, schema["*"], f"{path}.{key}")
            return
        for field, t in schema.items():
            name = field.rstrip("?")
            if name in node:
                _check(node[name], t, f"{path}.{name}")
            elif name == field:
                raise MalformedDocument(f"{path}.{name}: missing")
    elif isinstance(schema, list):
        if not isinstance(node, list):
            raise MalformedDocument(f"{path}: expected a list")
        for i, item in enumerate(node):
            _check(item, schema[0], f"{path}[{i}]")
    elif not _IS[schema](node):
        raise MalformedDocument(f"{path}: expected {schema}")
    elif schema == _MATRIX:
        for i, row in enumerate(node):
            _check(row, [_NUM], f"{path}[{i}]")


def kind_of(doc) -> Optional[str]:
    """The kind of a document, None if it names none.  Raises
    MalformedDocument unless the document is a JSON object whose kind,
    if it names one, is a string."""
    if not isinstance(doc, dict):
        raise MalformedDocument("document must be a JSON object")
    kind = doc.get("kind")
    if not (kind is None or isinstance(kind, str)):
        raise MalformedDocument(f"kind: expected {_ID}")
    return kind


def _expect(doc, kind: str, path: Optional[str] = None) -> str:
    """Check a document's kind, its version and its fields, and return
    the path its fields are named by: the kind for a document read
    alone, else the path of the document nested in another."""
    if path is None:
        where, path = "", kind
        got = kind_of(doc)
    else:
        where = f"{path}: "
        got = doc.get("kind")
    if got != kind:
        raise MalformedDocument(f"{where}expected kind {kind!r}, got {got!r}")
    version = doc.get("version", 0)
    _check(version, _NUM, f"{path}.version")
    if _dec_int(version, path, "version") != VERSION:
        raise MalformedDocument(
            f"{where}unsupported version {doc.get('version')}")
    _check(doc, _FIELDS[kind], path)
    return path


def _valid(obj):
    obj.validate()
    return obj


def _known(ids: Iterable[str], known, path: str, what: str) -> None:
    """Raise MalformedDocument, naming the path, unless every id is one
    of known."""
    for x in ids:
        if x not in known:
            raise MalformedDocument(f"{path}: {x!r} is not {what}")


def _mapped(mapping: Dict[str, str], keys: Iterable[str], known,
            path: str, what: str) -> None:
    """Raise MalformedDocument, naming the path, unless mapping sends
    every key to one of known."""
    for k in keys:
        if k not in mapping:
            raise MalformedDocument(f"{path}.{k}: missing")
        _known([mapping[k]], known, f"{path}.{k}", what)


# ---------------------------------------------------------------------------
# Monoids.
# ---------------------------------------------------------------------------


def monoid_to_doc(m: ToricMonoid) -> Dict[str, Any]:
    return _versioned("monoid", ambient_dim=m.ambient_dim,
                      generators=_enc_mat(m.hilbert_basis()))


def monoid_from_doc(doc, path: Optional[str] = None) -> ToricMonoid:
    path = _expect(doc, "monoid", path)
    n = _dec_int(doc["ambient_dim"], path, "ambient_dim")
    gens = _dec_int_mat(doc["generators"], path, "generators")
    if not gens:
        return ToricMonoid.trivial(n)
    if any(len(g) != n for g in gens):
        raise MalformedDocument("generator length != ambient_dim")
    return ToricMonoid.from_generators(n, gens)


# ---------------------------------------------------------------------------
# Monoidal complexes, morphisms, refinements.
# ---------------------------------------------------------------------------


def complex_to_doc(q: MonoidalComplex) -> Dict[str, Any]:
    return _versioned(
        "complex",
        elements=[{"id": e, "monoid": monoid_to_doc(q.monoids[e])}
                  for e in q.elements],
        relations=sorted([a, b] for (a, b) in q.order if a != b),
        face_maps=[{"pair": [a, b], "matrix": _enc_mat(m)}
                   for (a, b), m in sorted(q.face_maps.items()) if a != b])


def complex_from_doc(doc, path: Optional[str] = None) -> MonoidalComplex:
    """Raises:
        NotAComplex: unless the complex passes validation."""
    return _valid(_complex(doc, path))


def _complex(doc, path: Optional[str] = None) -> MonoidalComplex:
    path = _expect(doc, "complex", path)
    monoids = {e["id"]: monoid_from_doc(e["monoid"],
                                        f"{path}.elements[{i}].monoid")
               for i, e in enumerate(doc["elements"])}
    for i, pair in enumerate(doc["relations"]):
        _known(pair, monoids, f"{path}.relations[{i}]", "an element id")
    for i, r in enumerate(doc["face_maps"]):
        _known(r["pair"], monoids, f"{path}.face_maps[{i}].pair",
               "an element id")
    order = [tuple(p) for p in doc["relations"]]
    maps = {tuple(r["pair"]): _dec_int_mat(r["matrix"], path, "face_maps",
                                           i, "matrix")
            for i, r in enumerate(doc["face_maps"])}
    # Before the complex multiplies them into its composite face maps.
    for (a, b), m in maps.items():
        check_shape(m, monoids[a].ambient_dim, monoids[b].ambient_dim,
                    f"face map {a} -> {b}")
    return MonoidalComplex(monoids, order, maps)


def morphism_to_doc(m: ComplexMorphism) -> Dict[str, Any]:
    return _morphism_doc("morphism", m)


def _morphism_doc(kind: str, m: ComplexMorphism) -> Dict[str, Any]:
    return _versioned(
        kind,
        source=complex_to_doc(m.source), target=complex_to_doc(m.target),
        node_map=dict(sorted(m.node_map.items())),
        homs=[{"id": e, "matrix": _enc_mat(m.homs[e])}
              for e in m.source.elements])


def morphism_from_doc(doc, path: Optional[str] = None) -> ComplexMorphism:
    """Raises:
        NotAComplex: unless the morphism passes validation."""
    return _valid(_morphism(doc, _expect(doc, "morphism", path)))


def _morphism(doc, path: str) -> ComplexMorphism:
    """The morphism of a checked morphism or refinement document."""
    src = _complex(doc["source"], f"{path}.source")
    tgt = _complex(doc["target"], f"{path}.target")
    _mapped(doc["node_map"], src.elements, tgt.monoids, f"{path}.node_map",
            "an element id of the target")
    homs = {r["id"]: _dec_int_mat(r["matrix"], path, "homs", i, "matrix")
            for i, r in enumerate(doc["homs"])}
    _known(src.elements, homs, f"{path}.homs", "the id of a hom")
    return ComplexMorphism(src, tgt, dict(doc["node_map"]), homs)


def refinement_to_doc(r: ComplexRefinement) -> Dict[str, Any]:
    return _morphism_doc("refinement", r.morphism)


def refinement_from_doc(doc) -> ComplexRefinement:
    """Raises:
        NotAComplex, NotARefinement: unless the refinement passes
            validation, which does not reach its target complex."""
    return _valid(ComplexRefinement(_morphism(doc,
                                              _expect(doc, "refinement"))))


def extension_problem_from_doc(doc) -> Tuple[MonoidalComplex,
                                             Dict[str, MonoidRefinement]]:
    """A complex and the given refinements of some of its elements, each
    by its members, for extend_refinement.

    Raises:
        NotAComplex: unless the complex passes validation.
        NotARefinement: unless each given refinement does.
    """
    path = _expect(doc, "extension_problem")
    q = _complex(doc["complex"], f"{path}.complex")
    local = {}
    for i, e in enumerate(doc["given"]):
        if e["id"] not in q.monoids:
            raise MalformedDocument(f"extension_problem given id "
                                    f"{e['id']!r} is not an element of the "
                                    "complex")
        base = q.monoids[e["id"]]
        members = []
        for j, d in enumerate(e["members"]):
            where = f"{path}.given[{i}].members[{j}]"
            m = monoid_from_doc(d, where)
            if m.ambient_dim != base.ambient_dim:
                raise MalformedDocument(
                    f"{where}: ambient_dim {m.ambient_dim}, not its "
                    f"element's {base.ambient_dim}")
            members.append(m)
        local[e["id"]] = MonoidRefinement(base, members)
    q.validate()
    for e, given in sorted(local.items()):
        failures = given.validate()
        if failures:
            raise NotARefinement(f"given refinement of {e} is invalid: "
                                 f"{failures[0].detail}")
    return q, local


# ---------------------------------------------------------------------------
# Corner complexes and b-maps.
# ---------------------------------------------------------------------------


def manifold_to_doc(x: CornerComplex) -> Dict[str, Any]:
    return _versioned(
        "manifold",
        hypersurfaces=list(x.hypersurfaces()),
        faces=[{"id": f, "codim": x.codim(f),
                "hyps": sorted(x.incidence[f]),
                "below": sorted(g for g in x.below(f) if g != f)}
               for f in x.faces])


def manifold_from_doc(doc, path: Optional[str] = None) -> CornerComplex:
    """Raises:
        NotAComplex: unless the manifold passes validation."""
    return _valid(_manifold(doc, path))


def _manifold(doc, path: Optional[str] = None) -> CornerComplex:
    path = _expect(doc, "manifold", path)
    incidence = {f["id"]: frozenset(f["hyps"]) for f in doc["faces"]}
    order = []
    for i, f in enumerate(doc["faces"]):
        _known(f["below"], incidence, f"{path}.faces[{i}].below",
               "a face id")
        order.extend((g, f["id"]) for g in f["below"])
    return CornerComplex(incidence, order)


def bmap_to_doc(f: BMap) -> Dict[str, Any]:
    return _versioned(
        "bmap",
        source=manifold_to_doc(f.source), target=manifold_to_doc(f.target),
        face_map=dict(sorted(f.face_map.items())),
        alpha=[{"pair": [g, h], "e": _enc_int(e)}
               for (g, h), e in sorted(f.exponents.items()) if e])


def bmap_from_doc(doc, path: Optional[str] = None) -> BMap:
    """Raises:
        NotAComplex: unless the b-map and its manifolds pass validation."""
    return _valid(_bmap(doc, path))


def _bmap(doc, path: Optional[str] = None) -> BMap:
    path = _expect(doc, "bmap", path)
    src = _manifold(doc["source"], f"{path}.source")
    tgt = _manifold(doc["target"], f"{path}.target")
    _mapped(doc["face_map"], src.faces, tgt.incidence, f"{path}.face_map",
            "a face id of the target")
    exps = {tuple(r["pair"]): _dec_int(r["e"], path, "alpha", i, "e")
            for i, r in enumerate(doc["alpha"])}
    return BMap(src, tgt, dict(doc["face_map"]), exps)


def lift_check_from_doc(doc) -> Tuple[la.Mat, Tuple, la.Mat, Any]:
    """The exponent matrices delta, nu and mu of a lift check and its
    coefficients (None if absent), in verify_lift's argument order;
    verify_lift checks their shapes and the coefficients."""
    path = _expect(doc, "lift_check")
    return (_dec_int_mat(doc["delta"], path, "delta"),
            _dec_q_mat(doc["nu"], path, "nu"),
            _dec_int_mat(doc["mu"], path, "mu"), doc.get("coefficients"))


# ---------------------------------------------------------------------------
# Binomial systems and fiber problems.
# ---------------------------------------------------------------------------


def binomial_to_doc(b: BinomialSystem) -> Dict[str, Any]:
    return _versioned("binomial_system", boundary_dim=b.boundary_dim,
                      tangential_dim=b.tangential_dim,
                      gammas=_enc_mat(b.gammas),
                      smooth_count=b.smooth_count)


def binomial_from_doc(doc) -> BinomialSystem:
    """A binomial system document, which must be its own normal form:
    normal_form of its gammas (alpha the positive part, beta the negative
    part), smooth count and tangential dimension gives it back.  Its
    errors propagate; any other mismatch is malformed."""
    path = _expect(doc, "binomial_system")
    b = BinomialSystem(
        _dec_int(doc["boundary_dim"], path, "boundary_dim"),
        _dec_int(doc["tangential_dim"], path, "tangential_dim"),
        _dec_int_mat(doc["gammas"], path, "gammas"),
        _dec_int(doc["smooth_count"], path, "smooth_count"))
    if min(b.boundary_dim, b.tangential_dim, b.smooth_count) < 0:
        raise MalformedDocument("binomial system with a negative dimension "
                                "or count")
    for g in b.gammas:
        if len(g) != b.boundary_dim:
            raise MalformedDocument(f"exponent vector {list(g)} is not "
                                    f"boundary_dim {b.boundary_dim} long")
    pairs = [(tuple(max(x, 0) for x in g), tuple(max(-x, 0) for x in g))
             for g in b.gammas]
    # With no gammas normal_form cannot see the boundary dimension.
    nf = replace(normal_form(pairs, b.smooth_count, b.tangential_dim),
                 boundary_dim=b.boundary_dim)
    if nf != b:
        raise MalformedDocument(
            f"binomial system is not in normal form, which has gammas "
            f"{[list(g) for g in nf.gammas]} and smooth_count "
            f"{nf.smooth_count}")
    return b


def binomial_input_from_doc(doc) -> BinomialSystem:
    """The normal form of raw equations x^alpha = x^beta, with the
    document's smooth_count and tangential_dim (non-negative integers, 0
    when absent).  The errors of normal_form propagate."""
    path = _expect(doc, "binomial_input")
    pairs = [tuple(tuple(_dec_int(x, path, "equations", i, side, j)
                         for j, x in enumerate(e[side]))
                   for side in ("alpha", "beta"))
             for i, e in enumerate(doc["equations"])]
    smooth_count = _dec_int(doc.get("smooth_count", 0), path, "smooth_count")
    tangential_dim = _dec_int(doc.get("tangential_dim", 0), path,
                              "tangential_dim")
    if min(smooth_count, tangential_dim) < 0:
        raise MalformedDocument("binomial input with a negative count or "
                                "dimension")
    return normal_form(pairs, smooth_count, tangential_dim)


def fiber_problem_from_doc(doc) -> Tuple[BMap, BMap]:
    """Raises:
        NotAComplex: unless each b-map passes validation."""
    return _bmaps(doc, "fiber_problem", ("f1", "f2"))


def factor_problem_from_doc(doc) -> Tuple[BMap, BMap, BMap, BMap]:
    """f1, f2 of a fiber problem and g1, g2 to factor through it.

    Raises:
        NotAComplex: unless each b-map passes validation.
    """
    return _bmaps(doc, "factor_problem", ("f1", "f2", "g1", "g2"))


def _bmaps(doc, kind: str, keys: Tuple[str, ...]) -> Tuple[BMap, ...]:
    """The b-maps at keys, each decoded before any is validated."""
    path = _expect(doc, kind)
    return tuple(map(_valid, [_bmap(doc[k], f"{path}.{k}") for k in keys]))


# ---------------------------------------------------------------------------
# The result documents of the command line.
# ---------------------------------------------------------------------------


def validation_to_doc(input_kind: str) -> Dict[str, Any]:
    return {"kind": "validation", "status": "ok", "input_kind": input_kind}


def hilbert_basis_to_doc(m: ToricMonoid) -> Dict[str, Any]:
    hb = m.hilbert_basis()
    return {"kind": "hilbert_basis", "elements": len(hb),
            "generators": _enc_mat(hb), "smooth": m.is_smooth(),
            "simplicial": m.is_simplicial()}


def faces_to_doc(m: ToricMonoid) -> Dict[str, Any]:
    faces = [{"dim": f.dim, "rays": _enc_mat(f.rays)} for f in m.faces()]
    return {"kind": "faces", "elements": len(faces), "faces": faces}


def monoid_refinement_to_doc(r: MonoidRefinement) -> Dict[str, Any]:
    return _versioned(
        "monoid_refinement", base=monoid_to_doc(r.base),
        members=len(r.members),
        member_list=[{"generators": _enc_mat(m.hilbert_basis()),
                      "rays": _enc_mat(m.rays), "dim": m.dim,
                      "smooth": m.is_smooth()} for m in r.members])


def extended_refinement_to_doc(r: ComplexRefinement) -> Dict[str, Any]:
    """The refinement document of `extend`: with its number of
    elements."""
    return {**refinement_to_doc(r), "elements": len(r.source.elements)}


def ns_refinement_to_doc(r: ComplexRefinement) -> Dict[str, Any]:
    """The refinement document of `ns`: with its number of elements and
    whether it is smooth."""
    return {**extended_refinement_to_doc(r), "smooth": r.is_smooth()}


def blowup_to_doc(b: Blowup, charts: Optional[List[la.Mat]] = None
                  ) -> Dict[str, Any]:
    """The blow-up, with the chart matrices of an ordinary blow-up when
    given."""
    doc = _versioned("blowup", manifold=manifold_to_doc(b.total),
                     blowdown=bmap_to_doc(b.blowdown),
                     refinement=refinement_to_doc(b.refinement),
                     hypersurfaces=len(b.total.hypersurfaces()))
    if charts is not None:
        doc["charts"] = [_enc_mat(c) for c in charts]
    return doc


def atlas_to_doc(r: ComplexRefinement, atlas: ChartAtlas) -> Dict[str, Any]:
    """The atlas of the refinement r."""
    return _versioned(
        "atlas", n=atlas.n, refinement=refinement_to_doc(r),
        charts=[{"element": e, "nu": _enc_mat(c.nu)}
                for e, c in sorted(atlas.charts.items())],
        transitions=[{"pair": [a, b], "matrix": _enc_mat(m)}
                     for (a, b), m in sorted(atlas.transitions.items())],
        separators=[{"pair": [a, b], "functional": list(u)}
                    for (a, b), u in sorted(atlas.separators.items())])


def lift_to_doc(lift: Lift) -> Dict[str, Any]:
    return _versioned("lift", bmap=bmap_to_doc(lift.bmap),
                      factoring=morphism_to_doc(lift.factoring))


def blowup_domain_to_doc(domain: Blowup, lift: Lift,
                         minimal: bool) -> Dict[str, Any]:
    """What `blowup_domain` returns: the domain's blow-up, the lift from
    it and whether the blow-up is minimal."""
    return _versioned("blowup_domain", minimal=minimal,
                      domain=blowup_to_doc(domain),
                      lift=bmap_to_doc(lift.bmap))


def variety_faces_to_doc(vc: VarietyComplex) -> Dict[str, Any]:
    return _versioned(
        "variety_faces", elements=len(vc.faces),
        faces=[{"coords": list(s), "witness": list(map(int, vf.witness)),
                "monoid": monoid_to_doc(vf.monoid)}
               for s, vf in sorted(vc.faces.items())])


def variety_complex_to_doc(pd: MonoidalComplex,
                           inclusion: ComplexMorphism) -> Dict[str, Any]:
    return _versioned("variety_complex", smooth=pd.is_smooth(),
                      complex=complex_to_doc(pd),
                      inclusion=morphism_to_doc(inclusion))


def binomial_resolution_to_doc(res: Resolution) -> Dict[str, Any]:
    # indefinite_charts is always 0: resolve raises otherwise.
    return _versioned("binomial_resolution", universal=res.universal,
                      refinement=refinement_to_doc(res.refinement),
                      lifted=list(res.lifted), indefinite_charts=0)


def fiber_report_to_doc(rep: FiberReport) -> Dict[str, Any]:
    return _versioned(
        "fiber_report", transversal=rep.transversal, smooth=rep.smooth,
        exit_note=rep.note,
        pairs=[{"faces": [q.face1, q.face2], "image": q.image,
                "rays": _enc_mat(q.monoid.rays), "smooth": q.smooth,
                "transversal": q.transversal,
                "system": binomial_to_doc(q.system) if q.system else None}
               for q in rep.pairs])


def fiber_smoothness_to_doc(smooth: bool, fiber: MonoidalComplex,
                            offenders: List) -> Dict[str, Any]:
    """What `theorem_b_check` finds: whether the fiber product is smooth,
    its complex and the offending faces."""
    return _versioned("fiber_smoothness", smooth=smooth, offenders=offenders,
                      complex=complex_to_doc(fiber))


def fiber_resolution_to_doc(res: ResolvedFiberProduct) -> Dict[str, Any]:
    return _versioned("fiber_resolution", manifold=manifold_to_doc(res.corner),
                      h1=bmap_to_doc(res.h1), h2=bmap_to_doc(res.h2),
                      refinement=refinement_to_doc(res.refinement))


def fiber_factorization_to_doc(domain: Optional[Blowup],
                               g: BMap) -> Dict[str, Any]:
    """The factoring map g, with the domain's blow-up if one was
    needed."""
    return _versioned(
        "fiber_factorization",
        domain_blowup=None if domain is None else blowup_to_doc(domain),
        g=bmap_to_doc(g))


def verification_to_doc(rep: CheckReport) -> Dict[str, Any]:
    return _versioned("verification", passed=rep.passed,
                      failures=rep.failures)


# ---------------------------------------------------------------------------
# Dispatch and IO.
# ---------------------------------------------------------------------------

_TO = {
    ToricMonoid: monoid_to_doc,
    MonoidalComplex: complex_to_doc,
    ComplexMorphism: morphism_to_doc,
    ComplexRefinement: refinement_to_doc,
    CornerComplex: manifold_to_doc,
    BMap: bmap_to_doc,
    BinomialSystem: binomial_to_doc,
}

_FROM = {
    "monoid": monoid_from_doc,
    "complex": complex_from_doc,
    "morphism": morphism_from_doc,
    "refinement": refinement_from_doc,
    "manifold": manifold_from_doc,
    "bmap": bmap_from_doc,
    "binomial_system": binomial_from_doc,
}


def to_doc(obj) -> Dict[str, Any]:
    for cls, fn in _TO.items():
        if isinstance(obj, cls):
            return fn(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def parse_doc(doc):
    kind = kind_of(doc)
    if kind not in _FROM:
        raise MalformedDocument(f"unknown document kind {kind!r}")
    return _FROM[kind](doc)


def dumps(doc: Dict[str, Any]) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


def loads(text: str) -> Dict[str, Any]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise MalformedDocument(f"invalid JSON: {e}") from e
    except RecursionError as e:
        raise MalformedDocument("invalid JSON: nested too deeply") from e
    return doc
