"""Versioned JSON documents for the core objects.

Integers that do not fit a double are written as decimal strings so
arbitrary precision survives transport; rationals are written "p/q".
Serialization is canonical: keys sorted, element ids sorted, matrices
written row by row.  Every document kind the library or the command line
reads is decoded here.  Each decoder first checks the kind, the version
and the JSON type of every field it reads against its entry in _FIELDS,
then decodes its integers and matrices strictly and checks that the ids
it cross-references exist.  Each of these raises MalformedDocument; a
missing field, a field of the wrong type or an unknown id is named by
its path, such as `complex.face_maps[3].pair: missing`, and a decoder
reading a document nested in another is given that document's path.
The face maps of a complex are checked against its elements' ambient
dimensions (NotAComplex, as in its validation) before the complex
composes the missing ones.  A binomial system document is read back
only if it is its own normal form.  Decoders return objects that pass
their validation, run once the whole document is decoded: nested parts
are decoded by the non-validating halves (named with a leading
underscore), so each is checked as far as its parent's validation goes.
"""

import json
from dataclasses import replace
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Tuple

from . import exactla as la
from .complexes import (ComplexMorphism, ComplexRefinement, MonoidalComplex,
                        check_shape)
from .binomial import BinomialSystem, normal_form
# Also imported from here by callers of the decoders.
from .errors import MalformedDocument, NotARefinement
from .manifolds import BMap, CornerComplex
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


def _dec_num(x) -> Fraction:
    """The value of an integer, or a string such as "-3/4"."""
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as e:
        raise MalformedDocument(f"bad number {x!r}") from e


def _dec_int(x) -> int:
    f = _dec_num(x)
    if f.denominator != 1:
        raise MalformedDocument(f"expected an integer, got {x!r}")
    return int(f)


def _enc_mat(m) -> List[List]:
    return [[_enc_num(x) for x in row] for row in m]


def _dec_int_mat(doc) -> la.Mat:
    return la.mat(tuple(_dec_int(x) for x in row) for row in doc)


def _dec_q_mat(doc) -> Tuple[Tuple[Fraction, ...], ...]:
    return tuple(tuple(_dec_num(x) for x in row) for row in doc)


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
    # Any JSON number or string: verify_lift checks the values.
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
    if _dec_int(version) != VERSION:
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
    return {
        "kind": "monoid",
        "version": VERSION,
        "ambient_dim": m.ambient_dim,
        "generators": _enc_mat(m.hilbert_basis()),
    }


def monoid_from_doc(doc, path: Optional[str] = None) -> ToricMonoid:
    _expect(doc, "monoid", path)
    n = _dec_int(doc["ambient_dim"])
    gens = _dec_int_mat(doc["generators"])
    if not gens:
        return ToricMonoid.trivial(n)
    if any(len(g) != n for g in gens):
        raise MalformedDocument("generator length != ambient_dim")
    return ToricMonoid.from_generators(n, gens)


# ---------------------------------------------------------------------------
# Monoidal complexes, morphisms, refinements.
# ---------------------------------------------------------------------------


def complex_to_doc(q: MonoidalComplex) -> Dict[str, Any]:
    return {
        "kind": "complex",
        "version": VERSION,
        "elements": [{"id": e, "monoid": monoid_to_doc(q.monoids[e])}
                     for e in q.elements],
        "relations": sorted([a, b] for (a, b) in q.order if a != b),
        "face_maps": [{"pair": [a, b], "matrix": _enc_mat(m)}
                      for (a, b), m in sorted(q.face_maps.items())
                      if a != b],
    }


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
    maps = {tuple(r["pair"]): _dec_int_mat(r["matrix"])
            for r in doc["face_maps"]}
    # Before the complex multiplies them into its composite face maps.
    for (a, b), m in maps.items():
        check_shape(m, monoids[a].ambient_dim, monoids[b].ambient_dim,
                    f"face map {a} -> {b}")
    return MonoidalComplex(monoids, order, maps)


def morphism_to_doc(m: ComplexMorphism) -> Dict[str, Any]:
    return {
        "kind": "morphism",
        "version": VERSION,
        "source": complex_to_doc(m.source),
        "target": complex_to_doc(m.target),
        "node_map": dict(sorted(m.node_map.items())),
        "homs": [{"id": e, "matrix": _enc_mat(m.homs[e])}
                 for e in m.source.elements],
    }


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
    homs = {r["id"]: _dec_int_mat(r["matrix"]) for r in doc["homs"]}
    _known(src.elements, homs, f"{path}.homs", "the id of a hom")
    return ComplexMorphism(src, tgt, dict(doc["node_map"]), homs)


def refinement_to_doc(r: ComplexRefinement) -> Dict[str, Any]:
    d = morphism_to_doc(r.morphism)
    d["kind"] = "refinement"
    return d


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
    return {
        "kind": "manifold",
        "version": VERSION,
        "hypersurfaces": list(x.hypersurfaces()),
        "faces": [{
            "id": f,
            "codim": x.codim(f),
            "hyps": sorted(x.incidence[f]),
            "below": sorted(g for g in x.below(f) if g != f),
        } for f in x.faces],
    }


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
    return {
        "kind": "bmap",
        "version": VERSION,
        "source": manifold_to_doc(f.source),
        "target": manifold_to_doc(f.target),
        "face_map": dict(sorted(f.face_map.items())),
        "alpha": [{"pair": [g, h], "e": _enc_int(e)}
                  for (g, h), e in sorted(f.exponents.items()) if e],
    }


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
    exps = {tuple(r["pair"]): _dec_int(r["e"]) for r in doc["alpha"]}
    return BMap(src, tgt, dict(doc["face_map"]), exps)


def lift_check_from_doc(doc) -> Tuple[la.Mat, Tuple, la.Mat, Any]:
    """The exponent matrices delta, nu and mu of a lift check and its
    coefficients (None if absent), in verify_lift's argument order;
    verify_lift checks their shapes and the coefficients."""
    _expect(doc, "lift_check")
    return (_dec_int_mat(doc["delta"]), _dec_q_mat(doc["nu"]),
            _dec_int_mat(doc["mu"]), doc.get("coefficients"))


# ---------------------------------------------------------------------------
# Binomial systems and fiber problems.
# ---------------------------------------------------------------------------


def binomial_to_doc(b: BinomialSystem) -> Dict[str, Any]:
    return {
        "kind": "binomial_system",
        "version": VERSION,
        "boundary_dim": b.boundary_dim,
        "tangential_dim": b.tangential_dim,
        "gammas": _enc_mat(b.gammas),
        "smooth_count": b.smooth_count,
    }


def binomial_from_doc(doc) -> BinomialSystem:
    """A binomial system document, which must be its own normal form:
    normal_form of its gammas (alpha the positive part, beta the negative
    part), smooth count and tangential dimension gives it back.  Its
    errors propagate; any other mismatch is malformed."""
    _expect(doc, "binomial_system")
    b = BinomialSystem(
        _dec_int(doc["boundary_dim"]),
        _dec_int(doc["tangential_dim"]),
        _dec_int_mat(doc["gammas"]),
        _dec_int(doc["smooth_count"]))
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
    _expect(doc, "binomial_input")
    pairs = [(tuple(_dec_int(x) for x in e["alpha"]),
              tuple(_dec_int(x) for x in e["beta"]))
             for e in doc["equations"]]
    smooth_count = _dec_int(doc.get("smooth_count", 0))
    tangential_dim = _dec_int(doc.get("tangential_dim", 0))
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
