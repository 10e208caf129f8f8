"""Versioned JSON documents for the core objects.

Integers that do not fit a double are written as decimal strings so
arbitrary precision survives transport; rationals are written "p/q".
Serialization is canonical: keys sorted, element ids sorted, matrices
written row by row.  Every document kind the library or the command line
reads is decoded here, and each decoder checks the kind and the version
and decodes its integers and matrices strictly.  A binomial system
document is read back only if it is its own normal form.
"""

import json
from dataclasses import replace
from fractions import Fraction
from typing import Any, Dict, List, Tuple

from . import exactla as la
from .complexes import ComplexMorphism, ComplexRefinement, MonoidalComplex
from .binomial import BinomialSystem, normal_form
from .manifolds import BMap, CornerComplex
from .monoids import ToricMonoid
from .refinements import MonoidRefinement

VERSION = 1
_SAFE = 2 ** 53


class MalformedDocument(Exception):
    """Input does not parse against the document schema."""


def _enc_int(x: int):
    return x if abs(x) < _SAFE else str(x)


def _enc_num(x):
    f = Fraction(x)
    if f.denominator == 1:
        return _enc_int(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _dec_num(x) -> Fraction:
    if isinstance(x, bool):
        raise MalformedDocument(f"not a number: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise MalformedDocument(f"bad number {x!r}") from e
    raise MalformedDocument(f"not a number: {x!r}")


def _dec_int(x) -> int:
    f = _dec_num(x)
    if f.denominator != 1:
        raise MalformedDocument(f"expected an integer, got {x!r}")
    return int(f)


def _enc_mat(m) -> List[List]:
    return [[_enc_num(x) for x in row] for row in m]


def _rows(doc) -> List[list]:
    if not isinstance(doc, list) or \
            not all(isinstance(row, list) for row in doc):
        raise MalformedDocument("matrix must be a list of rows")
    if len({len(row) for row in doc}) > 1:
        raise MalformedDocument("matrix rows differ in length")
    return doc


def _dec_int_mat(doc) -> la.Mat:
    return la.mat(tuple(_dec_int(x) for x in row) for row in _rows(doc))


def _dec_q_mat(doc) -> Tuple[Tuple[Fraction, ...], ...]:
    return tuple(tuple(_dec_num(x) for x in row) for row in _rows(doc))


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


def monoid_from_doc(doc) -> ToricMonoid:
    _expect(doc, "monoid")
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


def complex_from_doc(doc) -> MonoidalComplex:
    _expect(doc, "complex")
    monoids = {e["id"]: monoid_from_doc(e["monoid"])
               for e in doc["elements"]}
    order = [tuple(p) for p in doc["relations"]]
    maps = {tuple(r["pair"]): _dec_int_mat(r["matrix"])
            for r in doc["face_maps"]}
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


def morphism_from_doc(doc) -> ComplexMorphism:
    _expect(doc, "morphism")
    src = complex_from_doc(doc["source"])
    tgt = complex_from_doc(doc["target"])
    homs = {r["id"]: _dec_int_mat(r["matrix"]) for r in doc["homs"]}
    return ComplexMorphism(src, tgt, dict(doc["node_map"]), homs)


def refinement_to_doc(r: ComplexRefinement) -> Dict[str, Any]:
    d = morphism_to_doc(r.morphism)
    d["kind"] = "refinement"
    return d


def refinement_from_doc(doc) -> ComplexRefinement:
    _expect(doc, "refinement")
    d = dict(doc)
    d["kind"] = "morphism"
    return ComplexRefinement(morphism_from_doc(d))


def extension_problem_from_doc(doc) -> Tuple[MonoidalComplex,
                                             Dict[str, MonoidRefinement]]:
    """A complex and the given refinements of some of its elements, each
    by its members, for extend_refinement."""
    _expect(doc, "extension_problem")
    q = complex_from_doc(doc["complex"])
    local = {}
    for e in doc["given"]:
        members = [monoid_from_doc(d) for d in e["members"]]
        local[e["id"]] = MonoidRefinement(q.monoids[e["id"]], members)
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


def manifold_from_doc(doc) -> CornerComplex:
    _expect(doc, "manifold")
    incidence = {}
    order = []
    for f in doc["faces"]:
        incidence[f["id"]] = frozenset(f["hyps"])
        for g in f["below"]:
            order.append((g, f["id"]))
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


def bmap_from_doc(doc) -> BMap:
    _expect(doc, "bmap")
    src = manifold_from_doc(doc["source"])
    tgt = manifold_from_doc(doc["target"])
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
    _expect(doc, "fiber_problem")
    return bmap_from_doc(doc["f1"]), bmap_from_doc(doc["f2"])


def factor_problem_from_doc(doc) -> Tuple[BMap, BMap, BMap, BMap]:
    """f1, f2 of a fiber problem and g1, g2 to factor through it."""
    _expect(doc, "factor_problem")
    return tuple(bmap_from_doc(doc[k]) for k in ("f1", "f2", "g1", "g2"))


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


def _expect(doc, kind: str) -> None:
    if not isinstance(doc, dict):
        raise MalformedDocument(f"expected a {kind} document")
    if doc.get("kind") != kind:
        raise MalformedDocument(
            f"expected kind {kind!r}, got {doc.get('kind')!r}")
    if _dec_int(doc.get("version", 0)) != VERSION:
        raise MalformedDocument(f"unsupported version {doc.get('version')}")


def to_doc(obj) -> Dict[str, Any]:
    for cls, fn in _TO.items():
        if isinstance(obj, cls):
            return fn(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def parse_doc(doc):
    if not isinstance(doc, dict) or "kind" not in doc:
        raise MalformedDocument("document must be an object with a kind")
    kind = doc["kind"]
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
