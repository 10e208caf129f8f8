"""Command line front end.

Reads versioned JSON documents, dispatches to the library and writes a
result document plus a short summary.  Exit codes: 0 success, 1 a
validation failure in well-formed input, 2 malformed input.  The parser
owns the command line: it declares each command with its handler, and
the modes of `subdivide` and of `blowup` as required exclusive groups;
`main` returns its exit status, 2 on a malformed command line.
`serialization` decodes every input document, checking its kind and
version.  Inputs that a command relies on are validated before it
computes: the refinement of `atlas` and `verify` (which must also be
smooth), the manifold of `blowup`, `lift` and `blowup-domain`, and the
b-maps of `fiber`.
"""

import argparse
import functools
import sys
from typing import Any, Dict, List, Optional

from . import exactla as la
from . import serialization as ser
from .binomial import (boundary_faces, resolve, universal_resolution,
                       variety_complex)
from .chartcheck import verify_lift, verify_transitions
from .complexes import (ComplexRefinement, extend_refinement,
                        natural_smooth_refinement)
from .errors import BlowupError, NotSmooth
from .fiber import (FiberProblem, b_normal_transversality, factor_through,
                    resolve_fiber_product, theorem_b_check)
from .manifolds import (Blowup, CornerComplex, blowup_domain,
                        generalized_blowup, iterated_blowup, lift_bmap,
                        local_atlas, ordinary_blowup)
from .monoids import ToricMonoid
from .refinements import (MonoidRefinement, planar_refine, smoothing,
                          star_subdivide)
from .serialization import MalformedDocument


def _read_doc(path: str) -> Dict[str, Any]:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise MalformedDocument(f"cannot read {path}: {e}") from e
    doc = ser.loads(text)
    if not isinstance(doc, dict):
        raise MalformedDocument("document must be a JSON object")
    return doc


def _vector(text: str, length: Optional[int] = None) -> la.Vec:
    """Comma separated integers; with length, exactly that many."""
    try:
        v = tuple(int(x) for x in text.split(","))
    except ValueError as e:
        raise MalformedDocument(f"bad vector {text!r}") from e
    if length is not None and len(v) != length:
        raise MalformedDocument(
            f"vector {text!r} has {len(v)} entries, not ambient_dim {length}")
    return v


def _matrix(text: str, width: int) -> la.Mat:
    return la.mat(_vector(row, width) for row in text.split(";"))


def _members_doc(r: MonoidRefinement) -> Dict[str, Any]:
    return {
        "kind": "monoid_refinement",
        "version": ser.VERSION,
        "base": ser.monoid_to_doc(r.base),
        "members": [{"generators": ser._enc_mat(m.hilbert_basis()),
                     "rays": ser._enc_mat(m.rays),
                     "dim": m.dim, "smooth": m.is_smooth()}
                    for m in r.members],
    }


def _summary_lines(doc: Dict[str, Any]) -> List[str]:
    out = [f"kind: {doc.get('kind')}"]
    for key in ("status", "smooth", "transversal", "passed", "universal",
                "minimal", "hypersurfaces", "elements", "members",
                "offenders", "exit_note"):
        if key in doc:
            out.append(f"{key}: {doc[key]}")
    return out


def _emit(doc: Dict[str, Any], args) -> None:
    if args.format == "text":
        text = "\n".join(_summary_lines(doc)) + "\n"
    else:
        text = ser.dumps(doc) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_monoid(path: str) -> ToricMonoid:
    return ser.monoid_from_doc(_read_doc(path))


# ---------------------------------------------------------------------------
# Command handlers.
# ---------------------------------------------------------------------------


def cmd_validate(args) -> Dict[str, Any]:
    raw = _read_doc(args.input)
    obj = ser.parse_doc(raw)
    if hasattr(obj, "validate"):
        obj.validate()
    return {"kind": "validation", "status": "ok", "input_kind": raw["kind"]}


def cmd_hilbert(args) -> Dict[str, Any]:
    m = _load_monoid(args.input)
    hb = m.hilbert_basis()
    return {"kind": "hilbert_basis", "elements": len(hb),
            "generators": ser._enc_mat(hb),
            "smooth": m.is_smooth(), "simplicial": m.is_simplicial()}


def cmd_faces(args) -> Dict[str, Any]:
    m = _load_monoid(args.input)
    faces = [{"dim": f.dim, "rays": ser._enc_mat(f.rays)}
             for f in m.faces()]
    return {"kind": "faces", "elements": len(faces), "faces": faces}


def cmd_subdivide(args) -> Dict[str, Any]:
    m = _load_monoid(args.input)
    if args.star is not None:
        r = star_subdivide(m, _vector(args.star, m.ambient_dim))
    elif args.planar is not None:
        r = planar_refine(m, _matrix(args.planar, m.ambient_dim))
    else:
        r = smoothing(m)
    failures = r.validate()
    if failures:
        raise BlowupError(f"subdivision invalid: {failures[0].detail}")
    doc = _members_doc(r)
    doc["member_list"] = doc["members"]
    doc["members"] = len(r.members)
    return doc


def cmd_ns(args) -> Dict[str, Any]:
    q = ser.complex_from_doc(_read_doc(args.input))
    r = natural_smooth_refinement(q)
    r.validate()
    doc = ser.refinement_to_doc(r)
    doc["smooth"] = r.is_smooth()
    doc["elements"] = len(r.source.elements)
    return doc


def cmd_extend(args) -> Dict[str, Any]:
    r = extend_refinement(
        *ser.extension_problem_from_doc(_read_doc(args.input)))
    r.validate()
    doc = ser.refinement_to_doc(r)
    doc["elements"] = len(r.source.elements)
    return doc


def _blowup_result(b: Blowup) -> Dict[str, Any]:
    return {
        "kind": "blowup",
        "version": ser.VERSION,
        "manifold": ser.manifold_to_doc(b.total),
        "blowdown": ser.bmap_to_doc(b.blowdown),
        "refinement": ser.refinement_to_doc(b.refinement),
        "hypersurfaces": len(b.total.hypersurfaces()),
    }


def _valid_manifold(path: str) -> CornerComplex:
    """A manifold document that passes validation: the blow-down reads
    the ray of each hypersurface off the face of the same id."""
    x = ser.manifold_from_doc(_read_doc(path))
    x.validate()
    return x


def cmd_blowup(args) -> Dict[str, Any]:
    x = _valid_manifold(args.input)
    if args.ordinary is not None:
        weights = _vector(args.weights) if args.weights else None
        b, charts = ordinary_blowup(x, args.ordinary, weights)
        doc = _blowup_result(b)
        doc["charts"] = [ser._enc_mat(c) for c in charts]
        return doc
    if args.iterated is not None:
        return _blowup_result(iterated_blowup(x, args.iterated.split(",")))
    r = ser.refinement_from_doc(_read_doc(args.refinement))
    return _blowup_result(generalized_blowup(x, r))


def _smooth_refinement(doc) -> ComplexRefinement:
    """A refinement document that passes validation and is smooth: the
    atlas reads its charts and adjacency off such a refinement only."""
    r = ser.refinement_from_doc(doc)
    r.validate()
    if not r.is_smooth():
        raise NotSmooth("chart atlases need a smooth refinement")
    return r


def cmd_atlas(args) -> Dict[str, Any]:
    r = _smooth_refinement(_read_doc(args.input))
    atlas = local_atlas(r)
    return {
        "kind": "atlas",
        "version": ser.VERSION,
        "n": atlas.n,
        "refinement": ser.refinement_to_doc(r),
        "charts": [{"element": e, "nu": ser._enc_mat(c.nu)}
                   for e, c in sorted(atlas.charts.items())],
        "transitions": [{"pair": [a, b], "matrix": ser._enc_mat(m)}
                        for (a, b), m in sorted(atlas.transitions.items())],
        "separators": [{"pair": [a, b], "functional": list(u)}
                       for (a, b), u in sorted(atlas.separators.items())],
    }


def _load_blowup(args) -> Blowup:
    r = ser.refinement_from_doc(_read_doc(args.refinement))
    x = _valid_manifold(args.manifold)
    return generalized_blowup(x, r)


def cmd_lift(args) -> Dict[str, Any]:
    f = ser.bmap_from_doc(_read_doc(args.input))
    b = _load_blowup(args)
    lift = lift_bmap(f, b)
    lift.bmap.validate()
    return {"kind": "lift", "version": ser.VERSION,
            "bmap": ser.bmap_to_doc(lift.bmap),
            "factoring": ser.morphism_to_doc(lift.factoring)}


def cmd_blowup_domain(args) -> Dict[str, Any]:
    f = ser.bmap_from_doc(_read_doc(args.input))
    b = _load_blowup(args)
    dom, lift, minimal = blowup_domain(f, b)
    return {"kind": "blowup_domain", "version": ser.VERSION,
            "minimal": minimal,
            "domain": _blowup_result(dom),
            "lift": ser.bmap_to_doc(lift.bmap)}


def cmd_binomial(args) -> Dict[str, Any]:
    raw = _read_doc(args.input)
    if raw.get("kind") == "binomial_input":
        b = ser.binomial_input_from_doc(raw)
    else:
        b = ser.binomial_from_doc(raw)
    if args.action == "normal-form":
        return ser.binomial_to_doc(b)
    if args.action == "faces":
        vc = boundary_faces(b)
        return {
            "kind": "variety_faces",
            "version": ser.VERSION,
            "elements": len(vc.faces),
            "faces": [{"coords": list(s),
                       "witness": list(map(int, vf.witness)),
                       "monoid": ser.monoid_to_doc(vf.monoid)}
                      for s, vf in sorted(vc.faces.items())],
        }
    if args.action == "complex":
        pd, inat = variety_complex(b)
        pd.validate()
        inat.validate()
        return {"kind": "variety_complex", "version": ser.VERSION,
                "smooth": pd.is_smooth(),
                "complex": ser.complex_to_doc(pd),
                "inclusion": ser.morphism_to_doc(inat)}
    # resolve, the last of the parser's choices
    try:
        res = universal_resolution(b)
    except NotSmooth:
        res = resolve(b)
    res.refinement.validate()
    return {"kind": "binomial_resolution", "version": ser.VERSION,
            "universal": res.universal,
            "refinement": ser.refinement_to_doc(res.refinement),
            "lifted": list(res.lifted),
            "indefinite_charts": 0}


def cmd_fiber(args) -> Dict[str, Any]:
    raw = _read_doc(args.input)
    if args.action == "factor" or raw.get("kind") == "factor_problem":
        maps = f1, f2, g1, g2 = ser.factor_problem_from_doc(raw)
    else:
        maps = f1, f2 = ser.fiber_problem_from_doc(raw)
    for f in maps:
        f.validate()
    p = FiberProblem(f1, f2)
    if args.action == "analyze":
        rep = b_normal_transversality(p)
        return {
            "kind": "fiber_report", "version": ser.VERSION,
            "transversal": rep.transversal, "smooth": rep.smooth,
            "exit_note": rep.note,
            "pairs": [{"faces": [q.face1, q.face2], "image": q.image,
                       "rays": ser._enc_mat(q.monoid.rays),
                       "smooth": q.smooth, "transversal": q.transversal,
                       "system": (ser.binomial_to_doc(q.system)
                                  if q.system else None)}
                      for q in rep.pairs],
        }
    if args.action == "check-smooth":
        smooth, fc, _, _, off = theorem_b_check(p)
        return {"kind": "fiber_smoothness", "version": ser.VERSION,
                "smooth": smooth, "offenders": off,
                "complex": ser.complex_to_doc(fc)}
    if args.action == "resolve":
        res = resolve_fiber_product(p)
        res.h1.validate()
        res.h2.validate()
        return {"kind": "fiber_resolution", "version": ser.VERSION,
                "manifold": ser.manifold_to_doc(res.corner),
                "h1": ser.bmap_to_doc(res.h1),
                "h2": ser.bmap_to_doc(res.h2),
                "refinement": ser.refinement_to_doc(res.refinement)}
    # factor, the last of the parser's choices
    dom, g = factor_through(p, g1, g2, resolve_fiber_product(p))
    g.validate()
    return {"kind": "fiber_factorization", "version": ser.VERSION,
            "domain_blowup": None if dom is None else _blowup_result(dom),
            "g": ser.bmap_to_doc(g)}


def cmd_verify(args) -> Dict[str, Any]:
    raw = _read_doc(args.input)
    if raw.get("kind") == "refinement":
        rep = verify_transitions(local_atlas(_smooth_refinement(raw)))
    elif raw.get("kind") == "lift_check":
        rep = verify_lift(*ser.lift_check_from_doc(raw))
    else:
        raise MalformedDocument(
            "verify expects a refinement or lift_check document")
    doc = {"kind": "verification", "version": ser.VERSION,
           "passed": rep.passed, "failures": rep.failures}
    if not rep.passed:
        raise BlowupError(f"chart verification failed: {rep.failures}")
    return doc


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the result document here")
    common.add_argument("--format", choices=["json", "text"],
                        default="json")

    p = argparse.ArgumentParser(
        prog="blowup",
        description="Exact combinatorics of generalized boundary blow-up")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, actions=None):
        s = sub.add_parser(name, parents=[common])
        if actions:
            s.add_argument("action", choices=actions)
        s.add_argument("input")
        s.set_defaults(handler=handler)
        return s

    add("validate", cmd_validate)
    add("hilbert", cmd_hilbert)
    add("faces", cmd_faces)

    mode = add("subdivide", cmd_subdivide).add_mutually_exclusive_group(
        required=True)
    mode.add_argument("--star", help="center vector, comma separated")
    mode.add_argument("--planar", help="subspace rows, ';' separated")
    mode.add_argument("--smooth", action="store_true")

    add("ns", cmd_ns)
    add("extend", cmd_extend)

    s = add("blowup", cmd_blowup)
    mode = s.add_mutually_exclusive_group(required=True)
    mode.add_argument("--ordinary", help="face id to blow up")
    mode.add_argument("--iterated", help="comma separated face ids")
    mode.add_argument("--refinement", help="refinement document")
    s.add_argument("--weights", help="weight vector for --ordinary")

    add("atlas", cmd_atlas)

    for name, handler in (("lift", cmd_lift),
                          ("blowup-domain", cmd_blowup_domain)):
        s = add(name, handler)
        s.add_argument("--manifold", required=True)
        s.add_argument("--refinement", required=True)

    add("binomial", cmd_binomial,
        ["normal-form", "faces", "complex", "resolve"])
    add("fiber", cmd_fiber, ["analyze", "check-smooth", "resolve", "factor"])
    add("verify", cmd_verify)
    return p


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    """The parsed command line; argparse exits 2 with a message if it is
    malformed."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "weights", None) is not None and args.ordinary is None:
        parser.error("--weights requires --ordinary")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parse(argv)
    except SystemExit as e:
        return e.code
    try:
        doc = args.handler(args)
    except (MalformedDocument, KeyError, ValueError, TypeError) as e:
        print(f"error: malformed input: {e}", file=sys.stderr)
        return 2
    except BlowupError as e:
        print(f"error: validation failed: {e}", file=sys.stderr)
        return 1
    _emit(doc, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
