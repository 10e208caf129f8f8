"""Command line front end.

Reads versioned JSON documents, dispatches to the library and writes a
result document plus a short summary.  Exit codes: 0 success, 1 a
validation failure in well-formed input, 2 malformed input.  `main`
maps exactly two exception types to these codes: MalformedDocument to 2
and BlowupError to 1; any other exception is a defect and propagates
with its traceback.  The parser owns the command line: it declares each
command with its handler, and the modes of `subdivide` and of `blowup`
as required exclusive groups; `main` returns its exit status, 2 on a
malformed command line.  `serialization` owns every document format:
it decodes each input document into a validated object and writes each
result document, and each library function checks that its arguments
fit together before it computes.  So a handler decodes, calls the
library and returns one `serialization` writer's output; it builds no
document itself.
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
from .complexes import extend_refinement, natural_smooth_refinement
from .errors import BlowupError, MalformedDocument, NotSmooth
from .fiber import (FiberProblem, b_normal_transversality, factor_through,
                    resolve_fiber_product, theorem_b_check)
from .manifolds import (CornerComplex, blowup_domain, generalized_blowup,
                        iterated_blowup, lift_bmap, local_atlas,
                        ordinary_blowup)
from .monoids import ToricMonoid
from .refinements import planar_refine, smoothing, star_subdivide


def _read_doc(path: str) -> Dict[str, Any]:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise MalformedDocument(f"cannot read {path}: {e}") from e
    return ser.loads(text)


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
    ser.parse_doc(raw)
    return ser.validation_to_doc(raw["kind"])


def cmd_hilbert(args) -> Dict[str, Any]:
    return ser.hilbert_basis_to_doc(_load_monoid(args.input))


def cmd_faces(args) -> Dict[str, Any]:
    return ser.faces_to_doc(_load_monoid(args.input))


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
    return ser.monoid_refinement_to_doc(r)


def cmd_ns(args) -> Dict[str, Any]:
    r = natural_smooth_refinement(ser.complex_from_doc(_read_doc(args.input)))
    r.validate()
    return ser.ns_refinement_to_doc(r)


def cmd_extend(args) -> Dict[str, Any]:
    r = extend_refinement(*ser.extension_problem_from_doc(
        _read_doc(args.input)))
    r.validate()
    return ser.extended_refinement_to_doc(r)


def _check_face_ids(x: CornerComplex, flag: str, ids: List[str]) -> None:
    """Raise MalformedDocument, naming the flag, unless each id given to
    it is a face of x."""
    for f in ids:
        if f not in x.incidence:
            raise MalformedDocument(
                f"{flag}: {f!r} is not a face of the manifold")


def cmd_blowup(args) -> Dict[str, Any]:
    x = ser.manifold_from_doc(_read_doc(args.input))
    if args.ordinary is not None:
        _check_face_ids(x, "--ordinary", [args.ordinary])
        weights = _vector(args.weights) if args.weights else None
        return ser.blowup_to_doc(*ordinary_blowup(x, args.ordinary, weights))
    if args.iterated is not None:
        centers = args.iterated.split(",")
        _check_face_ids(x, "--iterated", centers)
        return ser.blowup_to_doc(iterated_blowup(x, centers))
    return ser.blowup_to_doc(generalized_blowup(
        x, ser.refinement_from_doc(_read_doc(args.refinement))))


def cmd_atlas(args) -> Dict[str, Any]:
    r = ser.refinement_from_doc(_read_doc(args.input))
    return ser.atlas_to_doc(r, local_atlas(r))


def cmd_lift(args) -> Dict[str, Any]:
    """`lift` lifts the b-map through the blow-up; `blowup-domain` first
    blows up its domain so that it lifts."""
    f = ser.bmap_from_doc(_read_doc(args.input))
    x = ser.manifold_from_doc(_read_doc(args.manifold))
    b = generalized_blowup(x, ser.refinement_from_doc(
        _read_doc(args.refinement)))
    if args.command == "lift":
        lift = lift_bmap(f, b)
        lift.bmap.validate()
        return ser.lift_to_doc(lift)
    return ser.blowup_domain_to_doc(*blowup_domain(f, b))


def cmd_binomial(args) -> Dict[str, Any]:
    raw = _read_doc(args.input)
    if ser.kind_of(raw) == "binomial_input":
        b = ser.binomial_input_from_doc(raw)
    else:
        b = ser.binomial_from_doc(raw)
    if args.action == "normal-form":
        return ser.binomial_to_doc(b)
    if args.action == "faces":
        return ser.variety_faces_to_doc(boundary_faces(b))
    if args.action == "complex":
        pd, inat = variety_complex(b)
        pd.validate()
        inat.validate()
        return ser.variety_complex_to_doc(pd, inat)
    # resolve, the last of the parser's choices
    try:
        res = universal_resolution(b)
    except NotSmooth:
        res = resolve(b)
    res.refinement.validate()
    return ser.binomial_resolution_to_doc(res)


def cmd_fiber(args) -> Dict[str, Any]:
    raw = _read_doc(args.input)
    if args.action == "factor" or ser.kind_of(raw) == "factor_problem":
        f1, f2, g1, g2 = ser.factor_problem_from_doc(raw)
    else:
        f1, f2 = ser.fiber_problem_from_doc(raw)
    p = FiberProblem(f1, f2)
    if args.action == "analyze":
        return ser.fiber_report_to_doc(b_normal_transversality(p))
    if args.action == "check-smooth":
        smooth, fc, _, _, off = theorem_b_check(p)
        return ser.fiber_smoothness_to_doc(smooth, fc, off)
    if args.action == "resolve":
        res = resolve_fiber_product(p)
        res.h1.validate()
        res.h2.validate()
        return ser.fiber_resolution_to_doc(res)
    # factor, the last of the parser's choices
    dom, g = factor_through(g1, g2, resolve_fiber_product(p))
    g.validate()
    return ser.fiber_factorization_to_doc(dom, g)


def cmd_verify(args) -> Dict[str, Any]:
    raw = _read_doc(args.input)
    kind = ser.kind_of(raw)
    if kind == "refinement":
        rep = verify_transitions(local_atlas(ser.refinement_from_doc(raw)))
    elif kind == "lift_check":
        rep = verify_lift(*ser.lift_check_from_doc(raw))
    else:
        raise MalformedDocument(
            "verify expects a refinement or lift_check document")
    if not rep.passed:
        raise BlowupError(f"chart verification failed: {rep.failures}")
    return ser.verification_to_doc(rep)


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

    for name in ("lift", "blowup-domain"):
        s = add(name, cmd_lift)
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
    except MalformedDocument as e:
        print(f"error: malformed input: {e}", file=sys.stderr)
        return 2
    except BlowupError as e:
        print(f"error: validation failed: {e}", file=sys.stderr)
        return 1
    _emit(doc, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
