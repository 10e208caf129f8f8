"""Fuzz of the library behind the decoders, and an oracle for the checks
that moved from the command line into the decoders and the library.

Mutated documents (the `documents` strategy of `test_fuzz`) are decoded
with `serialization` and handed straight to the library: blow-up, lift,
domain blow-up, chart atlas, extension, natural smooth refinement and
fiber-product resolution.  Only MalformedDocument and BlowupError may
come out; anything else is a defect.

The oracle keeps a copy of the checking sequence the command line ran
before the decoders validated: its helpers and validate calls, applied
to the decoders' non-validating halves.  On mutated documents of every
kind in `test_fuzz.KIND_RUNS`, the validating decoders and the library's
own fit checks must raise the same exception type and message as that
copy.  One difference is stated: a b-map whose manifold is invalid now
fails its own validation.  Two more cannot show here: the other files a
command reads stay valid, so no invalid earlier file can be reported
before a malformed later one; and both sides share the field reader, so
they agree on booleans and floats.  As they also share the
non-validating halves, a test by message pins that a refinement's target
complex is not validated.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowup import serialization as ser
from blowup.chartcheck import verify_lift
from blowup.complexes import (ComplexRefinement, extend_refinement,
                              natural_smooth_refinement)
from blowup.errors import (BlowupError, MalformedDocument, NotAComplex,
                           NotARefinement, NotCompatible, NotSmooth)
from blowup.fiber import FiberProblem, resolve_fiber_product
from blowup.manifolds import (BMap, CornerComplex, blowup_domain,
                              corner_model, generalized_blowup, lift_bmap,
                              local_atlas)
from blowup.refinements import MonoidRefinement
from test_fuzz import (EXTENSION, FIBER, KIND_RUNS, LIFT, REFINEMENT,
                       SQUARE, documents, mutate, run_cli)

SQUARE_X = ser.manifold_from_doc(SQUARE)
REFINED = ser.refinement_from_doc(REFINEMENT)
BLOWN_UP = generalized_blowup(SQUARE_X, REFINED)


# ---------------------------------------------------------------------------
# The library, called directly on decoded documents.
# ---------------------------------------------------------------------------


def blow_up_manifold(doc):
    generalized_blowup(ser.manifold_from_doc(doc), REFINED)


def use_refinement(doc):
    r = ser.refinement_from_doc(doc)
    for call in (lambda: local_atlas(r),
                 lambda: generalized_blowup(SQUARE_X, r),
                 lambda: natural_smooth_refinement(r.source)):
        try:
            call()
        except BlowupError:
            pass


def lift_map(doc):
    f = ser.bmap_from_doc(doc)
    for lift in (lift_bmap, blowup_domain):
        try:
            lift(f, BLOWN_UP)
        except BlowupError:
            pass


def resolve_fiber(doc):
    resolve_fiber_product(FiberProblem(*ser.fiber_problem_from_doc(doc)))


def extend(doc):
    q, local = ser.extension_problem_from_doc(doc)
    try:
        extend_refinement(q, local)
    except BlowupError:
        pass
    natural_smooth_refinement(q)


LIBRARY_RUNS = [(SQUARE, blow_up_manifold), (REFINEMENT, use_refinement),
                (LIFT, lift_map), (FIBER, resolve_fiber),
                (EXTENSION, extend)]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LIBRARY_RUNS).flatmap(lambda run: st.tuples(
    st.just(run[1]), documents([run[0]]))))
def test_library_raises_only_handled_errors(run):
    call, text = run
    try:
        call(ser.loads(text))
    except (MalformedDocument, BlowupError):
        pass


# ---------------------------------------------------------------------------
# The oracle: the command line's former checks on non-validating decodes.
# ---------------------------------------------------------------------------


def former_bmap_validate(f):
    """BMap.validate as it was, without its manifolds."""
    for a, b in f.source.order:
        if not f.target.leq(f.face_map[a], f.face_map[b]):
            raise NotAComplex(
                f"face map not order preserving on {a} <= {b}")
    for (g, h), e in f.exponents.items():
        if e < 0:
            raise NotAComplex(f"negative exponent alpha({g}, {h})")
    for face in f.source.faces:
        expected = frozenset(
            h for h in f.target.hypersurfaces()
            if any(f.alpha(g, h) > 0 for g in f.source.incidence[face]))
        actual = f.target.incidence[f.face_map[face]]
        if expected != actual:
            raise NotAComplex(
                f"face {face}: exponents are positive on {sorted(expected)} "
                f"but the image face is cut by {sorted(actual)}")


def former_refinement(doc):
    return ComplexRefinement(ser._morphism(doc, ser._expect(doc,
                                                            "refinement")))


FORMER_DECODERS = {
    "monoid": ser.monoid_from_doc,
    "complex": ser._complex,
    "morphism": lambda d: ser._morphism(d, ser._expect(d, "morphism")),
    "refinement": former_refinement,
    "manifold": ser._manifold,
    "bmap": ser._bmap,
    "binomial_system": ser.binomial_from_doc,
}


def former_validate(doc):
    """`blowup validate`: decode by kind, then validate what has a
    validate method."""
    kind = ser.kind_of(doc)
    if kind not in FORMER_DECODERS:
        raise MalformedDocument(f"unknown document kind {kind!r}")
    obj = FORMER_DECODERS[kind](doc)
    if kind == "bmap":
        former_bmap_validate(obj)
    elif hasattr(obj, "validate"):
        obj.validate()


def valid_manifold(doc):
    x = ser._manifold(doc)
    x.validate()
    return x


def smooth_refinement(doc):
    r = former_refinement(doc)
    r.validate()
    if not r.is_smooth():
        raise NotSmooth("chart atlases need a smooth refinement")
    return r


def blowup_along(x, doc):
    r = former_refinement(doc)
    q, p = r.target, x.basic_complex()
    if (q.monoids, q.order, q.face_maps) != (p.monoids, p.order, p.face_maps):
        raise NotARefinement("the refinement's target is not the basic "
                             "complex of the manifold")
    r.validate()
    return generalized_blowup(x, r)


def validate_bmap(f):
    f.source.validate()
    f.target.validate()
    former_bmap_validate(f)


def former_lift(doc):
    f = ser._bmap(doc)
    x = valid_manifold(SQUARE)
    validate_bmap(f)
    if (f.target.incidence, f.target.order) != (x.incidence, x.order):
        raise NotCompatible("the b-map's target is not the manifold that "
                            "is blown up")
    lift_bmap(f, blowup_along(x, REFINEMENT))


def former_fiber(doc):
    path = ser._expect(doc, "fiber_problem")
    for f in [ser._bmap(doc[k], f"{path}.{k}") for k in ("f1", "f2")]:
        validate_bmap(f)


def former_extension_problem(doc):
    """extension_problem_from_doc as it was, without validation."""
    path = ser._expect(doc, "extension_problem")
    q = ser._complex(doc["complex"], f"{path}.complex")
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
            m = ser.monoid_from_doc(d, where)
            if m.ambient_dim != base.ambient_dim:
                raise MalformedDocument(
                    f"{where}: ambient_dim {m.ambient_dim}, not its "
                    f"element's {base.ambient_dim}")
            members.append(m)
        local[e["id"]] = MonoidRefinement(base, members)
    return q, local


def former_extend(doc):
    q, local = former_extension_problem(doc)
    q.validate()
    for e, given_ in sorted(local.items()):
        failures = given_.validate()
        if failures:
            raise NotARefinement(f"given refinement of {e} is invalid: "
                                 f"{failures[0].detail}")
    extend_refinement(q, local)


def lift_check(doc):
    verify_lift(*ser.lift_check_from_doc(doc))


# By the command and the kind of the document it reads: the former
# sequence, and the decoders with the library.
ORACLE = {
    ("validate", "refinement"): (former_validate, ser.parse_doc),
    ("validate", "bmap"): (former_validate, ser.parse_doc),
    ("atlas", "refinement"): (
        lambda d: local_atlas(smooth_refinement(d)),
        lambda d: local_atlas(ser.refinement_from_doc(d))),
    ("blowup", "manifold"): (
        lambda d: blowup_along(valid_manifold(d), REFINEMENT),
        lambda d: generalized_blowup(ser.manifold_from_doc(d),
                                     ser.refinement_from_doc(REFINEMENT))),
    ("lift", "bmap"): (
        former_lift,
        lambda d: lift_bmap(ser.bmap_from_doc(d), generalized_blowup(
            ser.manifold_from_doc(SQUARE),
            ser.refinement_from_doc(REFINEMENT)))),
    ("fiber", "fiber_problem"): (former_fiber, ser.fiber_problem_from_doc),
    ("extend", "extension_problem"): (
        former_extend,
        lambda d: extend_refinement(*ser.extension_problem_from_doc(d))),
    ("verify", "lift_check"): (lift_check, lift_check),
}

ORACLE_RUNS = [(command[0], base) for command, base in KIND_RUNS]


def outcome(call, text):
    """The type and message of what call raises on the document, or
    None if it returns."""
    try:
        call(ser.loads(text))
    except (MalformedDocument, BlowupError) as e:
        return type(e), str(e)
    return None


def manifold_error(text):
    """What validating the manifolds of a b-map document raises."""
    def check(doc):
        f = ser._bmap(doc)
        f.source.validate()
        f.target.validate()
    return outcome(check, text)


# A b-map whose source face A is cut by H1, which has no face of its
# own; the map itself is consistent.
BAD_SOURCE_TEXT = ser.dumps(ser.bmap_to_doc(BMap(
    CornerComplex({"X": [], "A": ["H1"]}, [("X", "A")]), corner_model(2),
    {"X": "X", "A": "H1&H2"}, {("H1", "H1"): 1, ("H1", "H2"): 2})))


def _pair_index(doc, pair):
    return next(i for i, r in enumerate(doc["face_maps"])
                if r["pair"] == pair)


# A refinement whose target face map H1 -> H1&H2 is not a face inclusion:
# the morphism's validation reports it, and the target's own is not run.
BAD_TARGET_TEXT = ser.dumps(mutate(
    REFINEMENT, ("target", "face_maps",
                 _pair_index(REFINEMENT["target"], ["H1", "H1&H2"]),
                 "matrix", 0, 1), "replace", 1))
# An extension problem whose given refinement of f1 lacks a member.
SHORT_GIVEN_TEXT = ser.dumps(mutate(EXTENSION, ("given", 1, "members", 0),
                                    "delete", None))


def test_a_refinement_target_is_checked_only_as_far_as_the_refinement():
    # Both sides of the oracle share the non-validating halves, so this
    # is checked by message.
    with pytest.raises(NotAComplex, match="^morphism squares do not "
                       "commute at H1/0 <= H1&H2/1$"):
        ser.refinement_from_doc(ser.loads(BAD_TARGET_TEXT))


def test_validate_rejects_a_bmap_on_an_invalid_manifold(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(BAD_SOURCE_TEXT)
    assert outcome(former_validate, BAD_SOURCE_TEXT) is None
    assert run_cli(["validate", str(path)]) == (
        1, "", "error: validation failed: hypersurface H1 is not a face "
        "with incidence ['H1']\n")


def test_oracle_covers_every_kind_run():
    assert {(c, base["kind"]) for c, base in ORACLE_RUNS} == set(ORACLE)


@settings(max_examples=300, deadline=None)
@example((("validate", "bmap"), BAD_SOURCE_TEXT))
@example((("validate", "refinement"), BAD_TARGET_TEXT))
@example((("atlas", "refinement"), BAD_TARGET_TEXT))
@example((("extend", "extension_problem"), SHORT_GIVEN_TEXT))
@given(st.sampled_from(ORACLE_RUNS).flatmap(lambda run: st.tuples(
    st.just((run[0], run[1]["kind"])), documents([run[1]]))))
def test_decoders_raise_what_the_former_checks_raised(run):
    key, text = run
    former, current = ORACLE[key]
    expected, got = outcome(former, text), outcome(current, text)
    if key == ("validate", "bmap") and got != expected:
        # The stated difference: the b-map's own validation now
        # validates its manifolds first.
        assert got is not None and got == manifold_error(text)
    else:
        assert got == expected
