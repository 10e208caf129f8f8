"""Fuzz of the document parser and the command line.

Valid monoid, complex and binomial input documents are mutated (wrong
types, ragged matrices, missing keys, bad numbers, deep nesting) and fed
to `serialization.parse_doc` and to `cli.main`; so are refinements,
manifolds, b-maps, fiber problems, extension problems and lift checks,
to the commands that read them.
Whatever the input, the parser raises only the errors the command line
maps to exit 1 or 2, and `main` returns 0, 1 or 2 with an `error:` line
on every failure; for binomial input, that line also says what went
wrong.  Any other exception is a defect and fails the test.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from blowup import serialization as ser
from blowup.cli import main
from blowup.complexes import complex_from_monoid
from blowup.errors import BlowupError
from blowup.manifolds import BMap, corner_model, ordinary_blowup
from blowup.monoids import ToricMonoid
from blowup.refinements import star_subdivide, trivial_refinement
from blowup.serialization import MalformedDocument

# What `cli.main` turns into exit 2 (malformed) or exit 1 (validation);
# any other exception is a defect.
HANDLED = (MalformedDocument, BlowupError)

MONOID = ser.monoid_to_doc(ToricMonoid.from_generators(
    2, [(1, 0), (1, 1), (1, 2)]))
COMPLEX = ser.complex_to_doc(complex_from_monoid(ToricMonoid.free(2))[0])
BINOMIAL = {"kind": "binomial_input", "version": ser.VERSION,
            "equations": [{"alpha": [1, 1, 0], "beta": [0, 0, 2]}],
            "smooth_count": 0, "tangential_dim": 1}
SQUARE = ser.manifold_to_doc(corner_model(2))
REFINEMENT = ser.refinement_to_doc(
    ordinary_blowup(corner_model(2), "H1&H2")[0].refinement)
# The sum map of the square onto the half line, and the half line sent
# to the corner of the square.
SUM = BMap(corner_model(2), corner_model(1),
           {"X": "X", "H1": "H1", "H2": "H1", "H1&H2": "H1"},
           {("H1", "H1"): 1, ("H2", "H1"): 1})
LIFT = ser.bmap_to_doc(BMap(corner_model(1), corner_model(2),
                            {"X": "X", "H1": "H1&H2"},
                            {("H1", "H1"): 1, ("H1", "H2"): 2}))
FIBER = {"kind": "fiber_problem", "version": ser.VERSION,
         "f1": ser.bmap_to_doc(SUM), "f2": ser.bmap_to_doc(SUM)}


def _extension():
    """The quadrant's complex with its top element star subdivided at
    the diagonal, and its faces refined trivially."""
    q, _ = complex_from_monoid(ToricMonoid.free(2))
    given = [{"id": a, "members": [
        ser.monoid_to_doc(m) for m in (
            star_subdivide(q.monoids[a], (1, 1)) if q.monoids[a].dim == 2
            else trivial_refinement(q.monoids[a])).members]}
        for a in q.elements]
    return {"kind": "extension_problem", "version": ser.VERSION,
            "complex": ser.complex_to_doc(q), "given": given}


EXTENSION = _extension()
LIFT_CHECK = {"kind": "lift_check", "version": ser.VERSION,
              "delta": [[1, 1], [3, 2]], "nu": [[1, 0], [1, 1]],
              "mu": [[0, 1], [1, 2]], "coefficients": [1, 2]}
# Command lines with the document each reads as its input, DOC; SQUARE
# and REFINEMENT stand for the files of those documents.
KIND_RUNS = [
    (["validate", "DOC"], REFINEMENT), (["validate", "DOC"], LIFT),
    (["atlas", "DOC"], REFINEMENT),
    (["blowup", "DOC", "--refinement", "REFINEMENT"], SQUARE),
    (["lift", "DOC", "--manifold", "SQUARE", "--refinement",
      "REFINEMENT"], LIFT),
    (["fiber", "analyze", "DOC"], FIBER), (["extend", "DOC"], EXTENSION),
    (["verify", "DOC"], LIFT_CHECK)]

# Stands for a deeply nested list, spliced into the JSON text, because the
# encoder cannot write one.
DEEP = "<deep>"

# Small integers only: a valid document with large entries is not
# malformed, but its Hilbert basis can be too large to enumerate.
JUNK = st.sampled_from([
    None, True, False, 0, 1, -1, 2, 3, 1.5, float("nan"), "", "x", "1/2",
    "1/0", "1.5", "0x1", "2", "-1", [], {}, [[]], [[1], [1, 2]],
    [[1, 0], [0]], [1, 2], {"kind": "monoid"}, "monoid", "complex", DEEP])


def paths(node, prefix=()):
    """Every position in a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from paths(v, prefix + (i,))


def mutate(doc, path, action, junk):
    """A copy of doc with the node at path replaced by junk, deleted, or
    given a junk sibling."""
    doc = _copy(doc)
    if not path:
        return junk
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    key = path[-1]
    if action == "replace":
        parent[key] = junk
    elif action == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, junk)
    else:
        parent[f"{key}_"] = junk
    return doc


def _copy(node):
    if isinstance(node, dict):
        return {k: _copy(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_copy(v) for v in node]
    return node


@st.composite
def documents(draw, bases=(MONOID, COMPLEX)):
    """The JSON text of a mutated document, by default a monoid or a
    complex."""
    doc = draw(st.sampled_from(bases))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(paths(doc))))
        action = draw(st.sampled_from(["replace", "delete", "insert"]))
        doc = mutate(doc, path, action, draw(JUNK))
    depth = draw(st.sampled_from([2, 50, 200_000]))
    return ser.dumps(doc).replace(f'"{DEEP}"', "[" * depth + "]" * depth)


DEEP_TEXT = "[" * 200_000
# A face map b -> a with a 1 x 2 matrix into a 1-dimensional monoid.
BAD_SHAPE_TEXT = ser.dumps({
    "kind": "complex", "version": ser.VERSION,
    "elements": [{"id": "a", "monoid": ser.monoid_to_doc(ToricMonoid.free(1))},
                 {"id": "b",
                  "monoid": ser.monoid_to_doc(ToricMonoid.trivial(1))}],
    "relations": [["b", "a"]],
    "face_maps": [{"pair": ["b", "a"], "matrix": [[1, 2]]}]})
# A chain b < c < a given by its covering maps, whose map c -> a is 1 x 1
# out of the 2-dimensional c: the composite b -> a cannot be formed.
UNCOMPOSABLE_TEXT = ser.dumps({
    "kind": "complex", "version": ser.VERSION,
    "elements": [{"id": e, "monoid": ser.monoid_to_doc(ToricMonoid.free(n))}
                 for e, n in (("a", 1), ("b", 1), ("c", 2))],
    "relations": [["b", "c"], ["c", "a"]],
    "face_maps": [{"pair": ["b", "c"], "matrix": [[1, 0]]},
                  {"pair": ["c", "a"], "matrix": [[1]]}]})
RAGGED_TEXT = ser.dumps(mutate(MONOID, ("generators", 1), "replace", [1]))
SHORT_BETA_TEXT = ser.dumps(mutate(BINOMIAL, ("equations", 0, "beta", 2),
                                   "delete", None))
NEGATIVE_EXPONENT_TEXT = ser.dumps(mutate(
    BINOMIAL, ("equations", 0, "alpha", 1), "replace", -1))


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_run(code, out, err):
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert err.startswith("error: ")
    else:
        assert err == ""


@settings(max_examples=150, deadline=None)
@given(documents())
@example(DEEP_TEXT)
@example(BAD_SHAPE_TEXT)
@example(UNCOMPOSABLE_TEXT)
@example(RAGGED_TEXT)
def test_parse_doc_raises_only_handled_errors(text):
    try:
        ser.parse_doc(ser.loads(text))
    except HANDLED:
        pass


@settings(max_examples=100, deadline=None)
@given(documents())
@example(DEEP_TEXT)
@example(BAD_SHAPE_TEXT)
@example(UNCOMPOSABLE_TEXT)
@example(RAGGED_TEXT)
def test_cli_exits_0_1_or_2_with_a_message(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            fh.write(text)
        for command in ("validate", "hilbert", "ns"):
            check_run(*run_cli([command, path]))


@settings(max_examples=100, deadline=None)
@given(documents([BINOMIAL]))
@example(SHORT_BETA_TEXT)
@example(NEGATIVE_EXPONENT_TEXT)
@example("null")
def test_binomial_cli_exits_0_1_or_2_with_a_message(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "eq.json")
        with open(path, "w") as fh:
            fh.write(text)
        for action in ("normal-form", "faces"):
            code, out, err = run_cli(["binomial", action, path])
            check_run(code, out, err)
            # "error: <kind>: <message>", and the message is not empty.
            assert not code or err.split(": ", 2)[-1].strip()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(KIND_RUNS).flatmap(lambda run: st.tuples(
    st.just(run[0]), documents([run[1]]))))
def test_every_input_kind_exits_0_1_or_2_with_a_message(run):
    command, text = run
    with tempfile.TemporaryDirectory() as tmp:
        files = {"SQUARE": ser.dumps(SQUARE), "DOC": text,
                 "REFINEMENT": ser.dumps(REFINEMENT)}
        for name, content in files.items():
            with open(os.path.join(tmp, name), "w") as fh:
                fh.write(content)
        check_run(*run_cli([os.path.join(tmp, w) if w in files else w
                            for w in command]))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["--star", "--planar"]),
       st.lists(st.lists(st.integers(-2, 2), max_size=4), min_size=1,
                max_size=3))
@example("--star", [[1, 1]])
@example("--planar", [[1, -1, 0], [0, 0]])
def test_subdivide_arguments_exit_0_1_or_2(flag, rows):
    text = ";".join(",".join(map(str, row)) for row in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "free3.json")
        with open(path, "w") as fh:
            fh.write(ser.dumps(ser.monoid_to_doc(ToricMonoid.free(3))))
        # "--star=-1" keeps argparse from reading "-1" as an option.
        check_run(*run_cli(["subdivide", path, f"{flag}={text}"]))
