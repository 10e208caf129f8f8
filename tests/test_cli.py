"""End-to-end tests of the command line interface."""

import gc
import hashlib
import json
import os
import subprocess
import sys

import pytest

from blowup import cli
from blowup import exactla as la
from blowup import monoids
from blowup import serialization as ser
from blowup.cli import main
from blowup.complexes import (complex_from_monoid, identity_refinement,
                              star_subdivide_complex)
from blowup.manifolds import BMap, corner_model, identity_bmap, \
    local_atlas, ordinary_blowup
from blowup.monoids import ToricMonoid
from blowup.refinements import star_subdivide, trivial_refinement

from test_binomial import ten_variable_pairs
from test_fuzz import BAD_SHAPE_TEXT
from test_manifolds import overlapping_square_refinement, renamed_square
from test_refinements import count_intersections


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(ser.dumps(doc))
    return str(p)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture
def monoid_doc(tmp_path):
    m = ToricMonoid.make(2, la.identity(2), [(1, 0), (1, 2)])
    return write(tmp_path, "monoid.json", ser.monoid_to_doc(m))


@pytest.fixture
def square_doc(tmp_path):
    return write(tmp_path, "square.json",
                 ser.manifold_to_doc(corner_model(2)))


@pytest.fixture
def refinement_doc(tmp_path):
    bl, _ = ordinary_blowup(corner_model(2), "H1&H2")
    return write(tmp_path, "ref.json",
                 ser.refinement_to_doc(bl.refinement))


def sum_bmap():
    x, y = corner_model(2), corner_model(1)
    return BMap(x, y,
                {"X": "X", "H1": "H1", "H2": "H1", "H1&H2": "H1"},
                {("H1", "H1"): 1, ("H2", "H1"): 1})


def fiber_problem_doc(f1, f2):
    return {"kind": "fiber_problem", "version": ser.VERSION,
            "f1": ser.bmap_to_doc(f1), "f2": ser.bmap_to_doc(f2)}


def cusp_input_doc(**counts):
    """x1^2 = x2^3, with the optional smooth_count and tangential_dim."""
    return {"kind": "binomial_input", "version": ser.VERSION,
            "equations": [{"alpha": [2, 0], "beta": [0, 3]}], **counts}


def extension_problem_doc():
    """The octant's complex with the star subdivision of one facet at its
    diagonal, and the facet's faces refined trivially."""
    q, _ = complex_from_monoid(ToricMonoid.free(3))
    facet = next(a for a in q.elements
                 if q.monoids[a].rays == ((0, 1, 0), (1, 0, 0)))
    given = []
    for a in q.below(facet):
        r = (star_subdivide(q.monoids[a], (1, 1, 0)) if a == facet
             else trivial_refinement(q.monoids[a]))
        given.append({"id": a,
                      "members": [ser.monoid_to_doc(m) for m in r.members]})
    return {"kind": "extension_problem", "version": ser.VERSION,
            "complex": ser.complex_to_doc(q), "given": given}


def factor_problem_doc():
    """The sum map twice, and the half line's inclusion as g1 and g2."""
    f = sum_bmap()
    g = BMap(corner_model(1, prefix="G"), f.source,
             {"X": "X", "G1": "H1"}, {("G1", "H1"): 1})
    return {"kind": "factor_problem", "version": ser.VERSION,
            "f1": ser.bmap_to_doc(f), "f2": ser.bmap_to_doc(f),
            "g1": ser.bmap_to_doc(g), "g2": ser.bmap_to_doc(g)}


LIFT_CHECK = {"kind": "lift_check", "version": ser.VERSION,
              "delta": [[1, 1], [3, 2]], "nu": [[1, 0], [1, 1]],
              "mu": [[0, 1], [1, 2]]}


@pytest.fixture
def well_formed_runs(monoid_doc, square_doc, refinement_doc, tmp_path):
    """One command line per command, action and mode, each on well-formed
    documents, labelled by the command with its files' names."""
    f = sum_bmap()
    cusp = write(tmp_path, "cusp.json", cusp_input_doc())
    housed = write(tmp_path, "housed.json",
                   cusp_input_doc(smooth_count=1, tangential_dim=1))
    addition = write(tmp_path, "addition.json", fiber_problem_doc(f, f))
    cube = write(tmp_path, "cube.json", ser.manifold_to_doc(corner_model(3)))
    lift = write(tmp_path, "f.json", ser.bmap_to_doc(BMap(
        corner_model(1), corner_model(2), {"X": "X", "H1": "H1&H2"},
        {("H1", "H1"): 1, ("H1", "H2"): 2})))
    identity = write(tmp_path, "id.json",
                     ser.bmap_to_doc(identity_bmap(corner_model(2))))
    q, _ = complex_from_monoid(ToricMonoid.make(
        3, la.identity(3), [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]))
    square_cone = write(tmp_path, "q.json", ser.complex_to_doc(q))
    extension = write(tmp_path, "ext.json", extension_problem_doc())
    factor = write(tmp_path, "factor.json", factor_problem_doc())
    lift_check = write(tmp_path, "lc.json", LIFT_CHECK)
    runs = [["validate", monoid_doc], ["hilbert", monoid_doc],
            ["hilbert", monoid_doc, "--format", "text"],
            ["faces", monoid_doc],
            ["subdivide", monoid_doc, "--star", "1,1"],
            ["subdivide", monoid_doc, "--planar", "1,1"],
            ["subdivide", monoid_doc, "--smooth"],
            ["ns", square_cone], ["extend", extension],
            ["blowup", square_doc, "--ordinary", "H1&H2"],
            ["blowup", square_doc, "--ordinary", "H1&H2",
             "--weights", "1,2"],
            ["blowup", cube, "--iterated", "H1&H2&H3,H1&H2"],
            ["blowup", square_doc, "--refinement", refinement_doc],
            ["atlas", refinement_doc],
            ["lift", lift, "--manifold", square_doc,
             "--refinement", refinement_doc],
            ["blowup-domain", identity, "--manifold", square_doc,
             "--refinement", refinement_doc],
            ["binomial", "normal-form", cusp],
            ["binomial", "normal-form", housed],
            ["binomial", "faces", cusp], ["binomial", "complex", cusp],
            ["binomial", "resolve", cusp],
            ["fiber", "analyze", addition],
            ["fiber", "check-smooth", addition],
            ["fiber", "resolve", addition], ["fiber", "factor", factor],
            ["verify", refinement_doc], ["verify", lift_check]]
    return {" ".join(os.path.basename(w) for w in argv): argv
            for argv in runs}


class TestBasicCommands:
    def test_validate(self, monoid_doc, tmp_path, capsys):
        assert main(["validate", monoid_doc]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "ok"

    def test_hilbert(self, monoid_doc, tmp_path):
        out = str(tmp_path / "hb.json")
        assert main(["hilbert", monoid_doc, "--out", out]) == 0
        doc = read_json(out)
        assert doc["elements"] == 3
        assert ["1", "1"] not in doc["generators"]
        assert [1, 1] in doc["generators"]

    def test_faces(self, monoid_doc, tmp_path):
        out = str(tmp_path / "faces.json")
        assert main(["faces", monoid_doc, "--out", out]) == 0
        assert read_json(out)["elements"] == 4

    def test_text_format(self, monoid_doc, capsys):
        assert main(["hilbert", monoid_doc, "--format", "text"]) == 0
        text = capsys.readouterr().out
        assert "kind: hilbert_basis" in text
        assert "elements: 3" in text

    def test_subdivide_star(self, tmp_path):
        m = ToricMonoid.free(2)
        path = write(tmp_path, "free.json", ser.monoid_to_doc(m))
        out = str(tmp_path / "sub.json")
        assert main(["subdivide", path, "--star", "1,1",
                     "--out", out]) == 0
        assert read_json(out)["members"] == 6

    def test_subdivide_planar_nonsimplicial(self, tmp_path, monkeypatch):
        # The cone over a pentagon, cut by the plane through two of its
        # non-adjacent rays, has a member over a quadrilateral: validation
        # takes the pairwise common-face check.
        m = ToricMonoid.make(3, la.identity(3), [
            (0, 0, 1), (1, 0, 1), (2, 1, 1), (1, 2, 1), (0, 1, 1)])
        path = write(tmp_path, "pentagon.json", ser.monoid_to_doc(m))
        calls = count_intersections(monkeypatch)
        out = str(tmp_path / "planar.json")
        assert main(["subdivide", path, "--planar", "0,0,1;2,1,1",
                     "--out", out]) == 0
        doc = read_json(out)
        assert doc["members"] == 14
        assert max(len(x["rays"]) for x in doc["member_list"]) == 4
        assert calls

    def test_subdivide_requires_mode(self, monoid_doc):
        assert main(["subdivide", monoid_doc]) == 2


class TestComplexCommands:
    def test_ns(self, tmp_path):
        m = ToricMonoid.make(3, la.identity(3),
                             [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
        q, _ = complex_from_monoid(m)
        path = write(tmp_path, "q.json", ser.complex_to_doc(q))
        out = str(tmp_path / "ns.json")
        assert main(["ns", path, "--out", out]) == 0
        doc = read_json(out)
        assert doc["smooth"] is True
        ser.refinement_from_doc(
            {k: v for k, v in doc.items()
             if k not in ("smooth", "elements")}).validate()

    def test_extend(self, tmp_path):
        path = write(tmp_path, "ext.json", extension_problem_doc())
        out = str(tmp_path / "extended.json")
        assert main(["extend", path, "--out", out]) == 0
        back = read_json(out)
        assert back["kind"] == "refinement"


class TestBlowupCommands:
    def test_ordinary(self, square_doc, tmp_path):
        out = str(tmp_path / "bl.json")
        assert main(["blowup", square_doc, "--ordinary", "H1&H2",
                     "--out", out]) == 0
        doc = read_json(out)
        assert doc["hypersurfaces"] == 3
        assert sorted(doc["charts"]) == [[[1, 0], [1, 1]],
                                         [[1, 1], [0, 1]]]

    @pytest.mark.parametrize("optimize", [[], ["-O"]])
    def test_bad_weights_fail_without_a_document(self, square_doc,
                                                 tmp_path, optimize):
        """Too few weights and a zero weight give the same validation
        exit and write nothing, also under python -O."""
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        codes = []
        for k, weights in enumerate(["1", "0,1"]):
            out = tmp_path / f"bl{k}.json"
            run = subprocess.run(
                [sys.executable, *optimize, "-m", "blowup.cli", "blowup",
                 square_doc, "--ordinary", "H1&H2", "--weights", weights,
                 "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120)
            codes.append(run.returncode)
            assert run.stdout == ""
            assert "validation failed" in run.stderr
            assert not out.exists()
        assert codes == [1, 1]

    def test_iterated(self, tmp_path):
        path = write(tmp_path, "cube.json",
                     ser.manifold_to_doc(corner_model(3)))
        out = str(tmp_path / "it.json")
        assert main(["blowup", path, "--iterated", "H1&H2&H3,H1&H2",
                     "--out", out]) == 0
        assert read_json(out)["hypersurfaces"] == 5

    def test_refinement_blowup(self, square_doc, refinement_doc,
                               tmp_path):
        out = str(tmp_path / "gen.json")
        assert main(["blowup", square_doc, "--refinement",
                     refinement_doc, "--out", out]) == 0
        assert read_json(out)["hypersurfaces"] == 3

    def test_atlas(self, refinement_doc, tmp_path):
        out = str(tmp_path / "atlas.json")
        assert main(["atlas", refinement_doc, "--out", out]) == 0
        doc = read_json(out)
        assert doc["n"] == 2
        assert len(doc["charts"]) == 2
        assert len(doc["transitions"]) == 2

    def test_lift(self, square_doc, refinement_doc, tmp_path):
        z = corner_model(1)
        f = BMap(z, corner_model(2), {"X": "X", "H1": "H1&H2"},
                 {("H1", "H1"): 1, ("H1", "H2"): 2})
        path = write(tmp_path, "f.json", ser.bmap_to_doc(f))
        out = str(tmp_path / "lift.json")
        assert main(["lift", path, "--manifold", square_doc,
                     "--refinement", refinement_doc, "--out", out]) == 0
        assert read_json(out)["kind"] == "lift"

    def test_lift_incompatible_fails(self, square_doc, refinement_doc,
                                     tmp_path):
        path = write(tmp_path, "id.json",
                     ser.bmap_to_doc(identity_bmap(corner_model(2))))
        assert main(["lift", path, "--manifold", square_doc,
                     "--refinement", refinement_doc]) == 1

    def test_blowup_domain(self, square_doc, refinement_doc, tmp_path):
        path = write(tmp_path, "id.json",
                     ser.bmap_to_doc(identity_bmap(corner_model(2))))
        out = str(tmp_path / "dom.json")
        assert main(["blowup-domain", path, "--manifold", square_doc,
                     "--refinement", refinement_doc, "--out", out]) == 0
        doc = read_json(out)
        assert doc["domain"]["hypersurfaces"] == 3


class TestBinomialCommands:
    @pytest.fixture
    def cusp_doc(self, tmp_path):
        return write(tmp_path, "cusp.json", cusp_input_doc())

    def test_normal_form(self, cusp_doc, tmp_path):
        out = str(tmp_path / "nf.json")
        assert main(["binomial", "normal-form", cusp_doc,
                     "--out", out]) == 0
        assert read_json(out)["gammas"] == [[2, -3]]

    def test_faces(self, cusp_doc, tmp_path):
        out = str(tmp_path / "bf.json")
        assert main(["binomial", "faces", cusp_doc, "--out", out]) == 0
        doc = read_json(out)
        assert doc["elements"] == 2
        corner = next(f for f in doc["faces"] if f["coords"] == [0, 1])
        assert corner["monoid"]["generators"] == [[3, 2]]

    def test_complex(self, cusp_doc, tmp_path):
        out = str(tmp_path / "bc.json")
        assert main(["binomial", "complex", cusp_doc, "--out", out]) == 0
        assert read_json(out)["smooth"] is True

    def test_complex_in_ten_variables(self, tmp_path):
        doc = {"kind": "binomial_input", "version": ser.VERSION,
               "equations": [{"alpha": list(a), "beta": list(b)}
                             for a, b in ten_variable_pairs()]}
        path = write(tmp_path, "ten.json", doc)
        out = str(tmp_path / "bc10.json")
        assert main(["binomial", "complex", path, "--out", out]) == 0

    def test_resolve(self, cusp_doc, tmp_path):
        out = str(tmp_path / "br.json")
        assert main(["binomial", "resolve", cusp_doc, "--out", out]) == 0
        doc = read_json(out)
        assert doc["universal"] is True
        assert doc["indefinite_charts"] == 0


# A rank-2 system whose smooth variety complex takes the universal path,
# where a chart lies across one exponent's hyperplane (defect (a)).
INDEFINITE_RANK2 = {"kind": "binomial_system", "version": ser.VERSION,
                    "boundary_dim": 2, "tangential_dim": 0,
                    "gammas": [[-1, 2], [-2, 1]], "smooth_count": 0}
INDEFINITE_MESSAGE = ("error: validation failed: indefinite transformed "
                      "exponent in chart H1&H2/0/0/0")


class TestBinomialInvariants:
    """resolve raises InvariantViolated on an indefinite chart, so the
    CLI stops with exit 1 and the message also under python -O."""

    def test_in_process(self, tmp_path, capsys):
        path = write(tmp_path, "rank2.json", INDEFINITE_RANK2)
        assert main(["binomial", "resolve", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == INDEFINITE_MESSAGE

    def test_optimized_subprocess(self, tmp_path):
        path = write(tmp_path, "rank2.json", INDEFINITE_RANK2)
        run = run_blowup("binomial", "resolve", path, python_flags=("-O",))
        assert run.returncode == 1
        assert run.stdout == ""
        assert run.stderr.strip() == INDEFINITE_MESSAGE


class TestFiberCommands:
    @pytest.fixture
    def addition_doc(self, tmp_path):
        f = sum_bmap()
        return write(tmp_path, "addition.json",
                     fiber_problem_doc(f, f))

    def test_analyze(self, addition_doc, tmp_path):
        out = str(tmp_path / "rep.json")
        assert main(["fiber", "analyze", addition_doc,
                     "--out", out]) == 0
        doc = read_json(out)
        assert doc["transversal"] is True
        assert doc["smooth"] is False

    def test_check_smooth(self, addition_doc, tmp_path):
        out = str(tmp_path / "smooth.json")
        assert main(["fiber", "check-smooth", addition_doc,
                     "--out", out]) == 0
        doc = read_json(out)
        assert doc["smooth"] is False
        assert doc["offenders"] == ["H1&H2*H1&H2"]

    def test_resolve(self, addition_doc, tmp_path):
        out = str(tmp_path / "res.json")
        assert main(["fiber", "resolve", addition_doc,
                     "--out", out]) == 0
        doc = read_json(out)
        assert len(doc["manifold"]["hypersurfaces"]) == 5

    def test_factor(self, tmp_path):
        path = write(tmp_path, "factor.json", factor_problem_doc())
        out = str(tmp_path / "fact.json")
        assert main(["fiber", "factor", path, "--out", out]) == 0
        back = read_json(out)
        assert back["domain_blowup"] is None


class TestVerifyCommand:
    def test_refinement_atlas(self, refinement_doc, tmp_path):
        out = str(tmp_path / "ver.json")
        assert main(["verify", refinement_doc, "--out", out]) == 0
        doc = read_json(out)
        assert set(doc) == {"kind", "version", "passed", "failures"}
        assert doc["passed"] is True
        assert doc["failures"] == []

    def test_lift_check(self, tmp_path):
        nu = [[1, 0], [1, 1]]
        mu = [[0, 1], [1, 2]]
        delta = [[1, 1], [3, 2]]
        doc = {"kind": "lift_check", "version": ser.VERSION,
               "delta": delta, "nu": nu, "mu": mu}
        path = write(tmp_path, "lc.json", doc)
        assert main(["verify", path]) == 0

    def test_lift_check_bad_mu(self, tmp_path):
        doc = {"kind": "lift_check", "version": ser.VERSION,
               "delta": [[1, 1]], "nu": [[1, 0], [1, 1]],
               "mu": [[1, 1]]}
        path = write(tmp_path, "bad.json", doc)
        assert main(["verify", path]) == 1

    def test_lift_check_with_large_exponents(self, tmp_path):
        """Entries whose powers overflow a float."""
        path = write(tmp_path, "lc.json", {
            "kind": "lift_check", "version": ser.VERSION,
            "delta": [[200, 0], [200, 200]], "nu": [[1, 0], [1, 1]],
            "mu": [[200, 0], [0, 200]]})
        run = run_blowup("verify", path)
        assert run.returncode == 0
        assert run.stderr == ""
        assert json.loads(run.stdout)["passed"] is True

    def test_corrupted_transition_names_the_pair(self, refinement_doc,
                                                 monkeypatch, capsys):
        def corrupted_atlas(r):
            atlas = local_atlas(r)
            key = min(atlas.transitions)
            atlas.transitions[key] = tuple(
                tuple(x + 1 for x in row) for row in atlas.transitions[key])
            return atlas

        monkeypatch.setattr(cli, "local_atlas", corrupted_atlas)
        assert main(["verify", refinement_doc]) == 1
        bl, _ = ordinary_blowup(corner_model(2), "H1&H2")
        e1, e2 = min(local_atlas(bl.refinement).transitions)
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"blow-down mismatch {e1}->{e2}" in captured.err


# b-maps from the square to the half line that BMap.validate rejects:
# H2 goes to the face H1 with no exponent there, or to the interior with
# one.
INVALID_TO_HALF_LINE = [
    ({"X": "X", "H1": "H1", "H2": "H1", "H1&H2": "H1"},
     {("H1", "H1"): 1},
     "face H2: exponents are positive on [] but the image face is cut by "
     "['H1']"),
    ({"X": "X", "H1": "H1", "H2": "X", "H1&H2": "H1"},
     {("H1", "H1"): 1, ("H2", "H1"): 1},
     "face H2: exponents are positive on ['H1'] but the image face is cut "
     "by []")]


class TestRejectedInput:
    """atlas and verify validate their refinement, fiber validates its
    b-maps, and a binomial_system document must be its own normal form."""

    @pytest.mark.parametrize("command", ["atlas", "verify"])
    def test_overlapping_refinement(self, tmp_path, capsys, command):
        path = write(tmp_path, "overlap.json",
                     ser.refinement_to_doc(overlapping_square_refinement()))
        assert main([command, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: validation failed: images over H1&H2 are not a "
            "refinement: common_face")

    @pytest.mark.parametrize("command", ["atlas", "verify"])
    def test_refinement_that_is_not_smooth(self, tmp_path, capsys, command):
        m = ToricMonoid.make(2, la.identity(2), [(1, 0), (1, 2)])
        r = identity_refinement(complex_from_monoid(m)[0])
        path = write(tmp_path, "cone.json", ser.refinement_to_doc(r))
        assert main([command, path]) == 1
        assert capsys.readouterr().err == (
            "error: validation failed: chart atlases need a smooth "
            "refinement\n")

    def test_manifold_is_validated(self, tmp_path, capsys, refinement_doc):
        """The blow-down reads each hypersurface's ray off the face of the
        same id, so a manifold whose hypersurfaces name no face fails."""
        renamed = write(tmp_path, "renamed.json",
                        ser.manifold_to_doc(renamed_square()))
        f = write(tmp_path, "f.json",
                  ser.bmap_to_doc(identity_bmap(corner_model(2))))
        for argv in (["blowup", renamed, "--ordinary", "AB"],
                     ["lift", f, "--manifold", renamed,
                      "--refinement", refinement_doc]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "hypersurface H1 is not a face" in captured.err

    @pytest.mark.parametrize("action", ["analyze", "check-smooth",
                                        "resolve", "factor"])
    @pytest.mark.parametrize("face_map, exponents, message",
                             INVALID_TO_HALF_LINE,
                             ids=["no-exponent", "exponent-off-the-face"])
    def test_fiber_maps_are_validated(self, tmp_path, capsys, action,
                                      face_map, exponents, message):
        f = BMap(corner_model(2), corner_model(1), face_map, exponents)
        g = identity_bmap(corner_model(2))
        doc = {"kind": "factor_problem", "version": ser.VERSION,
               "f1": ser.bmap_to_doc(f), "f2": ser.bmap_to_doc(f),
               "g1": ser.bmap_to_doc(g), "g2": ser.bmap_to_doc(g)}
        path = write(tmp_path, "bad.json", doc)
        assert main(["fiber", action, path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: validation failed: {message}\n"

    @pytest.mark.parametrize("which", ["g1", "g2"])
    def test_factor_maps_are_validated(self, tmp_path, capsys, which):
        f = sum_bmap()
        z = corner_model(1, prefix="G")
        g = BMap(z, f.source, {"X": "X", "G1": "H1"}, {("G1", "H1"): 1})
        bad = BMap(z, f.source, {"X": "X", "G1": "H1"}, {})
        doc = {"kind": "factor_problem", "version": ser.VERSION,
               "f1": ser.bmap_to_doc(f), "f2": ser.bmap_to_doc(f),
               "g1": ser.bmap_to_doc(g), "g2": ser.bmap_to_doc(g),
               which: ser.bmap_to_doc(bad)}
        path = write(tmp_path, "bad.json", doc)
        assert main(["fiber", "factor", path]) == 1
        assert capsys.readouterr().err == (
            "error: validation failed: face G1: exponents are positive on "
            "[] but the image face is cut by ['H1']\n")

    @pytest.mark.parametrize("command", [["binomial", "faces"],
                                         ["binomial", "resolve"],
                                         ["validate"]])
    @pytest.mark.parametrize("fields, code, message", [
        pytest.param({"gammas": [[1, -1, 0]]}, 2, "malformed input: "
                     "exponent vector [1, -1, 0] is not boundary_dim 2 long",
                     id="long-gamma"),
        pytest.param({"boundary_dim": -1}, 2, "malformed input: binomial "
                     "system with a negative dimension or count",
                     id="negative-dim"),
        pytest.param({"smooth_count": -1}, 2, "malformed input: binomial "
                     "system with a negative dimension or count",
                     id="negative-count"),
        pytest.param({"gammas": [[1, 1]]}, 1, "validation failed: exponent "
                     "vector (1, 1) is single-signed; the zero set does not "
                     "meet the corner of the local model",
                     id="single-signed"),
        pytest.param({"gammas": [[0, 0]]}, 1, "validation failed: 1 smooth "
                     "equations but only 0 tangential directions",
                     id="zero-gamma"),
        pytest.param({"gammas": [[1, -1], [2, -2]]}, 1, "validation failed: "
                     "1 smooth equations but only 0 tangential directions",
                     id="dependent"),
        pytest.param({"gammas": [[1, -1], [2, -2]], "tangential_dim": 1}, 2,
                     "malformed input: binomial system is not in normal "
                     "form, which has gammas [[1, -1]] and smooth_count 1",
                     id="dependent-housed"),
        pytest.param({"gammas": [[0, 0]], "tangential_dim": 1}, 2,
                     "malformed input: binomial system is not in normal "
                     "form, which has gammas [] and smooth_count 1",
                     id="zero-gamma-housed"),
        pytest.param({"gammas": []}, 2, "malformed input: empty system",
                     id="empty")])
    def test_binomial_system_must_be_its_normal_form(
            self, tmp_path, capsys, command, fields, code, message):
        doc = {"kind": "binomial_system", "version": ser.VERSION,
               "boundary_dim": 2, "tangential_dim": 0,
               "gammas": [[1, -1]], "smooth_count": 0}
        path = write(tmp_path, "system.json", {**doc, **fields})
        assert main([*command, path]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("system", [
        {"boundary_dim": 2, "tangential_dim": 0, "gammas": [[2, -3]],
         "smooth_count": 0},
        {"boundary_dim": 2, "tangential_dim": 1, "gammas": [],
         "smooth_count": 1},
        INDEFINITE_RANK2])
    def test_normal_forms_read_back(self, tmp_path, system):
        doc = {"kind": "binomial_system", "version": ser.VERSION, **system}
        path = write(tmp_path, "system.json", doc)
        out = str(tmp_path / "nf.json")
        assert main(["binomial", "normal-form", path, "--out", out]) == 0
        assert read_json(out) == doc

    def test_fiber_pair_systems_read_back(self, tmp_path):
        """Every binomial system that fiber analyze writes is accepted."""
        path = write(tmp_path, "addition.json",
                     fiber_problem_doc(sum_bmap(), sum_bmap()))
        out = str(tmp_path / "rep.json")
        assert main(["fiber", "analyze", path, "--out", out]) == 0
        systems = [q["system"] for q in read_json(out)["pairs"]
                   if q["system"]]
        assert systems
        for system in systems:
            assert ser.binomial_to_doc(ser.binomial_from_doc(system)) == \
                system


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")


def run_blowup(*argv, python_flags=()):
    """A fresh `python -m blowup.cli` process with this checkout's src."""
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "blowup.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, timeout=120)


class TestNoNumpy:
    """Every computation is exact, so nothing loads numpy."""

    def test_import_does_not_load_numpy(self):
        run = subprocess.run(
            [sys.executable, "-c",
             "import sys, blowup, blowup.cli; "
             "print('numpy' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
            text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "False\n"

    def test_no_command_loads_numpy(self, monoid_doc, refinement_doc,
                                    tmp_path):
        """-X importtime names every module the process imports."""
        lc = write(tmp_path, "lc.json", {
            "kind": "lift_check", "version": ser.VERSION,
            "delta": [[1, 1], [3, 2]], "nu": [[1, 0], [1, 1]],
            "mu": [[0, 1], [1, 2]]})
        for argv in (["hilbert", monoid_doc], ["verify", refinement_doc],
                     ["verify", lc]):
            run = run_blowup(*argv, python_flags=("-X", "importtime"))
            assert run.returncode == 0, run.stderr
            assert "blowup.chartcheck" in run.stderr
            assert "numpy" not in run.stderr, argv


class TestExitCodes:
    def test_missing_file(self):
        assert main(["hilbert", "/nonexistent.json"]) == 2

    def test_deep_nesting_is_malformed(self, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text("[" * 200_000)
        run = run_blowup("hilbert", str(p))
        assert run.returncode == 2
        assert run.stdout == ""
        assert "error: malformed input" in run.stderr
        assert "Traceback" not in run.stderr

    @pytest.mark.parametrize("optimize", [(), ("-O",)])
    @pytest.mark.parametrize("n", [10 ** 20, 10 ** 6])
    def test_huge_determinant_is_refused(self, tmp_path, optimize, n):
        """A Hilbert basis simplex of |det| over the bound stops with a
        message before its parallelepiped is enumerated, also under -O
        (10 ** 20 used to raise OverflowError, 10 ** 6 to hang)."""
        path = write(tmp_path, "big.json", {
            "kind": "monoid", "version": ser.VERSION, "ambient_dim": 2,
            "generators": [[1, n], [1, 1], [1, 2]]})
        run = run_blowup("hilbert", path, python_flags=optimize)
        assert run.returncode == 1
        assert run.stdout == ""
        assert run.stderr.strip() == (
            "error: validation failed: a simplex of the Hilbert basis "
            f"triangulation has |det| {n - 1}, over the enumeration bound "
            f"{monoids._MAX_PARALLELEPIPED}")

    @pytest.mark.parametrize("flag, value", [("--star", "1,1"),
                                             ("--planar", "1,-1,0;0,0")])
    def test_subdivide_argument_of_wrong_length(self, tmp_path, capsys,
                                                flag, value):
        path = write(tmp_path, "oct.json",
                     ser.monoid_to_doc(ToricMonoid.free(3)))
        assert main(["subdivide", path, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not ambient_dim 3" in captured.err

    @pytest.mark.parametrize("optimize", [(), ("-O",)])
    @pytest.mark.parametrize("fields, code, message", [
        ('"mu": [[0, 1]], "coefficients": [-1, 1]', 2,
         "error: malformed input: coefficient 0 is -1, not a finite "
         "positive number"),
        ('"mu": [[0, 1]], "coefficients": [1, Infinity]', 2,
         "error: malformed input: coefficient 1 is inf"),
        ('"mu": [[0, 1]], "coefficients": [1]', 2,
         "error: malformed input: 1 coefficients for 2 chart coordinates"),
        ('"mu": [[1, 1]]', 1,
         "error: validation failed: delta = mu @ nu must hold exactly")])
    def test_lift_check_rejected(self, tmp_path, optimize, fields, code,
                                 message):
        """Bad coefficients are malformed input and a wrong mu fails
        validation, each with a message, also under -O."""
        path = tmp_path / "lc.json"
        path.write_text('{"kind": "lift_check", "version": %d, '
                        '"delta": [[1, 1]], "nu": [[1, 0], [1, 1]], %s}'
                        % (ser.VERSION, fields))
        run = run_blowup("verify", str(path), python_flags=optimize)
        assert run.returncode == code
        assert run.stdout == ""
        assert run.stderr.strip().startswith(message), run.stderr

    @pytest.mark.parametrize("optimize", [(), ("-O",)])
    @pytest.mark.parametrize("fields, message", [
        ({"delta": [], "mu": []},
         "delta is 0 x 0, not one or more rows 2 wide (nu is 2 x 2)"),
        ({"nu": [[1, 0]]}, "nu is 1 x 2, not k x k with k >= 1"),
        ({"nu": [[1, 1], [1, 1]]}, "nu (2 x 2) is singular"),
        ({"mu": [[1, 2, 3]]},
         "mu is 1 x 3, not one or more rows 2 wide (nu is 2 x 2)")])
    def test_lift_check_shapes_rejected(self, tmp_path, optimize, fields,
                                        message):
        """A lift_check document of the wrong shapes is malformed input,
        with a message naming the field, also under -O."""
        doc = {"kind": "lift_check", "version": ser.VERSION,
               "delta": [[1, 1]], "nu": [[1, 0], [1, 1]], "mu": [[0, 1]]}
        path = write(tmp_path, "lc.json", {**doc, **fields})
        run = run_blowup("verify", path, python_flags=optimize)
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr.strip() == f"error: malformed input: {message}"

    @pytest.mark.parametrize("optimize", [(), ("-O",)])
    def test_misshapen_face_map_fails_validation(self, tmp_path, optimize):
        """The shape check is not an assert, so it holds under -O."""
        path = tmp_path / "q.json"
        path.write_text(BAD_SHAPE_TEXT)
        run = run_blowup("validate", str(path), python_flags=optimize)
        assert run.returncode == 1
        assert run.stdout == ""
        assert "face map b -> a is not 1 x 1" in run.stderr

    @pytest.mark.parametrize("optimize", [(), ("-O",)])
    @pytest.mark.parametrize("alpha, beta, message", [
        ([1, 1, 0], [0, 2], "exponents are not 3 long"),
        ([1, -1], [0, 1], "negative exponent")])
    def test_malformed_binomial_equation(self, tmp_path, optimize, alpha,
                                         beta, message):
        """The exponent checks are not asserts, so they hold under -O."""
        path = write(tmp_path, "eq.json", {
            "kind": "binomial_input", "version": ser.VERSION,
            "equations": [{"alpha": alpha, "beta": beta}]})
        run = run_blowup("binomial", "normal-form", path,
                         python_flags=optimize)
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr.startswith("error: malformed input: equation")
        assert message in run.stderr

    @pytest.mark.parametrize("optimize", [(), ("-O",)])
    @pytest.mark.parametrize("command", ["hilbert", "verify"])
    @pytest.mark.parametrize("flag", ["--seed", "--tolerance", "--samples"])
    def test_sampling_flags_rejected(self, monoid_doc, refinement_doc,
                                     optimize, command, flag):
        """No command takes the former float sampler's flags, also under
        -O."""
        doc = refinement_doc if command == "verify" else monoid_doc
        run = run_blowup(command, doc, flag, "1", python_flags=optimize)
        assert run.returncode == 2
        assert run.stdout == ""
        assert f"unrecognized arguments: {flag} 1" in run.stderr

    @pytest.mark.parametrize("command", [["binomial", "faces"], ["extend"],
                                         ["fiber", "analyze"], ["verify"]])
    def test_document_that_is_not_an_object(self, tmp_path, capsys,
                                            command):
        p = tmp_path / "list.json"
        p.write_text("[1]")
        assert main([*command, str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            "error: malformed input: document must be a JSON object\n"

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{broken")
        assert main(["hilbert", str(p)]) == 2

    def test_wrong_kind(self, square_doc):
        assert main(["hilbert", square_doc]) == 2

    def test_invalid_complex(self, tmp_path):
        # Well-formed document, but the complex is incomplete.
        m = ToricMonoid.free(2)
        doc = {"kind": "complex", "version": ser.VERSION,
               "elements": [{"id": "a", "monoid": ser.monoid_to_doc(m)}],
               "relations": [], "face_maps": []}
        path = write(tmp_path, "badq.json", doc)
        assert main(["validate", path]) == 1

    def test_invalid_hypersurface_names(self, tmp_path, capsys):
        # The square with faces A, B, AB cut by hypersurfaces H1, H2.
        path = write(tmp_path, "renamed.json",
                     ser.manifold_to_doc(renamed_square()))
        assert main(["validate", path]) == 1
        assert "hypersurface H1 is not a face" in capsys.readouterr().err


class TestRepeatedCalls:
    def test_one_parser_serves_every_call(self, monoid_doc, square_doc,
                                          capsysbinary):
        """Calls in one process build the parser once and print what
        separate processes print, a malformed argument included."""
        runs = [["hilbert", monoid_doc],
                ["blowup", square_doc, "--ordinary", "H1&H2",
                 "--format", "text"],
                ["faces", monoid_doc, "--format", "yaml"],
                ["hilbert", monoid_doc, "--format", "text"]]
        cli._build_parser.cache_clear()
        in_process = []
        for argv in runs:
            code = main(argv)
            out = capsysbinary.readouterr()
            in_process.append((code, out.out, out.err))
        assert [r[0] for r in in_process] == [0, 0, 2, 0]
        assert cli._build_parser.cache_info().misses == 1
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=src)
        for argv, got in zip(runs, in_process):
            alone = subprocess.run(
                [sys.executable, "-m", "blowup.cli", *argv], env=env,
                capture_output=True, timeout=120)
            assert (alone.returncode, alone.stdout, alone.stderr) == got

    def test_documents_do_not_depend_on_the_recent_ring(
            self, well_formed_runs, capsysbinary):
        """The documents of this file's commands are byte-identical when
        each command starts from an empty recent ring (cold) and when it
        runs after all of them (warm)."""
        runs = list(well_formed_runs.values())

        def outputs(cold):
            out = []
            for argv in runs:
                if cold:
                    monoids._recent.clear()
                    gc.collect()
                assert main(argv) == 0, argv
                out.append(capsysbinary.readouterr().out)
            return out

        assert outputs(cold=True) == outputs(cold=False)


class TestInputGrammar:
    """The parser rejects conflicting modes and a --weights without
    --ordinary, and every input document is checked for its kind, its
    version and the type of each count: each exits 2 with a message and
    writes nothing."""

    @pytest.mark.parametrize("command, flags, message", [
        ("subdivide", ["--star", "1,1", "--smooth"],
         "argument --smooth: not allowed with argument --star"),
        ("subdivide", ["--star", "1,1", "--planar", "1,1"],
         "argument --planar: not allowed with argument --star"),
        ("subdivide", ["--planar", "1,1", "--smooth"],
         "argument --smooth: not allowed with argument --planar"),
        ("blowup", ["--ordinary", "H1&H2", "--iterated", "H1&H2,H1"],
         "argument --iterated: not allowed with argument --ordinary"),
        ("blowup", ["--ordinary", "H1&H2", "--refinement", "REF"],
         "argument --refinement: not allowed with argument --ordinary"),
        ("blowup", ["--iterated", "H1&H2", "--refinement", "REF"],
         "argument --refinement: not allowed with argument --iterated"),
        ("blowup", ["--iterated", "H1&H2", "--weights", "1,2"],
         "--weights requires --ordinary"),
        ("blowup", ["--refinement", "REF", "--weights", "1,2"],
         "--weights requires --ordinary"),
        ("blowup", ["--weights", "1,2"], "one of the arguments --ordinary "
         "--iterated --refinement is required")])
    def test_modes_are_exclusive(self, monoid_doc, square_doc,
                                 refinement_doc, tmp_path, capsys, command,
                                 flags, message):
        doc = monoid_doc if command == "subdivide" else square_doc
        flags = [refinement_doc if w == "REF" else w for w in flags]
        out = tmp_path / "out.json"
        assert main([command, doc, *flags, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("field", ["smooth_count", "tangential_dim"])
    @pytest.mark.parametrize("value, message", [
        (True, "not a number: True"), (2.9, "not a number: 2.9"),
        ("two", "bad number 'two'"),
        (-1, "binomial input with a negative count or dimension")])
    def test_binomial_input_counts(self, tmp_path, capsys, field, value,
                                   message):
        path = write(tmp_path, "counts.json",
                     cusp_input_doc(**{field: value}))
        out = tmp_path / "nf.json"
        assert main(["binomial", "normal-form", path, "--out", str(out)]) \
            == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed input: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("make, command", [
        (cusp_input_doc, ["binomial", "normal-form"]),
        (extension_problem_doc, ["extend"]),
        (factor_problem_doc, ["fiber", "factor"]),
        (lambda: dict(LIFT_CHECK), ["verify"])],
        ids=["binomial_input", "extension_problem", "factor_problem",
             "lift_check"])
    @pytest.mark.parametrize("version, message", [
        (99, "unsupported version 99"), ("x", "bad number 'x'"),
        (None, "unsupported version None")],
        ids=["99", "x", "missing"])
    def test_document_versions(self, tmp_path, capsys, make, command,
                               version, message):
        doc = make()
        del doc["version"]
        if version is not None:
            doc["version"] = version
        path = write(tmp_path, "doc.json", doc)
        assert main([*command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: malformed input: {message}\n"


# The first 16 hex digits of the SHA-256 of what each of well_formed_runs
# prints, recorded when the CLI still parsed these four document kinds
# itself and checked its modes by hand.
RECORDED_OUTPUTS = {
    "validate monoid.json": "d464ee6cbd76c342",
    "hilbert monoid.json": "9229e9f12d6eeff2",
    "hilbert monoid.json --format text": "28526311274ee5c1",
    "faces monoid.json": "56128004ff6dc54c",
    "subdivide monoid.json --star 1,1": "974bfd2701cd3c16",
    "subdivide monoid.json --planar 1,1": "974bfd2701cd3c16",
    "subdivide monoid.json --smooth": "ec3266c36ca25049",
    "ns q.json": "b40f90b86b317260",
    "extend ext.json": "0e8c3c8e0ffa4bbc",
    "blowup square.json --ordinary H1&H2": "c39c2f5f0f3b5831",
    "blowup square.json --ordinary H1&H2 --weights 1,2": "e27ba1aa39f3af6f",
    "blowup cube.json --iterated H1&H2&H3,H1&H2": "df5bf4b1d832571a",
    "blowup square.json --refinement ref.json": "614b9ba98545b842",
    "atlas ref.json": "2eb068e4d9d95279",
    "lift f.json --manifold square.json --refinement ref.json":
        "1e9cc43a247af71c",
    "blowup-domain id.json --manifold square.json --refinement ref.json":
        "261eac26698b3ac6",
    "binomial normal-form cusp.json": "85e2d479b00a1a48",
    "binomial normal-form housed.json": "acf279709f2ad152",
    "binomial faces cusp.json": "eea04e8ea9bea315",
    "binomial complex cusp.json": "07aa30ece6004f3d",
    "binomial resolve cusp.json": "b3702cc2274f7011",
    "fiber analyze addition.json": "a63d377a649aa4c0",
    "fiber check-smooth addition.json": "23f6fcae658953c2",
    "fiber resolve addition.json": "3fc90d6f05085ef2",
    "fiber factor factor.json": "578b36c0be92c3f1",
    "verify ref.json": "d32c928f8947b174",
    "verify lc.json": "d32c928f8947b174",
}


class TestRecordedOutputs:
    def test_well_formed_runs_print_the_recorded_bytes(
            self, well_formed_runs, capsysbinary):
        got = {}
        for label, argv in well_formed_runs.items():
            assert main(argv) == 0, label
            got[label] = hashlib.sha256(
                capsysbinary.readouterr().out).hexdigest()[:16]
        assert got == RECORDED_OUTPUTS
