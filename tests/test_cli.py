"""End-to-end tests of the command line interface."""

import gc
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
from blowup.complexes import complex_from_monoid, star_subdivide_complex
from blowup.manifolds import BMap, corner_model, identity_bmap, \
    ordinary_blowup
from blowup.monoids import ToricMonoid

from test_binomial import ten_variable_pairs
from test_fuzz import BAD_SHAPE_TEXT
from test_manifolds import renamed_square
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
        q, _ = complex_from_monoid(ToricMonoid.free(3))
        facet = next(a for a in q.elements
                     if q.monoids[a].rays == ((0, 1, 0), (1, 0, 0)))
        from blowup.refinements import star_subdivide, trivial_refinement
        closed = list(q.below(facet))
        given = []
        for a in closed:
            r = (star_subdivide(q.monoids[a], (1, 1, 0)) if a == facet
                 else trivial_refinement(q.monoids[a]))
            given.append({"id": a,
                          "members": [ser.monoid_to_doc(m)
                                      for m in r.members]})
        doc = {"kind": "extension_problem", "version": ser.VERSION,
               "complex": ser.complex_to_doc(q), "given": given}
        path = write(tmp_path, "ext.json", doc)
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
        doc = {"kind": "binomial_input", "version": ser.VERSION,
               "equations": [{"alpha": [2, 0], "beta": [0, 3]}]}
        return write(tmp_path, "cusp.json", doc)

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
        f = sum_bmap()
        z = corner_model(1, prefix="G")
        g = BMap(z, f.source, {"X": "X", "G1": "H1"}, {("G1", "H1"): 1})
        doc = {"kind": "factor_problem", "version": ser.VERSION,
               "f1": ser.bmap_to_doc(f), "f2": ser.bmap_to_doc(f),
               "g1": ser.bmap_to_doc(g), "g2": ser.bmap_to_doc(g)}
        path = write(tmp_path, "factor.json", doc)
        out = str(tmp_path / "fact.json")
        assert main(["fiber", "factor", path, "--out", out]) == 0
        back = read_json(out)
        assert back["domain_blowup"] is None


class TestVerifyCommand:
    def test_refinement_atlas(self, refinement_doc, tmp_path):
        out = str(tmp_path / "ver.json")
        assert main(["verify", refinement_doc, "--samples", "120",
                     "--out", out]) == 0
        doc = read_json(out)
        assert doc["passed"] is True
        assert doc["samples"] >= 120

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


SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src")


def run_blowup(*argv, python_flags=()):
    """A fresh `python -m blowup.cli` process with this checkout's src."""
    return subprocess.run(
        [sys.executable, *python_flags, "-m", "blowup.cli", *argv],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
        text=True, timeout=120)


class TestNumpyOnlyForVerify:
    """numpy serves only the numeric verifier, so nothing else loads it."""

    def test_import_does_not_load_numpy(self):
        run = subprocess.run(
            [sys.executable, "-c",
             "import sys, blowup, blowup.cli; "
             "print('numpy' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
            text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "False\n"

    def test_only_verify_loads_numpy(self, monoid_doc, tmp_path):
        """-X importtime names every module the process imports."""
        hilbert = run_blowup("hilbert", monoid_doc,
                             python_flags=("-X", "importtime"))
        assert hilbert.returncode == 0, hilbert.stderr
        assert "blowup.chartcheck" in hilbert.stderr
        assert "numpy" not in hilbert.stderr
        lc = write(tmp_path, "lc.json", {
            "kind": "lift_check", "version": ser.VERSION,
            "delta": [[1, 1], [3, 2]], "nu": [[1, 0], [1, 1]],
            "mu": [[0, 1], [1, 2]]})
        verify = run_blowup("verify", lc, python_flags=("-X", "importtime"))
        assert verify.returncode == 0, verify.stderr
        assert json.loads(verify.stdout)["passed"] is True
        assert "numpy" in verify.stderr


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
    @pytest.mark.parametrize("flag, message", [
        ("--samples=0", "sample count 0 is not positive"),
        ("--tolerance=0", "tolerance 0.0 is not positive"),
        ("--tolerance=-1", "tolerance -1.0 is not positive"),
        ("--tolerance=nan", "tolerance nan is not positive")])
    def test_invalid_verify_flags(self, refinement_doc, optimize, flag,
                                  message):
        """A sample plan that would check nothing is malformed input, also
        under -O."""
        run = run_blowup("verify", refinement_doc, flag,
                         python_flags=optimize)
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr == f"error: malformed input: {message}\n"

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
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
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
            self, monoid_doc, square_doc, refinement_doc, tmp_path,
            capsysbinary):
        """The documents of this file's commands are byte-identical when
        each command starts from an empty recent ring (cold) and when it
        runs after all of them (warm)."""
        cusp = write(tmp_path, "cusp.json", {
            "kind": "binomial_input", "version": ser.VERSION,
            "equations": [{"alpha": [2, 0], "beta": [0, 3]}]})
        f = sum_bmap()
        addition = write(tmp_path, "addition.json",
                         fiber_problem_doc(f, f))
        cube = write(tmp_path, "cube.json",
                     ser.manifold_to_doc(corner_model(3)))
        lift = write(tmp_path, "f.json", ser.bmap_to_doc(BMap(
            corner_model(1), corner_model(2), {"X": "X", "H1": "H1&H2"},
            {("H1", "H1"): 1, ("H1", "H2"): 2})))
        identity = write(tmp_path, "id.json",
                         ser.bmap_to_doc(identity_bmap(corner_model(2))))
        q, _ = complex_from_monoid(ToricMonoid.make(
            3, la.identity(3), [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]))
        square_cone = write(tmp_path, "q.json", ser.complex_to_doc(q))
        g = BMap(corner_model(1, prefix="G"), f.source,
                 {"X": "X", "G1": "H1"}, {("G1", "H1"): 1})
        factor = write(tmp_path, "factor.json", {
            "kind": "factor_problem", "version": ser.VERSION,
            "f1": ser.bmap_to_doc(f), "f2": ser.bmap_to_doc(f),
            "g1": ser.bmap_to_doc(g), "g2": ser.bmap_to_doc(g)})
        runs = [["validate", monoid_doc], ["hilbert", monoid_doc],
                ["faces", monoid_doc],
                ["subdivide", monoid_doc, "--star", "1,1"],
                ["blowup", square_doc, "--ordinary", "H1&H2"],
                ["blowup", cube, "--iterated", "H1&H2&H3,H1&H2"],
                ["blowup", square_doc, "--refinement", refinement_doc],
                ["atlas", refinement_doc], ["ns", square_cone],
                ["lift", lift, "--manifold", square_doc,
                 "--refinement", refinement_doc],
                ["blowup-domain", identity, "--manifold", square_doc,
                 "--refinement", refinement_doc],
                ["binomial", "normal-form", cusp],
                ["binomial", "faces", cusp], ["binomial", "complex", cusp],
                ["binomial", "resolve", cusp],
                ["fiber", "analyze", addition],
                ["fiber", "check-smooth", addition],
                ["fiber", "resolve", addition], ["fiber", "factor", factor]]

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
