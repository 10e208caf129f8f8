"""Round-trip and schema tests for the JSON document layer."""

import json
import re

import pytest

from blowup import errors
from blowup import exactla as la
from blowup import serialization as ser
from blowup.binomial import normal_form
from blowup.complexes import complex_from_monoid, star_subdivide_complex
from blowup.manifolds import corner_model, identity_bmap, ordinary_blowup
from blowup.monoids import ToricMonoid
from blowup.serialization import MalformedDocument


def roundtrip(obj):
    doc = ser.to_doc(obj)
    text = ser.dumps(doc)
    return ser.parse_doc(ser.loads(text))


class TestRoundtrip:
    def test_monoid(self):
        m = ToricMonoid.make(2, la.identity(2), [(1, 0), (1, 2)])
        assert roundtrip(m) == m

    def test_monoid_with_sublattice(self):
        m = ToricMonoid.make(2, la.mat([(1, 1)]), [(2, 2)])
        back = roundtrip(m)
        assert back == m
        assert not back.contains((1, 0))

    def test_complex(self):
        q, _ = complex_from_monoid(ToricMonoid.free(2))
        back = roundtrip(q)
        back.validate()
        assert back is not q
        assert back == q

    def test_refinement(self):
        q, _ = complex_from_monoid(ToricMonoid.free(2))
        top = max(q.elements, key=lambda a: q.monoids[a].dim)
        r = star_subdivide_complex(q, top, (1, 1))
        back = roundtrip(r)
        back.validate()
        assert set(back.members_over(top)) == set(r.members_over(top))

    def test_manifold(self):
        x = corner_model(3)
        back = roundtrip(x)
        back.validate()
        assert back is not x
        assert back == x

    def test_bmap(self):
        bl, _ = ordinary_blowup(corner_model(2), "H1&H2")
        back = roundtrip(bl.blowdown)
        back.validate()
        assert back == bl.blowdown

    def test_binomial(self):
        b = normal_form([((2, 0), (0, 3))])
        assert roundtrip(b) == b

    def test_canonical_text_stable(self):
        m = ToricMonoid.free(2)
        t1 = ser.dumps(ser.to_doc(m))
        t2 = ser.dumps(ser.to_doc(roundtrip(m)))
        assert t1 == t2


class TestBigNumbers:
    def test_big_int_as_string(self):
        n = 2 ** 80
        assert ser._enc_int(n) == str(n)
        assert ser._dec_int(str(n), "n") == n
        assert ser._enc_int(7) == 7

    def test_fraction_encoding(self):
        from fractions import Fraction
        assert ser._enc_num(Fraction(1, 3)) == "1/3"
        assert ser._dec_num("1/3", "x") == Fraction(1, 3)

    def test_big_generator_roundtrip(self):
        big = 2 ** 60 + 1
        m = ToricMonoid.make(1, la.mat([(big,)]), [(big,)])
        back = roundtrip(m)
        assert back.contains((big,))
        assert not back.contains((1,))


class TestMalformed:
    def test_bad_json(self):
        with pytest.raises(MalformedDocument):
            ser.loads("{not json")

    def test_unknown_kind(self):
        with pytest.raises(MalformedDocument):
            ser.parse_doc({"kind": "nonsense", "version": 1})

    def test_missing_kind(self):
        with pytest.raises(MalformedDocument):
            ser.parse_doc({"version": 1})

    def test_wrong_version(self):
        doc = ser.to_doc(ToricMonoid.free(1))
        doc["version"] = 999
        with pytest.raises(MalformedDocument):
            ser.parse_doc(doc)

    def test_non_integer_entry(self):
        doc = ser.to_doc(ToricMonoid.free(1))
        doc["generators"] = [["1/2"]]
        with pytest.raises(MalformedDocument):
            ser.parse_doc(doc)

    @pytest.mark.parametrize("value", [True, 1.0])
    @pytest.mark.parametrize("steps, path", [
        (("ambient_dim",), "monoid.ambient_dim"),
        (("generators", 0, 0), "monoid.generators[0][0]"),
        (("version",), "monoid.version")])
    def test_bool_is_not_a_number(self, value, steps, path):
        """A boolean or a float where a number belongs is malformed,
        named by its path, as the field reader owns the number type."""
        doc = ser.to_doc(ToricMonoid.free(1))
        node = doc
        for k in steps[:-1]:
            node = node[k]
        node[steps[-1]] = value
        with pytest.raises(MalformedDocument) as e:
            ser.parse_doc(doc)
        assert str(e.value) == f"{path}: expected a number"

    @pytest.mark.parametrize("doc, steps, value, message", [
        (ser.to_doc(ToricMonoid.free(2)), ("generators", 1, 0), "two",
         "monoid.generators[1][0]: bad number 'two'"),
        (ser.to_doc(ToricMonoid.free(2)), ("ambient_dim",), "1/2",
         "monoid.ambient_dim: expected an integer, got '1/2'"),
        (ser.to_doc(identity_bmap(corner_model(1))), ("alpha", 0, "e"), "x",
         "bmap.alpha[0].e: bad number 'x'"),
        (ser.to_doc(complex_from_monoid(ToricMonoid.free(1))[0]),
         ("elements", 1, "monoid", "version"), "v",
         "complex.elements[1].monoid.version: bad number 'v'")],
        ids=["matrix-entry", "integer", "bmap-exponent", "nested-version"])
    def test_number_strings_are_named_by_their_path(self, doc, steps, value,
                                                    message):
        node = doc
        for k in steps[:-1]:
            node = node[k]
        node[steps[-1]] = value
        with pytest.raises(MalformedDocument) as e:
            ser.parse_doc(doc)
        assert str(e.value) == message

    def test_one_exception_type(self):
        assert MalformedDocument is errors.MalformedDocument
        assert not issubclass(MalformedDocument, errors.BlowupError)

    @pytest.mark.parametrize("field, value, message", [
        ("kind", "complex", "expected kind 'monoid', got 'complex'"),
        ("version", 99, "unsupported version 99")])
    def test_nested_documents_are_named_by_their_path(self, field, value,
                                                      message):
        doc = ser.to_doc(complex_from_monoid(ToricMonoid.free(1))[0])
        doc["elements"][1]["monoid"][field] = value
        with pytest.raises(MalformedDocument, match=re.escape(
                f"complex.elements[1].monoid: {message}")):
            ser.parse_doc(doc)

    @pytest.mark.parametrize("field", ["relations", "face_maps"])
    def test_pairs_name_elements_of_the_complex(self, field):
        doc = ser.to_doc(complex_from_monoid(ToricMonoid.free(1))[0])
        if field == "relations":
            doc["relations"][0][1] = "nowhere"
            where = "complex.relations[0]"
        else:
            doc["face_maps"][0]["pair"][1] = "nowhere"
            where = "complex.face_maps[0].pair"
        with pytest.raises(MalformedDocument, match=re.escape(
                f"{where}: 'nowhere' is not an element id")):
            ser.parse_doc(doc)

    @pytest.mark.parametrize("doc, message", [
        ([1], "document must be a JSON object"),
        ({"kind": ["monoid"]}, "kind: expected a string"),
        ({"version": 1}, "unknown document kind None")])
    def test_root_of_a_document(self, doc, message):
        with pytest.raises(MalformedDocument, match=f"^{re.escape(message)}$"):
            ser.parse_doc(doc)

    @pytest.mark.parametrize("rows", [[[1, 0], [1]], [[1, 0], "01"], "01"])
    def test_rows_must_be_lists_of_one_length(self, rows):
        """Integer and rational matrices alike, named by their field."""
        monoid = ser.to_doc(ToricMonoid.free(2))
        lift_check = {"kind": "lift_check", "version": ser.VERSION,
                      "delta": [[1, 0]], "nu": [[1, 0], [0, 1]],
                      "mu": [[1, 0]]}
        for doc, field, decode in (
                (monoid, "generators", ser.monoid_from_doc),
                (lift_check, "nu", ser.lift_check_from_doc)):
            with pytest.raises(MalformedDocument, match=(
                    f"^{doc['kind']}.{field}: expected a list of equally "
                    "long rows$")):
                decode({**doc, field: rows})
