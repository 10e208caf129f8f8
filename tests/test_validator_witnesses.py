"""One witness input for each validator branch that no other test reaches.

Each test builds the smallest object that breaks exactly one axiom, so
that it passes every check before the branch under test and fails there
with that branch's message.  Loosening or skipping the branch makes its
test fail.
"""

import pytest

from blowup import exactla as la
from blowup.complexes import (ComplexMorphism, ComplexRefinement,
                              MonoidalComplex, complex_from_monoid)
from blowup.errors import NotAComplex, NotARefinement
from blowup.manifolds import BMap, corner_model
from blowup.monoids import ToricMonoid

ONE = la.identity(1)


def ray_complex(points=("o",)):
    """The ray Z_+ at "r", with each given point below it."""
    monoids = {"r": ToricMonoid.free(1)}
    monoids.update({p: ToricMonoid.trivial(1) for p in points})
    return MonoidalComplex(monoids, [(p, "r") for p in points],
                           {(p, "r"): ONE for p in points})


def test_two_points_below_one_ray_are_not_reduced():
    q = ray_complex(points=("o", "p"))
    with pytest.raises(NotAComplex, match="complex is not reduced: face "
                       r"\(\) of r has several preimages"):
        q.validate()


def test_face_map_onto_an_interior_ray_is_not_a_face():
    q = MonoidalComplex(
        {"o": ToricMonoid.trivial(1), "r": ToricMonoid.free(1),
         "q": ToricMonoid.free(2)},
        [("o", "r"), ("r", "q"), ("o", "q")],
        {("o", "r"): ONE, ("r", "q"): ((1, 1),), ("o", "q"): ((1, 1),)})
    with pytest.raises(NotAComplex, match=r"image of r in q is not a face: "
                       r"\(\(1, 1\),\)"):
        q.validate()


def test_exponent_minus_one_is_negative():
    x = corner_model(1)
    f = BMap(x, x, {"X": "X", "H1": "H1"}, {("H1", "H1"): -1})
    with pytest.raises(NotAComplex, match=r"negative exponent "
                       r"alpha\(H1, H1\)"):
        f.validate()


def test_two_refinement_elements_with_one_image():
    """Two rays of the source over the one ray of the target."""
    target = ray_complex()
    source = MonoidalComplex(
        {"o": ToricMonoid.trivial(1), "r1": ToricMonoid.free(1),
         "r2": ToricMonoid.free(1)},
        [("o", "r1"), ("o", "r2")],
        {("o", "r1"): ONE, ("o", "r2"): ONE})
    r = ComplexRefinement(ComplexMorphism(
        source, target, {"o": "o", "r1": "r", "r2": "r"},
        {"o": ONE, "r1": ONE, "r2": ONE}))
    with pytest.raises(NotARefinement,
                       match="two elements have the same image in r"):
        r.validate()


def test_refinement_hom_into_a_proper_face():
    """A ray sent to the quadrant, onto its facet (1, 0)."""
    quadrant, faces = complex_from_monoid(ToricMonoid.free(2))
    top = next(e for e, m in faces.items() if m.dim == 2)
    zero = next(e for e, m in faces.items() if m.dim == 0)
    r = ComplexRefinement(ComplexMorphism(
        ray_complex(), quadrant, {"o": zero, "r": top},
        {"o": ((1, 0),), "r": ((1, 0),)}))
    with pytest.raises(NotARefinement,
                       match="r maps into a proper face of its target"):
        r.validate()
