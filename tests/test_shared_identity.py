"""The shared identity of the complex layer: products and images through
it agree with the general routines, and every identity the layer makes is
that one object, so the fast paths engage."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup import exactla as la
from blowup.binomial import normal_form, variety_complex
from blowup.complexes import (assemble_from_local, complex_from_monoid,
                              fiber_product_complex, identity_refinement,
                              image_under, mat_product,
                              natural_smooth_refinement, shared_identity,
                              star_subdivide_complex)
from blowup.errors import BlowupError, InvariantViolated
from blowup.manifolds import corner_model
from blowup.monoids import MonoidHom, ToricMonoid
from blowup.refinements import trivial_refinement

entries = st.integers(-3, 3)


def matrices(rows, cols):
    return st.lists(st.tuples(*[entries] * cols) if cols else st.just(()),
                    min_size=rows, max_size=rows).map(tuple)


def outcome(f, *args):
    """f's value, or the type of the error it raises."""
    try:
        return f(*args)
    except Exception as e:  # compared by type only
        return type(e)


def cone_over_square():
    return ToricMonoid.make(3, la.identity(3),
                            [(1, 0, 0), (1, 1, 0), (1, 0, 1), (1, 1, 1)])


class TestProducts:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_mat_mul(self, data):
        r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
        a = data.draw(matrices(r, k))
        b = data.draw(matrices(k, c))
        assert mat_product(a, b) == la.mat_mul(a, b)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_identity_on_either_side(self, data):
        k, other = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        # A factor of another height or width checks that a shape that
        # does not fit the identity still goes through la.mat_mul.
        height = data.draw(st.sampled_from([k, other]))
        b = data.draw(matrices(height, other))
        a = data.draw(matrices(other, height))
        ident = shared_identity(k)
        assert outcome(mat_product, ident, b) == outcome(la.mat_mul, ident, b)
        assert outcome(mat_product, a, ident) == outcome(la.mat_mul, a, ident)

    def test_other_factor_is_returned(self):
        ident = shared_identity(2)
        b = ((1, 2, 3), (4, 5, 6))
        a = ((1, 2), (3, 4), (5, 6))
        assert mat_product(ident, b) is b
        assert mat_product(a, ident) is a
        assert mat_product(ident, ident) is ident

    def test_empty_matrices_match_mat_mul(self):
        assert shared_identity(0) == ()
        # () is a singleton, and la.mat_mul((), b) is ().
        b = ((1, 2),)
        assert mat_product(shared_identity(0), b) == la.mat_mul((), b) == ()
        assert mat_product(((), ()), shared_identity(0)) == ((), ())
        assert mat_product(((), ()), ()) == la.mat_mul(((), ()), ())


class TestImages:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_image_monoid(self, data):
        d = data.draw(st.integers(1, 3))
        gens = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * d),
                                  min_size=1, max_size=4))
        try:
            m = ToricMonoid.make(d, gens, gens)
        except BlowupError:
            return
        cols = data.draw(st.sampled_from([d, d + 1]))
        mat = data.draw(st.one_of(st.just(shared_identity(d)),
                                  st.just(la.identity(d)),
                                  matrices(d, cols)))
        target = ToricMonoid.trivial(len(mat[0]))
        assert outcome(image_under, m, target, mat) == \
            outcome(lambda: MonoidHom(m, target, mat).image_monoid())

    def test_identity_image_is_the_monoid(self):
        m = cone_over_square()
        assert image_under(m, ToricMonoid.free(3), shared_identity(3)) is m

    @pytest.mark.parametrize("rows, cols", [(4, 3), (3, 4), (2, 3)])
    def test_wrong_width_raises(self, rows, cols):
        with pytest.raises(InvariantViolated):
            image_under(cone_over_square(), ToricMonoid.trivial(cols),
                        shared_identity(rows))


def _identity_homs(morphism):
    return all(morphism.homs[e] is shared_identity(
        morphism.target.monoids[morphism.node_map[e]].ambient_dim)
        for e in morphism.source.elements)


def _star_at_top(q):
    top = max(q.elements, key=lambda a: q.monoids[a].dim)
    return star_subdivide_complex(q, top, q.monoids[top].interior_point())


def _identity_self_maps(q):
    return all(q.face_maps[(a, a)] is shared_identity(q.monoids[a].ambient_dim)
               for a in q.elements)


class TestFastPathEngages:
    """A later edit that builds its own identity passes every other test
    and loses the fast paths; these catch it."""

    def test_assembled_refinements(self):
        q = corner_model(3).basic_complex()
        local = {a: trivial_refinement(m) for a, m in q.monoids.items()}
        star = _star_at_top(q)
        ns = natural_smooth_refinement(complex_from_monoid(
            cone_over_square())[0])
        for r in (assemble_from_local(q, local), star, ns):
            assert _identity_homs(r.morphism)

    def test_identity_refinement(self):
        q, _ = complex_from_monoid(cone_over_square())
        assert _identity_homs(identity_refinement(q).morphism)

    def test_variety_inclusion(self):
        pd, inclusion = variety_complex(
            normal_form([((1, 1, 0, 0), (0, 0, 1, 1))]))
        assert _identity_homs(inclusion)

    def test_self_maps(self):
        q = corner_model(3).basic_complex()
        sq, _ = complex_from_monoid(cone_over_square())
        r = _star_at_top(sq)
        f, _, _ = fiber_product_complex(r.morphism, r.morphism)
        pd, _ = variety_complex(normal_form([((1, 0), (0, 1))]))
        for c in (q, sq, r.source, f, pd):
            assert _identity_self_maps(c)
