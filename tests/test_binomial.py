"""Tests for binomial systems: face detection, variety complexes and
resolutions, with brute-force oracles where possible."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup import exactla as la
from blowup.binomial import (BinomialSystem, boundary_faces, normal_form,
                             resolve, universal_resolution, variety_complex)
from blowup.complexes import natural_smooth_refinement
from blowup.errors import (DependentDifferentials, InvariantViolated,
                           NotInSupport, NotSmooth)
from blowup.manifolds import corner_model
from blowup.monoids import ToricMonoid

from test_exactla import fm_feasible


def diagonal():
    return normal_form([((1, 0), (0, 1))])


def cusp():
    return normal_form([((2, 0), (0, 3))])


def addition_pattern():
    # x1 x2 = x3 x4
    return normal_form([((1, 1, 0, 0), (0, 0, 1, 1))])


def ten_variable_pairs():
    """x1 = x10, x2 = x3, x4 = x5, x6 = x7, x8 = x9.  Face ids sort as
    strings, so H10 comes between H1 and H2 in every axis order."""
    pairs = []
    for i, j in ((1, 10), (2, 3), (4, 5), (6, 7), (8, 9)):
        alpha, beta = [0] * 10, [0] * 10
        alpha[i - 1] = beta[j - 1] = 1
        pairs.append((tuple(alpha), tuple(beta)))
    return pairs


def grid_witnesses(basis, bound=4):
    """All integer combinations of the kernel basis with small
    coefficients: a brute-force substitute for the LP."""
    k = len(basis)
    for c in itertools.product(range(-bound, bound + 1), repeat=k):
        yield la.apply_row(c, basis)


def faces_by_grid(b: BinomialSystem, bound=4):
    """Boundary faces found by grid search over kernel directions."""
    n = b.boundary_dim
    basis = boundary_faces(b).kernel_basis
    found = {()}
    if not basis:
        return found
    for w in grid_witnesses(basis, bound):
        s = tuple(i for i in range(n) if w[i] < 0)
        if s and all(w[j] == 0 for j in range(n) if j not in s):
            found.add(s)
    return found


def kernel_rows(gammas, n):
    """Integer rows spanning the common kernel of gammas in Q^n."""
    if not gammas:
        return la.identity(n)
    return tuple(la.clear_denominators(u)
                 for u in la.right_kernel_q(la.mat(gammas)))


def faces_by_lp(b: BinomialSystem):
    """The former boundary_faces, kept as a reference: one exact LP per
    coordinate subset S, for some w in W with w_i < 0 on S and w_j = 0 off
    S, solved by Fourier-Motzkin elimination.  Maps each met subset, in
    order of size and then lexicographically, to the key of its face
    monoid Z_+^S cap ker(gamma|_S)."""
    n = b.boundary_dim
    basis = kernel_rows(b.gammas, n)
    out = {}
    for size in range(n + 1):
        for sub in itertools.combinations(range(n), size):
            strict = [tuple(-r[i] for r in basis) for i in sub]
            zero = [tuple(r[j] for r in basis)
                    for j in range(n) if j not in sub]
            if sub and (not basis or fm_feasible(
                    len(basis), strict=strict, zero=zero) is None):
                continue
            restricted = [g for g in (tuple(g[i] for i in sub)
                                      for g in b.gammas) if any(g)]
            if not sub:
                m = ToricMonoid.trivial(0)
            elif not restricted:
                m = ToricMonoid.free(size)
            else:
                m = ToricMonoid.free(size).intersect_with_subspace(
                    kernel_rows(restricted, size))
            out[sub] = m.key
    return out


class TestNormalForm:
    def test_diagonal(self):
        b = diagonal()
        assert b.gammas == ((1, -1),)
        assert b.smooth_count == 0
        assert b.codim == 1

    def test_zero_difference_needs_tangential(self):
        with pytest.raises(DependentDifferentials):
            normal_form([((1, 0), (1, 0))])
        b = normal_form([((1, 0), (1, 0))], tangential_dim=1)
        assert b.gammas == ()
        assert b.smooth_count == 1

    def test_dependent_difference_becomes_smooth(self):
        b = normal_form([((1, 0), (0, 1)), ((2, 0), (0, 2))],
                        tangential_dim=1)
        assert b.gammas == ((1, -1),)
        assert b.smooth_count == 1

    def test_single_signed_rejected(self):
        with pytest.raises(NotInSupport):
            normal_form([((1, 1), (0, 0))])

    def test_cusp(self):
        assert cusp().gammas == ((2, -3),)


class TestBoundaryFaces:
    def test_diagonal_faces(self):
        vc = boundary_faces(diagonal())
        assert set(vc.faces) == {(), (0, 1)}
        w = vc.faces[(0, 1)].witness
        assert w[0] < 0 and w[1] < 0

    def test_cusp_faces(self):
        vc = boundary_faces(cusp())
        assert set(vc.faces) == {(), (0, 1)}
        m = vc.faces[(0, 1)].monoid
        assert m.rays == ((3, 2),)

    def test_witnesses_are_valid(self):
        rng = random.Random(21)
        for b in random_systems(rng, 20):
            vc = boundary_faces(b)
            for sub, vf in vc.faces.items():
                if not sub:
                    continue
                w = vf.witness
                assert all(w[i] < 0 for i in sub)
                assert all(w[j] == 0 for j in range(b.boundary_dim)
                           if j not in sub)
                for g in b.gammas:
                    assert la.dot(w, g) == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_per_subset_search(self, seed):
        """The faces of R_+^n cap W give the subsets and face monoids that
        one LP per subset finds, in the same order, and each witness is
        primitive, in W and negative exactly on its subset."""
        b, = random_systems(random.Random(seed), 1, max_dim=5)
        vc = boundary_faces(b)
        expected = faces_by_lp(b)
        assert [(s, f.monoid.key) for s, f in vc.faces.items()] == \
            list(expected.items())
        for sub, vf in vc.faces.items():
            w = vf.witness
            assert la.vec_gcd(w) == (1 if sub else 0)
            assert all((w[i] < 0) == (i in sub) and w[i] <= 0
                       for i in range(b.boundary_dim))
            assert all(la.dot(w, g) == 0 for g in b.gammas)

    def test_grid_oracle_subset(self):
        rng = random.Random(22)
        for b in random_systems(rng, 20):
            detected = set(boundary_faces(b).faces)
            assert faces_by_grid(b) <= detected


def random_systems(rng, count, max_dim=4):
    out = []
    while len(out) < count:
        n = rng.randint(2, max_dim)
        k = rng.randint(1, 2)
        pairs = []
        for _ in range(k):
            alpha = tuple(rng.randint(0, 2) for _ in range(n))
            beta = tuple(rng.randint(0, 2) for _ in range(n))
            pairs.append((alpha, beta))
        try:
            out.append(normal_form(pairs, tangential_dim=k))
        except (NotInSupport, ValueError):
            continue
    return out


class TestVarietyComplex:
    def test_diagonal(self):
        pd, inc = variety_complex(diagonal())
        pd.validate()
        inc.validate()
        assert pd.is_smooth()
        corner = pd.monoids["H1&H2"]
        assert corner.rays == ((1, 1),)

    def test_addition_pattern_not_smooth(self):
        pd, _ = variety_complex(addition_pattern())
        pd.validate()
        assert not pd.is_smooth()
        corner = pd.monoids["H1&H2&H3&H4"]
        assert sorted(corner.rays) == [(0, 1, 0, 1), (0, 1, 1, 0),
                                       (1, 0, 0, 1), (1, 0, 1, 0)]
        assert not corner.is_simplicial()

    def test_ten_variables(self):
        """Each element's monoid is its face's section in the basic
        complex of the corner model: the free monoid on the face's axes,
        in the model's axis order, cut by the restricted exponents."""
        b = normal_form(ten_variable_pairs())
        pd, inc = variety_complex(b)
        pd.validate()
        inc.validate()
        assert len(pd.elements) == 32
        x = corner_model(10)
        for e in pd.elements:
            coords = [int(h[1:]) - 1 for h in x.axes(e)]
            restricted = [r for r in (tuple(g[i] for i in coords)
                                      for g in b.gammas) if any(r)]
            section = inc.target.monoids[e]
            if restricted:
                section = section.intersect_with_subspace(
                    kernel_rows(restricted, len(coords)))
            assert pd.monoids[e] == section


class TestResolve:
    def test_diagonal_universal(self):
        res = universal_resolution(diagonal())
        assert res.universal
        res.refinement.validate()
        assert res.refinement.source.is_smooth()
        # The ambient refinement is the star subdivision at (1, 1).
        tops = [e for e in res.refinement.members_over("H1&H2")
                if res.refinement.source.monoids[e].dim == 2]
        assert len(tops) == 2
        rays = {g for e in tops
                for g in res.refinement.morphism.image_in(
                    e, "H1&H2").rays}
        assert (1, 1) in rays
        assert all(s in (-1, 0, 1) for s in res.chart_signs.values())

    def test_cusp_universal(self):
        res = universal_resolution(cusp())
        res.refinement.validate()
        rays = {g for e in res.refinement.members_over("H1&H2")
                for g in res.refinement.morphism.image_in(
                    e, "H1&H2").rays}
        assert (3, 2) in rays

    def test_lifted_elements_restrict_to_variety(self):
        res = universal_resolution(diagonal())
        assert res.lifted
        # Every lifted element carries a smooth monoid.
        for e in res.lifted:
            assert res.refinement.source.monoids[e].is_smooth()

    def test_addition_pattern_needs_choice(self):
        # No universal resolution; the default choice (the natural smooth
        # refinement of the variety complex) works.
        b = addition_pattern()
        with pytest.raises(NotSmooth):
            universal_resolution(b)
        res = resolve(b)
        res.refinement.validate()
        assert res.refinement.source.is_smooth()
        assert res.lifted

    def test_random_resolutions(self):
        rng = random.Random(23)
        for b in random_systems(rng, 8, max_dim=3):
            res = resolve(b)
            assert res.refinement.source.is_smooth()
            assert all(s in (-1, 0, 1)
                       for s in res.chart_signs.values())

    @pytest.mark.xfail(strict=True, raises=InvariantViolated, reason=(
        "resolve cuts the ambient complex only by the common kernel of "
        "the exponent vectors, so with two independent ones a chart can "
        "lie across one of their hyperplanes: indefinite transformed "
        "exponent in chart H1&H2/0/0/0"))
    def test_rank_two_systems_resolve(self):
        """Two systems with two independent exponent vectors, which
        test_random_resolutions does not draw: x1^2 x2 = x1 x2^2,
        x1 = x2^2, and one in three variables."""
        systems = [normal_form([((2, 1), (1, 2)), ((1, 0), (0, 2))]),
                   normal_form([((0, 2, 2), (1, 0, 2)),
                                ((1, 1, 0), (2, 0, 0))], tangential_dim=2)]
        for b in systems:
            assert len(b.gammas) == 2
            res = resolve(b)
            assert res.refinement.source.is_smooth()
            assert all(s in (-1, 0, 1)
                       for s in res.chart_signs.values())
