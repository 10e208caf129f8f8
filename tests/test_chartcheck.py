"""Numeric spot checks of atlases and lifted maps."""

import pytest

from blowup import exactla as la
from blowup.chartcheck import CheckReport, SamplePlan, verify_lift, \
    verify_transitions
from blowup.errors import NotCompatible
from blowup.manifolds import corner_model, local_atlas, ordinary_blowup


def atlas_of(face="H1&H2", weights=None, n=2):
    bl, _ = ordinary_blowup(corner_model(n), face, weights)
    return local_atlas(bl.refinement)


class TestTransitions:
    def test_ordinary_blowup(self):
        rep = verify_transitions(atlas_of())
        assert rep.passed
        assert rep.max_rel_error < 1e-9
        assert rep.samples >= 100

    def test_weighted_blowup(self):
        rep = verify_transitions(atlas_of(weights=(2, 3)))
        assert rep.passed

    def test_seed_reproducible(self):
        plan = SamplePlan(seed=5)
        r1 = verify_transitions(atlas_of(), plan)
        r2 = verify_transitions(atlas_of(), plan)
        assert r1.max_rel_error == r2.max_rel_error

    def test_corrupted_transition_fails(self):
        atlas = atlas_of()
        key = next(iter(atlas.transitions))
        t = atlas.transitions[key]
        atlas.transitions[key] = tuple(
            tuple(x + 1 for x in row) for row in t)
        rep = verify_transitions(atlas)
        assert not rep.passed
        assert rep.failures


class TestLift:
    def test_exact_factorization(self):
        nu = la.mat([(1, 0), (1, 1)])
        mu = la.mat([(0, 1), (1, 2)])
        delta = la.mat_mul(mu, nu)
        rep = verify_lift(delta, nu, mu)
        assert rep.passed

    def test_with_coefficients(self):
        nu = la.mat([(1, 0), (1, 1)])
        mu = la.mat([(0, 1)])
        delta = la.mat_mul(mu, nu)
        rep = verify_lift(delta, nu, mu, coefficients=[2.0, 3.0])
        assert rep.passed

    def test_wrong_mu_rejected_exactly(self):
        nu = la.mat([(1, 0), (1, 1)])
        delta = la.mat([(1, 1)])
        with pytest.raises(NotCompatible):
            verify_lift(delta, nu, la.mat([(1, 1)]))

    @pytest.mark.parametrize("coefficients, message", [
        ([-1, 1], "coefficient 0 is -1"),
        ([2.0, 0], "coefficient 1 is 0"),
        ([1, float("nan")], "coefficient 1 is nan"),
        ([float("inf"), 1], "coefficient 0 is inf"),
        ([1, 10 ** 400], "coefficient 1 is 1000"),
        (["2", 1], "coefficient 0 is '2'"),
        ([1.0], "1 coefficients for 2 chart coordinates"),
        ([1, 2, 3], "3 coefficients for 2 chart coordinates")])
    def test_bad_coefficients_rejected(self, coefficients, message):
        nu = la.mat([(1, 0), (1, 1)])
        mu = la.mat([(0, 1)])
        with pytest.raises(ValueError, match=message):
            verify_lift(la.mat_mul(mu, nu), nu, mu,
                        coefficients=coefficients)

    @pytest.mark.parametrize("delta, nu, mu, message", [
        ([], [(1, 0), (0, 1)], [], "delta is 0 x 0"),
        ([(1, 1)], [], [(0, 1)], "nu is 0 x 0"),
        ([(1, 1)], [(1, 0)], [(0, 1)], "nu is 1 x 2"),
        ([(1, 1)], [(1, 0), (1,)], [(0, 1)], "nu is 2 x 1 or 2"),
        ([(1, 1)], [(1, 1), (2, 2)], [(0, 1)], r"nu \(2 x 2\) is singular"),
        ([(1, 1)], [(1, 0), (1, 1)], [(1, 2, 3)], "mu is 1 x 3"),
        ([(1,)], [(1, 0), (1, 1)], [(0, 1)], "delta is 1 x 1"),
        ([(1, 1), (1, 1)], [(1, 0), (1, 1)], [(0, 1)],
         "delta has 2 rows but mu has 1")])
    def test_bad_shapes_rejected(self, delta, nu, mu, message):
        with pytest.raises(ValueError, match=message):
            verify_lift(delta, nu, mu)
