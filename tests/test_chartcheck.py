"""Exact checks of atlases and lifted maps, against a float oracle."""

import functools
import importlib.util
import os
import random

import numpy as np
import pytest

from blowup import exactla as la
from blowup.chartcheck import CheckReport, verify_lift, verify_transitions
from blowup.errors import MalformedDocument, NotCompatible
from blowup.manifolds import corner_model, local_atlas, ordinary_blowup

WORKLOADS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench", "workloads.py")


def atlas_of(face="H1&H2", weights=None, n=2):
    bl, _ = ordinary_blowup(corner_model(n), face, weights)
    return local_atlas(bl.refinement)


def float_failures(atlas, count=100, seed=0, tolerance=1e-9):
    """The float oracle: sample points t in [0.1, 10]^n and compare, in
    log space, each transition's round trip with t and the two charts'
    blow-downs across it.  Meaningful on small entries only; large ones
    overflow."""
    rng = np.random.default_rng(seed)

    def to_float(m):
        return np.array([[float(x) for x in row] for row in m], dtype=float)

    def rel_err(a, b):
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
        return float(np.max(np.abs(a - b) / scale))

    nus = {e: to_float(c.nu) for e, c in atlas.charts.items()}
    failures = []
    for (e1, e2), t12 in atlas.transitions.items():
        m12 = to_float(t12)
        m21 = to_float(atlas.transitions[(e2, e1)])
        logt = rng.uniform(np.log(0.1), np.log(10.0), (count, atlas.n))
        err = rel_err(np.exp(logt @ m12 @ m21), np.exp(logt))
        if err > tolerance:
            failures.append(f"round trip {e1}->{e2}: error {err:.3e}")
        err = rel_err(np.exp(logt @ nus[e1]), np.exp(logt @ m12 @ nus[e2]))
        if err > tolerance:
            failures.append(f"blow-down mismatch {e1}->{e2}: "
                            f"error {err:.3e}")
    return failures


@functools.cache
def random_blowup():
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.random_blowup


def criterion_8(i):
    """The i-th of the six atlases of acceptance criterion 8."""
    if i < 3:
        return atlas_of(weights=(None, (1, 2), (2, 3))[i])
    rng = random.Random(5003)
    for _ in range(i - 2):
        r = random_blowup()(corner_model(3), rng).refinement
    return local_atlas(r)


def random_draw(n, i):
    rng = random.Random(2100 + 10 * n + i)
    return local_atlas(random_blowup()(corner_model(n), rng).refinement)


ATLASES = {**{f"criterion8-{i}": functools.partial(criterion_8, i)
              for i in range(6)},
           **{f"random-n{n}-{i}": functools.partial(random_draw, n, i)
              for n in (2, 3, 4) for i in range(2)}}


@functools.cache
def atlas_named(name):
    return ATLASES[name]()


class TestTransitions:
    def test_ordinary_blowup(self):
        rep = verify_transitions(atlas_of())
        assert rep.failures == []
        assert rep.passed

    def test_weighted_blowup(self):
        rep = verify_transitions(atlas_of(weights=(2, 3)))
        assert rep.passed

    def test_corrupted_transition_fails(self):
        atlas = atlas_of()
        key = next(iter(atlas.transitions))
        t = atlas.transitions[key]
        atlas.transitions[key] = tuple(
            tuple(x + 1 for x in row) for row in t)
        rep = verify_transitions(atlas)
        assert not rep.passed
        assert rep.failures == [f"blow-down mismatch {key[0]}->{key[1]}: "
                                f"transition @ nu({key[1]}) != "
                                f"nu({key[0]})"]

    def test_missing_reverse_transition_fails(self):
        atlas = atlas_of()
        e1, e2 = next(iter(atlas.transitions))
        del atlas.transitions[(e2, e1)]
        assert verify_transitions(atlas).failures == [
            f"round trip {e1}->{e2}: no transition {e2}->{e1}"]

    def test_every_violation_is_reported(self):
        atlas = atlas_of(weights=(2, 3))
        for key, t in list(atlas.transitions.items()):
            atlas.transitions[key] = la.mat_mul(t, ((2, 0), (0, 1)))
        rep = verify_transitions(atlas)
        assert len(rep.failures) == len(atlas.transitions) >= 2


class TestFloatOracle:
    """The exact check agrees with float sampling on atlases whose entries
    are small, intact or with one transition entry off by one."""

    @pytest.mark.parametrize("name", ATLASES)
    def test_agrees_on_intact_atlas(self, name):
        atlas = atlas_named(name)
        assert len(atlas.charts) >= 2
        assert verify_transitions(atlas).failures == []
        assert float_failures(atlas) == []

    @pytest.mark.parametrize("name", ATLASES)
    def test_agrees_on_each_corruption(self, name):
        atlas = atlas_named(name)
        key = sorted(atlas.transitions)[0]
        t = atlas.transitions[key]
        pair = f"{key[0]}->{key[1]}"
        try:
            for i, j in np.ndindex(len(t), len(t[0])):
                for step in (1, -1):
                    atlas.transitions[key] = tuple(
                        tuple(x + step if (r, c) == (i, j) else x
                              for c, x in enumerate(row))
                        for r, row in enumerate(t))
                    exact = verify_transitions(atlas).failures
                    oracle = float_failures(atlas)
                    assert any(pair in f for f in exact), (i, j, step)
                    assert any(pair in f for f in oracle), (i, j, step)
        finally:
            atlas.transitions[key] = t


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

    def test_large_exponents_and_coefficients(self):
        """Entries whose powers overflow a float."""
        nu = la.mat([(1, 0), (1, 1)])
        mu = la.mat([(60, 0), (0, 60)])
        rep = verify_lift(la.mat_mul(mu, nu), nu, mu,
                          coefficients=[1e300, 1.0])
        assert rep == CheckReport([])

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
        with pytest.raises(MalformedDocument, match=message):
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
        with pytest.raises(MalformedDocument, match=message):
            verify_lift(delta, nu, mu)
