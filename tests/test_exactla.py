"""Unit and property tests for the exact linear algebra kernel."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from blowup import exactla as la


small_ints = st.integers(min_value=-6, max_value=6)


def small_matrix(max_dim=4):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.tuples(*[small_ints] * c), min_size=r, max_size=r)))


small_fractions = st.builds(Fraction, small_ints, st.integers(1, 4))


def small_rational_matrix(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.tuples(*[st.one_of(small_ints, small_fractions)] * c),
                min_size=r, max_size=r)))


def from_sympy(v):
    return tuple(Fraction(int(x.p), int(x.q)) for x in v)


def is_unimodular(u):
    return abs(la.det(u)) == 1


class TestBasics:
    def test_primitive(self):
        assert la.primitive((2, 4, -6)) == (1, 2, -3)
        assert la.primitive((-3, 0)) == (-1, 0)
        with pytest.raises(ValueError):
            la.primitive((0, 0))

    def test_vec_gcd(self):
        assert la.vec_gcd((4, 6)) == 2
        assert la.vec_gcd((0, 0)) == 0

    def test_mat_mul_identity(self):
        m = la.mat([(1, 2), (3, 4)])
        assert la.mat_mul(m, la.identity(2)) == m

    def test_apply_row_length_mismatch(self):
        with pytest.raises(ValueError, match="length 3 times a matrix "
                                             "with 2 rows"):
            la.apply_row((1, 2, 3), la.identity(2))

    def test_scale_to_int_keeps_common_factors(self):
        assert la.scale_to_int((Fraction(1, 2), Fraction(2, 3), 0)) \
            == (3, 4, 0)
        assert la.scale_to_int((2, Fraction(4))) == (2, 4)

    def test_clear_denominators(self):
        v = (Fraction(1, 2), Fraction(1, 3))
        assert la.clear_denominators(v) == (3, 2)


def integer_matrices(rows, cols):
    """rows x cols integer matrices; with no columns, rows empty rows."""
    return st.lists(st.tuples(*[st.integers(-3, 3)] * cols),
                    min_size=rows, max_size=rows).map(tuple)


def schoolbook(a, b):
    """a @ b entry by entry, or the type of the error it raises: the
    oracle for la.mat_mul, which skips products through la.identity.  A
    width of a other than the height of b is a ValueError unless b has no
    columns, in which case the product is len(a) empty rows."""
    cols = len(b[0]) if b else 0
    if cols and any(len(row) != len(b) for row in a):
        return ValueError
    return tuple(tuple(sum(row[k] * b[k][j] for k in range(len(b)))
                       for j in range(cols)) for row in a)


def product(a, b):
    """la.mat_mul(a, b), or the type of the error it raises."""
    try:
        return la.mat_mul(a, b)
    except Exception as e:  # compared by type only
        return type(e)


class TestIdentityShortcut:
    def test_identity_is_one_object(self):
        assert la.identity(3) is la.identity(3)
        assert la.identity(3) == tuple(
            tuple(int(i == j) for j in range(3)) for i in range(3))
        assert la.is_identity(la.identity(3))
        # Equal by value is not enough: the test is `is`.
        assert not la.is_identity(la.mat(la.identity(3)))
        assert not la.is_identity(la.hermite_normal_form(la.identity(3))[0])

    def test_no_rows_is_never_the_identity(self):
        # () is a singleton, so identity(0) is every empty matrix.
        assert la.identity(0) == ()
        assert not la.is_identity(la.identity(0))
        assert not la.is_identity(())

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_schoolbook(self, data):
        r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
        # A width other than k checks mismatched shapes as well.
        a = data.draw(integer_matrices(
            r, data.draw(st.sampled_from([k, data.draw(st.integers(0, 4))]))))
        b = data.draw(integer_matrices(k, c))
        assert product(a, b) == schoolbook(a, b)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_identity_on_either_side(self, data):
        k, other = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
        # A factor of another height or width checks that a shape that
        # does not fit the identity still takes the general product.
        fit = data.draw(st.sampled_from([k, other]))
        b = data.draw(integer_matrices(fit, other))
        a = data.draw(integer_matrices(other, fit))
        ident = la.identity(k)
        assert product(ident, b) == schoolbook(ident, b)
        assert product(a, ident) == schoolbook(a, ident)

    def test_other_factor_is_returned(self):
        ident = la.identity(2)
        b = ((1, 2, 3), (4, 5, 6))
        a = ((1, 2), (3, 4), (5, 6))
        assert la.mat_mul(ident, b) is b
        assert la.mat_mul(a, ident) is a
        assert la.mat_mul(ident, ident) is ident
        # A copy of the identity takes the general product.
        assert la.mat_mul(la.mat(ident), b) is not b

    def test_empty_matrices_match_schoolbook(self):
        b = ((1, 2),)
        assert la.mat_mul(la.identity(0), b) == schoolbook((), b) == ()
        assert la.mat_mul(((), ()), la.identity(0)) == ((), ())
        assert la.mat_mul(((), ()), ()) == schoolbook(((), ()), ())
        assert la.mat_mul(la.identity(2), ((), ())) == ((), ())


class TestHNF:
    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_transform_reproduces(self, rows):
        m = la.mat(rows)
        h, u = la.hermite_normal_form(m)
        assert la.mat_mul(u, m) == h
        assert is_unimodular(u)

    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_echelon_shape(self, rows):
        m = la.mat(rows)
        h, _ = la.hermite_normal_form(m)
        pivots = []
        for row in h:
            nz = [j for j, x in enumerate(row) if x]
            if nz:
                assert h[len(pivots)] == row
                if pivots:
                    assert nz[0] > pivots[-1]
                pivots.append(nz[0])
                assert row[nz[0]] > 0

    @settings(max_examples=80, deadline=None)
    @given(small_matrix())
    def test_row_space_basis_skips_a_matrix_already_in_hnf(self, rows):
        m = la.mat(rows)
        h = tuple(r for r in la.hermite_normal_form(m)[0] if not la.is_zero(r))
        assert la.row_space_basis(m) == h
        if h:
            assert la._is_hnf(h) and la.row_space_basis(h) == h
            # An entry above a pivot outside [0, pivot) is reduced.
            k = len(h) - 1
            if k:
                bad = h[:k - 1] + (la.vadd(h[k - 1], h[k]),) + h[k:]
                assert not la._is_hnf(bad)
                assert la.row_space_basis(bad) == h
            assert not la._is_hnf(h[:k] + (la.vscale(-1, h[k]),))
            assert not la._is_hnf(h[:k] + (tuple(Fraction(x) for x in h[k]),))

    @settings(max_examples=80, deadline=None)
    @given(small_matrix(5))
    def test_independent_rows_is_the_greedy_basis(self, rows):
        m = la.mat(rows)
        picked = la.independent_rows(m)
        assert len(picked) == la.rank(m) == la.rank([m[i] for i in picked])
        for i in range(len(m)):
            before = [m[j] for j in picked if j < i]
            grows = la.rank(before + [m[i]]) > len(before)
            assert grows == (i in picked)


class TestSNF:
    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_diagonal_with_divisibility(self, rows):
        m = la.mat(rows)
        u, d, v = la.smith_normal_form(m)
        assert la.mat_mul(la.mat_mul(u, m), v) == d
        assert is_unimodular(u) and is_unimodular(v)
        diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
        for i in range(len(d)):
            for j in range(len(d[0]) if d else 0):
                if i != j:
                    assert d[i][j] == 0
        nz = [x for x in diag if x]
        for a, b in zip(nz, nz[1:]):
            assert b % a == 0


class TestKernels:
    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_saturated_kernel_annihilates(self, rows):
        m = la.mat(rows)
        k = la.saturated_kernel(m)
        for row in k:
            assert la.is_zero(la.apply_row(row, m))
        assert len(k) == len(m) - la.rank(m)

    @settings(max_examples=60, deadline=None)
    @given(small_matrix())
    def test_right_kernel(self, rows):
        m = la.mat(rows)
        for v in la.right_kernel_q(m):
            for row in m:
                assert sum(Fraction(a) * Fraction(b)
                           for a, b in zip(row, v)) == 0


class TestAgainstSympy:
    """The fraction-free elimination gives the same unique reduced row
    echelon form, rank and nullspace basis as sympy."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(small_matrix(5), small_rational_matrix()))
    def test_rref_rank_nullspace(self, rows):
        ref = sympy.Matrix([[sympy.Rational(Fraction(x).numerator,
                                            Fraction(x).denominator)
                             for x in r] for r in rows])
        rref, pivots = ref.rref()
        expected = tuple(from_sympy(rref.row(i)) for i in range(len(pivots)))
        basis = la.row_space_basis_q(rows)
        assert basis == expected
        assert all(type(x) is Fraction for b in basis for x in b)
        assert la.rank(rows) == ref.rank()
        assert la.right_kernel_q(rows) == tuple(
            from_sympy(v) for v in ref.nullspace())


def gauss_jordan_solve_row(v, m):
    """The former Fraction Gauss-Jordan solve_row, kept as a reference."""
    rows, cols = la.shape(m)
    aug = [[Fraction(m[i][j]) for i in range(rows)] + [Fraction(v[j])]
           for j in range(cols)]
    piv = []
    r = 0
    for c in range(rows):
        p = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if p is None:
            continue
        aug[r], aug[p] = aug[p], aug[r]
        aug[r] = [x / aug[r][c] for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv.append(c)
        r += 1
    if any(aug[i][rows] != 0 for i in range(r, len(aug))):
        return None
    x = [Fraction(0)] * rows
    for i, c in enumerate(piv):
        x[c] = aug[i][rows]
    return tuple(x)


def gauss_jordan_inverse(m):
    """The former Fraction Gauss-Jordan inverse_q, kept as a reference."""
    n = len(m)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(m)]
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c] != 0), None)
        if p is None:
            raise ValueError("matrix is singular")
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return tuple(tuple(row[n:]) for row in a)


def to_sympy(rows, cols):
    return sympy.Matrix(len(rows), cols,
                        [sympy.Rational(Fraction(x).numerator,
                                        Fraction(x).denominator)
                         for r in rows for x in r])


def square_matrix(entries, max_dim=4):
    return st.integers(0, max_dim).flatmap(
        lambda n: st.lists(st.tuples(*[entries] * n),
                           min_size=n, max_size=n))


class TestIntegerElimination:
    """solve_row, inverse_q and det eliminate on integers; they return the
    same Fractions as Gauss-Jordan on Fractions, and agree with sympy."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(small_matrix(4), small_rational_matrix(4)), st.data())
    def test_solve_row(self, rows, data):
        m = la.mat(rows)
        cols = len(m[0])
        entries = st.one_of(small_ints, small_fractions)
        if data.draw(st.booleans()):
            v = la.apply_row(data.draw(st.tuples(*[entries] * len(m))), m)
        else:
            v = data.draw(st.tuples(*[entries] * cols))
        x = la.solve_row(v, m)
        assert x == gauss_jordan_solve_row(v, m)
        assert x is None or all(type(c) is Fraction for c in x)
        mt = to_sympy(m, cols).T
        aug = mt.row_join(to_sympy([v], cols).T)
        if mt.rank() < aug.rank():
            assert x is None
            return
        assert x is not None
        assert to_sympy([x], len(m)) * to_sympy(m, cols) == to_sympy([v], cols)
        pivots = mt.rref()[1]
        assert all(c == 0 for j, c in enumerate(x) if j not in pivots)

    def test_solve_row_degenerate_shapes(self):
        assert la.solve_row((), ()) == gauss_jordan_solve_row((), ()) == ()
        m = ((), ())
        assert la.solve_row((), m) == gauss_jordan_solve_row((), m) \
            == (0, 0)
        m = ((0, 0), (0, 0))
        assert la.solve_row((0, 1), m) is None
        assert la.solve_row((0, 0), m) == (0, 0)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(square_matrix(small_ints),
                     square_matrix(st.one_of(small_ints, small_fractions)),
                     square_matrix(st.integers(-1, 1))))
    def test_inverse_and_det(self, rows):
        m = la.mat(rows)
        n = len(m)
        ref = to_sympy(m, n)
        d = la.det(m)
        assert type(d) is Fraction
        assert d == (from_sympy([ref.det()])[0] if n else 1)
        try:
            expected = gauss_jordan_inverse(m)
        except ValueError:
            assert d == 0
            with pytest.raises(ValueError):
                la.inverse_q(m)
            return
        inv = la.inverse_q(m)
        assert inv == expected
        assert all(type(x) is Fraction for r in inv for x in r)
        if n:
            assert inv == tuple(from_sympy(ref.inv().row(i))
                                for i in range(n))

    def test_singular_inverse_raises(self):
        for m in [((0,),), ((1, 2), (2, 4)),
                  ((1, 0, 0), (0, 1, 0), (1, 1, 0))]:
            with pytest.raises(ValueError):
                la.inverse_q(m)
            assert la.det(m) == 0


class TestSolve:
    def test_solve_row(self):
        m = la.mat([(1, 1, 0), (0, 2, 1)])
        v = (1, 3, 1)
        c = la.solve_row(v, m)
        assert c == (1, 1)
        assert la.solve_row((1, 0, 1), m) is None

    @settings(max_examples=100, deadline=None)
    @given(small_matrix(4), st.data())
    def test_echelon_solve_matches_gauss_jordan(self, rows, data):
        h = la.row_space_basis(la.mat(rows))
        cols = len(rows[0])
        if data.draw(st.booleans()):
            coeff = data.draw(st.tuples(*[small_fractions] * len(h)))
            v = la.apply_row(coeff, h) if h else (0,) * cols
        else:
            v = data.draw(st.tuples(*[st.one_of(small_ints,
                                                small_fractions)] * cols))
        if h:
            assert la.solve_row_echelon(v, h) == la.solve_row(v, h)
        else:
            assert la.solve_row_echelon(v, h) == (None if any(v) else ())

    def test_solve_row_int(self):
        m = la.mat([(2, 0), (0, 2)])
        assert la.solve_row_int((2, 4), m) == (1, 2)
        assert la.solve_row_int((1, 0), m) is None

    def test_inverse(self):
        m = la.mat([(1, 1), (0, 1)])
        inv = la.inverse_q(m)
        prod = la.mat_mul(m, inv)
        assert all(prod[i][j] == (1 if i == j else 0)
                   for i in range(2) for j in range(2))


def _fm_eliminate(constraints, dim):
    """Eliminate variables right-to-left.  Returns the per-level constraint
    lists for witness back-substitution, or None if infeasible."""
    levels = [constraints]
    current = constraints
    for k in range(dim - 1, -1, -1):
        nxt = []
        lowers = []  # (coeffs without x_k, pos coeff, strict): x_k >(=) -rest/c
        uppers = []
        for coeffs, strict in current:
            c = coeffs[k]
            rest = coeffs[:k]
            if c == 0:
                nxt.append((rest, strict))
            elif c > 0:
                lowers.append((rest, c, strict))
            else:
                uppers.append((rest, -c, strict))
        for lr, lc, ls in lowers:
            for ur, uc, us in uppers:
                # -lr/lc <(=) x_k <(=) ur/uc  ==>  lc*ur + uc*lr >(=) 0.
                combo = tuple(lc * u + uc * l
                              for l, u in zip(lr, ur, strict=True))
                nxt.append((combo, ls or us))
        # Drop duplicates (up to positive scaling) to keep growth in check.
        seen = {}
        for coeffs, strict in nxt:
            lead = next((x for x in coeffs if x != 0), None)
            if lead is None:
                key = coeffs
            else:
                s = abs(Fraction(lead))
                key = tuple(Fraction(x) / s for x in coeffs)
            seen[key] = seen.get(key, False) or strict
        current = [(k2, s) for k2, s in seen.items()]
        levels.append(current)
    for coeffs, strict in current:
        assert len(coeffs) == 0
        if strict:
            return None
    return levels


def _fm_witness(levels, dim):
    x = []
    for k in range(dim):
        level = levels[dim - 1 - k]  # constraints mentioning x_0..x_k
        lo, lo_strict = None, False
        hi, hi_strict = None, False
        for coeffs, strict in level:
            c = Fraction(coeffs[k])
            if c == 0:
                continue
            rest = -sum(Fraction(a) * b for a, b in zip(coeffs[:k], x)) / c
            if c > 0:
                if lo is None or rest > lo or (rest == lo and strict):
                    lo, lo_strict = rest, strict
            else:
                if hi is None or rest < hi or (rest == hi and strict):
                    hi, hi_strict = rest, strict
        if lo is None and hi is None:
            x.append(Fraction(0))
        elif lo is None:
            x.append(hi - 1 if hi_strict else hi)
        elif hi is None:
            x.append(lo + 1 if lo_strict else lo)
        else:
            assert lo < hi or (lo == hi and not (lo_strict or hi_strict))
            x.append((lo + hi) / 2 if (lo_strict or hi_strict) else lo)
    return tuple(x)


def fm_feasible(dim, strict=(), nonneg=(), zero=()):
    """The former Fourier-Motzkin lp_feasible, kept as a reference: an
    x with a . x > 0 on strict, >= 0 on nonneg and == 0 on zero, or
    None.  Elimination is independent of the double-description code,
    whatever the number of constraints it makes on the way."""
    if zero:
        basis = la.right_kernel_q(tuple(la.scale_to_int(z) for z in zero))
        if not basis:
            return None if strict else (Fraction(0),) * dim
    else:
        basis = la.identity(dim)
    k = len(basis)
    constraints = [(tuple(Fraction(la.dot(a, b)) for b in basis), flag)
                   for rows, flag in ((strict, True), (nonneg, False))
                   for a in rows]
    levels = _fm_eliminate(constraints, k)
    if levels is None:
        return None
    y = _fm_witness(levels, k)
    return tuple(sum(y[i] * basis[i][j] for i in range(k))
                 for j in range(dim))


def constraint_systems(max_dim=4):
    """A dimension and strict, non-negative and zero rows, entries in
    -2..2."""
    def rows(d, max_size):
        return st.lists(st.tuples(*[st.integers(-2, 2)] * d),
                        max_size=max_size)
    return st.integers(1, max_dim).flatmap(lambda d: st.tuples(
        st.just(d), rows(d, 4), rows(d, 4), rows(d, 2)))


def satisfies(x, strict, nonneg, zero):
    return (all(la.dot(a, x) > 0 for a in strict)
            and all(la.dot(a, x) >= 0 for a in nonneg)
            and all(la.dot(a, x) == 0 for a in zero))


class TestLP:
    def test_feasible_strict(self):
        w = la.lp_feasible(2, strict=[(1, 0), (0, 1)])
        assert w is not None
        assert w[0] > 0 and w[1] > 0

    def test_infeasible(self):
        assert la.lp_feasible(1, strict=[(1,), (-1,)]) is None

    def test_zero_constraints(self):
        w = la.lp_feasible(3, strict=[(1, 0, 0)], zero=[(0, 1, 0)])
        assert w is not None
        assert w[0] > 0 and w[1] == 0

    def test_empty_is_origin(self):
        assert la.lp_feasible(2) is not None

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(small_ints, small_ints),
                    min_size=1, max_size=5))
    def test_witness_satisfies(self, strict):
        w = la.lp_feasible(2, strict=strict)
        if w is not None:
            for u in strict:
                assert la.dot(u, w) > 0
        else:
            # Brute force on a grid: no point satisfies everything.
            rng = [Fraction(i, 3) for i in range(-9, 10)]
            for x in rng:
                for y in rng:
                    assert not all(u[0] * x + u[1] * y > 0
                                   for u in strict)

    @settings(max_examples=300, deadline=None)
    @given(constraint_systems())
    def test_matches_fourier_motzkin(self, system):
        """Double description and Fourier-Motzkin elimination agree on
        feasibility, and each witness satisfies its system."""
        dim, strict, nonneg, zero = system
        w = la.lp_feasible(dim, strict=strict, nonneg=nonneg, zero=zero)
        ref = fm_feasible(dim, strict=strict, nonneg=nonneg, zero=zero)
        assert (w is None) == (ref is None)
        if w is not None:
            assert len(w) == dim
            assert satisfies(w, strict, nonneg, zero)
            assert satisfies(ref, strict, nonneg, zero)
