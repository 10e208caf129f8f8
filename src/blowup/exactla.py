"""Exact integer and rational linear algebra.

Vectors are tuples of ints (or Fractions), matrices are tuples of row
tuples.  Homomorphisms act on row vectors by right multiplication, so the
image of v under m is v @ m, computed by :func:`apply_row`.  Everything here
is arbitrary precision; no floats.

Two memos keep derived data across calls, both keyed by value on
immutable tuples: :func:`identity` shares one matrix per size, and
:func:`solve_row_int` keeps the Hermite normal form and transform of the
last 1,024 matrices it solved against (``_hermite_solver``).
"""

import functools
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence, Tuple

from .errors import NotSharp

Vec = Tuple[int, ...]
QVec = Tuple[Fraction, ...]
Mat = Tuple[Vec, ...]


def mat(rows) -> tuple:
    return tuple(tuple(r) for r in rows)


def zeros(n: int) -> Vec:
    return (0,) * n


def is_zero(v) -> bool:
    return all(x == 0 for x in v)


def vadd(a, b):
    return tuple(x + y for x, y in zip(a, b, strict=True))


def vsub(a, b):
    return tuple(x - y for x, y in zip(a, b, strict=True))


def vscale(c, v):
    return tuple(c * x for x in v)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b, strict=True))


# The identity matrix of each size, built on first use.  Tuples are
# immutable, so one object serves every caller, and a product or an image
# through it is read off by an `is` test.
_identities: dict[int, Mat] = {}


def identity(n: int) -> Mat:
    """The n x n identity matrix, the same object on every call."""
    ident = _identities.get(n)
    if ident is None:
        ident = _identities[n] = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    return ident


def is_identity(m) -> bool:
    """True iff m is the object identity(len(m)) returns.  A matrix with
    no rows never counts: () is a singleton."""
    return bool(m) and _identities.get(len(m)) is m


def shape(m) -> Tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def transpose(m):
    return tuple(zip(*m)) if m else ()


def mat_mul(a, b):
    """Matrix product a @ b.  When one factor is identity(n) and the other
    has the matching height or width, the other factor is returned."""
    if is_identity(a) and len(b) == len(a):
        return b
    if is_identity(b) and shape(a)[1] == len(b):
        return a
    if not a:
        return ()
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def apply_row(v, m):
    """Image of the row vector v under the matrix m, that is v @ m."""
    if len(v) != len(m):
        raise ValueError(f"vector of length {len(v)} times a matrix with "
                         f"{len(m)} rows")
    cols = len(m[0]) if m else 0
    return tuple(sum(v[i] * m[i][j] for i in range(len(v))) for j in range(cols))


def block_diag(a, b):
    ra, ca = shape(a)
    rb, cb = shape(b)
    top = tuple(row + zeros(cb) for row in a)
    bot = tuple(zeros(ca) + row for row in b)
    return top + bot


def vec_gcd(v) -> int:
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive(v: Vec) -> Vec:
    """v divided by the gcd of its entries.

    Raises:
        ValueError: if v is the zero vector.
    """
    g = vec_gcd(v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def scale_to_int(v) -> Vec:
    """A rational vector times the lcm of its entries' denominators: an
    integer vector, not made primitive."""
    d = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (d // x.denominator) for x in v)


def clear_denominators(v) -> Vec:
    """Scale a rational vector to a primitive integer vector."""
    return primitive(scale_to_int(v))


def hermite_normal_form(m: Mat) -> Tuple[Mat, Mat]:
    """Row-style Hermite normal form.

    Returns:
        (h, u) with u unimodular, u @ m == h, h in row echelon form with
        positive pivots and entries above each pivot reduced into [0, pivot).
        Zero rows of h are at the bottom.
    """
    rows, cols = shape(m)
    h = [list(r) for r in m]
    u = [list(r) for r in identity(rows)]
    pivot_row = 0
    for col in range(cols):
        # Clear the column below pivot_row with euclidean row operations.
        while True:
            nz = [i for i in range(pivot_row, rows) if h[i][col] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(h[i][col]), i))
            if i0 != pivot_row:
                h[pivot_row], h[i0] = h[i0], h[pivot_row]
                u[pivot_row], u[i0] = u[i0], u[pivot_row]
            done = True
            for i in range(pivot_row + 1, rows):
                if h[i][col] != 0:
                    q = h[i][col] // h[pivot_row][col]
                    h[i] = [x - q * y for x, y in zip(h[i], h[pivot_row])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[pivot_row])]
                    if h[i][col] != 0:
                        done = False
            if done:
                break
        if pivot_row < rows and h[pivot_row][col] != 0:
            if h[pivot_row][col] < 0:
                h[pivot_row] = [-x for x in h[pivot_row]]
                u[pivot_row] = [-x for x in u[pivot_row]]
            p = h[pivot_row][col]
            for i in range(pivot_row):
                q = h[i][col] // p
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[pivot_row])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[pivot_row])]
            pivot_row += 1
            if pivot_row == rows:
                break
    return mat(h), mat(u)


def row_space_basis(m: Mat) -> Mat:
    """Nonzero rows of the Hermite normal form of m (a canonical basis of
    the integer row span)."""
    if _is_hnf(m):
        return mat(m)
    h, _ = hermite_normal_form(m)
    return tuple(r for r in h if not is_zero(r))


def _is_hnf(m) -> bool:
    """True if m is an integer matrix in Hermite normal form with no zero
    rows, which is then its own row_space_basis."""
    pivots = []
    for r in m:
        p = next((j for j, x in enumerate(r) if x), None)
        if p is None or (pivots and p <= pivots[-1]) or r[p] < 0 or \
                any(type(x) is not int for x in r):
            return False
        pivots.append(p)
    return all(0 <= m[i][p] < m[k][p] for k, p in enumerate(pivots)
               for i in range(k))


def smith_normal_form(m: Mat) -> Tuple[Mat, Mat, Mat]:
    """Smith normal form.

    Returns:
        (u, d, v) with u, v unimodular, u @ m @ v == d, d diagonal with
        nonnegative entries satisfying d[i] | d[i+1].
    """
    rows, cols = shape(m)
    d = [list(r) for r in m]
    u = [list(r) for r in identity(rows)]
    v = [list(r) for r in identity(cols)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, q):
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def addmul_col(dst, src, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    n = min(rows, cols)
    for k in range(n):
        while True:
            # Find the smallest nonzero entry in the trailing block.
            best = None
            for i in range(k, rows):
                for j in range(k, cols):
                    if d[i][j] != 0 and (best is None
                                         or abs(d[i][j]) < abs(d[best[0]][best[1]])):
                        best = (i, j)
            if best is None:
                break
            i, j = best
            if i != k:
                swap_rows(k, i)
            if j != k:
                swap_cols(k, j)
            clean = True
            for i in range(k + 1, rows):
                if d[i][k] != 0:
                    addmul_row(i, k, -(d[i][k] // d[k][k]))
                    if d[i][k] != 0:
                        clean = False
            for j in range(k + 1, cols):
                if d[k][j] != 0:
                    addmul_col(j, k, -(d[k][j] // d[k][k]))
                    if d[k][j] != 0:
                        clean = False
            if clean:
                # Enforce divisibility of the remaining block by the pivot.
                offender = None
                for i in range(k + 1, rows):
                    for j in range(k + 1, cols):
                        if d[i][j] % d[k][k] != 0:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                addmul_row(k, offender, 1)
        if k < rows and k < cols and d[k][k] < 0:
            d[k] = [-x for x in d[k]]
            u[k] = [-x for x in u[k]]
    return mat(u), mat(d), mat(v)


def saturated_kernel(m: Mat) -> Mat:
    """Basis of the saturated left kernel {v in Z^rows : v @ m = 0}.

    The result spans ker(m) over Q and is saturated: any integer vector in
    the rational span lies in the integer span of the returned rows.
    """
    h, u = hermite_normal_form(m)
    return tuple(u[i] for i in range(len(h)) if is_zero(h[i]))


def rank(m: Mat) -> int:
    return len(_integer_rref(m)[0])


def independent_rows(m) -> list:
    """Indices of the rows of m that are not in the span of the rows
    before them (a basis of the row span): the pivot columns of the RREF
    of m transposed."""
    return _integer_rref(transpose(m))[1] if m else []


def _integer_rref(m):
    """Reduced row echelon form of the rational row span of m, kept in
    integers: fraction-free elimination, where rows are combined by
    cross-multiplication and divided by the gcd of their entries.

    Returns (rows, pivots), sorted by pivot column: each row is primitive
    with a positive entry at its pivot and zeros at every other row's
    pivot.  Dividing each row by its pivot entry gives the unique RREF.
    """
    cols = len(m[0]) if m else 0
    basis = []
    pivots = []
    for row in m:
        if len(basis) == cols:
            break
        r = scale_to_int(row)
        for b, p in zip(basis, pivots):
            c = r[p]
            if c:
                bp = b[p]
                r = [bp * x - c * y for x, y in zip(r, b)]
        lead = next((j for j in range(cols) if r[j]), None)
        if lead is None:
            continue
        g = vec_gcd(r) if r[lead] > 0 else -vec_gcd(r)
        r = [x // g for x in r]
        rl = r[lead]
        # Clear the new pivot column in the existing rows.
        for i, b in enumerate(basis):
            f = b[lead]
            if f:
                b = [rl * x - f * y for x, y in zip(b, r)]
                g = vec_gcd(b)
                basis[i] = [x // g for x in b]
        basis.append(r)
        pivots.append(lead)
    order = sorted(range(len(basis)), key=pivots.__getitem__)
    return [basis[i] for i in order], [pivots[i] for i in order]


def row_space_basis_q(m) -> Tuple[QVec, ...]:
    """Reduced row echelon basis of the rational row span of m."""
    rows, pivots = _integer_rref(m)
    return tuple(tuple(Fraction(x, b[p]) for x in b)
                 for b, p in zip(rows, pivots))


def solve_row(v, m) -> Optional[QVec]:
    """Rational x with x @ m == v, or None if no solution exists.

    Reads x off the unique reduced row echelon form of [m^T | v^T]: zero
    off the pivot columns, and no solution if the last column is a
    pivot."""
    n = len(m)
    rows, pivots = _integer_rref([col + (v[j],)
                                  for j, col in enumerate(transpose(m))])
    if pivots and pivots[-1] == n:
        return None
    x = [Fraction(0)] * n
    for b, p in zip(rows, pivots):
        x[p] = Fraction(b[n], b[p])
    return tuple(x)


def solve_row_echelon(v, h) -> Optional[QVec]:
    """Rational x with x @ h == v, or None, for h with independent rows in
    row echelon form (such as a Hermite normal form without its zero
    rows): forward substitution on the pivot columns, fraction-free until
    the result."""
    den = lcm(*(x.denominator for x in v))
    rem = [x.numerator * (den // x.denominator) for x in v]
    out = []
    for row in h:
        p = next(j for j, x in enumerate(row) if x)
        c = rem[p]
        if c:
            hp = row[p]
            out.append(Fraction(c, den * hp))
            rem = [hp * x - c * y for x, y in zip(rem, row)]
            den *= hp
        else:
            out.append(Fraction(0))
    if any(rem):
        return None
    return tuple(out)


@functools.lru_cache(maxsize=1024)
def _hermite_solver(m: Mat) -> Tuple[Tuple[Tuple[int, Vec], ...], Mat, int]:
    """The nonzero rows of the Hermite normal form of m, each with its
    pivot column, the transform u and the number of zero rows.  Keyed by
    the matrix's value: its callers solve against a few lattices again
    and again, and a tuple matrix cannot change."""
    h, u = hermite_normal_form(m)
    rows = tuple((next(j for j, x in enumerate(r) if x), r)
                 for r in h if not is_zero(r))
    return rows, u, len(h) - len(rows)


def solve_row_int(v, m) -> Optional[Vec]:
    """Integer x with x @ m == v, or None.

    Forward substitution on the pivots of m's Hermite normal form (kept
    per matrix by _hermite_solver), with integer division: the rows below
    an echelon row are zero at its pivot, so if v is in the lattice each
    quotient is its exact coefficient and nothing remains, and otherwise
    no integer combination leaves a zero remainder.  The coefficients of
    the zero rows are 0, and u takes the echelon coefficients back to m's
    rows."""
    rows, u, zero_rows = _hermite_solver(mat(m))
    rem = list(v)
    coeff = []
    for p, row in rows:
        c = rem[p] // row[p]
        coeff.append(c)
        if c:
            rem = [x - c * y for x, y in zip(rem, row)]
    if any(rem):
        return None
    return apply_row(tuple(coeff) + zeros(zero_rows), u)


def right_kernel_q(m) -> Tuple[QVec, ...]:
    """Basis of {u : m @ u^T = 0} over Q, i.e. functionals vanishing on the
    rows of m."""
    cols = len(m[0]) if m else 0
    rows, pivots = _integer_rref(m)
    out = []
    for f in range(cols):
        if f in pivots:
            continue
        u = [Fraction(0)] * cols
        u[f] = Fraction(1)
        for b, p in zip(rows, pivots):
            u[p] = Fraction(-b[f], b[p])
        out.append(tuple(u))
    return tuple(out)


def det(m) -> Fraction:
    """Determinant by fraction-free (Bareiss) elimination on the rows
    scaled to integers."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("matrix is not square")
    a = [list(scale_to_int(r)) for r in m]
    den = 1
    for r in m:
        den *= lcm(*(x.denominator for x in r))
    sign, prev = 1, 1
    for c in range(n - 1):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            sign = -sign
        pc = a[c][c]
        for i in range(c + 1, n):
            ai = a[i]
            f = ai[c]
            a[i] = [0] * (c + 1) + [(pc * ai[j] - f * a[c][j]) // prev
                                    for j in range(c + 1, n)]
        prev = pc
    return Fraction(sign * a[n - 1][n - 1] if n else 1) / den


def inverse_q(m) -> Tuple[QVec, ...]:
    """Exact inverse of a square rational matrix, the right half of the
    reduced row echelon form of [m | I]; ValueError if m is singular."""
    n = len(m)
    rows, pivots = _integer_rref([tuple(r) + e
                                  for r, e in zip(m, identity(n))])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(Fraction(x, b[i]) for x in b[n:])
                 for i, b in enumerate(rows))


# ---------------------------------------------------------------------------
# Cone duality by double description.  One routine serves every cone
# question: extreme rays of a cone given by inequalities, facet normals of
# a cone given by generators (the same computation, by duality), sections
# of a cone by a subspace, and feasibility with an exact witness.
# ---------------------------------------------------------------------------


def cone_rays(ineq, s) -> Mat:
    """Extreme rays of the pointed cone {y in R^s : a . y >= 0 for rows a}.

    By duality these are also the facet normals of the cone generated by
    the rows, when the rows span R^s.  Double description (Motzkin's
    method, as in Fukuda & Prodon 1996): start from the simplicial cone of
    s independent rows and add the other rows one at a time, keeping each
    ray with the set of added rows it lies on (a bit mask).  A row splits
    the rays by sign; each adjacent pair of opposite sign gives the ray
    where their 2-face crosses the row's hyperplane.  Two rays are
    adjacent iff no third ray lies on every row that both lie on.

    Raises:
        NotSharp: if the rows do not span R^s, so the cone contains a line.
    """
    rows = tuple(sorted(set(primitive(a) for a in ineq if not is_zero(a))))
    if s == 0:
        return ()
    start = independent_rows(rows)
    if len(start) < s:
        raise NotSharp("inequality cone contains a line")
    rays = []
    for i in start:
        others = [rows[j] for j in start if j != i]
        y = clear_denominators(right_kernel_q(others)[0]) if others else (1,)
        if dot(rows[i], y) < 0:
            y = tuple(-x for x in y)
        rays.append((y, sum(1 << j for j in start if j != i)))
    for i, a in enumerate(rows):
        if i in start:
            continue
        vals = [dot(a, y) for y, _ in rays]
        pos = [k for k, v in enumerate(vals) if v > 0]
        neg = [k for k, v in enumerate(vals) if v < 0]
        bit = 1 << i
        new = [(y, z | bit) for (y, z), v in zip(rays, vals) if v == 0]
        new += [rays[k] for k in pos]
        for p in pos:
            for q in neg:
                common = rays[p][1] & rays[q][1]
                if common.bit_count() < s - 2 or any(
                        k != p and k != q and z & common == common
                        for k, (_, z) in enumerate(rays)):
                    continue
                y = vsub(vscale(vals[p], rays[q][0]),
                         vscale(vals[q], rays[p][0]))
                new.append((primitive(y), common | bit))
        rays = new
    return tuple(sorted(set(y for y, _ in rays)))


def cone_section_rays(ineq, k_int) -> Mat:
    """Extreme rays of {c : a . c >= 0 for rows a of ineq} cap
    rowspan(k_int), for independent integer rows k_int and a pointed
    section: primitive integer vectors, sorted."""
    s = len(k_int)
    if s == 0:
        return ()
    # Coefficient vectors in the parameters y, where c = y @ k_int.
    ineq_y = [tuple(dot(a, row) for row in k_int) for a in ineq]
    return tuple(sorted(set(primitive(apply_row(y, k_int))
                            for y in cone_rays(ineq_y, s))))


def lp_feasible(dim: int,
                strict: Sequence = (),
                nonneg: Sequence = (),
                zero: Sequence = ()) -> Optional[QVec]:
    """Exact feasibility of a homogeneous system of linear constraints.

    Finds x in Q^dim with a . x > 0 for a in strict, a . x >= 0 for a in
    nonneg and a . x == 0 for a in zero, or returns None if no such x
    exists.  Inside the kernel of zero, the inequalities cut out a cone:
    the sum of its lineality space and of its section by the row span of
    the inequalities, which is pointed.  A row is positive somewhere on
    the cone iff it is positive on an extreme ray of that section, so the
    sum of those rays is the witness, and if it fails a strict row, no
    point satisfies them all.
    """
    strict, nonneg = list(strict), list(nonneg)
    basis = tuple(clear_denominators(u) for u in right_kernel_q(
        mat(scale_to_int(z) for z in zero))) if zero else identity(dim)
    # x = y @ basis; each inequality as a functional of y.
    rows = [scale_to_int(tuple(dot(a, b) for b in basis))
            for a in strict + nonneg]
    y = zeros(len(basis))
    for ray in cone_section_rays(rows, mat(_integer_rref(rows)[0])):
        y = vadd(y, ray)
    if any(dot(a, y) <= 0 for a in rows[:len(strict)]):
        return None
    x = apply_row(y, basis) if basis else zeros(dim)
    return tuple(Fraction(c) for c in x)
