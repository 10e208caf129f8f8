"""Toric monoids: construction, faces and Hilbert bases.

A toric monoid is the intersection of a lattice with a pointed cone
spanning the same space.  The extremal rays need not generate it; the
Hilbert basis is the unique minimal generating set.
"""

from blowup import exactla as la
from blowup.monoids import ToricMonoid

# The even-sum points of the quadrant, generated by (2,0), (1,1), (0,2).
m = ToricMonoid.from_generators(2, [(2, 0), (1, 1), (0, 2)])
print("extremals:     ", m.extremals())
print("hilbert basis: ", m.hilbert_basis())
print("smooth:        ", m.is_smooth())
print("index:         ", m.index())

# Membership distinguishes the lattice from the cone.
print("(1,0) in cone: ", m.in_support((1, 0)))
print("(1,0) in monoid:", m.contains((1, 0)))

# The face lattice.
print("\nfaces:")
for f in m.faces():
    print(f"  dim {f.dim}: rays {f.rays}")

# A non-simplicial example: the cone over a square.
sq = ToricMonoid.make(3, la.identity(3),
                      [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
print("\ncone over a square")
print("simplicial:    ", sq.is_simplicial())
print("hilbert basis: ", sq.hilbert_basis())
print("facet normals: ", sq.facet_normals())
