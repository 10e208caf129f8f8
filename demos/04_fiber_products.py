"""Fiber products of b-maps and their resolutions.

Two b-maps with a common target have a combinatorial fiber product; if
some fiber monoid is not smooth, the result is not a manifold with
corners, but a smooth refinement resolves it.  Maps commuting with the
two factors then factor through the resolution, possibly after blowing
up their domain.
"""

from blowup.fiber import (FiberProblem, b_normal_transversality,
                          factor_through, resolve_fiber_product,
                          theorem_b_check)
from blowup.manifolds import BMap, corner_model, identity_bmap

# f(x1, x2) = x1 + x2 as a map of the square to the half line.
x = corner_model(2)
y = corner_model(1)
f = BMap(x, y, {"X": "X", "H1": "H1", "H2": "H1", "H1&H2": "H1"},
         {("H1", "H1"): 1, ("H2", "H1"): 1})
f.validate()
p = FiberProblem(f, f)

rep = b_normal_transversality(p)
print("transversal:", rep.transversal, " smooth:", rep.smooth)
corner = next(q for q in rep.pairs if q.face1 == "H1&H2")
print("corner fiber monoid rays:", sorted(corner.monoid.rays))
print("binomial model:", corner.system.gammas)

smooth, fc, _, _, offenders = theorem_b_check(p)
print("already a manifold:", smooth, " offenders:", offenders)

res = resolve_fiber_product(p)
print("resolved fiber product:", len(res.corner.faces), "faces,",
      len(res.corner.hypersurfaces()), "hypersurfaces")
assert res.h1.compose(p.f1) == res.h2.compose(p.f2)

# The diagonal of the square commutes with both projections but does not
# factor through the resolution; its domain corner must be blown up.
g = identity_bmap(x)
bl, lifted = factor_through(g, g, res)
print("domain blow-up needed:", bl is not None)
if bl is not None:
    print("blown-up domain hypersurfaces:",
          bl.total.hypersurfaces())
    assert lifted.compose(res.h1) == bl.blowdown.compose(g)
