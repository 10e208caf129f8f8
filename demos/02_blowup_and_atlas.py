"""Blowing up a corner and reading off the chart atlas.

The boundary combinatorics of a manifold with corners is a corner
complex; blowing up a boundary face star subdivides the free monoid over
it, and the smooth refinement determines monomial charts t -> t^nu with
exact transition matrices.
"""

from blowup.chartcheck import verify_transitions
from blowup.manifolds import (corner_model, iterated_blowup, local_atlas,
                              ordinary_blowup)

# Blow up the corner of the square [0, inf)^2.
x = corner_model(2)
bl, charts = ordinary_blowup(x, "H1&H2")
print("hypersurfaces after blow-up:", bl.total.hypersurfaces())
print("chart exponent matrices:")
for c in charts:
    print("  ", c)
print("blow-down exponents:", dict(sorted(bl.blowdown.exponents.items())))

# The atlas of the local model, with transitions and separating
# functionals between overlapping charts.
atlas = local_atlas(bl.refinement)
for e, c in sorted(atlas.charts.items()):
    print(f"chart {e}: nu = {c.nu}")
for (a, b), t in sorted(atlas.transitions.items()):
    print(f"transition {a} -> {b}: {t}  separator "
          f"{atlas.separators[(a, b)]}")

# Exact check of the emitted matrices: each transition carries one chart's
# blow-down onto the other's.
rep = verify_transitions(atlas)
print(f"exact check: passed={rep.passed} failures={rep.failures}")

# An iterated blow-up: corner of the octant, then an edge.
bl3 = iterated_blowup(corner_model(3), ["H1&H2&H3", "H1&H2"])
print("\niterated blow-up of the octant:")
print("faces:", len(bl3.total.faces),
      "hypersurfaces:", len(bl3.total.hypersurfaces()))
