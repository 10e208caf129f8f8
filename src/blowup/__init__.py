"""Exact combinatorics of generalized boundary blow-up.

Toric monoids and their refinements, monoidal complexes, the boundary
combinatorics of manifolds with corners and b-maps, blow-up chart atlases,
resolution of binomial subvarieties, and fiber products of b-maps.  All
computation is exact (integer and rational arithmetic), the verification
of chart data included.
"""

from .monoids import MonoidHom, ToricMonoid, fiber_product
from .refinements import (MonoidRefinement, planar_refine, smoothing,
                          star_subdivide, trivial_refinement)
from .complexes import (ComplexMorphism, ComplexRefinement,
                        MonoidalComplex, complex_from_monoid,
                        extend_refinement, fiber_product_complex,
                        identity_refinement, mutual_smooth_refinement,
                        natural_smooth_refinement, planar_refine_complex,
                        product_complex, pullback_refinement,
                        star_subdivide_complex)
from .manifolds import (BMap, Blowup, Chart, ChartAtlas, CornerComplex,
                        Lift, blowup_domain, chart_lift, check_blowdown,
                        corner_model, factor_through_refinement,
                        generalized_blowup, identity_bmap, is_compatible,
                        iterated_blowup, lift_bmap, lift_face, local_atlas,
                        ordinary_blowup)
from .binomial import (BinomialSystem, Resolution, boundary_faces,
                       normal_form, resolve, universal_resolution,
                       variety_complex)
from .fiber import (FiberProblem, FiberReport, ResolvedFiberProduct,
                    b_normal_transversality, factor_through,
                    fiber_complex, resolve_fiber_product,
                    theorem_b_check)
from .chartcheck import CheckReport, verify_lift, verify_transitions
from .errors import BlowupError

__all__ = [
    "BMap",
    "BinomialSystem",
    "Blowup",
    "BlowupError",
    "Chart",
    "ChartAtlas",
    "CheckReport",
    "ComplexMorphism",
    "ComplexRefinement",
    "CornerComplex",
    "FiberProblem",
    "FiberReport",
    "Lift",
    "MonoidHom",
    "MonoidRefinement",
    "MonoidalComplex",
    "Resolution",
    "ResolvedFiberProduct",
    "ToricMonoid",
    "b_normal_transversality",
    "blowup_domain",
    "boundary_faces",
    "chart_lift",
    "check_blowdown",
    "complex_from_monoid",
    "corner_model",
    "extend_refinement",
    "factor_through",
    "factor_through_refinement",
    "fiber_complex",
    "fiber_product",
    "fiber_product_complex",
    "generalized_blowup",
    "identity_bmap",
    "identity_refinement",
    "is_compatible",
    "iterated_blowup",
    "lift_bmap",
    "lift_face",
    "local_atlas",
    "mutual_smooth_refinement",
    "natural_smooth_refinement",
    "normal_form",
    "ordinary_blowup",
    "planar_refine",
    "planar_refine_complex",
    "product_complex",
    "pullback_refinement",
    "resolve",
    "resolve_fiber_product",
    "smoothing",
    "star_subdivide",
    "star_subdivide_complex",
    "theorem_b_check",
    "trivial_refinement",
    "universal_resolution",
    "variety_complex",
    "verify_lift",
    "verify_transitions",
]
