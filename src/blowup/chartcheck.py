"""Exact checks of chart atlases and lifted maps.

A chart of a generalized blow-up is a monomial map t -> t^nu, a transition
between two charts is t -> t^(nu1 nu2^-1), and a lift through a chart is
x -> a^(nu^-1) x^mu.  In log coordinates each of these maps is linear, so
every property of an atlas or a lift is one matrix identity, checked here
in exact arithmetic.  `verify_transitions` checks an atlas that the
`verify` command recomputes from a refinement in process: it catches
transposition-style mistakes in the atlas construction, not in a
document.  `verify_lift` checks the matrices of a lift_check document,
and arguments of the wrong shape are malformed input.
"""

import numbers
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence

from . import exactla as la
from .errors import MalformedDocument, NotCompatible
from .manifolds import ChartAtlas


# Inert; kept only for the benchmark's lift workload, which still passes one.
@dataclass(frozen=True)
class SamplePlan:
    count: int = 100
    seed: int = 0
    tolerance: float = 1e-9


@dataclass
class CheckReport:
    failures: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def _shape(m) -> str:
    """rows x width, or rows x the widths if the rows differ."""
    widths = sorted({len(row) for row in m})
    return f"{len(m)} x {' or '.join(map(str, widths)) or 0}"


def verify_transitions(atlas: ChartAtlas, _plan=None) -> CheckReport:
    """Check every transition of the atlas exactly, reporting each violated
    identity with its chart pair.

    For each ordered pair (e1, e2) with transition m12, the two blow-downs
    agree across the overlap iff m12 @ nu2 = nu1, and the reverse pair
    (e2, e1) must be in the atlas.  These identities for both orders give
    m12 @ m21 @ nu1 = m12 @ nu2 = nu1, and nu1 is nonsingular (each chart's
    generators span its smooth monoid), so the round trip m12 @ m21 = I
    follows and is not computed.  The second parameter is ignored.
    """
    failures = []
    for (e1, e2), m12 in atlas.transitions.items():
        if (e2, e1) not in atlas.transitions:
            failures.append(f"round trip {e1}->{e2}: no transition "
                            f"{e2}->{e1}")
        if la.mat_mul(m12, atlas.charts[e2].nu) != atlas.charts[e1].nu:
            failures.append(f"blow-down mismatch {e1}->{e2}: "
                            f"transition @ nu({e2}) != nu({e1})")
    return CheckReport(failures)


def verify_lift(delta: Sequence[Sequence[int]],
                nu: Sequence[Sequence],
                mu: Sequence[Sequence[int]],
                coefficients: Optional[Sequence[float]] = None
                ) -> CheckReport:
    """Check that the lift x -> a^(nu^-1) x^mu followed by the chart map
    t -> t^nu reproduces x -> a x^delta.  (a^(nu^-1))^nu = a for every
    positive a, so the lift holds iff delta = mu @ nu exactly.

    Raises:
        NotCompatible: if delta = mu @ nu does not hold exactly.
        MalformedDocument: if nu is not a nonsingular k x k matrix with
            k >= 1, if delta and mu are not equally many rows k wide (at
            least one), or if the coefficients are not one finite positive
            number per chart coordinate (a boolean is not a number).
    """
    k = len(nu)
    if not k or any(len(row) != k for row in nu):
        raise MalformedDocument(
            f"nu is {_shape(nu)}, not k x k with k >= 1")
    for name, m in (("delta", delta), ("mu", mu)):
        if not m or any(len(row) != k for row in m):
            raise MalformedDocument(
                f"{name} is {_shape(m)}, not one or more rows {k} wide "
                f"(nu is {k} x {k})")
    if len(delta) != len(mu):
        raise MalformedDocument(
            f"delta has {len(delta)} rows but mu has {len(mu)}")
    if la.det(nu) == 0:
        raise MalformedDocument(f"nu ({k} x {k}) is singular")
    if la.mat_mul(la.mat(mu), la.mat(
            tuple(tuple(Fraction(x) for x in row) for row in nu))) != \
            la.mat(tuple(tuple(Fraction(x) for x in row) for row in delta)):
        raise NotCompatible("delta = mu @ nu must hold exactly")
    a = [1] * k if coefficients is None else list(coefficients)
    if len(a) != k:
        raise MalformedDocument(
            f"{len(a)} coefficients for {k} chart coordinates")
    for i, c in enumerate(a):
        if isinstance(c, bool) or not (isinstance(c, numbers.Real)
                                       and 0 < c <= sys.float_info.max):
            raise MalformedDocument(
                f"coefficient {i} is {c!r}, not a finite positive number")
    return CheckReport()
