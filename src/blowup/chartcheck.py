"""Floating-point spot checks of chart atlases and lifted maps.

All structural identities are established exactly elsewhere; this module
samples random interior points and evaluates the monomial maps in log
space to confirm the emitted matrices behave numerically, which guards
the serialization path and catches transposition-style mistakes.

numpy is imported only inside the sampling code, when a check runs, so
importing this module (and so `blowup` and `blowup.cli`) does not load it.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Sequence

from . import exactla as la
from .errors import NotCompatible
from .manifolds import ChartAtlas

if TYPE_CHECKING:
    import numpy as np


SAMPLE_LOW, SAMPLE_HIGH = 0.1, 10.0  # range of the log-uniform samples


@dataclass(frozen=True)
class SamplePlan:
    count: int = 100
    seed: int = 0
    tolerance: float = 1e-9

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"tolerance {self.tolerance} is not positive")
        if not self.count > 0:
            raise ValueError(f"sample count {self.count} is not positive")


@dataclass
class CheckReport:
    passed: bool
    max_rel_error: float
    samples: int
    failures: List[str] = field(default_factory=list)


def _to_float(m) -> np.ndarray:
    import numpy as np
    return np.array([[float(Fraction(x)) for x in row] for row in m],
                    dtype=float)


def _log_samples(rng, count: int, dim: int) -> np.ndarray:
    import numpy as np
    return rng.uniform(np.log(SAMPLE_LOW), np.log(SAMPLE_HIGH), (count, dim))


def _shape(m) -> str:
    """rows x width, or rows x the widths if the rows differ."""
    widths = sorted({len(row) for row in m})
    return f"{len(m)} x {' or '.join(map(str, widths)) or 0}"


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    import numpy as np
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - b) / scale))


def verify_transitions(atlas: ChartAtlas,
                       plan: SamplePlan = SamplePlan()) -> CheckReport:
    """Sample each chart overlap: transition round trips must return the
    sampled point and the two blow-down maps must agree across the
    transition."""
    import numpy as np
    rng = np.random.default_rng(plan.seed)
    worst = 0.0
    failures = []
    total = 0
    nus = {e: _to_float(c.nu) for e, c in atlas.charts.items()}
    for (e1, e2), t12 in atlas.transitions.items():
        m12 = _to_float(t12)
        m21 = _to_float(atlas.transitions[(e2, e1)])
        logt = _log_samples(rng, plan.count, atlas.n)
        total += plan.count
        # Round trip in chart coordinates.
        rt = logt @ m12 @ m21
        err = _rel_err(np.exp(rt), np.exp(logt))
        worst = max(worst, err)
        if err > plan.tolerance:
            failures.append(f"round trip {e1}->{e2}: error {err:.3e}")
        # The two monomial blow-downs agree on the overlap.
        b1 = np.exp(logt @ nus[e1])
        b2 = np.exp(logt @ m12 @ nus[e2])
        err = _rel_err(b1, b2)
        worst = max(worst, err)
        if err > plan.tolerance:
            failures.append(f"blow-down mismatch {e1}->{e2}: "
                            f"error {err:.3e}")
    return CheckReport(not failures, worst, total, failures)


def verify_lift(delta: Sequence[Sequence[int]],
                nu: Sequence[Sequence],
                mu: Sequence[Sequence[int]],
                plan: SamplePlan = SamplePlan(),
                coefficients: Optional[Sequence[float]] = None
                ) -> CheckReport:
    """Check numerically that the lift x -> a^(nu^-1) x^mu followed by the
    chart map t -> t^nu reproduces x -> a x^delta.

    Raises:
        NotCompatible: if delta = mu @ nu does not hold exactly.
        ValueError: if nu is not a nonsingular k x k matrix with k >= 1,
            if delta and mu are not equally many rows k wide (at least
            one), or if the coefficients are not one finite positive number
            per chart coordinate.
    """
    k = len(nu)
    if not k or any(len(row) != k for row in nu):
        raise ValueError(f"nu is {_shape(nu)}, not k x k with k >= 1")
    for name, m in (("delta", delta), ("mu", mu)):
        if not m or any(len(row) != k for row in m):
            raise ValueError(f"{name} is {_shape(m)}, not one or more rows "
                             f"{k} wide (nu is {k} x {k})")
    if len(delta) != len(mu):
        raise ValueError(f"delta has {len(delta)} rows but mu has "
                         f"{len(mu)}")
    if la.det(nu) == 0:
        raise ValueError(f"nu ({k} x {k}) is singular")
    if la.mat_mul(la.mat(mu), la.mat(
            tuple(tuple(Fraction(x) for x in row) for row in nu))) != \
            la.mat(tuple(tuple(Fraction(x) for x in row) for row in delta)):
        raise NotCompatible("delta = mu @ nu must hold exactly")
    n = len(nu)
    a = [1] * n if coefficients is None else list(coefficients)
    if len(a) != n:
        raise ValueError(f"{len(a)} coefficients for {n} chart coordinates")
    for i, c in enumerate(a):
        if not (isinstance(c, numbers.Real) and 0 < c <= sys.float_info.max):
            raise ValueError(f"coefficient {i} is {c!r}, not a finite "
                             "positive number")
    import numpy as np
    d = _to_float(delta)
    nv = _to_float(nu)
    m = _to_float(mu)
    k, _ = d.shape
    rng = np.random.default_rng(plan.seed)
    logx = _log_samples(rng, plan.count, k)
    loga = np.log(np.asarray(a, dtype=float))
    log_lift = loga @ np.linalg.inv(nv) + logx @ m
    via_chart = np.exp(log_lift @ nv)
    direct = np.exp(loga + logx @ d)
    err = _rel_err(via_chart, direct)
    failures = [] if err <= plan.tolerance else \
        [f"lift mismatch: error {err:.3e}"]
    return CheckReport(not failures, err, plan.count, failures)
