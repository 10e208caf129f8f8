"""Exception types shared across the package."""


class BlowupError(Exception):
    """Base class for all structured errors raised by this package."""


class NotSaturated(BlowupError):
    """Generators span a monoid strictly smaller than lattice-cap-cone."""


class NotSharp(BlowupError):
    """The cone contains a line, so the monoid has a nontrivial unit."""


class NotPointedLattice(BlowupError):
    """Cone does not span the same subspace as the lattice."""


class NotInSupport(BlowupError):
    """A vector lies outside the support of the monoid."""


class NotAFace(BlowupError):
    """A claimed face is not a face of the given monoid."""


class NotARefinement(BlowupError):
    """A family of submonoids fails the refinement axioms."""


class NotAComplex(BlowupError):
    """Data fails the monoidal complex axioms."""


class NotCompatible(BlowupError):
    """A b-map does not factor through the given refinement."""


class NotSmooth(BlowupError):
    """A monoid or refinement required to be smooth is not."""


class NotSimplicial(BlowupError):
    """A monoid required to be simplicial is not."""


class DependentDifferentials(BlowupError):
    """Logarithmic differentials of a binomial system are dependent."""


class NotTransverse(BlowupError):
    """b-maps fail combinatorial b-transversality."""


class EnumerationTooLarge(BlowupError):
    """A lattice point enumeration would exceed its stated bound."""


class InvariantViolated(BlowupError):
    """An algorithm's own invariant failed (a defect, not bad input)."""
