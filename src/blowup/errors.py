"""Exception types shared across the package.

Two kinds of error reach a user: `MalformedDocument` for input that does
not parse (the command line exits 2) and the `BlowupError` subclasses for
well-formed input that fails a check (exit 1).  Any other exception is a
defect in the package.
"""


class MalformedDocument(Exception):
    """Input does not parse: a document or argument that breaks its
    schema, or arguments of the wrong shape given to a library call."""


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
