"""Shared exception types."""


class QsoError(Exception):
    """Base class for all package errors."""


class DenominatorVanishes(QsoError):
    """Evaluation point is a pole of the rational function."""


class AlphabetMismatch(QsoError):
    """Noncommutative polynomials over different generator alphabets."""


class IndexOutOfRange(QsoError):
    """Generator or matrix index outside 1..N (or 1..M)."""


class DegreeOverflow(QsoError):
    """Target degree exceeds the requested saturation bound."""


class NotInZSpan(QsoError):
    """Element does not lie in the span of the quadric generators z_ij."""


class DecompositionSingular(QsoError):
    """Lefschetz decomposition linear system is singular at the sample."""


class RepresentationInconsistent(QsoError):
    """The fixed tables of the vector representation fail the E-F
    commutator."""


class NonDominantWeight(QsoError):
    """Weight is not dominant; Weyl dimension undefined."""


class BoundNotCleared(QsoError):
    """Shell minima never exceeded the requested bound."""


class ParamsNotValidated(UserWarning):
    """Spectral parameters used without prior validation."""
