"""Exception types shared across the package."""


class NlampError(Exception):
    """Base class for all package-specific errors."""


class TruncationError(NlampError):
    """Photon-number truncation would discard non-negligible amplitude."""


class DimensionMismatchError(NlampError):
    """Operands live in Fock spaces of different truncation dimension."""


class ZeroNormError(NlampError):
    """State has (numerically) zero norm; expectation values are undefined."""


class ZeroProbabilityError(NlampError):
    """Conditioning on an outcome whose probability is numerically zero."""


class GridMismatchError(NlampError):
    """Two phase-space grids do not share the same geometry."""


class BoundaryMassError(NlampError):
    """State is not contained in the grid; boundary values are too large."""


class InfeasibleError(NlampError):
    """No point of the search box satisfies the optimization constraint."""
