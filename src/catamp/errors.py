"""Exception types shared across the package."""


class CatampError(Exception):
    """Base class for all library errors."""


class DegenerateStateError(CatampError):
    """A state collapsed to (numerical) zero where a normalized result was required."""


class TruncationError(CatampError):
    """The requested Fock truncation cannot certify the required tail mass."""


class DivergentGainError(CatampError):
    """The optimized gain diverges for the requested parameters."""


class OptimizationError(CatampError):
    """A gain optimum could not be located."""
