"""Exception hierarchy for taboowalk."""


class TabooWalkError(Exception):
    """Base class for all taboowalk errors."""


class ModelError(TabooWalkError):
    """A candidate jump table failed validation."""


class EmptySupport(ModelError):
    pass


class ZeroJumpInSupport(ModelError):
    pass


class NonpositiveRate(ModelError):
    pass


class AsymmetricRates(ModelError):
    pass


class NotIrreducible(ModelError):
    pass


class SingularHessian(TabooWalkError):
    """Internal consistency failure: cannot occur for a validated model."""


class NotConverged(TabooWalkError):
    """Quadrature refinement limit hit before reaching the requested tolerance.

    Carries the best available value and its error estimate so callers can
    decide whether to accept it anyway.
    """

    def __init__(self, message, value=None, est_error=None):
        super().__init__(message)
        self.value = value
        self.est_error = est_error


class DivergentGreenFunction(TabooWalkError):
    """G_0 requested in a recurrent dimension (d <= 2)."""


class InvalidQuery(TabooWalkError):
    """Taboo query violates y != z, dimension, or dispatch preconditions."""


class StepTooCoarse(TabooWalkError):
    """Time grid too coarse for the requested curve operation."""


class ExtrapolationUnstable(TabooWalkError):
    """Tail-constant ladder estimates did not settle; partial data attached."""

    def __init__(self, message, estimates=None):
        super().__init__(message)
        self.estimates = estimates


class QueryOutsideBox(TabooWalkError):
    pass


class DegenerateSamples(TabooWalkError):
    pass
