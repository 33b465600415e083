"""Exception types shared across the package."""


class NonlocError(Exception):
    """Base class for every failure mode raised by this package."""


class DimensionMismatch(NonlocError):
    """Party counts of two objects disagree."""


class SignalingDistribution(NonlocError):
    """A joint distribution violates the non-signaling constraints."""


class OptimizerDidNotConverge(NonlocError):
    """An iterative optimization stopped without meeting its stationarity target."""


class DegenerateSettings(NonlocError):
    """Measurement rays admit no unique passing state with nonzero success amplitude."""


class DegenerateX(NonlocError):
    """The requested setting parameter sits on (or too near) an excluded value,
    or the success probability vanishes identically along its phase."""


class SingularDenominator(NonlocError):
    """A closed-form solver formula hit a vanishing denominator."""


class NotEntangled(NonlocError):
    """The state fails the genuine-entanglement requirement."""


class NumericalFailure(NonlocError):
    """A computed result failed its own validation check."""
