"""Exception types shared across the package."""

from __future__ import annotations


class ShiftLabError(Exception):
    """Base class for all package errors."""


class DepthExceededError(ShiftLabError):
    """A request went past the depth an oracle or word set can certify."""


class NotInLanguageError(ShiftLabError):
    """A word was assumed admissible but is not."""


class EmptyLanguageError(ShiftLabError):
    """A shift construction pruned away every symbol."""


class ExpansionUncertainError(ShiftLabError):
    """A beta-expansion digit cannot be resolved within tolerance."""


class NotSynchronisingError(ShiftLabError):
    """A word asserted to be synchronising fails the depth-certified check."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotSpecifiedError(ShiftLabError):
    """The gluing condition [I] fails for the given collection and tau."""


class CertExhaustedError(ShiftLabError):
    """A refinement or certificate search ran out of depth before deciding."""


class PeriodicFamilyError(ShiftLabError):
    """Every enumerated good word lies on a single periodic orbit."""


class NoPeriodicPointsError(ShiftLabError):
    """No periodic points exist up to the requested horizon."""


class NoValidParametersError(ShiftLabError):
    """No parameter pair in the search grid meets the margin rule."""


class InconsistentDecipherabilityError(ShiftLabError):
    """A tower's irreducible words fail its loop-sum check: at zero potential
    Sardinas-Patterson finds them not uniquely decipherable, elsewhere the
    graph-side and word-side loop sums disagree beyond tolerance."""


class ConfigError(ShiftLabError):
    """An experiment configuration failed validation."""

    def __init__(self, message: str, diagnostics=None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])
