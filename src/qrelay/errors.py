"""Exception types shared across the simulator."""


class QRelayError(Exception):
    """Base class for all simulator errors."""


class RegistryMismatchError(QRelayError):
    """Two states or a state and an operation disagree about the mode registry."""


class BinOverflowError(QRelayError):
    """A bin delay would move an occupied mode past the last registered bin."""


class OccupiedModeError(QRelayError):
    """A closed-form emission targets a mode that already holds photons."""


class UnnormalizedStateError(QRelayError):
    """A state's branch, or a set of branch weights, that must be normalized is not."""


class DimensionMismatchError(QRelayError):
    """A transform matrix does not match the number of listed modes."""


class TailMassError(QRelayError):
    """Truncating a pair-number distribution would discard too much probability."""


class HarmonicSynthesisError(QRelayError):
    """A scan synthesized from its harmonic or polynomial samples fell below
    zero by more than rounding."""


class LabelMixingError(QRelayError):
    """A circuit couples two internal labels where a shortcut needs them
    kept apart."""


class ConfigError(QRelayError):
    """Bad configuration value or unknown configuration key."""


class InsufficientPointsError(QRelayError):
    """A fit was asked to run on too few points or too small a scan span."""


class FitConvergenceError(QRelayError):
    """An iterative fit failed to converge."""
