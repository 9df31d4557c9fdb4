"""Exception and warning types shared across the toolkit."""

__all__ = [
    "TubelossError",
    "InputFormatError",
    "NumericalValidityError",
    "PlaneWaveCutoffWarning",
    "SingularBinWarning",
    "AnechoicQualityWarning",
    "NegativeInsertionLossWarning",
    "MassLawValidityWarning",
]


class TubelossError(Exception):
    """Base class for toolkit-specific errors."""


class InputFormatError(TubelossError, ValueError):
    """A file could not be parsed or fails its schema."""

    def __init__(self, message, path=None, line=None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}: " if line is None else f"{path}:{line}: "
        super().__init__(prefix + message)


class NumericalValidityError(TubelossError, ArithmeticError):
    """A computation has no numerically valid result for its inputs."""


class PlaneWaveCutoffWarning(UserWarning):
    """Frequencies above the tube's plane-wave cutoff were analyzed but flagged."""


class SingularBinWarning(UserWarning):
    """Half-wavelength microphone spacing excluded one or more bins."""


class AnechoicQualityWarning(UserWarning):
    """Downstream backward wave is too strong for the anechoic assumption.

    The message quotes a row's largest finite |D/C|, ``worst``, and the
    ``threshold`` it exceeds, to four significant digits.
    """

    def __init__(self, worst: float, threshold: float):
        super().__init__(f"anechoic assumption violated: max |D/C| = {worst:.4g} exceeds {threshold:.4g}")


class NegativeInsertionLossWarning(UserWarning):
    """Insertion loss came out negative in at least one band."""


class MassLawValidityWarning(UserWarning):
    """A mass-law prediction came out negative, below the rule's validity, in some band."""
