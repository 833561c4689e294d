"""Exception hierarchy shared across the package."""


class LsafError(Exception):
    """Base class for all package errors."""


class ShapeError(LsafError):
    """Tensor dimensions are incompatible with the requested operation."""


class ConfigError(LsafError):
    """A hyperparameter or layer configuration is invalid; `key` names the
    setting at fault where there is one."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class ContractError(LsafError):
    """An API was used outside its contract (e.g. backward on a non-scalar)."""


class FormatError(LsafError):
    """A file does not match the documented binary layout."""


class RegistrationError(LsafError):
    """Co-registered rasters disagree on their spatial grid."""


class NumericError(LsafError):
    """A computation produced NaN/Inf where finite values are required."""
