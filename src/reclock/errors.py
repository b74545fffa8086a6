"""Exception hierarchy shared across the package."""


class ReclockError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(ReclockError, ValueError):
    """A constructor or precondition rejected its inputs."""


class ClockDomainError(ValidationError):
    """A clock value fell outside the domain of its time map."""


class CoverageError(ValidationError):
    """A reference trajectory or record does not cover the requested interval."""


class ScenarioError(ValidationError):
    """A scenario file failed to parse or validate."""


class NumericalError(ReclockError, RuntimeError):
    """A run could not finish: a solve or integration failed, or an invariant broke."""
