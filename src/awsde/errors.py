"""Exception types shared across the package."""

__all__ = [
    "AwsdeError",
    "ConfigurationError",
    "AssumptionError",
    "StepSizeError",
    "BracketError",
]


class AwsdeError(Exception):
    """Base class for package errors."""


class ConfigurationError(AwsdeError, ValueError):
    """Missing or inconsistent user-supplied constants or options.

    Also a :class:`ValueError`, so callers that catch bad values generically
    keep working.
    """


class AssumptionError(AwsdeError):
    """A declared regularity assumption fails on a probe set."""


class StepSizeError(AwsdeError):
    """A step-size guard is violated in strict mode."""


class BracketError(AwsdeError):
    """Root bracketing failed to enclose a sign change."""
