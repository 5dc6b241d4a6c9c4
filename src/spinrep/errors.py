"""Exception types shared across the package."""


class SpinrepError(Exception):
    """Base class for all library errors."""


class DegenerateMetric(SpinrepError):
    """Metric determinant below the degeneracy tolerance."""


class NotIsometry(SpinrepError):
    """Linear map does not preserve the metric within tolerance."""


class LiftNotFound(SpinrepError):
    """Conjugation system solver found no usable null vector."""


class ConfigError(SpinrepError):
    """Malformed CLI configuration (bad metric, flag or matrix input)."""
