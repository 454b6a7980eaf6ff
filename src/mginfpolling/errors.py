"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ModelError(ValueError):
    """The model is structurally invalid (too few queues, degenerate laws)."""


class UnsupportedModelError(ModelError):
    """The model is valid but outside what this operation can evaluate."""


class NumericsError(RuntimeError):
    """A numerical routine missed its accuracy target or exceeded a size cap."""


class ConfigError(ValueError):
    """A configuration file failed to parse or validate."""
