"""Exception types shared across the package; the CLI maps them to exit codes."""


class DimensionError(ValueError):
    """Operand shapes do not satisfy an operation's contract."""


class PatternError(ValueError):
    """A structured-sparsity pattern cannot apply to the given shape."""


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


class ArchitectureError(ValueError):
    """Two models that must agree structurally do not."""


class CompressedPathError(ValueError):
    """The compressed execution path was requested for an incompatible model."""


class TrainingError(RuntimeError):
    """Training failed at runtime, for example because the loss diverged."""
