"""Exception types shared across the package."""


class MetaLoraError(Exception):
    """Base class for all package errors."""


class DimensionError(MetaLoraError):
    """Operand shapes are incompatible."""

    def __init__(self, op: str, *shapes):
        self.shapes = shapes
        super().__init__(f"{op}: incompatible shapes {' vs '.join(str(s) for s in shapes)}")


class RankError(MetaLoraError):
    """Adapter rank constraints violated (need r2 <= r1 <= min(d1, d2))."""


class NumericError(MetaLoraError):
    """Non-finite value encountered where finite math is required."""


class CheckpointError(MetaLoraError):
    """Checkpoint file is malformed. Carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class ManifestError(MetaLoraError):
    """Evaluation manifest is malformed."""


class ConfigError(MetaLoraError):
    """Run configuration file is invalid or contains unknown keys."""


class ConvergenceError(MetaLoraError):
    """Training failed to reach its target within the iteration budget."""
