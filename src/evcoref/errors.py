"""Exception types shared across the package.

Each class carries the exit code and the stderr label the CLI reports it
with; library code raises them so callers can tell bad input from failures.
"""


class EvcorefError(Exception):
    """Base class for all package errors."""

    exit_code = 2
    label = "error"


class ParseError(EvcorefError):
    """Malformed record in an input file; carries the offending line number."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{self.path}:{line_no}: {message}")


class IntegrityError(EvcorefError):
    """Structurally valid input that violates a corpus invariant."""


class ConfigError(EvcorefError):
    """Inconsistent or incomplete run configuration."""


class ModelMismatchError(EvcorefError):
    """Checkpoint, feature matrix, or model dimensions disagree."""

    exit_code = 4
    label = "model/feature mismatch"


class ScoringMismatchError(EvcorefError):
    """Gold and system clusterings do not cover the same mention set."""

    exit_code = 5
    label = "scoring mismatch"


class TrainingDivergedError(EvcorefError):
    """Loss became non-finite during training."""

    exit_code = 3
    label = "training failed"


class SamplerError(EvcorefError):
    """Training data cannot supply both coreferent and non-coreferent pairs."""

    exit_code = 3
    label = "training failed"
