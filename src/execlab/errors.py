"""Exception types shared across the package."""

from __future__ import annotations


class ExecLabError(Exception):
    """Base class for all package errors."""


class MalformedLine(ExecLabError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class UnknownKind(ExecLabError):
    def __init__(self, kind: str, line_no: int | None = None):
        where = f" at line {line_no}" if line_no is not None else ""
        super().__init__(f"unknown record kind {kind!r}{where}")
        self.kind = kind
        self.line_no = line_no


class FewerThanTwoKnots(ExecLabError):
    """A clock map needs at least two (local, exchange) timestamp pairs."""


class CrossedTicker(ExecLabError):
    """Ticker with bid >= ask; the record is rejected and the book unchanged."""


class UnsortedInput(ExecLabError):
    def __init__(self, position: int):
        super().__init__(f"records not sorted by local_ts at position {position}")
        self.position = position


class InvalidConfig(ExecLabError):
    """Synthetic market configuration failed validation."""


class ConfigError(ExecLabError):
    """Experiment config file failed parsing or schema validation."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class MissingInput(ExecLabError):
    """A path referenced by the config does not exist."""


class CheckpointError(ExecLabError):
    """A policy checkpoint file cannot be read back."""


class CaptureTooShort(ExecLabError):
    """Capture does not admit a single full execution episode."""


class OversellError(ExecLabError):
    """Action exceeds remaining inventory."""


class AllMaskedError(ExecLabError):
    """Action mask admits no legal action."""


class NonFiniteLossError(ExecLabError):
    """PPO loss or gradient went non-finite; the update is aborted."""


class DegenerateXError(ExecLabError):
    """Regressor has zero variance."""


class TooFewPointsError(ExecLabError):
    """Fewer than three paired observations for a regression."""
