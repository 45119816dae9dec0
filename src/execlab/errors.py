"""Exception types shared across the package, and `open_output`, the one place
an output file is opened."""

from __future__ import annotations

import contextlib
import os
import stat
from pathlib import Path
from typing import IO, Iterator


class ExecLabError(Exception):
    """Base class for all package errors."""


class MalformedLine(ExecLabError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class UnknownKind(ExecLabError):
    def __init__(self, kind: str, line_no: int):
        super().__init__(f"unknown record kind {kind!r} at line {line_no}")
        self.kind = kind
        self.line_no = line_no


class FewerThanTwoKnots(ExecLabError):
    """A clock map needs at least two (local, exchange) timestamp pairs."""


class CrossedTicker(ExecLabError):
    """Ticker with bid >= ask; the record is rejected and the book unchanged."""


class VolumeOverflow(ExecLabError):
    """A frame's summed taker volume is not a finite number."""


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
    """An input path is not configured, does not exist or is not a regular file."""


class UnwritableOutput(ExecLabError):
    """An output file or directory cannot be created or written."""


@contextlib.contextmanager
def open_output(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open `path` for writing: text as UTF-8, line ends written as given, or bytes with "wb".

    A failure to create the file, or to write to it, is UnwritableOutput.  A
    regular file that an exception cut short is removed, so no partial output
    is left behind; a device such as /dev/stdout is never removed.
    """
    try:
        fh = open(path, mode) if "b" in mode else open(path, mode, encoding="utf-8", newline="")
    except OSError as exc:
        raise UnwritableOutput(f"cannot create {path}: {exc.strerror or exc}") from exc
    regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    try:
        with fh:
            yield fh
    except BaseException as exc:
        if regular:
            with contextlib.suppress(OSError):
                os.remove(path)
        # An error writing to this file names no file; one naming a file came from elsewhere.
        if isinstance(exc, OSError) and exc.filename is None:
            raise UnwritableOutput(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


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
