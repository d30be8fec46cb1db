"""Exception types shared across the package.

Everything raised on bad input data derives from :class:`LogblendError`,
so callers (and the CLI) can distinguish data problems from genuine bugs.
Plain ``OSError`` is left alone for unreadable/unwritable files.
"""

from __future__ import annotations


class LogblendError(Exception):
    """Base class for all data and usage errors raised by this package."""


class DataFormatError(LogblendError):
    """A file read, or data about to be written, does not fit its format."""


class AlignmentError(LogblendError):
    """A log message could not be aligned against a template."""

    def __init__(self, content: str, template: str):
        super().__init__(f"content {content!r} does not match template {template!r}")
        self.content = content
        self.template = template


class LabelingError(LogblendError):
    """An operation requiring ground-truth templates hit unlabeled records."""

    def __init__(self, message: str, line_ids: list[int] | None = None):
        if line_ids:
            message = f"{message} (line ids: {_preview(line_ids)})"
        super().__init__(message)
        self.line_ids = line_ids or []


class ShapeError(LogblendError):
    """Predicted and ground-truth sequences have mismatched lengths."""


class EmptyDatasetError(LogblendError):
    """Operation is undefined on an empty dataset."""


class EmptyPoolError(LogblendError):
    """Mixing or fuzzing was given an empty (or fully excluded) pool."""


class InvalidReferenceError(LogblendError):
    """Reference statistics contain a non-positive component."""


class InsufficientDataError(LogblendError):
    """Too few datasets for a cross-dataset statistic."""


class AllocationError(LogblendError):
    """A dataset cannot supply the number of records requested from it."""


def _preview(ids: list[int], limit: int = 10) -> str:
    shown = ", ".join(str(i) for i in ids[:limit])
    if len(ids) > limit:
        shown += f", ... ({len(ids)} total)"
    return shown
