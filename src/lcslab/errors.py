"""Exception taxonomy shared across the package."""

from __future__ import annotations


class LcsError(Exception):
    """Base class for every error raised by lcslab."""


class UsageError(LcsError):
    """Operation called with structurally wrong arguments (chart mismatch,
    bad degree, unsupported dimension, ...)."""


class ChartMismatchError(UsageError):
    pass


class DomainError(LcsError):
    """A point falls outside the chart's declared domain."""


class ParseError(LcsError):
    """Expression or document parse failure, annotated with a position."""

    def __init__(self, message: str, pos: int, text: str | None = None):
        self.pos = pos
        self.text = text
        loc = f" at position {pos}"
        caret = ""
        if text is not None:
            caret = f"\n  {text}\n  {' ' * pos}^"
        super().__init__(f"{message}{loc}{caret}")


class DegenerateInputError(LcsError):
    """Numerically singular input where a unique solution was required."""


class PreconditionError(LcsError):
    """A verified precondition failed; carries the offending report."""

    def __init__(self, message: str, report=None):
        self.report = report
        super().__init__(message)


class NotHomothetyError(LcsError):
    """A map expected to scale a form by a constant does not."""

    def __init__(self, message: str, spread: float | None = None):
        self.spread = spread
        super().__init__(message)


class InvalidComplexError(LcsError):
    """Simplicial complex or edge weighting fails validation."""


class InvalidStructureError(LcsError):
    """An endomorphism expected to square to -id does not."""
