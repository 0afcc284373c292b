"""Exception types shared across the package.

Everything raised on purpose derives from SceneContrastError so callers
can catch one base class at the CLI boundary.
"""


class SceneContrastError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(SceneContrastError):
    """A config value, flag, or parameter combination is invalid."""


class ShapeError(SceneContrastError):
    """An array argument has the wrong shape, dtype, or size."""


class FormatError(SceneContrastError):
    """A scene file or checkpoint is malformed.

    ``offset`` is the byte offset at which decoding failed and the message
    names the file and the section being read.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ContractViolationError(SceneContrastError):
    """An internal invariant was broken, e.g. a stale forward cache."""


class DegenerateBatchError(SceneContrastError):
    """A batch's data are degenerate: too few valid regions, or a prototype
    collapsed to zero norm.  The step must be skipped."""


class TrainingError(SceneContrastError):
    """Training cannot proceed (e.g. every batch of an epoch degenerate)."""
