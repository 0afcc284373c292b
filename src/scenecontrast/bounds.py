"""One table of bounds per user input, a dict from field name to ``Bound``;
README's bounds table is tested against them."""

import math
import numbers
import operator
from dataclasses import dataclass

from .errors import ConfigurationError

_OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "<=": operator.le}
# the values a row of each kind takes, bool excepted, and their name in a message
_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a real number")}


@dataclass(frozen=True)
class Bound:
    """An interval: ``ends`` marks each end closed "[", "]" or open "(", ")",
    and None leaves it unbounded.  A value must be of the row's kind, any
    integral number for an int and any real one for a float, and a float
    must also be finite.  ``source`` says where the high comes from: a
    dtype, a format field or a desk budget, which keeps one run at desk
    defaults under about a day."""

    kind: type
    low: float | None = None
    high: float | None = None
    ends: str = "[]"
    source: str = ""

    def violation(self, name: str, value) -> str | None:
        """The message naming the field, the bound and the value, or None."""
        accepted, noun = _KINDS[self.kind]
        if isinstance(value, bool) or not isinstance(value, accepted):
            return f"{name} must be {noun}, got {value}"
        if self.kind is float and not -math.inf < value < math.inf:
            return f"{name} must be finite, got {value}"
        for end, op in ((self.low, ">=" if self.ends[0] == "[" else ">"),
                        (self.high, "<=" if self.ends[1] == "]" else "<")):
            if end is not None and not _OPS[op](value, end):
                return f"{name} must be {op} {end}, got {value}"
        return None


def check(table: dict[str, Bound], values: dict, fail=None) -> None:
    """Raise for the first field of ``table`` whose value in ``values`` is out
    of bounds, skipping a field absent or None there: ``fail(message, index)``
    with the field's index in the table, or else a ConfigurationError."""
    for index, (name, bound) in enumerate(table.items()):
        value = values.get(name)
        if value is not None and (message := bound.violation(name, value)):
            raise fail(message, index) if fail else ConfigurationError(message)
