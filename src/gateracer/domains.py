"""Each config field declares its domain beside its default, as
`tau: float = POSITIVE(0.3)`, and building a config block checks every
field against its domain in one place."""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Callable

# what a value of each kind is called; an int is also a float here
_KINDS = {int: "an integer", float: "a number", bool: "true or false",
          str: "a string"}


@dataclass(frozen=True)
class Domain:
    """The values a config field takes: those of `kind` that pass `test`,
    and also null when `nullable`. A bool is of no other kind. `text`
    names the values `test` passes; each test is written so that NaN
    fails it."""

    text: str = ""
    test: Callable[[object], bool] = lambda v: True
    kind: type = float
    nullable: bool = False

    def __call__(self, default):
        """A dataclass field of this domain with `default`."""
        return dataclasses.field(default=default, metadata={"domain": self})

    def error(self, v) -> str | None:
        """None when v is in the domain, else what the field takes."""
        if self.nullable and v is None:
            return None
        kinds = (int, float) if self.kind is float else self.kind
        if isinstance(v, kinds) and isinstance(v, bool) == (self.kind is bool):
            if self.test(v):
                return None
            what = self.text
        else:
            what = _KINDS[self.kind]
        return f"null or {what}" if self.nullable else what


# the largest finite float: an int beyond it converts to no float
_MAX = sys.float_info.max
POSITIVE = Domain("positive and finite", lambda v: 0 < v <= _MAX)
NON_NEGATIVE = Domain("non-negative and finite", lambda v: 0 <= v <= _MAX)
FINITE = Domain("finite", lambda v: -_MAX <= v <= _MAX)
NON_POSITIVE = Domain("finite and at most 0", lambda v: -_MAX <= v <= 0)
AT_LEAST_ONE = Domain("finite and at least 1", lambda v: 1 <= v <= _MAX)
COUNT = Domain("at least 1", lambda v: v >= 1, int)
NATURAL = Domain("at least 0", lambda v: v >= 0, int)
POSITIVE_OR_NULL = dataclasses.replace(POSITIVE, nullable=True)
FLAG = Domain(kind=bool)


class ConfigBlock:
    """Base of the config dataclasses: building one checks each field
    against the Domain it declares. A tuple field holds as many numbers
    as its default, each in the domain. A subclass with a rule across
    fields checks it after calling this."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            domain, v = f.metadata["domain"], getattr(self, f.name)
            if isinstance(f.default, tuple):
                n = len(f.default)
                ok = (isinstance(v, (tuple, list)) and len(v) == n
                      and not any(map(domain.error, v)))
                what = None if ok else f"{n} numbers, each {domain.text}"
            else:
                what = domain.error(v)
            if what:
                raise ValueError(f"{f.name} must be {what}, got {v!r}")
