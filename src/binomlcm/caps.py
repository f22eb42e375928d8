"""Resource caps for the expensive exact-arithmetic operations.

Caps are configuration, not hard-coded limits: every operation that can
blow up (full-row materialization, big fold lcms, sieving) takes a
``caps`` keyword and checks against it before doing work. The defaults
are sized for desk-scale runs.

CAP_FIELDS is the one table of caps: each row gives a field of
ResourceCaps, its default, its BINOMLCM_MAX_* environment variable (read
only by the CLI; the library itself never touches the environment) and
the help text of the CLI's matching --max-* flag, which wins over the
variable.
"""

from __future__ import annotations

import os
from collections import namedtuple
from typing import NamedTuple

from .errors import DomainError, ResourceCapError, require_int

__all__ = ["DEFAULT_CAPS", "ResourceCaps"]


class CapField(NamedTuple):
    name: str
    default: int
    env: str
    help: str


CAP_FIELDS = (
    CapField("sieve_limit", 10_000_000, "BINOMLCM_MAX_SIEVE", "sieve limit"),
    CapField("full_row_n", 5_000, "BINOMLCM_MAX_ROW", "full-row n cap"),
    CapField("fold_range_n", 100_000, "BINOMLCM_MAX_FOLD", "fold range-lcm n cap"),
)


class ResourceCaps(namedtuple("_CapsFields", [f.name for f in CAP_FIELDS], defaults=[f.default for f in CAP_FIELDS])):
    """Per-method feasibility caps; every way of building one refuses a cap that is not an int >= 0."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "ResourceCaps":
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            require_int(value, 0, f"resource cap {name} must be an int >= 0, got {{!r}}")
        return self

    @classmethod
    def _make(cls, iterable) -> "ResourceCaps":
        # namedtuple's _make (and so _replace) would skip __new__'s check.
        return cls(*iterable)

    def replace(self, **overrides) -> "ResourceCaps":
        return self._replace(**overrides)

    @classmethod
    def from_env(cls, env=os.environ) -> "ResourceCaps":
        overrides = {}
        for field in CAP_FIELDS:
            raw = env.get(field.env)
            if raw is None:
                continue
            try:
                overrides[field.name] = int(raw)
            except ValueError as exc:
                raise DomainError(f"{field.env} must be an integer, got {raw!r}") from exc
        return cls(**overrides)


DEFAULT_CAPS = ResourceCaps()


def check_cap(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise ResourceCapError(f"{what} {value} exceeds the configured cap {cap}")
