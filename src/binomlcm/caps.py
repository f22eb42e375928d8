"""Resource caps for the expensive exact-arithmetic operations.

Caps are configuration, not hard-coded limits: every operation that can
blow up (full-row materialization, big fold lcms, sieving) takes a
``caps`` keyword and checks against it before doing work. The defaults
are sized for desk-scale runs.

The fields of ResourceCaps are the one table of caps: each gives its
default, its BINOMLCM_MAX_* environment variable (read only by the CLI;
the library itself never touches the environment) and the help text of
the CLI's matching --max-* flag, which wins over the variable.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .errors import ResourceCapError


def _cap(default: int, env: str, flag_help: str):
    return dataclasses.field(default=default, metadata={"env": env, "help": flag_help})


@dataclass(frozen=True)
class ResourceCaps:
    """Per-method feasibility caps."""

    sieve_limit: int = _cap(10_000_000, "BINOMLCM_MAX_SIEVE", "sieve limit")
    full_row_n: int = _cap(5_000, "BINOMLCM_MAX_ROW", "full-row n cap")
    fold_range_n: int = _cap(100_000, "BINOMLCM_MAX_FOLD", "fold range-lcm n cap")
    valuation_n: int = _cap(1_000_000, "BINOMLCM_MAX_VALUATION", "valuation-method n cap")

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if value < 0:
                raise ValueError(f"resource cap {field.name} must be >= 0, got {value}")

    def replace(self, **overrides) -> "ResourceCaps":
        return dataclasses.replace(self, **overrides)

    @classmethod
    def from_env(cls, env=os.environ) -> "ResourceCaps":
        overrides = {}
        for field in dataclasses.fields(cls):
            var = field.metadata["env"]
            raw = env.get(var)
            if raw is None:
                continue
            try:
                overrides[field.name] = int(raw)
            except ValueError as exc:
                raise ValueError(f"{var} must be an integer, got {raw!r}") from exc
        return cls(**overrides)


DEFAULT_CAPS = ResourceCaps()


def check_cap(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise ResourceCapError(f"{what} {value} exceeds the configured cap {cap}")
