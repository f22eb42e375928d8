"""Resource caps for the expensive exact-arithmetic operations.

Caps are configuration, not hard-coded limits: every operation that can
blow up (full-row materialization, big fold lcms, sieving) takes a
``caps`` keyword and checks against it before doing work. The defaults
are sized for desk-scale runs.

Environment variables (read only by the CLI; the library itself never
touches the environment):

    BINOMLCM_MAX_SIEVE       sieve limit            (default 10_000_000)
    BINOMLCM_MAX_ROW         full-row n cap         (default 5_000)
    BINOMLCM_MAX_FOLD        fold range-lcm n cap   (default 100_000)
    BINOMLCM_MAX_VALUATION   valuation-method n cap (default 1_000_000)

CLI --max-* flags win over environment variables.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass

from .errors import ResourceCapError

_ENV_FIELDS = {
    "BINOMLCM_MAX_SIEVE": "sieve_limit",
    "BINOMLCM_MAX_ROW": "full_row_n",
    "BINOMLCM_MAX_FOLD": "fold_range_n",
    "BINOMLCM_MAX_VALUATION": "valuation_n",
}


@dataclass(frozen=True)
class ResourceCaps:
    """Per-method feasibility caps."""

    sieve_limit: int = 10_000_000
    full_row_n: int = 5_000
    fold_range_n: int = 100_000
    valuation_n: int = 1_000_000

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
        for var, field in _ENV_FIELDS.items():
            raw = env.get(var)
            if raw is None:
                continue
            try:
                overrides[field] = int(raw)
            except ValueError as exc:
                raise ValueError(f"{var} must be an integer, got {raw!r}") from exc
        return cls(**overrides)


DEFAULT_CAPS = ResourceCaps()


def check_cap(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise ResourceCapError(f"{what} {value} exceeds the configured cap {cap}")
