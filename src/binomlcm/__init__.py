"""binomlcm: exact lcm computation and verification for binomial rows.

The least common multiple of a binomial row C(n,0..n) can be computed
three independent ways (direct fold, range-lcm quotient, per-prime
carry maxima); this package implements all three, cross-checks them,
machine-verifies the five identities that tie them together, and checks
the classical growth bounds on lcm(1..n). Everything numeric is exact
big-integer arithmetic.

Each module's __all__ is its share of the public surface, and the
package re-exports them: each star import also binds its module here.
"""

from .bounds import *
from .caps import *
from .digits import *
from .engine import *
from .errors import *
from .identities import *
from .valuation import *

__version__ = "0.1.0"

# Served from .bench on first use (PEP 562): only `binomlcm bench` needs the
# timing harness, so importing the package, or the CLI, does not load it.
# These must be bench.__all__, which tests/test_import_path.py pins.
_BENCH_NAMES = {"BenchRecord", "Task", "bench_range_methods", "bench_row_methods"}


def __getattr__(name: str):
    if name in _BENCH_NAMES:
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(
    _BENCH_NAMES.union(
        *(m.__all__ for m in (bounds, caps, digits, engine, errors, identities, valuation))
    )
)
