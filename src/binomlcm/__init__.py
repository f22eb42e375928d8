"""binomlcm: exact lcm computation and verification for binomial rows.

The least common multiple of a binomial row C(n,0..n) can be computed
three independent ways (direct fold, range-lcm quotient, per-prime
carry maxima); this package implements all three, cross-checks them,
machine-verifies the five identities that tie them together, and checks
the classical growth bounds on lcm(1..n). Everything numeric is exact
big-integer arithmetic.
"""

from .bounds import BoundsRecord, check_bounds, psi_table
from .caps import DEFAULT_CAPS, ResourceCaps
from .digits import decimal_digits, decimal_str
from .engine import (
    BinomialRow,
    PrimePowerFactorization,
    binomial_row,
    iter_binomial_rows,
    lcm_range,
    lcm_sequence,
    row_lcm_farhi,
    row_lcm_naive,
    row_lcm_valuation,
    sieve_primes,
)
from .errors import DomainError, InternalConsistencyError, ResourceCapError
from .identities import (
    EquivalenceChainReport,
    IdentityReport,
    Theorem,
    chain_range,
    equivalence_chain,
    termwise_identity,
    verify_farhi,
    verify_nair,
    verify_range,
    verify_theorem3,
    verify_theorem4,
    verify_theorem5,
)
from .valuation import (
    Prime,
    binomial_valuation,
    kummer_binomial_valuation,
    legendre_factorial_valuation,
    max_binomial_valuation,
)

__version__ = "0.1.0"

# Served from .bench on first use (PEP 562): only `binomlcm bench` needs the
# timing harness, so importing the package, or the CLI, does not load it.
_BENCH_NAMES = {"BenchRecord", "Task", "bench_range_methods", "bench_row_methods"}


def __getattr__(name: str):
    if name in _BENCH_NAMES:
        from . import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BenchRecord",
    "BinomialRow",
    "BoundsRecord",
    "DEFAULT_CAPS",
    "DomainError",
    "EquivalenceChainReport",
    "IdentityReport",
    "InternalConsistencyError",
    "Prime",
    "PrimePowerFactorization",
    "ResourceCapError",
    "ResourceCaps",
    "Task",
    "Theorem",
    "bench_range_methods",
    "bench_row_methods",
    "binomial_row",
    "binomial_valuation",
    "chain_range",
    "check_bounds",
    "decimal_digits",
    "decimal_str",
    "equivalence_chain",
    "iter_binomial_rows",
    "kummer_binomial_valuation",
    "lcm_range",
    "lcm_sequence",
    "legendre_factorial_valuation",
    "max_binomial_valuation",
    "psi_table",
    "row_lcm_farhi",
    "row_lcm_naive",
    "row_lcm_valuation",
    "sieve_primes",
    "termwise_identity",
    "verify_farhi",
    "verify_nair",
    "verify_range",
    "verify_theorem3",
    "verify_theorem4",
    "verify_theorem5",
]
