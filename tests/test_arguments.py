"""Every integer argument of the public functions refuses what is not an int.

A float n once ran on to an answer that is not exact, and a bool passed
as the int it is to Python. errors.require_int is the one check; each
case here calls a public function with one such argument and expects a
DomainError that shows the value.
"""

import re

import pytest

from binomlcm import (
    DomainError,
    binomial_valuation,
    check_bounds,
    iter_binomial_rows,
    kummer_binomial_valuation,
    lcm_range,
    lcm_sequence,
    legendre_factorial_valuation,
    max_binomial_valuation,
    psi_table,
    row_lcm_farhi,
    row_lcm_naive,
    row_lcm_valuation,
    sieve_primes,
    termwise_identity,
    verify_range,
)
from binomlcm.engine import iter_range_lcms

CASES = [
    # Without the check these returned 8.0, 3, 1, reports at n = 2 and 3,
    # records at n = 5 and 10, and 3.
    ("legendre-float-n", lambda: legendre_factorial_valuation(10.5, 2), "10.5"),
    ("binomial-float-n", lambda: binomial_valuation(10.5, 3, 2), "10.5"),
    ("max-float-n", lambda: max_binomial_valuation(10.5, 3), "10.5"),
    ("verify-float-first", lambda: verify_range("T1", 1.5, 3), "1.5"),
    ("psi-float-step", lambda: psi_table(10, 2.5), "2.5"),
    ("kummer-float-k", lambda: kummer_binomial_valuation(10, 3.0, 2), "3.0"),
    # Without it each of these answered for the bool as the int it is.
    ("legendre-bool-n", lambda: legendre_factorial_valuation(True, 2), "True"),
    ("kummer-bool-k", lambda: kummer_binomial_valuation(4, True, 2), "True"),
    ("max-bool-n", lambda: max_binomial_valuation(True, 2), "True"),
    ("verify-bool-last", lambda: verify_range("T1", 1, True), "True"),
    ("psi-bool-max-n", lambda: psi_table(True), "True"),
    ("lcm-range-bool-n", lambda: lcm_range(True), "True"),
    ("check-bounds-bool-n", lambda: check_bounds(True), "True"),
    ("termwise-bool-t", lambda: termwise_identity(3, True), "True"),
    ("sieve-bool-limit", lambda: sieve_primes(True), "True"),
    # Without it these raised a TypeError from deep inside, the rows only
    # after yielding row 0.
    ("lcm-range-float-n", lambda: lcm_range(10.5), "10.5"),
    ("check-bounds-float-n", lambda: check_bounds(10.0), "10.0"),
    ("termwise-float-n", lambda: termwise_identity(4.0, 2), "4.0"),
    ("sieve-float-limit", lambda: sieve_primes(10.5), "10.5"),
    ("rows-float-n-max", lambda: next(iter_binomial_rows(2.5)), "2.5"),
    ("range-lcms-float-limit", lambda: next(iter_range_lcms(3.0)), "3.0"),
    # lcm_sequence refused these already; the check is now shared.
    ("lcm-sequence-bool", lambda: lcm_sequence([True]), "True"),
    ("lcm-sequence-float", lambda: lcm_sequence([4, 2.0]), "2.0"),
]


@pytest.mark.parametrize("call, shown", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_a_value_that_is_not_an_int_is_a_domain_error(call, shown):
    with pytest.raises(DomainError, match=f"got {shown}$"):
        call()


@pytest.mark.parametrize("route", [row_lcm_naive, row_lcm_farhi, row_lcm_valuation])
@pytest.mark.parametrize("n", [4.0, True, "4"])
def test_row_routes_refuse_what_is_not_an_int(route, n):
    # The message is the one a negative n gets, and shows the value given.
    with pytest.raises(DomainError, match=f"^{re.escape(f'{route.__name__} requires an int n >= 0, got {n!r}')}$"):
        route(n)
