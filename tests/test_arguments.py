"""Every integer argument of the public API refuses what is not an int.

A float n once ran on to an answer that is not exact, and a bool passed
as the int it is to Python. errors.require_int is the one check, for the
functions' arguments, for the constructors Prime, PrimePowerFactorization
(its keys), ResourceCaps and BinomialRow, for the digit functions, and
for bench's n list and reps. Each case here makes one such call and
expects a DomainError that shows the value; verify_range's theorem ids,
checked by the enum, are refused the same way.
"""

import re

import pytest

from binomlcm import (
    BinomialRow,
    DomainError,
    Prime,
    PrimePowerFactorization,
    ResourceCaps,
    bench_row_methods,
    binomial_valuation,
    check_bounds,
    decimal_digits,
    decimal_str,
    equivalence_chain,
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
    verify_nair,
    verify_range,
)
from binomlcm.engine import iter_range_lcms, prime_power_bases

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
    # Without it these raised a TypeError from operator.index, or took True as 1.
    ("legendre-float-p", lambda: legendre_factorial_valuation(10, 2.0), "2.0"),
    ("factorization-float-key", lambda: PrimePowerFactorization({2.0: 1}), "2.0"),
    ("prime-bool", lambda: Prime(True), "True"),
    # Without it a cap of 1.5 or True was kept, 9.5 was reported as the cap,
    # and a variable's bad value was a bare ValueError.
    ("caps-float", lambda: ResourceCaps(sieve_limit=1.5), "1.5"),
    ("caps-bool", lambda: ResourceCaps(full_row_n=True), "True"),
    ("caps-float-before-work", lambda: lcm_range(10, caps=ResourceCaps(sieve_limit=9.5)), "9.5"),
    ("caps-env-not-an-int", lambda: ResourceCaps.from_env({"BINOMLCM_MAX_SIEVE": "1.5"}), "'1.5'"),
    # Without it these built rows that do not exist, the float one failing at its lcm.
    ("row-bool-n", lambda: BinomialRow(True, (1, 1)), "True"),
    ("row-negative-n", lambda: BinomialRow(-1, ()), "-1"),
    ("row-float-n", lambda: BinomialRow(2.0, (1, 2, 1)).lcm, "2.0"),
    # Without it these attested n = 3000 first, then failed.
    ("bench-float-reps", lambda: bench_row_methods([3000], 3.5), "3.5"),
    ("bench-float-n", lambda: bench_row_methods([3000, 5.0], 3), "5.0"),
    # An id that is not a theorem's raised the enum's ValueError, or a TypeError for 5.
    ("verify-unknown-id", lambda: verify_range("T9", 1, 2), "'T9'"),
    ("verify-none-id", lambda: verify_range(["T1", None], 1, 2), "None"),
    ("verify-int-ids", lambda: verify_range(5, 1, 2), "5"),
    # Without it the table of 2.5 raised a TypeError, and bench's n list
    # one from iterating an int.
    ("bases-float-limit", lambda: prime_power_bases(2.5), "2.5"),
    ("bench-n-not-iterable", lambda: bench_row_methods(5, 3), "5"),
    # Without it the floats raised an AttributeError, and True was counted
    # or printed as the int it is.
    ("digits-float", lambda: decimal_digits(2.5), "2.5"),
    ("digits-bool", lambda: decimal_digits(True), "True"),
    ("decimal-str-float", lambda: decimal_str(1.5), "1.5"),
    ("decimal-str-bool", lambda: decimal_str(True), "True"),
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


@pytest.mark.parametrize("check", [verify_nair, equivalence_chain])
@pytest.mark.parametrize("n", [0, 3.0, True])
def test_single_n_checks_name_themselves(check, n):
    # Not verify_range's "from": the caller passed one n to this function.
    with pytest.raises(DomainError, match=f"^{re.escape(f'{check.__name__} requires an int n >= 1, got {n!r}')}$"):
        check(n)
