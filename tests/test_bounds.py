"""Bounds module: exact flags, the psi ratio, and CSV output."""

import contextlib
import decimal
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomlcm import (
    DEFAULT_CAPS,
    BoundsRecord,
    DomainError,
    ResourceCapError,
    check_bounds,
    iter_psi_table,
    lcm_range,
    psi_table,
)
from binomlcm import bounds
from binomlcm.bounds import BOUNDS_CSV_HEADER
from binomlcm.cli import run
from helpers import brute_range_lcm, fsum_psi_table, trial_is_prime


class TestCheckBounds:
    def test_n1(self):
        rec = check_bounds(1)
        assert rec.lcm_digits == 1
        assert rec.lower_2nm1_holds  # 2^0 = 1 <= 1
        assert rec.upper_3n_holds  # 1 <= 3
        assert not rec.lower_2n_required

    def test_n9(self):
        assert brute_range_lcm(9) == 2520
        rec = check_bounds(9)
        assert rec.lower_2nm1_holds and rec.lower_2n_holds and rec.upper_3n_holds
        assert rec.lower_2n_required
        assert rec.lcm_digits == 4

    def test_n8_informational_flag_true_but_not_required(self):
        assert brute_range_lcm(8) == 840
        rec = check_bounds(8)
        assert rec.lower_2n_holds  # 840 >= 256, though nothing requires it
        assert not rec.lower_2n_required

    def test_small_n_where_2n_fails_is_still_ok(self):
        rec = check_bounds(2)  # lcm = 2 < 4 = 2^2
        assert not rec.lower_2n_holds
        assert rec.enforced_ok

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            check_bounds(0)

    def test_log2_3_bound_is_below_log2_3(self):
        # The 3^n flag trusts every value of at most n * _LOG2_3_NUM // _LOG2_3_DEN bits.
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            log2_3 = decimal.Decimal(3).ln() / decimal.Decimal(2).ln()
            assert decimal.Decimal(bounds._LOG2_3_NUM) / bounds._LOG2_3_DEN < log2_3

    def test_enforced_ok_semantics(self):
        required_fail = BoundsRecord(9, 4, True, False, True, 0.87)
        informational_fail = BoundsRecord(5, 2, True, False, True, 0.9)
        assert not required_fail.enforced_ok
        assert informational_fail.enforced_ok


class TestPsiTable:
    def test_single_trivial_record(self):
        records = psi_table(1, 1)
        assert len(records) == 1
        assert records[0].n == 1
        assert records[0].psi_over_n == 0.0

    def test_anchor_at_ten(self):
        (rec,) = psi_table(10, 10)
        assert rec.psi_over_n == pytest.approx(math.log(2520) / 10, abs=1e-12)
        assert rec.psi_over_n == pytest.approx(0.7832, abs=1e-3)

    def test_sampling_points(self):
        records = psi_table(50, 12)
        assert [r.n for r in records] == [12, 24, 36, 48]

    # Step 997: each sample's lcm is hundreds of digits longer than the last.
    @pytest.mark.parametrize("max_n, step", [(60, 1), (40000, 997)])
    def test_matches_per_n_check_bounds(self, max_n, step):
        cumulative = psi_table(max_n, step)
        assert [r.n for r in cumulative] == list(range(step, max_n + 1, step))
        for rec in cumulative:
            single = check_bounds(rec.n)
            assert rec.lcm_digits == single.lcm_digits
            assert rec.lower_2nm1_holds == single.lower_2nm1_holds
            assert rec.lower_2n_holds == single.lower_2n_holds
            assert rec.upper_3n_holds == single.upper_3n_holds
            assert rec.psi_over_n == pytest.approx(single.psi_over_n, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            psi_table(0, 1)
        with pytest.raises(DomainError):
            psi_table(10, 0)

    def test_step_above_max_n_has_no_sample(self):
        with pytest.raises(DomainError, match=r"^psi_table has no sample: step 11 > max_n 10$"):
            psi_table(10, 11)
        assert [r.n for r in psi_table(10, 10)] == [10]

    def test_psi_agrees_with_ln_of_expanded_integer(self):
        # Factorization-path psi vs ln of the fold-oracle integer, all
        # n <= 2000, 1e-9 relative.
        records = psi_table(2000, 1)
        running = 1
        for rec in records:
            running = math.lcm(running, rec.n)
            assert rec.psi_over_n == pytest.approx(math.log(running) / rec.n if rec.n > 1 else 0.0, rel=1e-9, abs=1e-12)

    def test_matches_check_bounds_around_higher_prime_powers(self):
        # At n = p^e with e >= 2 the term of p moves from (e-1)*ln(p) to
        # e*ln(p); the records there and on either side must be exact.
        records = psi_table(20000, 1)
        ns = set()
        for p in filter(trial_is_prime, range(2, math.isqrt(20000) + 1)):
            q = p * p
            while q <= 20000:
                ns.update((q - 1, q, q + 1))
                q *= p
        for n in sorted(ns):
            assert records[n - 1] == check_bounds(n), n

    def test_keeps_no_per_prime_state(self):
        # One sample at 10**5: what stays is the prime-power table and the
        # running lcm, not a table per prime (9592 of them below 10**5).
        tracemalloc.start()
        try:
            psi_table(100_000, 100_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_log_value_route_matches(self):
        f = lcm_range(777)
        assert f.log_value() == pytest.approx(math.log(f.expand()), rel=1e-12)


class _Discard:
    """A stdout that keeps nothing."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


class TestIterPsiTable:
    @given(st.integers(1, 600).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m))))
    @settings(deadline=None, max_examples=60)
    def test_yields_the_records_of_psi_table_and_the_fsum_oracle(self, case):
        m, s = case
        records = list(iter_psi_table(m, s))
        assert records == psi_table(m, s)
        assert [tuple(r) for r in records] == fsum_psi_table(m, s)

    @pytest.mark.parametrize(
        "max_n, step, caps, error, message",
        [
            (10, 0, DEFAULT_CAPS, DomainError, r"^psi_table requires step >= 1, got 0$"),
            (0, 1, DEFAULT_CAPS, DomainError, r"^psi_table requires max_n >= 1, got 0$"),
            (10, 11, DEFAULT_CAPS, DomainError, r"^psi_table has no sample: step 11 > max_n 10$"),
            (100, 1, DEFAULT_CAPS.replace(sieve_limit=99), ResourceCapError, r"^sieve limit 100 exceeds the configured cap 99$"),
        ],
    )
    def test_every_check_raises_at_the_call(self, max_n, step, caps, error, message):
        # Before any next(): a caller sees bad input where it passes it.
        with pytest.raises(error, match=message):
            iter_psi_table(max_n, step, caps=caps)

    def test_bounds_holds_no_record_list(self):
        # The CLI streams the records: 10**5 of them at about 175 B each
        # would hold some 17 MB; the sweep itself holds the prime-power
        # table (1.1 MB) and a running lcm of 43,452 digits.
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(_Discard()):
                assert run(["bounds", "--to", "100000", "--format", "csv"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestCsv:
    def test_header_and_formatting(self, capsys):
        assert run(["bounds", "--to", "10", "--step", "5", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "\r" not in out  # lines end in a bare \n
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(BOUNDS_CSV_HEADER)
        assert lines[1].startswith("5,2,true,true,true,")  # lcm(1..5) = 60 >= 2^5
        n10 = lines[2].split(",")
        assert n10[:5] == ["10", "4", "true", "true", "true"]
        # 12 significant digits
        assert n10[5] == f"{math.log(2520) / 10:.12g}"
        assert len(n10[5].replace("0.", "")) == 12
