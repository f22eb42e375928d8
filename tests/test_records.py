"""Record types: validated construction, derived verdicts, equality, hash and repr.

As NamedTuples the records offer more ways to build one than the
constructor (_make, _replace, and ResourceCaps.replace). ResourceCaps
checks its fields when built, and each way must refuse what the
constructor refuses. IdentityReport and EquivalenceChainReport store no
verdict: each way must give one read off the quantities it was built with.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomlcm import (
    BenchRecord,
    DomainError,
    EquivalenceChainReport,
    IdentityReport,
    ResourceCaps,
    Task,
    Theorem,
    check_bounds,
    equivalence_chain,
    verify_nair,
)
from helpers import json_document

# (a valid record, a field, a value the constructor refuses)
INVALID = [
    pytest.param(ResourceCaps(), "full_row_n", -1, id="caps-negative"),
    pytest.param(ResourceCaps(), "sieve_limit", -5, id="caps-negative-first"),
    pytest.param(ResourceCaps(), "fold_range_n", 1.5, id="caps-float"),
    pytest.param(ResourceCaps(), "full_row_n", True, id="caps-bool"),
]

# (a report, a field, a value for it, the verdict of the report so built)
REBUILT = [
    pytest.param(verify_nair(9), "rhs", 2521, False, id="identity-rhs"),
    pytest.param(verify_nair(9)._replace(rhs=2521), "rhs", 2520, True, id="identity-rhs-mended"),
    pytest.param(verify_nair(9), "lhs_method", "x", True, id="identity-method"),
    pytest.param(equivalence_chain(9), "q_thm3_lhs", 1, False, id="chain-quantity"),
    pytest.param(equivalence_chain(9), "q_range", 2519, False, id="chain-range"),
    pytest.param(equivalence_chain(9)._replace(q_nair=1), "q_nair", 2520, True, id="chain-quantity-mended"),
    pytest.param(equivalence_chain(9), "n", 10, True, id="chain-n"),
]


def _ways_to_build(record, name, value):
    """Every way the record's type offers to build it with name set to value."""
    cls = type(record)
    fields = {**record._asdict(), name: value}
    ways = {
        "constructor": lambda: cls(**fields),
        "positional": lambda: cls(*fields.values()),
        "_make": lambda: cls._make(fields.values()),
        "_replace": lambda: record._replace(**{name: value}),
    }
    if cls is ResourceCaps:
        ways["replace"] = lambda: record.replace(**{name: value})
    return ways


def _verdict_everywhere(record, verdict):
    """The verdict as the record's flag, ok, and each output format show it.

    A record's JSON object is written at depth 1 of the list document
    the CLI prints, so one record's document is that list of one.
    """
    flag = "holds" if isinstance(record, IdentityReport) else "all_equal"
    return (
        getattr(record, flag) is verdict
        and record.ok is verdict
        and record.plain_line().split()[2] == ("ok" if verdict else "FAIL")
        and record.to_csv_row()[4] == ("true" if verdict else "false")
        and json_document(f"[\n  {record.to_json_text()}\n]\n")[0][flag] is verdict
    )


@pytest.mark.parametrize("record, name, value", INVALID)
def test_every_way_to_build_refuses_an_inconsistent_record(record, name, value):
    for how, build in _ways_to_build(record, name, value).items():
        try:
            built = build()
        except ValueError:
            continue
        pytest.fail(f"{how} built an inconsistent record: {built!r}")


@pytest.mark.parametrize("record, name, value", INVALID)
def test_every_way_to_build_rebuilds_a_valid_record(record, name, value):
    for how, build in _ways_to_build(record, name, getattr(record, name)).items():
        rebuilt = build()
        assert type(rebuilt) is type(record) and rebuilt == record, how


@pytest.mark.parametrize("record, name, value, verdict", REBUILT)
def test_every_way_to_build_a_report_recomputes_its_verdict(record, name, value, verdict):
    for how, build in _ways_to_build(record, name, getattr(record, name)).items():
        rebuilt = build()
        assert type(rebuilt) is type(record) and rebuilt == record and rebuilt.ok is record.ok, how
    for how, build in _ways_to_build(record, name, value).items():
        built = build()
        assert getattr(built, name) == value and _verdict_everywhere(built, verdict), how


# Two sides drawn freely, or one side drawn twice so that equal sides are common.
@given(st.tuples(st.integers(), st.integers()) | st.integers().map(lambda v: (v, v)))
@settings(max_examples=200)
def test_identity_verdict_is_read_off_the_sides(sides):
    lhs, rhs = sides
    base = IdentityReport(Theorem.T1, 3, lhs, lhs, "a", "b")
    for how, build in _ways_to_build(base, "rhs", rhs).items():
        assert _verdict_everywhere(build(), lhs == rhs), how


@given(st.integers(), st.integers().filter(bool))
@settings(max_examples=100)
def test_chain_verdict_is_read_off_all_four_quantities(q, delta):
    base = EquivalenceChainReport(1, q, q, q, q)
    for how, build in _ways_to_build(base, "q_nair", q).items():
        assert _verdict_everywhere(build(), True), how
    # Each quantity in turn moves off the other three.
    for name in ["q_nair", "q_thm4_rhs", "q_thm3_lhs", "q_range"]:
        for how, build in _ways_to_build(base, name, q + delta).items():
            assert _verdict_everywhere(build(), False), (name, how)


def test_verdicts_are_not_fields():
    report, chain = verify_nair(9), equivalence_chain(9)
    assert "holds" not in report._fields and "all_equal" not in chain._fields
    with pytest.raises(ValueError, match="holds"):
        report._replace(holds=False)
    with pytest.raises(ValueError, match="all_equal"):
        chain._replace(all_equal=False)


def test_caps_replace_and_from_env_go_through_the_check():
    assert ResourceCaps().replace(full_row_n=7).full_row_n == 7
    with pytest.raises(DomainError, match="resource cap fold_range_n must be an int >= 0, got -2"):
        ResourceCaps.from_env({"BINOMLCM_MAX_FOLD": "-2"})
    with pytest.raises(ValueError):
        ResourceCaps().replace(no_such_cap=1)


RECORDS = [
    pytest.param(
        ResourceCaps,
        "ResourceCaps(sieve_limit=10000000, full_row_n=5000, fold_range_n=100000)",
        id="caps",
    ),
    pytest.param(
        lambda: IdentityReport(Theorem.T4, 3, 6, 6, "a", "b"),
        "IdentityReport(theorem=<Theorem.T4: 'T4'>, n=3, lhs=6, rhs=6, lhs_method='a', rhs_method='b')",
        id="identity",
    ),
    pytest.param(
        lambda: equivalence_chain(9),
        "EquivalenceChainReport(n=9, q_nair=2520, q_thm4_rhs=2520, q_thm3_lhs=2520, q_range=2520)",
        id="chain",
    ),
    pytest.param(
        lambda: check_bounds(10),
        "BoundsRecord(n=10, lcm_digits=4, lower_2nm1_holds=True, lower_2n_holds=True, "
        "upper_3n_holds=True, psi_over_n=0.7832014180505469)",
        id="bounds",
    ),
    pytest.param(
        lambda: BenchRecord(Task.ROW_LCM, "naive", 4, 3, 10, 20, 2, True),
        "BenchRecord(task=<Task.ROW_LCM: 'row_lcm'>, method='naive', n=4, reps=3, median_ns=10, p90_ns=20, "
        "digits=2, verified=True)",
        id="bench",
    ),
]


@pytest.mark.parametrize("make, expected_repr", RECORDS)
def test_equality_hash_and_repr_read_the_fields_in_order(make, expected_repr):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, f) for f in a._fields))
    assert repr(a) == expected_repr


def test_records_unpack_and_equal_plain_tuples_of_their_fields():
    n, q_nair, *_, q_range = equivalence_chain(9)
    assert (n, q_nair, q_range) == (9, 2520, 2520)
    assert equivalence_chain(9) == (9, 2520, 2520, 2520, 2520)
    assert ResourceCaps() == (10_000_000, 5_000, 100_000)
    assert check_bounds(10) != check_bounds(11)
