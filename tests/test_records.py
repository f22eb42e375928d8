"""Record types: validated construction, equality, hash and repr.

ResourceCaps, IdentityReport and EquivalenceChainReport check their
fields when built. As NamedTuples they offer more ways to build one than
the constructor (_make, _replace, and ResourceCaps.replace), and each of
them must refuse what the constructor refuses.
"""

import pytest

from binomlcm import (
    BenchRecord,
    IdentityReport,
    ResourceCaps,
    Task,
    Theorem,
    check_bounds,
    equivalence_chain,
    verify_nair,
)

# (a valid record, a field, a value that makes the record inconsistent)
INVALID = [
    pytest.param(ResourceCaps(), "full_row_n", -1, id="caps-negative"),
    pytest.param(ResourceCaps(), "sieve_limit", -5, id="caps-negative-first"),
    pytest.param(verify_nair(9), "holds", False, id="identity-holds"),
    pytest.param(verify_nair(9), "rhs", 2521, id="identity-rhs"),
    pytest.param(equivalence_chain(9), "all_equal", False, id="chain-all-equal"),
    pytest.param(equivalence_chain(9), "q_thm3_lhs", 1, id="chain-quantity"),
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


def test_caps_replace_and_from_env_go_through_the_check():
    assert ResourceCaps().replace(full_row_n=7).full_row_n == 7
    with pytest.raises(ValueError, match="resource cap valuation_n must be >= 0, got -2"):
        ResourceCaps.from_env({"BINOMLCM_MAX_VALUATION": "-2"})
    with pytest.raises(ValueError):
        ResourceCaps().replace(no_such_cap=1)


RECORDS = [
    pytest.param(
        ResourceCaps,
        "ResourceCaps(sieve_limit=10000000, full_row_n=5000, fold_range_n=100000, valuation_n=1000000)",
        id="caps",
    ),
    pytest.param(
        lambda: IdentityReport.build(Theorem.T4, 3, 6, 6, "a", "b"),
        "IdentityReport(theorem=<Theorem.T4: 'T4'>, n=3, lhs=6, rhs=6, holds=True, lhs_method='a', rhs_method='b')",
        id="identity",
    ),
    pytest.param(
        lambda: equivalence_chain(9),
        "EquivalenceChainReport(n=9, q_nair=2520, q_thm4_rhs=2520, q_thm3_lhs=2520, q_range=2520, all_equal=True)",
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
    n, q_nair, *_, all_equal = equivalence_chain(9)
    assert (n, q_nair, all_equal) == (9, 2520, True)
    assert ResourceCaps() == (10_000_000, 5_000, 100_000, 1_000_000)
    assert check_bounds(10) != check_bounds(11)
