"""Golden corpus for `binomlcm verify`: exact stdout and exit codes.

Every expected byte below was captured from the CLI and is compared
verbatim, so any change to what `verify` prints, in any format, shows
up here. The full `--theorem all --from 1 --to 300` output is pinned by
its sha256 instead of its text. Error cases also pin stderr.
"""

import hashlib

import pytest

from binomlcm.cli import run


def invoke(capsys, command):
    code = run(command.split())
    captured = capsys.readouterr()
    return code, captured.out, captured.err


OUTPUTS = [
    (
        'verify --theorem all --from 1 --to 3 --format plain',
        0,
        """\
T1 n=1 ok lhs=1 rhs=1
T1 n=2 ok lhs=2 rhs=2
T1 n=3 ok lhs=6 rhs=6
T2 n=1 ok lhs=1 rhs=1
T2 n=2 ok lhs=2 rhs=2
T2 n=3 ok lhs=3 rhs=3
T3 n=1 ok lhs=1 rhs=1
T3 n=2 ok lhs=2 rhs=2
T3 n=3 ok lhs=6 rhs=6
T4 n=1 ok lhs=1 rhs=1
T4 n=2 ok lhs=2 rhs=2
T4 n=3 ok lhs=6 rhs=6
T5 n=1 ok lhs=1 rhs=1
T5 n=2 ok lhs=2 rhs=2
T5 n=3 ok lhs=6 rhs=6
TERMWISE n=1 ok lhs=1 rhs=1
TERMWISE n=2 ok lhs=4 rhs=4
TERMWISE n=3 ok lhs=12 rhs=12
CHAIN n=1 ok nair=1 thm4_rhs=1 thm3_lhs=1 range=1
CHAIN n=2 ok nair=2 thm4_rhs=2 thm3_lhs=2 range=2
CHAIN n=3 ok nair=6 thm4_rhs=6 thm3_lhs=6 range=6
""",
    ),
    (
        'verify --theorem all --from 1 --to 3 --format json',
        0,
        """\
[
  {
    "theorem": "T1",
    "n": 1,
    "lhs": "1",
    "rhs": "1",
    "holds": true,
    "lhs_method": "fold lcm of k*C(n,k), k=1..n, over a Pascal-built row",
    "rhs_method": "prime-power factorization of lcm(1..n), expanded"
  },
  {
    "theorem": "T1",
    "n": 2,
    "lhs": "2",
    "rhs": "2",
    "holds": true,
    "lhs_method": "fold lcm of k*C(n,k), k=1..n, over a Pascal-built row",
    "rhs_method": "prime-power factorization of lcm(1..n), expanded"
  },
  {
    "theorem": "T1",
    "n": 3,
    "lhs": "6",
    "rhs": "6",
    "holds": true,
    "lhs_method": "fold lcm of k*C(n,k), k=1..n, over a Pascal-built row",
    "rhs_method": "prime-power factorization of lcm(1..n), expanded"
  },
  {
    "theorem": "T2",
    "n": 1,
    "lhs": "1",
    "rhs": "1",
    "holds": true,
    "lhs_method": "fold lcm of C(n,k), k=0..n, over a Pascal-built row",
    "rhs_method": "lcm(1..n+1)/(n+1) via factorization, exact division checked"
  },
  {
    "theorem": "T2",
    "n": 2,
    "lhs": "2",
    "rhs": "2",
    "holds": true,
    "lhs_method": "fold lcm of C(n,k), k=0..n, over a Pascal-built row",
    "rhs_method": "lcm(1..n+1)/(n+1) via factorization, exact division checked"
  },
  {
    "theorem": "T2",
    "n": 3,
    "lhs": "3",
    "rhs": "3",
    "holds": true,
    "lhs_method": "fold lcm of C(n,k), k=0..n, over a Pascal-built row",
    "rhs_method": "lcm(1..n+1)/(n+1) via factorization, exact division checked"
  },
  {
    "theorem": "T3",
    "n": 1,
    "lhs": "1",
    "rhs": "1",
    "holds": true,
    "lhs_method": "n * fold lcm of C(n-1,k), k=0..n-1, over a Pascal-built row",
    "rhs_method": "prime-power factorization of lcm(1..n), expanded"
  },
  {
    "theorem": "T3",
    "n": 2,
    "lhs": "2",
    "rhs": "2",
    "holds": true,
    "lhs_method": "n * fold lcm of C(n-1,k), k=0..n-1, over a Pascal-built row",
    "rhs_method": "prime-power factorization of lcm(1..n), expanded"
  },
  {
    "theorem": "T3",
    "n": 3,
    "lhs": "6",
    "rhs": "6",
    "holds": true,
    "lhs_method": "n * fold lcm of C(n-1,k), k=0..n-1, over a Pascal-built row",
    "rhs_method": "prime-power factorization of lcm(1..n), expanded"
  },
  {
    "theorem": "T4",
    "n": 1,
    "lhs": "1",
    "rhs": "1",
    "holds": true,
    "lhs_method": "fold lcm of k*C(n,k), k=1..n, over a Pascal-built row",
    "rhs_method": "n * fold lcm of C(n-1,k), k=0..n-1, over a Pascal-built row"
  },
  {
    "theorem": "T4",
    "n": 2,
    "lhs": "2",
    "rhs": "2",
    "holds": true,
    "lhs_method": "fold lcm of k*C(n,k), k=1..n, over a Pascal-built row",
    "rhs_method": "n * fold lcm of C(n-1,k), k=0..n-1, over a Pascal-built row"
  },
  {
    "theorem": "T4",
    "n": 3,
    "lhs": "6",
    "rhs": "6",
    "holds": true,
    "lhs_method": "fold lcm of k*C(n,k), k=1..n, over a Pascal-built row",
    "rhs_method": "n * fold lcm of C(n-1,k), k=0..n-1, over a Pascal-built row"
  },
  {
    "theorem": "T5",
    "n": 1,
    "lhs": "1",
    "rhs": "1",
    "holds": true,
    "lhs_method": "n * fold lcm of C(n-1,k), k=0..floor((n-1)/2)",
    "rhs_method": "prime-power factorization of lcm(1..n), expanded"
  },
  {
    "theorem": "T5",
    "n": 2,
    "lhs": "2",
    "rhs": "2",
    "holds": true,
    "lhs_method": "n * fold lcm of C(n-1,k), k=0..floor((n-1)/2)",
    "rhs_method": "prime-power factorization of lcm(1..n), expanded"
  },
  {
    "theorem": "T5",
    "n": 3,
    "lhs": "6",
    "rhs": "6",
    "holds": true,
    "lhs_method": "n * fold lcm of C(n-1,k), k=0..floor((n-1)/2)",
    "rhs_method": "prime-power factorization of lcm(1..n), expanded"
  },
  {
    "theorem": "TERMWISE",
    "n": 1,
    "lhs": "1",
    "rhs": "1",
    "holds": true,
    "lhs_method": "sum of t*C(n,t) over t=1..n, each term checked exactly",
    "rhs_method": "sum of n*C(n-1,t-1) over t=1..n, each term checked exactly"
  },
  {
    "theorem": "TERMWISE",
    "n": 2,
    "lhs": "4",
    "rhs": "4",
    "holds": true,
    "lhs_method": "sum of t*C(n,t) over t=1..n, each term checked exactly",
    "rhs_method": "sum of n*C(n-1,t-1) over t=1..n, each term checked exactly"
  },
  {
    "theorem": "TERMWISE",
    "n": 3,
    "lhs": "12",
    "rhs": "12",
    "holds": true,
    "lhs_method": "sum of t*C(n,t) over t=1..n, each term checked exactly",
    "rhs_method": "sum of n*C(n-1,t-1) over t=1..n, each term checked exactly"
  },
  {
    "theorem": "CHAIN",
    "n": 1,
    "q_nair": "1",
    "q_thm4_rhs": "1",
    "q_thm3_lhs": "1",
    "q_range": "1",
    "all_equal": true
  },
  {
    "theorem": "CHAIN",
    "n": 2,
    "q_nair": "2",
    "q_thm4_rhs": "2",
    "q_thm3_lhs": "2",
    "q_range": "2",
    "all_equal": true
  },
  {
    "theorem": "CHAIN",
    "n": 3,
    "q_nair": "6",
    "q_thm4_rhs": "6",
    "q_thm3_lhs": "6",
    "q_range": "6",
    "all_equal": true
  }
]
""",
    ),
    (
        'verify --theorem all --from 1 --to 3 --format csv',
        0,
        """\
theorem,n,lhs,rhs,holds,lhs_method,rhs_method
T1,1,1,1,true,"fold lcm of k*C(n,k), k=1..n, over a Pascal-built row","prime-power factorization of lcm(1..n), expanded"
T1,2,2,2,true,"fold lcm of k*C(n,k), k=1..n, over a Pascal-built row","prime-power factorization of lcm(1..n), expanded"
T1,3,6,6,true,"fold lcm of k*C(n,k), k=1..n, over a Pascal-built row","prime-power factorization of lcm(1..n), expanded"
T2,1,1,1,true,"fold lcm of C(n,k), k=0..n, over a Pascal-built row","lcm(1..n+1)/(n+1) via factorization, exact division checked"
T2,2,2,2,true,"fold lcm of C(n,k), k=0..n, over a Pascal-built row","lcm(1..n+1)/(n+1) via factorization, exact division checked"
T2,3,3,3,true,"fold lcm of C(n,k), k=0..n, over a Pascal-built row","lcm(1..n+1)/(n+1) via factorization, exact division checked"
T3,1,1,1,true,"n * fold lcm of C(n-1,k), k=0..n-1, over a Pascal-built row","prime-power factorization of lcm(1..n), expanded"
T3,2,2,2,true,"n * fold lcm of C(n-1,k), k=0..n-1, over a Pascal-built row","prime-power factorization of lcm(1..n), expanded"
T3,3,6,6,true,"n * fold lcm of C(n-1,k), k=0..n-1, over a Pascal-built row","prime-power factorization of lcm(1..n), expanded"
T4,1,1,1,true,"fold lcm of k*C(n,k), k=1..n, over a Pascal-built row","n * fold lcm of C(n-1,k), k=0..n-1, over a Pascal-built row"
T4,2,2,2,true,"fold lcm of k*C(n,k), k=1..n, over a Pascal-built row","n * fold lcm of C(n-1,k), k=0..n-1, over a Pascal-built row"
T4,3,6,6,true,"fold lcm of k*C(n,k), k=1..n, over a Pascal-built row","n * fold lcm of C(n-1,k), k=0..n-1, over a Pascal-built row"
T5,1,1,1,true,"n * fold lcm of C(n-1,k), k=0..floor((n-1)/2)","prime-power factorization of lcm(1..n), expanded"
T5,2,2,2,true,"n * fold lcm of C(n-1,k), k=0..floor((n-1)/2)","prime-power factorization of lcm(1..n), expanded"
T5,3,6,6,true,"n * fold lcm of C(n-1,k), k=0..floor((n-1)/2)","prime-power factorization of lcm(1..n), expanded"
TERMWISE,1,1,1,true,"sum of t*C(n,t) over t=1..n, each term checked exactly","sum of n*C(n-1,t-1) over t=1..n, each term checked exactly"
TERMWISE,2,4,4,true,"sum of t*C(n,t) over t=1..n, each term checked exactly","sum of n*C(n-1,t-1) over t=1..n, each term checked exactly"
TERMWISE,3,12,12,true,"sum of t*C(n,t) over t=1..n, each term checked exactly","sum of n*C(n-1,t-1) over t=1..n, each term checked exactly"
CHAIN,1,1,1,true,weighted row fold (chain head),prime-power factorization of lcm(1..n) (chain tail)
CHAIN,2,2,2,true,weighted row fold (chain head),prime-power factorization of lcm(1..n) (chain tail)
CHAIN,3,6,6,true,weighted row fold (chain head),prime-power factorization of lcm(1..n) (chain tail)
""",
    ),
    (
        'verify --theorem 2 --from 0 --to 4 --format plain',
        0,
        """\
T2 n=0 ok lhs=1 rhs=1
T2 n=1 ok lhs=1 rhs=1
T2 n=2 ok lhs=2 rhs=2
T2 n=3 ok lhs=3 rhs=3
T2 n=4 ok lhs=12 rhs=12
""",
    ),
    (
        'verify --theorem 2 --from 0 --to 4 --format json',
        0,
        """\
[
  {
    "theorem": "T2",
    "n": 0,
    "lhs": "1",
    "rhs": "1",
    "holds": true,
    "lhs_method": "fold lcm of C(n,k), k=0..n, over a Pascal-built row",
    "rhs_method": "lcm(1..n+1)/(n+1) via factorization, exact division checked"
  },
  {
    "theorem": "T2",
    "n": 1,
    "lhs": "1",
    "rhs": "1",
    "holds": true,
    "lhs_method": "fold lcm of C(n,k), k=0..n, over a Pascal-built row",
    "rhs_method": "lcm(1..n+1)/(n+1) via factorization, exact division checked"
  },
  {
    "theorem": "T2",
    "n": 2,
    "lhs": "2",
    "rhs": "2",
    "holds": true,
    "lhs_method": "fold lcm of C(n,k), k=0..n, over a Pascal-built row",
    "rhs_method": "lcm(1..n+1)/(n+1) via factorization, exact division checked"
  },
  {
    "theorem": "T2",
    "n": 3,
    "lhs": "3",
    "rhs": "3",
    "holds": true,
    "lhs_method": "fold lcm of C(n,k), k=0..n, over a Pascal-built row",
    "rhs_method": "lcm(1..n+1)/(n+1) via factorization, exact division checked"
  },
  {
    "theorem": "T2",
    "n": 4,
    "lhs": "12",
    "rhs": "12",
    "holds": true,
    "lhs_method": "fold lcm of C(n,k), k=0..n, over a Pascal-built row",
    "rhs_method": "lcm(1..n+1)/(n+1) via factorization, exact division checked"
  }
]
""",
    ),
    (
        'verify --theorem 2 --from 0 --to 4 --format csv',
        0,
        """\
theorem,n,lhs,rhs,holds,lhs_method,rhs_method
T2,0,1,1,true,"fold lcm of C(n,k), k=0..n, over a Pascal-built row","lcm(1..n+1)/(n+1) via factorization, exact division checked"
T2,1,1,1,true,"fold lcm of C(n,k), k=0..n, over a Pascal-built row","lcm(1..n+1)/(n+1) via factorization, exact division checked"
T2,2,2,2,true,"fold lcm of C(n,k), k=0..n, over a Pascal-built row","lcm(1..n+1)/(n+1) via factorization, exact division checked"
T2,3,3,3,true,"fold lcm of C(n,k), k=0..n, over a Pascal-built row","lcm(1..n+1)/(n+1) via factorization, exact division checked"
T2,4,12,12,true,"fold lcm of C(n,k), k=0..n, over a Pascal-built row","lcm(1..n+1)/(n+1) via factorization, exact division checked"
""",
    ),
    (
        'verify --theorem chain --from 1 --to 6 --format plain',
        0,
        """\
CHAIN n=1 ok nair=1 thm4_rhs=1 thm3_lhs=1 range=1
CHAIN n=2 ok nair=2 thm4_rhs=2 thm3_lhs=2 range=2
CHAIN n=3 ok nair=6 thm4_rhs=6 thm3_lhs=6 range=6
CHAIN n=4 ok nair=12 thm4_rhs=12 thm3_lhs=12 range=12
CHAIN n=5 ok nair=60 thm4_rhs=60 thm3_lhs=60 range=60
CHAIN n=6 ok nair=60 thm4_rhs=60 thm3_lhs=60 range=60
""",
    ),
    (
        'verify --theorem chain --from 1 --to 6 --format json',
        0,
        """\
[
  {
    "theorem": "CHAIN",
    "n": 1,
    "q_nair": "1",
    "q_thm4_rhs": "1",
    "q_thm3_lhs": "1",
    "q_range": "1",
    "all_equal": true
  },
  {
    "theorem": "CHAIN",
    "n": 2,
    "q_nair": "2",
    "q_thm4_rhs": "2",
    "q_thm3_lhs": "2",
    "q_range": "2",
    "all_equal": true
  },
  {
    "theorem": "CHAIN",
    "n": 3,
    "q_nair": "6",
    "q_thm4_rhs": "6",
    "q_thm3_lhs": "6",
    "q_range": "6",
    "all_equal": true
  },
  {
    "theorem": "CHAIN",
    "n": 4,
    "q_nair": "12",
    "q_thm4_rhs": "12",
    "q_thm3_lhs": "12",
    "q_range": "12",
    "all_equal": true
  },
  {
    "theorem": "CHAIN",
    "n": 5,
    "q_nair": "60",
    "q_thm4_rhs": "60",
    "q_thm3_lhs": "60",
    "q_range": "60",
    "all_equal": true
  },
  {
    "theorem": "CHAIN",
    "n": 6,
    "q_nair": "60",
    "q_thm4_rhs": "60",
    "q_thm3_lhs": "60",
    "q_range": "60",
    "all_equal": true
  }
]
""",
    ),
    (
        'verify --theorem chain --from 1 --to 6 --format csv',
        0,
        """\
theorem,n,lhs,rhs,holds,lhs_method,rhs_method
CHAIN,1,1,1,true,weighted row fold (chain head),prime-power factorization of lcm(1..n) (chain tail)
CHAIN,2,2,2,true,weighted row fold (chain head),prime-power factorization of lcm(1..n) (chain tail)
CHAIN,3,6,6,true,weighted row fold (chain head),prime-power factorization of lcm(1..n) (chain tail)
CHAIN,4,12,12,true,weighted row fold (chain head),prime-power factorization of lcm(1..n) (chain tail)
CHAIN,5,60,60,true,weighted row fold (chain head),prime-power factorization of lcm(1..n) (chain tail)
CHAIN,6,60,60,true,weighted row fold (chain head),prime-power factorization of lcm(1..n) (chain tail)
""",
    ),
    (
        'verify --theorem termwise --from 1 --to 5 --format plain',
        0,
        """\
TERMWISE n=1 ok lhs=1 rhs=1
TERMWISE n=2 ok lhs=4 rhs=4
TERMWISE n=3 ok lhs=12 rhs=12
TERMWISE n=4 ok lhs=32 rhs=32
TERMWISE n=5 ok lhs=80 rhs=80
""",
    ),
    (
        'verify --theorem termwise --from 1 --to 5 --format json',
        0,
        """\
[
  {
    "theorem": "TERMWISE",
    "n": 1,
    "lhs": "1",
    "rhs": "1",
    "holds": true,
    "lhs_method": "sum of t*C(n,t) over t=1..n, each term checked exactly",
    "rhs_method": "sum of n*C(n-1,t-1) over t=1..n, each term checked exactly"
  },
  {
    "theorem": "TERMWISE",
    "n": 2,
    "lhs": "4",
    "rhs": "4",
    "holds": true,
    "lhs_method": "sum of t*C(n,t) over t=1..n, each term checked exactly",
    "rhs_method": "sum of n*C(n-1,t-1) over t=1..n, each term checked exactly"
  },
  {
    "theorem": "TERMWISE",
    "n": 3,
    "lhs": "12",
    "rhs": "12",
    "holds": true,
    "lhs_method": "sum of t*C(n,t) over t=1..n, each term checked exactly",
    "rhs_method": "sum of n*C(n-1,t-1) over t=1..n, each term checked exactly"
  },
  {
    "theorem": "TERMWISE",
    "n": 4,
    "lhs": "32",
    "rhs": "32",
    "holds": true,
    "lhs_method": "sum of t*C(n,t) over t=1..n, each term checked exactly",
    "rhs_method": "sum of n*C(n-1,t-1) over t=1..n, each term checked exactly"
  },
  {
    "theorem": "TERMWISE",
    "n": 5,
    "lhs": "80",
    "rhs": "80",
    "holds": true,
    "lhs_method": "sum of t*C(n,t) over t=1..n, each term checked exactly",
    "rhs_method": "sum of n*C(n-1,t-1) over t=1..n, each term checked exactly"
  }
]
""",
    ),
    (
        'verify --theorem termwise --from 1 --to 5 --format csv',
        0,
        """\
theorem,n,lhs,rhs,holds,lhs_method,rhs_method
TERMWISE,1,1,1,true,"sum of t*C(n,t) over t=1..n, each term checked exactly","sum of n*C(n-1,t-1) over t=1..n, each term checked exactly"
TERMWISE,2,4,4,true,"sum of t*C(n,t) over t=1..n, each term checked exactly","sum of n*C(n-1,t-1) over t=1..n, each term checked exactly"
TERMWISE,3,12,12,true,"sum of t*C(n,t) over t=1..n, each term checked exactly","sum of n*C(n-1,t-1) over t=1..n, each term checked exactly"
TERMWISE,4,32,32,true,"sum of t*C(n,t) over t=1..n, each term checked exactly","sum of n*C(n-1,t-1) over t=1..n, each term checked exactly"
TERMWISE,5,80,80,true,"sum of t*C(n,t) over t=1..n, each term checked exactly","sum of n*C(n-1,t-1) over t=1..n, each term checked exactly"
""",
    ),
]


@pytest.mark.parametrize("command,code,out", OUTPUTS, ids=[c for c, _, _ in OUTPUTS])
def test_stdout_and_exit_code(capsys, command, code, out):
    assert invoke(capsys, command) == (code, out, "")


ERRORS = [
    ('verify --theorem all --from 0 --to 3 --format plain', 2, '', 'binomlcm: domain error: T1 requires n >= 1, got from=0\n'),
    ('verify --theorem 1 --from 0 --to 3 --format plain', 2, '', 'binomlcm: domain error: T1 requires n >= 1, got from=0\n'),
    ('verify --theorem all --from 5 --to 4 --format plain', 2, '', 'binomlcm: domain error: empty range: from 5 > to 4\n'),
]


@pytest.mark.parametrize("command,code,out,err", ERRORS, ids=[c for c, _, _, _ in ERRORS])
def test_domain_errors(capsys, command, code, out, err):
    assert invoke(capsys, command) == (code, out, err)


SHA256_ALL_300 = {
    "json": "51693a5e5a271080ab2560aa21bd707bb7ad89c41958eeb6e024402de14e2d3a",
    "plain": "6dcee3278da032bb6084865b79eeae71118364196a5e83e6fe7e7db3c52f1222",
    "csv": "b44ed2a4432b663e42067ab20a68beec625edc04db49f4e5536c85cd8c91b85f",
}


@pytest.mark.parametrize("fmt", sorted(SHA256_ALL_300))
def test_all_theorems_to_300_digest(capsys, fmt):
    code, out, err = invoke(capsys, f"verify --theorem all --from 1 --to 300 --format {fmt}")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SHA256_ALL_300[fmt]


# Resource-cap outcomes: exit code, stdout sha256 and stderr. The sieve
# cap is checked against lcm(1..last + 1) when T2 is selected, against
# lcm(1..last) when T1, T3, T5 or CHAIN is, and not at all for T4 and
# TERMWISE alone; a row-cap overrun is reported before a sieve-cap one.
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SIEVE_CAP_11 = "binomlcm: resource cap: sieve limit 11 exceeds the configured cap 10\n"
CAP_OUTCOMES = [
    ("verify --theorem 1 --from 1 --to 10 --max-sieve 10", 0, "08f5805daa0ef88dd5f83612dffef0ecc7fd25d0dd08b6b663876b3ea833aed4", ""),
    ("verify --theorem 1 --from 1 --to 10 --max-sieve 11", 0, "08f5805daa0ef88dd5f83612dffef0ecc7fd25d0dd08b6b663876b3ea833aed4", ""),
    ("verify --theorem 2 --from 1 --to 10 --max-sieve 10", 3, EMPTY, SIEVE_CAP_11),
    ("verify --theorem 2 --from 1 --to 10 --max-sieve 11", 0, "38310a6cf128cb64c1018a0e2270e0680bff3f745fbee362972ffba321f89d01", ""),
    ("verify --theorem 4 --from 1 --to 10 --max-sieve 10", 0, "3cfa51072ce3f52cdb6876f6f7eed20f2a046200c1c331f8f2d95828607d250e", ""),
    ("verify --theorem 4 --from 1 --to 10 --max-sieve 11", 0, "3cfa51072ce3f52cdb6876f6f7eed20f2a046200c1c331f8f2d95828607d250e", ""),
    ("verify --theorem termwise --from 1 --to 10 --max-sieve 10", 0, "7545efc09111e746f571f1083b6192b3886ab8f2440a6aa717e0f00afdd0c43c", ""),
    ("verify --theorem termwise --from 1 --to 10 --max-sieve 11", 0, "7545efc09111e746f571f1083b6192b3886ab8f2440a6aa717e0f00afdd0c43c", ""),
    ("verify --theorem all --from 1 --to 10 --max-sieve 10", 3, EMPTY, SIEVE_CAP_11),
    ("verify --theorem all --from 1 --to 10 --max-sieve 11", 0, "18f9cdd973f0518e16c12d6ca7706b8a4f444a675e53b4e975a993c80efd3e4d", ""),
    ("verify --theorem 4 --from 1 --to 10 --max-sieve 0", 0, "3cfa51072ce3f52cdb6876f6f7eed20f2a046200c1c331f8f2d95828607d250e", ""),
    ("verify --theorem termwise --from 1 --to 10 --max-sieve 0", 0, "7545efc09111e746f571f1083b6192b3886ab8f2440a6aa717e0f00afdd0c43c", ""),
    ("verify --theorem 2 --from 0 --to 0 --max-sieve 0", 3, EMPTY, "binomlcm: resource cap: sieve limit 1 exceeds the configured cap 0\n"),
    ("verify --theorem 3 --from 1 --to 10 --max-sieve 9", 3, EMPTY, "binomlcm: resource cap: sieve limit 10 exceeds the configured cap 9\n"),
    ("verify --theorem 5 --from 1 --to 10 --max-sieve 10", 0, "0645118bf45299624cb9f7c3bc806b57e33d9e5f3894259a95b368e6461f45f6", ""),
    ("verify --theorem chain --from 1 --to 10 --max-sieve 9", 3, EMPTY, "binomlcm: resource cap: sieve limit 10 exceeds the configured cap 9\n"),
    ("verify --theorem 1 --from 1 --to 11 --max-row 10 --max-sieve 5", 3, EMPTY, "binomlcm: resource cap: binomial row n 11 exceeds the configured cap 10\n"),
    ("verify --theorem 3 --from 1 --to 12 --max-row 10 --max-sieve 5", 3, EMPTY, "binomlcm: resource cap: binomial row n 11 exceeds the configured cap 10\n"),
]


@pytest.mark.parametrize("command,code,out_sha256,err", CAP_OUTCOMES, ids=[c for c, _, _, _ in CAP_OUTCOMES])
def test_cap_outcomes(capsys, command, code, out_sha256, err):
    got_code, out, got_err = invoke(capsys, command)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest(), got_err) == (code, out_sha256, err)
