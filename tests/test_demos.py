"""The narrated demos run and print exactly what they printed before.

Digests are sha256 of stdout, captured before the digit-count and
psi_table rewrite. demos/04_method_race.py prints timings, which differ
per run, so it has no digest: it must run, print its three sections and
attest every record it times.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import binomlcm

ROOT = Path(__file__).resolve().parent.parent
# The demos import the package this process imported, so a copy of the
# source put first on PYTHONPATH (as tests/mutants.py does) is the one run.
SRC = Path(binomlcm.__file__).resolve().parents[1]

DIGESTS = {
    "01_three_roads_to_a_row_lcm.py": "5f6e70466e7fc5941e77d432d29744eb3e55c967eee2e092f1a854255f198e79",
    "02_identity_gallery.py": "704c40a7f739ec4b7f6ccca578fc3bea6cadc526b8618789503d8dc577a29043",
    "03_growth_of_lcm.py": "4c0deb18db16e09aab8f9f4d403bd1f676511eb3685ab2a61fc1c219f699b2ed",
}


def run_demo(demo: str) -> bytes:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], capture_output=True, env=env, timeout=120, check=False
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize("demo", DIGESTS)
def test_demo_stdout(demo):
    assert hashlib.sha256(run_demo(demo)).hexdigest() == DIGESTS[demo]


def test_method_race_attests_every_record():
    lines = run_demo("04_method_race.py").decode().splitlines()
    headers = [line for line in lines if line.startswith("===")]
    assert headers == [
        "=== row lcm: naive fold vs quotient vs per-prime valuation ===",
        "=== row lcm at n = 20000: naive is capped out, the others shrug ===",
        "=== range lcm: gcd fold vs prime-power factorization ===",
    ]
    records = [line for line in lines if line and line not in headers]
    assert len(records) == 17
    assert all(line.endswith("verified=True") for line in records)
