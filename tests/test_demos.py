"""The narrated demos run and print exactly what they printed before.

Digests are sha256 of stdout, captured before the digit-count and
psi_table rewrite. demos/04_method_race.py is left out: it times every
method on purpose (about 22 s) and prints timings, which differ per run.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DIGESTS = {
    "01_three_roads_to_a_row_lcm.py": "5f6e70466e7fc5941e77d432d29744eb3e55c967eee2e092f1a854255f198e79",
    "02_identity_gallery.py": "704c40a7f739ec4b7f6ccca578fc3bea6cadc526b8618789503d8dc577a29043",
    "03_growth_of_lcm.py": "4c0deb18db16e09aab8f9f4d403bd1f676511eb3685ab2a61fc1c219f699b2ed",
}


@pytest.mark.parametrize("demo", DIGESTS)
def test_demo_stdout(demo):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)], capture_output=True, env=env, timeout=120, check=False
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == DIGESTS[demo]
