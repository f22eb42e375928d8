"""Golden stdout of `bounds` and the value commands, and psi_table's exact oracle.

Each digest is the sha256 of the command's stdout, captured before the
rewrite it guards (the digit-count and psi_table rewrite, then the single
record emitter and the row-lcm method table, then the digit count of a
factorization that is never multiplied out), so the new routes must
print byte for byte what the old ones did.
"""

import hashlib

import pytest

from binomlcm import check_bounds, psi_table
from binomlcm.bounds import _record
from binomlcm.cli import run
from helpers import fsum_psi_table

DIGESTS = {
    "bounds --to 5000 --format csv": "d0552f9b64b27b5693a3050a48959e09ae8c0f1840ceaaef11aa83cadd90f1a7",
    "bounds --to 5000 --format plain": "6e751bbb63aaa722af813e835743b7df4a9cfe06cb38775008e57bb6be89ab03",
    "bounds --to 5000 --format json": "f94094fb8c4e411bcb7be4aaaa308f2d6990831ee07398984073bedb6f1c91a9",
    "bounds --to 20000 --step 250": "8cc66269b8004ed3447d9ced4f48348d4a53f7ba43bdd91ce480b7a8f0e399d4",
    "lcm-range 20000": "c8bce5f10cbc8a6d268446fead425bb51770afa1f35e3e7e7227520d7d84bb15",
    "row-lcm 30000 --method valuation": "1c1d11d3e0fae7f888a2b9905ea202e34fd5079e66e5b76c4a4e823e28c727cb",
    "lcm-range 1000000 --digits-only": "40ee126df8ccf86c8d5051ebb8627c83755287815f494d9c3d65fc7e4710dc0c",
    "lcm-range 3000 --format json": "5361153dec94e91641d7ade8e173c45d261e6c67bed5e35666cce2a3b3f89337",
    "lcm-range 3000 --format csv": "d4a560a6d6d47c1237637c0046f02c9cf9865f0da845d062da717bee85d6cecc",
    "row-lcm 3000 --method valuation --format json": "d57d357613195e5949542f35011ea76d93e540da21a2df981e716f5c1fcc0bfa",
    "row-lcm 3000 --method valuation --format csv": "937978bf5ca8e3babc471289bace36a68f8cea24bc79aef2ea6a351b539aaf91",
    "row-lcm 200 --method naive --format json": "276bda7ab26294832fd1be4ff600eb53157a3f4f909e27bf55983bbcdb2e6fc7",
    "row-lcm 200 --method naive --format csv": "381e8d7acc8f136c2016cc444eca5f04fe34d866a0b3fc87ac2a5479394dcb05",
    "lcm-range 50 --digits-only --format json": "010025fbf0d640ca950e0ea0bc8685967037bd89d005fd83369cacf596df9424",
    "row-lcm 300000 --method valuation --digits-only": "10a5806825beaeadf509b721af853b203c0cfc283478cf6bcc190fb879261016",
    "row-lcm 300000 --method farhi --digits-only": "10a5806825beaeadf509b721af853b203c0cfc283478cf6bcc190fb879261016",
    "row-lcm 3000 --method valuation --digits-only --format json": "e52edb1a3eb4cf4215a42a0018f02ff226cdb8845f76bab609c285c83aaf2892",
    "row-lcm 3000 --method valuation --digits-only --format csv": "08792a1ee6434ef4fdd5b91b5341e0b8e92395011737589aeaa17fb669afc1b5",
    "lcm-range 300000 --digits-only --format csv": "4b30e35eeaecc775c1d3d98f78f921f49b898c0ba69e3263380cab9dc9565dfb",
}


@pytest.mark.parametrize("command", DIGESTS)
def test_stdout_digest(capsys, command):
    code = run(command.split())
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]


def _fields(records):
    return [
        (r.n, r.lcm_digits, r.lower_2nm1_holds, r.lower_2n_holds, r.upper_3n_holds, r.psi_over_n)
        for r in records
    ]


@pytest.mark.parametrize("step", [1, 2, 7, 250, 1000, 2999, 3000])
def test_psi_table_equals_the_fsum_oracle_exactly(step):
    # Floats included: the running exact sum must round to fsum's value.
    assert _fields(psi_table(3000, step)) == fsum_psi_table(3000, step)


@pytest.mark.parametrize("n", [1, 2, 8, 9, 10, 64, 720, 1024, 2999])
def test_check_bounds_equals_the_table_record(n):
    assert check_bounds(n) == psi_table(n, n)[0]


@pytest.mark.parametrize("n", [1, 2, 9, 100, 5000])
def test_flags_at_the_exact_powers(n):
    # Right at and just past each power, where a bit-length estimate
    # alone could not decide the 3^n flag.
    def record(value):
        return _record(n, value, 1, 0.0)

    assert record(2 ** (n - 1)).lower_2nm1_holds
    assert not record(2 ** (n - 1) - 1).lower_2nm1_holds
    assert record(2**n).lower_2n_holds
    assert not record(2**n - 1).lower_2n_holds
    assert record(3**n).upper_3n_holds
    assert not record(3**n + 1).upper_3n_holds
