"""The README's Python examples and the docstring examples run as doctests.

They pin the reprs a reader sees first, such as
EquivalenceChainReport(n=9, ...) and PrimePowerFactorization(...).
"""

import doctest
import re
from pathlib import Path

import pytest

import binomlcm.valuation

README = Path(__file__).resolve().parents[1] / "README.md"
_TEXT = README.read_text()
# Each ```python block: the index of its first line and its text.
BLOCKS = [
    (_TEXT.count("\n", 0, m.start(1)), m.group(1))
    for m in re.finditer(r"^```python\n(.*?)^```", _TEXT, re.M | re.S)
]


def _run(test: doctest.DocTest) -> None:
    report = []
    runner = doctest.DocTestRunner()
    runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)


@pytest.mark.parametrize("lineno, text", BLOCKS, ids=[f"README.md:{line + 1}" for line, _ in BLOCKS])
def test_readme_python_block(lineno, text):
    test = doctest.DocTestParser().get_doctest(text, {}, f"README.md:{lineno + 1}", str(README), lineno)
    assert test.examples
    _run(test)


def test_valuation_docstrings():
    tests = [t for t in doctest.DocTestFinder().find(binomlcm.valuation) if t.examples]
    assert tests
    for test in tests:
        _run(test)


def test_readme_has_python_blocks():
    assert BLOCKS
