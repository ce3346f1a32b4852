"""The committed mutant list stays applicable: each entry's old text occurs
exactly once in its file, and each test it names is defined in its test
file.  The mutants themselves run with ``python tests/mutants.py``."""
import re

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("m", MUTANTS, ids=lambda m: m.old)
def test_old_text_occurs_once(m):
    assert (ROOT / m.file).read_text().count(m.old) == 1
    assert m.new != m.old


@pytest.mark.parametrize("m", MUTANTS, ids=lambda m: m.old)
def test_named_tests_are_defined(m):
    for test_id in m.tests:
        path, *names = re.sub(r"\[.*\]$", "", test_id).split("::")
        source = (ROOT / path).read_text()
        for name in names:
            assert re.search(rf"^\s*(class|def) {name}\b", source, re.M), test_id
