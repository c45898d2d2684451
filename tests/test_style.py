"""Source layout rules that no installed linter checks."""

from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MAX_COLUMNS = 100


@pytest.mark.parametrize("tree", ["src", "scripts"])
def test_no_line_is_longer_than_100_columns(tree):
    files = sorted((ROOT / tree).rglob("*.py"))
    assert files
    long = [
        f"{path.relative_to(ROOT)}:{number}: {len(line)} columns"
        for path in files
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_COLUMNS
    ]
    assert not long, "\n".join(long)
