"""README's library quick start runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_the_quick_start_blocks():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("code", BLOCKS)
def test_readme_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {})
