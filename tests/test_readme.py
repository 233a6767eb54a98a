"""README's library example runs as written, so the README cannot drift from the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], str(README), "exec"), scope)
    display = scope["smap"].display
    assert display.shape == (16, 16)
    assert 0.0 <= display.min() and display.max() <= 1.0
