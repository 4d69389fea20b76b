"""README.md's library quick start runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_quick_start_runs(monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.DOTALL)
    assert block is not None, "README.md has no python code block"
    monkeypatch.chdir(ROOT)
    exec(compile(block.group(1), "README.md", "exec"), {"__name__": "readme"})
