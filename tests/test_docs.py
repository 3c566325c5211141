"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def fenced_python(heading: str) -> str:
    """The first fenced ``python`` block under the README's ``heading``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n{heading}\n", 1)[1]
    match = re.search(r"^```python\n(.*?)^```$", section, re.M | re.S)
    assert match, f"no python block under {heading!r}"
    return match.group(1)


def test_library_use_runs():
    namespace: dict = {}
    exec(compile(fenced_python("## Library use"), f"{README}:Library use", "exec"), namespace)
    assert namespace["risks"] and len(namespace["stats"]) == len(namespace["scenarios"])
