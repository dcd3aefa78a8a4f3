"""The public names and the README's library example stay in step with the code."""

import re
from pathlib import Path

import starlap

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    assert len(set(starlap.__all__)) == len(starlap.__all__)
    assert [name for name in starlap.__all__ if not hasattr(starlap, name)] == []


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library\n.*?^```python\n(.*?)^```", text, re.M | re.S).group(1)
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["result"].passed
