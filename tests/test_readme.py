"""The README's library example runs as written against the current API."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README has no python example"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})
    assert out.getvalue() == "(0.0, 0.0, 0.8)\n"
