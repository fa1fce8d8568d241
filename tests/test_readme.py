"""The README's Library example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_comments():
    code = _library_example()
    expected = [m.group(1) for m in
                re.finditer(r"^print\(.*\)\s+#\s*(\S+)\s*$", code, re.M)]
    assert expected  # the example documents at least one value
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().split() == expected
