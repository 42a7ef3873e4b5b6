"""The README's Python API sketch runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_sketch_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and 0.0 <= float(printed[0]) <= 1.0
