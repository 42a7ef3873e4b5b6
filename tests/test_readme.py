"""The README's Python API sketch runs as documented and prints its number."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_api_sketch_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Python API sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.split() == ["0.625"]
