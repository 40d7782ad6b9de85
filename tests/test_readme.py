"""The README's Library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    library = README.read_text().split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert re.fullmatch(r"FWHM = \d+ ps\n", capsys.readouterr().out)
