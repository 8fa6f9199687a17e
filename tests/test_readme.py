"""The README's library examples run as written, so a change to a documented
signature cannot leave them silently broken."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)


def test_readme_python_blocks_run():
    blocks = PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert blocks
    for i, code in enumerate(blocks):
        with contextlib.redirect_stdout(io.StringIO()):
            exec(compile(code, f"README.md python block {i}", "exec"), {})
