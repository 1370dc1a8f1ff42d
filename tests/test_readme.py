"""The README's quickstart runs as written and prints what it says."""

import re

from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_block_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    first = capsys.readouterr().out.splitlines()[0]
    # the value its comment gives, 2 sqrt(pi) / 5
    assert first == "0.7089815403622064"
