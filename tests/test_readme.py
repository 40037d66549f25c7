"""The README's Python examples run as written, and its verify example is real output."""

import re
from pathlib import Path

from frqme.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.M | re.S)
    assert blocks
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_verify_example_lines_are_printed_by_verify(capsys):
    # the fenced block after "### verify"; "..." stands for the lines left out
    text = README.read_text(encoding="utf-8")
    example = re.search(r"^### verify\n.*?^```\n(.*?)^```", text, re.M | re.S).group(1)
    lines = [line for line in example.splitlines() if line != "..."]
    assert lines
    assert main(["verify"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line not in printed] == []
