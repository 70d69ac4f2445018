"""The README's library quick start runs as written, so a name it uses that
the library drops or renames fails here."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_start_blocks() -> list:
    """The python code blocks of the README's "Library quick start" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)


def test_library_quick_start_runs(capsys):
    blocks = quick_start_blocks()
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert "grid 3x3" in capsys.readouterr().out
    assert namespace["sched"].mode == "general"
