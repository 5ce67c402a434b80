"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart() -> str:
    """The python block under README's `## Library quickstart` heading."""
    section = README.read_text(encoding="utf-8").split("## Library quickstart\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    assert len(blocks) == 1, "the quickstart section holds one python block"
    return blocks[0]


def test_readme_quickstart_runs(capsys):
    scope: dict = {}
    exec(compile(quickstart(), f"{README}:quickstart", "exec"), scope)
    # it prints the final accuracy and ends with a quality matching distribution
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
    assert [k for k, _ in scope["curve"]] == [1, 4, 16, 64]
    assert abs(sum(scope["dist"].probs) - 1.0) < 1e-12
