"""The README's library quickstart runs as written, its command table
names what the parser defines, and the package names it cites exist."""

import argparse
import importlib
import pkgutil
import re
from pathlib import Path

import mskd
from mskd.cli import build_parser

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


def parser_flags(parser: argparse.ArgumentParser, prefix: str = "") -> dict[str, set[str]]:
    """Each subcommand's flags ("pool build" for a nested one), without --help."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {prefix: {s for a in parser._actions for s in a.option_strings if s not in ("-h", "--help")}}
    return {
        name: flags
        for sub in subs
        for command, p in sub.choices.items()
        for name, flags in parser_flags(p, f"{prefix} {command}".strip()).items()
    }


def test_readme_command_table_matches_the_parser():
    section = README.read_text(encoding="utf-8").split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    table = {
        name: set(re.findall(r"--[a-z-]+", flags))
        for names, flags in re.findall(r"^\| (`.*?) \| (.*) \|$", section, re.MULTILINE)
        for name in re.findall(r"`([a-z ]+)`", names)
    }
    assert len(table) == 7 and table == parser_flags(build_parser())


def test_readme_names_only_what_the_package_has():
    # every backticked <module>.<name>, mskd. prefix optional, of an mskd
    # submodule resolves by getattr; a file name such as metrics.csv or
    # synthetic.py names no attribute
    modules = {m.name for m in pkgutil.iter_modules(mskd.__path__)}
    text = README.read_text(encoding="utf-8")
    cited = [
        (module, name)
        for module, name in re.findall(r"`(?:mskd\.)?([a-z_]+)\.([A-Za-z_][\w.]*)`", text)
        if module in modules and name not in ("csv", "py", "json", "jsonl")
    ]
    gone, missing = object(), []
    for module, name in cited:
        owner = importlib.import_module(f"mskd.{module}")
        for part in name.split("."):
            owner = getattr(owner, part, gone)
        if owner is gone:
            missing.append(f"{module}.{name}")
    assert len(cited) > 30 and missing == []
