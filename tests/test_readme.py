"""The README's library quickstart runs as written, its command table
names what the parser defines, and the package names it cites exist."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
import textwrap
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


def instance_attributes(cls: type) -> set[str]:
    """cls's dataclass fields, or the self.<name> its own __init__ assigns."""
    if dataclasses.is_dataclass(cls):
        return {f.name for f in dataclasses.fields(cls)}
    if "__init__" not in vars(cls):
        return set()
    tree = ast.parse(textwrap.dedent(inspect.getsource(cls.__init__)))
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and isinstance(node.value, ast.Name) and node.value.id == "self"
    }


def resolves(owner, dotted: str) -> bool:
    """Each part of dotted is an attribute of the one before it, from owner;
    the last may instead be an instance attribute of a class."""
    *parts, last = dotted.split(".")
    for part in parts:
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return hasattr(owner, last) or (inspect.isclass(owner) and last in instance_attributes(owner))


def test_readme_names_only_what_the_package_has():
    # every backticked <module>.<name>, mskd. prefix optional, of an mskd
    # submodule, and every <Class>.<name> of a class defined in one,
    # resolves; a file name such as metrics.csv or BENCHMARK.json, or a
    # numpy name such as Generator.choice, names neither
    modules = {m.name: importlib.import_module(f"mskd.{m.name}") for m in pkgutil.iter_modules(mskd.__path__)}
    classes = {
        name: obj for module in modules.values() for name, obj in vars(module).items()
        if inspect.isclass(obj) and obj.__module__ == module.__name__
    }
    text = README.read_text(encoding="utf-8")
    cited = [
        (modules[module], f"{module}.{name}", name)
        for module, name in re.findall(r"`(?:mskd\.)?([a-z_]+)\.([A-Za-z_][\w.]*)`", text)
        if module in modules and name not in ("csv", "py", "json", "jsonl")
    ]
    of_classes = [
        (classes[cls], f"{cls}.{name}", name)
        for cls, name in re.findall(r"`([A-Z]\w*)\.([A-Za-z_][\w.]*)`", text) if cls in classes
    ]
    missing = [cite for owner, cite, name in cited + of_classes if not resolves(owner, name)]
    assert len(cited) > 30 and len(of_classes) > 3 and missing == []
