"""Guards on the public surface: no dead engine ops, no drifted command lists."""

import argparse
import re
from pathlib import Path

import lka_seg.engine as E
from lka_seg import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lka_seg"
# engine.__all__ entries that are infrastructure rather than tensor ops
NOT_OPS = {"Tensor", "Parameter", "no_grad", "flop_meter"}


def engine_references(text):
    """Names a module reads from the engine, as `E.x`/`engine.x` or imports."""
    refs = set(re.findall(r"\b(?:E|engine)\.(\w+)", text))
    for names in re.findall(r"from \.engine import \(?([\w\s,]+)\)?", text):
        refs.update(re.findall(r"\w+", names))
    return refs


def test_every_engine_op_has_a_caller_in_the_package():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "engine.py":
            used |= engine_references(path.read_text())
    ops = [name for name in E.__all__ if name not in NOT_OPS]
    assert all(callable(getattr(E, name)) for name in ops)
    assert [name for name in ops if name not in used] == []


def subcommands():
    parser = cli.build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


def test_readme_command_block_lists_every_subcommand():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    listed = [line.split()[1] for line in block.splitlines()
              if line.startswith("lka-seg ")]
    assert listed == subcommands()


def test_cli_docstring_lists_every_subcommand():
    listed = re.search(r"Commands: ([^.]+)\.", cli.__doc__).group(1)
    assert listed.split(", ") == subcommands()


def test_readme_layout_block_lists_every_module():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```", 2)[1]
    listed = re.findall(r"^  (\w+\.py) ", block, flags=re.M)
    modules = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert sorted(listed) == modules
