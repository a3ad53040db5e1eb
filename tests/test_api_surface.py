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


def test_every_private_function_has_a_caller_in_the_package():
    # a helper whose last caller is gone is dead code; tests do not count
    source = "\n".join(path.read_text() for path in PACKAGE.glob("*.py"))
    helpers = re.findall(r"^def (_\w+)\(", source, flags=re.M)
    calls = re.sub(r"^def \w+\(", "", source, flags=re.M)
    assert helpers
    assert [name for name in helpers if not re.search(rf"\b{name}\(", calls)] == []


def subparsers():
    parser = cli.build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def readme_commands():
    """The `lka-seg ...` lines of README's command block, continuations joined."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    return [line for line in block.splitlines() if line.startswith("lka-seg ")]


def test_readme_command_block_lists_every_subcommand():
    assert [line.split()[1] for line in readme_commands()] == list(subparsers())


def test_readme_command_block_flags_exist():
    parsers = subparsers()
    stale = [(line.split()[1], flag) for line in readme_commands()
             for flag in re.findall(r"--[\w-]+", line)
             if flag not in parsers[line.split()[1]]._option_string_actions]
    assert stale == []


def test_readme_command_block_lists_every_flag():
    listed = {line.split()[1]: set(re.findall(r"--[\w-]+", line))
              for line in readme_commands()}
    missing = [(name, flag) for name, p in subparsers().items()
               for flag in p._option_string_actions
               if flag.startswith("--") and flag != "--help"
               and flag not in listed.get(name, ())]
    assert missing == []


def test_cli_docstring_lists_every_subcommand():
    listed = re.search(r"Commands: ([^.]+)\.", cli.__doc__).group(1)
    assert listed.split(", ") == list(subparsers())


def test_readme_layout_block_lists_every_module():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```", 2)[1]
    listed = re.findall(r"^  (\w+\.py) ", block, flags=re.M)
    modules = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert sorted(listed) == modules
