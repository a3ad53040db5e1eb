"""Guards on the public surface: no dead engine ops, no parameter the
program never sets, no drifted command lists, no config that holds an
invalid value."""

import argparse
import ast
import dataclasses
import re
from pathlib import Path

import pytest

import lka_seg.engine as E
from lka_seg import cli
from lka_seg.data_io import SynthSpec
from lka_seg.model import ModelConfig
from lka_seg.training import TrainConfig

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
    # a helper or method whose last caller is gone is dead code; tests do
    # not count, and dunders are called by Python itself
    source = "\n".join(path.read_text() for path in PACKAGE.glob("*.py"))
    helpers = re.findall(r"^[ \t]*def (_(?!_)\w+)\(", source, flags=re.M)
    calls = re.sub(r"^[ \t]*def \w+\(", "", source, flags=re.M)
    assert {"_logits", "_degenerate", "_apply_gate"} <= set(helpers)
    assert [name for name in helpers if not re.search(rf"\b{name}\(", calls)] == []


def defaulted_parameters(fn):
    """(position or None, name) of each of `fn`'s parameters with a default."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield i, arg.arg
    for arg, default in zip(a.kwonlyargs, a.kw_defaults):
        if default is not None:
            yield None, arg.arg


def test_every_defaulted_parameter_is_passed_by_the_program():
    # a default that every caller leaves alone is a constant in disguise;
    # callers are matched by name, so a method of the same name counts too
    positions, keywords = {}, {}
    program = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    for path in program:
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            positions[name] = max(positions.get(name, 0),
                                  float("inf") if starred else len(call.args))
            keywords.setdefault(name, set()).update(k.arg for k in call.keywords)
    unset = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.parse(path.read_text()).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            passed = keywords.get(fn.name, set())
            unset += [f"{path.stem}.{fn.name}.{name}"
                      for i, name in defaulted_parameters(fn)
                      if not (i is not None and i < positions.get(fn.name, 0)
                              or name in passed or None in passed)]
    # the tests' seam: the console script calls main() with no arguments
    assert unset == ["cli.main.argv"]


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


# one out-of-range value for every field of each config
BAD_FIELDS = {
    SynthSpec: dict(seed=-1, count=0, height=96, width=32, class_count=1,
                    density=0.0, min_shape=3),
    ModelConfig: dict(class_count=1, stem_width=0, low_width=0, mid_width=0,
                      high_width=0, blocks_per_stage=0, ppm="aspp", fuse_width=-1,
                      head_width=-1, fixed_gate=1.0),
    TrainConfig: dict(epochs=0, batch_size=0, base_lr=float("nan"), seed=-1),
}


@pytest.mark.parametrize("cls", BAD_FIELDS, ids=lambda cls: cls.__name__)
def test_no_config_holds_an_invalid_value(cls):
    # a config checks itself when built, so `replace` cannot produce a bad one
    bad = BAD_FIELDS[cls]
    assert sorted(bad) == sorted(f.name for f in dataclasses.fields(cls))
    valid = cls()
    for name, value in bad.items():
        with pytest.raises(ValueError, match=name):
            dataclasses.replace(valid, **{name: value})
