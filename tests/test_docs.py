"""README's library example runs as written, its Layout names every module,
its Command line section names every CLI option, and every exported name exists.

A deleted export, a stale README example, a module missing from the
Layout or an undocumented flag would otherwise go unnoticed until a
reader tried it.
"""

import argparse
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import conformal_hpd
from conformal_hpd import cli

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE_DIR = Path(conformal_hpd.__file__).resolve().parent

MODULES = ["conformal_hpd"] + [
    f"conformal_hpd.{m.name}" for m in pkgutil.iter_modules(conformal_hpd.__path__)
]


def quick_start_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs(capsys):
    exec(compile(quick_start_block(), str(README), "exec"), {})
    printed = capsys.readouterr().out
    assert printed.startswith("((")  # the row's intervals, at least one


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def layout_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Layout", 1)[1]
    return re.search(r"```\n(.*?)```", section, re.S).group(1)


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_readme_layout_names_every_module(path):
    # each module starts an indented line of the block under src/conformal_hpd/
    assert re.search(rf"^\s+{re.escape(path.name)}\s", layout_block(), re.M)


def cli_options() -> list:
    """(subcommand, option string) for every option of every subcommand but --help."""
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return [
        (name, option)
        for name, sub in commands.choices.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    ]


@pytest.mark.parametrize("command, option", cli_options(), ids=lambda v: v)
def test_readme_command_line_names_every_option(command, option):
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1].split("\n## ", 1)[0]
    # the whole flag: --n must not match inside --n-test
    assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", section)
