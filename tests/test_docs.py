"""README's library example runs as written, its Layout names every module,
and every exported name exists.

A deleted export, a stale README example or a module missing from the
Layout would otherwise go unnoticed until a reader tried it.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import conformal_hpd

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
