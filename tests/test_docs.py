"""README's library example runs as written, and every exported name exists.

A deleted export or a stale README example would otherwise go unnoticed
until a reader tried it.
"""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import conformal_hpd

README = Path(__file__).resolve().parent.parent / "README.md"

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
