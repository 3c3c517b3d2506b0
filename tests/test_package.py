"""The package's promises to its readers: the README's library example runs
as written, its command lines parse, every exported name exists, and every
public name the package imports from its modules is exported."""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import treesnake
from treesnake import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_runs_as_written():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None
    namespace: dict = {}
    exec(compile(block.group(1), f"{README}:Library use", "exec"), namespace)
    assert namespace["tree"].n_edges == 200
    assert namespace["uniform"].n == 200
    assert namespace["sups"].shape == namespace["infs"].shape == (8,)
    assert (namespace["sups"] > 0.0).all() and (namespace["infs"] < 0.0).all()


def test_readme_command_lines_parse():
    # parsed, not run: a renamed law, identity or option fails here first
    text = README.read_text()
    section = text[text.index("## Command line"):]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL)
    assert block is not None
    lines = [line for line in block.group(1).splitlines() if line.startswith("treesnake ")]
    assert len(lines) >= 5
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])


def test_every_export_resolves():
    missing = [name for name in treesnake.__all__ if not hasattr(treesnake, name)]
    assert missing == []
    assert len(set(treesnake.__all__)) == len(treesnake.__all__)


def test_every_public_import_is_exported():
    # with the check above, a name half removed (from the imports or from
    # __all__, not both) fails at once
    source = ast.parse(Path(treesnake.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in source.body
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("treesnake.")
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(public - set(treesnake.__all__)) == []
