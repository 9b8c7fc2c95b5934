"""Every library module reads each name it imports."""

from __future__ import annotations

import ast
import pathlib

import pytest

import yangbaxter

MODULES = sorted(pathlib.Path(yangbaxter.__file__).parent.glob("*.py"))


def unread_imports(source):
    """The names a module binds by import and never reads, in order."""
    tree = ast.parse(source)
    imports = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
    ]
    imported = [(alias.asname or alias.name).split(".")[0]
                for node in imports for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_reads_every_name_it_imports(path):
    assert unread_imports(path.read_text()) == []


def test_unread_imports_names_the_unread_ones():
    source = "import os, sys\nfrom math import prod, pi as tau\nprint(sys, tau)\n"
    assert unread_imports(source) == ["os", "prod"]
