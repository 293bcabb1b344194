"""Every name a package module imports is read in that module.

No linter runs over the package, so a dead import would stay.  __init__.py
only re-exports, and is exempt.  Imports only the standard library, pytest
and semiosc.
"""

import ast
import os

import pytest

import semiosc

PACKAGE = os.path.dirname(semiosc.__file__)
MODULES = sorted(name for name in os.listdir(PACKAGE)
                 if name.endswith(".py") and name != "__init__.py")


def _imported(tree):
    """The names the module's import statements bind, with their lines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    with open(os.path.join(PACKAGE, module), encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), filename=module)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = [(name, line) for name, line in _imported(tree)
              if name not in read]
    assert not unread, f"{module}: imported and never read: {unread}"
