"""The runtime depends on the standard library alone, and reads every name it imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import equicompress

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "equicompress"


def outside_imports(path):
    """Top-level names of the absolute imports in a module that are not standard library."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue  # not an import, or a relative one
        for module in modules:
            if module.split(".")[0] not in sys.stdlib_module_names:
                yield module


def test_runtime_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    outside = {path.name: list(outside_imports(path)) for path in modules}
    assert not any(outside.values()), outside


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from equicompress import *", namespace)
    assert len(set(equicompress.__all__)) == len(equicompress.__all__)
    assert not set(equicompress.__all__) - set(namespace)


# What ``dataclasses`` loads to write its methods; no command needs any of it.
INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

SETUP_STEPS = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import equicompress.cli as cli\n"
    "cli.build_parser()\n"
    "print(cli.__file__, *sorted(set(sys.modules) - before))\n"
)


def test_cli_setup_loads_no_introspection_modules():
    """A fresh interpreter that imports the CLI and builds its parser (the
    set-up that perfbench's ``setup_s`` times) adds none of ``INTROSPECTION``
    to ``sys.modules``.  Only the modules those steps add are compared, so one
    that a site hook loaded earlier does not count."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_STEPS],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    where, *added = done.stdout.split()
    assert Path(where).resolve() == PACKAGE / "cli.py"
    assert not INTROSPECTION & set(added), sorted(INTROSPECTION & set(added))


def unread_imports(path):
    """Names a module imports at top level and never reads; a name listed in
    its ``__all__`` is a re-export, and ``__future__`` imports are directives."""
    tree = ast.parse(path.read_text(), str(path))
    imported = []
    exported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = ast.literal_eval(node.value)
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read and name not in exported]


def test_every_top_level_import_is_read():
    modules = sorted(PACKAGE.glob("*.py"))
    unread = {path.name: unread_imports(path) for path in modules}
    assert not any(unread.values()), unread
