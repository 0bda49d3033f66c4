"""No unused imports anywhere in the repository's Python code.

The F401 half of the CI lint, checked with ``ast`` so it runs where
ruff is not installed.  The check is a module-wide approximation of
ruff's: an imported name counts as used if it is loaded anywhere in
the module, listed in ``__all__``, or named inside a string
annotation.  ``import x as x`` (and ``from m import x as x``) is an
explicit re-export, ``__future__`` imports are directives, and a
``# noqa`` comment on the import line opts out as it does for ruff.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterator, List, Set, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "benchmarks")


def _python_files() -> Iterator[pathlib.Path]:
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "__pycache__" not in path.parts:
                yield path


def _imports(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """(bound name, line) for every import that binds a checkable name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is None:
                    yield alias.name.split(".")[0], node.lineno
                elif alias.asname != alias.name:
                    yield alias.asname, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*" or alias.asname == alias.name:
                    continue
                yield alias.asname or alias.name, node.lineno


def _names_in(node: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            # A string annotation, or a string inside one
            # (``Optional["Pack"]``).
            try:
                parsed = ast.parse(child.value, mode="eval")
            except SyntaxError:
                continue
            names |= _names_in(parsed)
    return names


def _annotations(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (
                args.posonlyargs
                + args.args
                + args.kwonlyargs
                + [a for a in (args.vararg, args.kwarg) if a is not None]
            ):
                if arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _exported(tree: ast.Module) -> Set[str]:
    """Names listed in a module-level ``__all__``."""
    names: Set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in targets
            ) and isinstance(node.value, (ast.List, ast.Tuple)):
                names |= {
                    elt.value
                    for elt in node.value.elts
                    if isinstance(elt, ast.Constant)
                }
    return names


def unused_imports(path: pathlib.Path, root: pathlib.Path = ROOT) -> List[str]:
    """``path:line: name`` for each unused import in one file."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for annotation in _annotations(tree):
        loaded |= _names_in(annotation)
    used = loaded | _exported(tree)
    return [
        f"{path.relative_to(root)}:{line}: {name}"
        for name, line in _imports(tree)
        if name not in used and "# noqa" not in lines[line - 1]
    ]


def test_no_unused_imports():
    problems = [p for path in _python_files() for p in unused_imports(path)]
    assert not problems, "unused imports:\n" + "\n".join(problems)


def test_checker_honours_reexports_annotations_and_future(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "import os\n"
        "import json as json\n"
        "from typing import TYPE_CHECKING, List\n"
        "from collections import OrderedDict\n"
        "if TYPE_CHECKING:\n"
        "    from decimal import Decimal\n"
        "__all__ = ['OrderedDict']\n"
        "def f(x: 'Decimal') -> List[int]:\n"
        "    return []\n"
    )
    assert unused_imports(sample, root=tmp_path) == ["sample.py:2: os"]
