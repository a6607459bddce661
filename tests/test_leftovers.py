"""Every private module-level function, class and constant of the package is
read somewhere in the package outside its own definition, so a route that
loses its last caller is deleted with it rather than left behind."""

import ast
import re
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nbofdma"
CONSTANT = re.compile(r"_[A-Z][A-Z0-9_]*")


def _private_definitions(tree: ast.Module):
    """(name, first line, last line) of each private module-level function,
    class and _CONSTANT of ``tree``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                yield node.name, node.lineno, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and CONSTANT.fullmatch(name.id):
                        yield name.id, node.lineno, node.end_lineno


def test_every_private_name_is_read_outside_its_definition():
    names, definitions = [], []  # (name, file, line) of every name token; the definitions
    for path in sorted(PACKAGE.glob("*.py")):
        with tokenize.open(path) as source:
            names += [(token.string, path, token.start[0])
                      for token in tokenize.generate_tokens(source.readline)
                      if token.type == tokenize.NAME]
        definitions += [(path, *found)
                        for found in _private_definitions(ast.parse(path.read_text()))]
    assert len(definitions) > 50
    unread = [f"{path.name}: {name}" for path, name, first, last in definitions
              if not any(token == name and not (where == path and first <= line <= last)
                         for token, where, line in names)]
    assert not unread, unread
