"""A ratchet on who writes documents.

`serialization` owns every document format: one `*_to_doc` writer per
kind, and one envelope, `_versioned`, that writes the kind and the
version of every versioned document.  A handler in `cli.py` decodes,
calls the library and returns a writer's output.  So `cli.py` builds no
dict with a "kind" key, edits no document by key, and uses neither a
private name of `serialization` nor its `VERSION`.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "blowup")


def parse(module: str) -> ast.Module:
    path = os.path.join(SRC, module + ".py")
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def keys(node: ast.Dict) -> set:
    return {k.value for k in node.keys if isinstance(k, ast.Constant)}


def document_writes(tree: ast.Module) -> list:
    """Where a module builds a document or edits one, or reaches into
    serialization: (line, what)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict) and "kind" in keys(node):
            found.append((node.lineno, "a dict with a 'kind' key"))
        elif isinstance(node, ast.Subscript) and \
                isinstance(node.ctx, ast.Store):
            found.append((node.lineno, f"{ast.unparse(node)} = ..."))
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "ser" and \
                (node.attr.startswith("_") or node.attr == "VERSION"):
            found.append((node.lineno, f"ser.{node.attr}"))
    return sorted(found)


def version_writes(tree: ast.Module) -> list:
    """The functions that write a "version": as a dict key, a keyword or
    a subscript."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Dict) and "version" in keys(node)) or \
                    (isinstance(node, ast.keyword)
                     and node.arg == "version") or \
                    (isinstance(node, ast.Subscript)
                     and isinstance(node.ctx, ast.Store)
                     and isinstance(node.slice, ast.Constant)
                     and node.slice.value == "version"):
                found.append(fn.name)
    return found


def test_cli_writes_no_document():
    found = document_writes(parse("cli"))
    assert not found, (f"cli.py builds or edits documents itself: {found}; "
                       "add a *_to_doc writer to serialization instead")


def test_one_envelope_writes_the_version():
    assert version_writes(parse("serialization")) == ["_versioned"]
