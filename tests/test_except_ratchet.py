"""A ratchet on `except` clauses that catch Python's own errors.

`cli.main` maps MalformedDocument to exit 2 and BlowupError to exit 1;
any other exception is a defect and must show its traceback.  An except
clause in `src/blowup` that names KeyError, ValueError or TypeError (or
one of their bases, or a bare except) would hide such a defect again.
The clauses allowed here parse user text, where a ValueError is the
answer and is re-raised as MalformedDocument.  The allowance only goes
down: a function with fewer such clauses than its allowance fails until
the allowance is lowered to match.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "blowup")

UNTYPED = {"KeyError", "ValueError", "TypeError", "LookupError",
           "Exception", "BaseException"}

# Clauses still allowed per (module, function); none anywhere else.
ALLOWED = {
    ("cli", "_vector"): 1,             # int() of a command-line vector
    ("serialization", "_dec_num"): 1,  # Fraction() of a document string
}


def caught(handler: ast.ExceptHandler) -> set:
    """The exception names an except clause catches; a bare except
    catches BaseException."""
    if handler.type is None:
        return {"BaseException"}
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return {t.id if isinstance(t, ast.Name) else t.attr for t in types
            if isinstance(t, (ast.Name, ast.Attribute))}


class _Clauses(ast.NodeVisitor):
    """The except clauses of a module, by innermost enclosing function."""

    def __init__(self):
        self.scope = "<module>"
        self.found = {}

    def visit_FunctionDef(self, node):
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ExceptHandler(self, node):
        self.found.setdefault(self.scope, []).append(caught(node))
        self.generic_visit(node)


def clauses():
    """(module, function) -> the names caught by each of its clauses."""
    out = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                visitor = _Clauses()
                visitor.visit(ast.parse(fh.read(), filename=name))
            for scope, found in visitor.found.items():
                out[(name[:-3], scope)] = found
    return out


def untyped_counts():
    return {where: n for where, found in clauses().items()
            if (n := sum(bool(names & UNTYPED) for names in found))}


def test_no_new_untyped_catches():
    over = {where: n for where, n in untyped_counts().items()
            if n > ALLOWED.get(where, 0)}
    assert not over, (f"except clauses naming {sorted(UNTYPED)} beyond the "
                      f"allowance {ALLOWED}: {over}; raise "
                      "MalformedDocument or a BlowupError where the input "
                      "is checked instead")


def test_allowance_follows_removals():
    counts = untyped_counts()
    stale = {where: counts.get(where, 0) for where, n in ALLOWED.items()
             if counts.get(where, 0) < n}
    assert not stale, f"lower the allowance to the current counts: {stale}"


def test_main_maps_exactly_two_types():
    """Around the handler call, `cli.main` names MalformedDocument (exit
    2) and BlowupError (exit 1) and nothing else; its other clause is the
    parser's SystemExit."""
    assert clauses()[("cli", "main")] == [
        {"SystemExit"}, {"MalformedDocument"}, {"BlowupError"}]
