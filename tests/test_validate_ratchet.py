"""A ratchet on the `validate` calls of the command line.

The decoders in `serialization` return validated objects, and each
library function checks that its arguments fit before it computes.  So a
handler in `cli.py` validates only what the library hands back: its
output checks.  This test lists every `.validate(` call in `cli.py` by
(function, receiver) and allows only the output checks below.  The
allowance only goes down: a call that is removed must be removed here
too.
"""

import ast
import os
from collections import Counter

CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "blowup", "cli.py")

# (handler, receiver) of each output check still allowed.
ALLOWED = Counter([
    ("cmd_subdivide", "r"),
    ("cmd_ns", "r"),
    ("cmd_extend", "r"),
    ("cmd_lift", "lift.bmap"),
    ("cmd_binomial", "pd"),
    ("cmd_binomial", "inat"),
    ("cmd_binomial", "res.refinement"),
    ("cmd_fiber", "res.h1"),
    ("cmd_fiber", "res.h2"),
    ("cmd_fiber", "g"),
])


class _Calls(ast.NodeVisitor):
    """The `.validate(` calls of a module, by innermost enclosing
    function, each with the source text of its receiver."""

    def __init__(self):
        self.scope = "<module>"
        self.found = Counter()

    def visit_FunctionDef(self, node):
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr == "validate":
            self.found[(self.scope, ast.unparse(node.func.value))] += 1
        self.generic_visit(node)


def validate_calls() -> Counter:
    with open(CLI) as fh:
        visitor = _Calls()
        visitor.visit(ast.parse(fh.read(), filename=CLI))
    return visitor.found


def test_no_new_validate_calls():
    extra = validate_calls() - ALLOWED
    assert not extra, (f"validate calls in cli.py beyond the output checks "
                       f"allowed: {dict(extra)}; validate in the decoder "
                       "or check the fit in the library function instead")


def test_allowance_follows_removals():
    stale = ALLOWED - validate_calls()
    assert not stale, f"remove these from the allowance: {dict(stale)}"
