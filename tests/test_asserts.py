"""A ratchet on `assert` statements in the library.

An assert vanishes under `python -O`, so checks in `src/blowup` raise typed
errors instead.  Each module may keep at most the asserts listed here; the
counts only go down: a module with fewer asserts than its allowance fails
until the allowance is lowered to match.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "blowup")

# Asserts still allowed per module; every module not named here has none.
ALLOWED = {}


def assert_counts():
    counts = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            counts[name[:-3]] = sum(isinstance(node, ast.Assert)
                                    for node in ast.walk(tree))
    return counts


def test_no_new_asserts():
    counts = assert_counts()
    over = {m: n for m, n in counts.items() if n > ALLOWED.get(m, 0)}
    assert not over, (f"asserts beyond the allowance {ALLOWED}: {over}; "
                      "raise a typed BlowupError instead")


def test_allowance_follows_removals():
    counts = assert_counts()
    stale = {m: counts.get(m, 0) for m, n in ALLOWED.items()
             if counts.get(m, 0) < n}
    assert not stale, f"lower the allowance to the current counts: {stale}"


def test_lifting_modules_have_none():
    counts = assert_counts()
    assert counts["fiber"] == 0
    assert counts["manifolds"] == 0
