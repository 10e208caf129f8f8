"""A ratchet on what "the same" means.

`MonoidalComplex.__eq__` and `CornerComplex.__eq__` own sameness: two
complexes are the same when they are one object or have equal monoids,
order and face maps, and two manifolds when they are one object or have
equal incidence and order.  Every construction that joins two of them
compares them with `==` or `!=`.  So no `==` or `!=` in `src/blowup` has
an operand that is a `.faces`, `.elements`, `.incidence`, `.order`,
`.face_maps` or `.monoids` attribute, or a tuple that holds one, outside
those two methods: each would be a rule of its own.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "blowup")
FIELDS = {"faces", "elements", "incidence", "order", "face_maps", "monoids"}
OWNERS = {("MonoidalComplex", "__eq__"), ("CornerComplex", "__eq__")}


def _is_field(node: ast.expr) -> bool:
    if isinstance(node, ast.Tuple):
        return any(_is_field(e) for e in node.elts)
    return isinstance(node, ast.Attribute) and node.attr in FIELDS


def sameness_comparisons(tree: ast.Module) -> list:
    """The `==` and `!=` comparisons of a field outside the owners:
    (line, source)."""
    skip = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and \
                        (cls.name, fn.name) in OWNERS:
                    skip.update(id(n) for n in ast.walk(fn))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and id(node) not in skip and \
                any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops) \
                and any(map(_is_field, [node.left] + node.comparators)):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_only_the_owners_compare_fields():
    found = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                hits = sameness_comparisons(ast.parse(fh.read()))
            if hits:
                found[name] = hits
    assert not found, (f"sameness decided by hand: {found}; compare the "
                       "complexes or manifolds themselves with == or !=")


def test_finds_each_former_rule():
    """The four rules that six call sites used before the owners."""
    former = """
if self.target.elements != then.source.elements: pass
if then.source.faces != self.target.faces: pass
if (q.monoids, q.order, q.face_maps) != (p.monoids, p.order, p.face_maps):
    pass
if (f.target.incidence, f.target.order) != (y.incidence, y.order): pass
if a.faces is b.faces or len(a.faces) < 2: pass
"""
    assert [line for line, _ in sameness_comparisons(ast.parse(former))] \
        == [2, 3, 4, 6]


def test_owners_are_exempt():
    owner = """
class CornerComplex:
    def __eq__(self, other):
        return (self.incidence, self.order) == (other.incidence, other.order)
class BMap:
    def __eq__(self, other):
        return self.source.faces == other.source.faces
"""
    assert [line for line, _ in sameness_comparisons(ast.parse(owner))] \
        == [7]
