import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# a float literal below this is a tolerance or a guard, and needs a name
SMALL = 1e-3


def _unnamed_small_floats(tree):
    """Line numbers of the nonzero float literals below SMALL in absolute
    value that are not the value of a module-level UPPER_CASE name."""
    named = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if all(isinstance(t, ast.Name) and t.id.isupper() for t in targets):
                named.update(map(id, ast.walk(node)))
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Constant) and type(n.value) in (float, complex)
                  and 0 < abs(n.value) < SMALL and id(n) not in named)


def test_the_check_finds_unnamed_tolerances():
    code = ("TOL = 1e-9\nBOUND: float = 2e-4\nlow = 1e-9\n"
            "def f(x, tol=1e-12):\n    return x > -5e-7 + 1e-3 + 0.0 + 1e-6j\n")
    assert _unnamed_small_floats(ast.parse(code)) == [3, 4, 5, 5]


def test_small_float_literals_in_src_are_named_constants():
    bad = {str(p.relative_to(SRC)): lines for p in sorted(SRC.rglob("*.py"))
           if (lines := _unnamed_small_floats(ast.parse(p.read_text())))}
    assert not bad, bad
