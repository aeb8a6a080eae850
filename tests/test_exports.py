"""Every public function in `src/tenfold` has a caller, and no module imports
a name it never uses.

A public module-level function must be referenced from `src/` outside
`__init__.py`: called or named in its own module, imported by name into
another, or read as `module.name`.  Two callers live outside the code: `cli`
dispatches each `cmd_*` through `globals()`, and the benchmark traces each
function that a per-layer row of `BENCHMARK.json` names.  These tests only
read files.
"""

import ast
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "tenfold"


def _public_functions(tree):
    return {n.name for n in tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not n.name.startswith("_")}


def _references(module, tree, defined):
    """(module, name) of every module-level function of the package that
    `tree`, the code of `module`, refers to; a function's own body does not
    count for itself."""
    imported, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    imported[local] = (node.module, alias.name)
    out = set()
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id != own:
                out.add(imported.get(node.id, (module, node.id)))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                out.add((modules[node.value.id], node.attr))
    return out & defined


def _uncalled(sources, traced=frozenset()):
    """Sorted `module.name` of the public functions in `sources` (module
    name -> code) that nothing outside `__init__` refers to."""
    trees = {m: ast.parse(code) for m, code in sources.items()}
    defined = {(m, f) for m, t in trees.items() if m != "__init__"
               for f in _public_functions(t)}
    seen = set().union(*(_references(m, t, defined) for m, t in trees.items()
                         if m != "__init__"))
    seen |= {("cli", f) for m, f in defined if m == "cli" and f.startswith("cmd_")}
    return sorted(f"{m}.{f}" for m, f in defined - seen - set(traced))


def _unused_imports(tree):
    """Sorted local names that `tree` imports and never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                getattr(node, "module", None) != "__future__":
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def _sources():
    return {p.stem: p.read_text() for p in sorted(PKG.glob("*.py"))}


def _traced():
    """(layer, function) of each per-layer `<layer>.<function>.<metric>` row."""
    rows = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {tuple(r["name"].split(".")[:2]) for r in rows if r["name"].count(".") == 2}


def test_the_checks_find_uncalled_functions_and_unused_imports():
    sources = {
        "__init__": "from .a import dead, live, traced\n",
        "a": ("def live(x):\n    return helper(x)\n"
              "def helper(x):\n    return x\n"
              "def dead(x):\n    return dead(x)\n"
              "def traced():\n    pass\n"),
        "b": "from . import a\nfrom .a import helper\n\ndef run():\n    return a.live(1)\n",
        "cli": ("def cmd_go(args):\n    pass\n"
                "def main(argv):\n    return globals()['cmd_' + argv](None)\n"),
    }
    assert _uncalled(sources) == ["a.dead", "a.traced", "b.run", "cli.main"]
    assert _uncalled(sources, {("a", "traced")}) == ["a.dead", "b.run", "cli.main"]
    assert _unused_imports(ast.parse(sources["b"])) == ["helper"]
    assert _unused_imports(ast.parse("from __future__ import annotations\n"
                                     "import os.path, sys as system\nos.sep\n")) == ["system"]


def test_every_public_function_has_a_caller_in_src():
    uncalled = _uncalled(_sources(), _traced())
    assert not uncalled, uncalled


def test_no_module_imports_a_name_it_never_uses():
    bad = {m: names for m, code in _sources().items()
           if m != "__init__" and (names := _unused_imports(ast.parse(code)))}
    assert not bad, bad
