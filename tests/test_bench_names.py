"""Every ``pagid`` name the benchmark relies on exists.

The benchmark reaches into the package from outside: ``bench/tracing.py``
wraps the functions listed in ``GROUPS``, and the other scripts call
``pagid.<module>.<name>`` directly, or through a local alias such as
``g = pagid.graphs``.  A rename would otherwise show only when the benchmark
runs.  The scripts are read as source and never imported or changed.
"""

import ast
import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _chain(node):
    """Names of a dotted expression ``a.b.c`` as ["a", "b", "c"], or []."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    return [node.id, *reversed(names)] if isinstance(node, ast.Name) else []


def _own_nodes(scope):
    """Nodes of ``scope`` outside the functions defined inside it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


def _pagid_names(tree):
    """(module, name) pairs read as ``pagid.<module>.<name>``; a name is None
    where only the module is read.  An alias of a module is followed within
    the function that binds it."""
    found = set()
    scopes = [tree, *(n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)))]
    for scope in scopes:
        nodes = list(_own_nodes(scope))
        aliases = {}
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
                chain = _chain(node.value)
                if len(chain) >= 2 and chain[-2] == "pagid":
                    aliases[node.targets[0].id] = chain[-1]
        for node in nodes:
            chain = _chain(node)
            if "pagid" in chain[:-1]:
                module, *rest = chain[chain.index("pagid") + 1:]
                if not module.startswith("__"):
                    found.add((module, rest[0] if rest else None))
            elif len(chain) >= 2 and chain[0] in aliases:
                found.add((aliases[chain[0]], chain[1]))
    return found


def _groups():
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["GROUPS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracing.py defines no GROUPS")


def _missing(pairs):
    missing = []
    for module, name in sorted(pairs, key=lambda p: (p[0], p[1] or "")):
        try:
            mod = importlib.import_module(f"pagid.{module}")
        except ImportError:
            missing.append(f"pagid.{module}")
            continue
        if name is not None and not hasattr(mod, name):
            missing.append(f"pagid.{module}.{name}")
    return missing


def test_traced_functions_exist():
    pairs = {(module, fn) for module, fns in _groups().values() for fn in fns}
    assert ("structure", "visible_edges") in pairs
    assert _missing(pairs) == []


def test_names_the_scripts_reference_exist():
    pairs = set()
    for path in sorted(BENCH.glob("*.py")):
        pairs |= _pagid_names(ast.parse(path.read_text(encoding="utf-8")))
    assert {("structure", "graphical_visible_edges"), ("cli", "serialize_graph"), ("graphs", "Mag")} <= pairs
    assert _missing(pairs) == []
