"""Source hygiene checks that read the package's modules with ``ast``."""

import ast
from pathlib import Path

import wheelfree

MODULES = sorted(p for p in Path(wheelfree.__file__).parent.glob("*.py") if p.name != "__init__.py")


def test_modules_use_every_name_they_import():
    assert MODULES
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused = sorted(imported - used)
        assert not unused, f"{path.name} imports {unused} without using them"


# names the brute oracles may take from the package: the graph core, the
# wheel data types brute_has_k_wheel returns, and every error class
ORACLE_IMPORTS = {"Graph", "bits", "reach", "Wheel", "normalize_cycle"}


def oracle_leaks(source: str) -> set[str]:
    """Package names outside ORACLE_IMPORTS and the errors module that a
    top-level ``brute_*`` function of ``source`` uses, directly or through
    the module-level functions, classes and assignments it references."""
    tree = ast.parse(source)
    package = {}  # local name -> the package module it was imported from
    defs = {}  # top-level name -> its definition
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("wheelfree")):
            for alias in node.names:
                package[alias.asname or alias.name] = node.module or alias.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    todo = [name for name in defs if name.startswith("brute_")]
    assert todo, "no brute_* oracle found"
    seen, leaks = set(), set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if not isinstance(node, ast.Name):
                continue
            if node.id in defs:
                todo.append(node.id)
            elif node.id in package and node.id not in ORACLE_IMPORTS \
                    and package[node.id].rpartition(".")[2] != "errors":
                leaks.add(node.id)
    return leaks


def test_oracles_share_nothing_with_the_fast_paths():
    source = (Path(wheelfree.__file__).parent / "oracles.py").read_text()
    assert oracle_leaks(source) == set()
    # a connectivity oracle that asks the fast path is caught, and so is a
    # fast path reached through a helper
    for old, new, leak in (
        ("    return n - 1\n", "    return n - 1 if _is_k_connected(g, n - 1) else 0\n",
         "_is_k_connected"),
        ("    if g.n > budget:", "    if g.n > budget or find_k_wheel(g, 4):", "find_k_wheel"),
    ):
        assert old in source
        assert oracle_leaks(source.replace(old, new)) == {leak}


def wheel_builders(path: Path) -> set[tuple[str, str]]:
    """(module, top-level definition) for every ``Wheel(...)`` call in path."""
    found = set()
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (
                    getattr(node.func, "id", None) == "Wheel" or getattr(node.func, "attr", None) == "Wheel"):
                found.add((path.name, getattr(top, "name", "<module>")))
    return found


def test_wheels_are_built_in_one_place_and_by_the_oracle():
    # every fast path takes its certificate from wheels._wheel_at; the brute
    # oracle builds its own, so it stays independent of the fast search
    built = set().union(*(wheel_builders(path) for path in MODULES))
    assert built == {("wheels.py", "_wheel_at"), ("oracles.py", "brute_has_k_wheel")}


def k_connected_callers(source: str) -> set[str]:
    """Top-level functions of ``source`` that call ``_is_k_connected``."""
    return {top.name for top in ast.parse(source).body
            if isinstance(top, ast.FunctionDef) and any(
                isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_is_k_connected"
                for node in ast.walk(top))}


def test_statement_hypotheses_are_tested_in_one_place():
    # the catalog declares each connectivity hypothesis and verify_statement
    # alone tests it, so no checker tests connectivity itself
    source = (Path(wheelfree.__file__).parent / "structure.py").read_text()
    assert k_connected_callers(source) == {"verify_statement"}
    old = '''    """5-connected graphs: every vertex is a 4-wheel center."""\n'''
    assert old in source
    planted = source.replace(old, old + "    if not _is_k_connected(g, 5):\n"
                                        "        return VerifyStatus.NOT_APPLICABLE, 'not 5-connected'\n")
    assert k_connected_callers(planted) == {"verify_statement", "_check_five_connected_centers"}


def file_opens(source: str) -> dict[str, set[str]]:
    """Top-level functions and methods (``Class.method``) of ``source``
    with an ``open(...)`` call, keyed by whether the call gives a mode
    that writes."""
    found = {"read": set(), "write": set()}
    for top in ast.parse(source).body:
        scopes = ([(f"{top.name}.{m.name}", m) for m in top.body if isinstance(m, ast.FunctionDef)]
                  if isinstance(top, ast.ClassDef) else [(getattr(top, "name", "<module>"), top)])
        for name, scope in scopes:
            for node in ast.walk(scope):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open":
                    modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
                    writes = any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+")
                                 for m in modes)
                    found["write" if writes else "read"].add(name)
    return found


def test_graph_files_are_read_in_one_place():
    # formats.read_file alone turns a file into graphs; the pool dump and the
    # counterexample bundle only write
    opens = {"read": set(), "write": set()}
    for path in MODULES:
        for kind, names in file_opens(path.read_text()).items():
            opens[kind] |= {f"{path.stem}.{name}" for name in names}
    assert opens == {"read": {"formats.read_file"},
                     "write": {"oracles.GraphPool.dump", "cli.cmd_verify"}}
    source = (Path(wheelfree.__file__).parent / "oracles.py").read_text()
    old = "        return GraphPool(text, lambda: iter(read_file(rest)))\n"
    assert old in source
    planted = source.replace(old, "        path = rest\n        with open(path) as fh:\n"
                                  "            graphs = parse_graph6_lines(fh.read())\n"
                                  "        return GraphPool(text, lambda: iter(graphs))\n")
    assert file_opens(planted)["read"] == {"parse_pool_descriptor"}
