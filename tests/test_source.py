"""Source checks: caller input is refused by code that python -O keeps,
what a run builds is freed by reference counting, and every helper has a
caller.

An ``assert`` statement is stripped under ``python -O``, so a check written as
one cannot guard caller input.  Every ``assert`` left in ``src/kmchev`` must be
an internal invariant, named below with the reason it cannot fail on any
input the callers can give.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kmchev"

# (module, enclosing function) -> why the assert is an internal invariant; src/ has none
ALLOWED_ASSERTS: dict = {}


def asserts_by_function(tree: ast.Module):
    """(qualified name of the enclosing function, line) for each assert."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            else:
                if isinstance(child, ast.Assert):
                    out.append((".".join(scope), child.lineno))
                visit(child, scope)

    visit(tree, [])
    return out


def test_asserts_are_only_internal_invariants():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for where, line in asserts_by_function(ast.parse(path.read_text(), str(path))):
            found.setdefault((path.stem, where), []).append(line)
    stray = {key: lines for key, lines in found.items() if key not in ALLOWED_ASSERTS}
    assert not stray, f"assert statements outside the allowlist (use an exception instead): {stray}"
    assert all(len(lines) == 1 for lines in found.values()), found
    assert set(found) == set(ALLOWED_ASSERTS), "an allowlisted assert is gone; drop it from ALLOWED_ASSERTS"


def test_no_nested_function_calls_itself_and_no_module_imports_gc():
    """A nested function that calls itself holds itself through its closure
    cell: a reference cycle that keeps what its frame built until the cyclic
    collector runs.  Walks are loops instead, so nothing needs gc."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import) and any(alias.name == "gc" for alias in node.names) \
                    or isinstance(node, ast.ImportFrom) and node.module == "gc":
                found.add((path.stem, node.lineno, "imports gc"))
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(node):
                if inner is not node and isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                        isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == inner.name
                        for call in ast.walk(inner)):
                    found.add((path.stem, inner.lineno, f"{node.name} defines {inner.name}, which calls itself"))
    assert not found, sorted(found)


def test_every_helper_has_a_caller_in_src_or_is_exported():
    """Every def and class in src/kmchev is named somewhere in src/ outside
    its own body, or exported by kmchev, or a cmd_* entry (main looks those
    up by their command's name); anything else is dead code.  Dunder methods
    are called by Python itself."""
    import kmchev

    defs, readers = [], {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((path.stem, node))
            elif isinstance(node, (ast.Name, ast.Attribute)):
                readers.setdefault(node.id if isinstance(node, ast.Name) else node.attr, []).append(node)
    dead = []
    for module, node in defs:
        name = node.name
        if name.startswith("__") or name.startswith("cmd_") or name in kmchev.__all__:
            continue
        inside = {id(n) for n in ast.walk(node)}
        if all(id(reader) in inside for reader in readers.get(name, [])):
            dead.append(f"{module}.{name} (line {node.lineno})")
    assert not dead, f"defined in src/ but never named there nor exported: {dead}"


def test_every_imported_name_is_used_in_its_module():
    """A module of src/kmchev imports only what it uses itself: a name kept
    only so that another module can reach it through this one is a hidden
    re-export (kmchev exports through __all__ alone).  `from __future__`
    imports are directives, not names."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.stem}.{name} (line {line})" for name, line in imported.items() if name not in used]
    assert not unused, f"imported but never used in the importing module: {unused}"
