"""Source checks: caller input is refused by code that python -O keeps, and
what a run builds is freed by reference counting.

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
