"""Source checks: caller input is refused by code that python -O keeps.

An ``assert`` statement is stripped under ``python -O``, so a check written as
one cannot guard caller input.  Every ``assert`` left in ``src/kmchev`` must be
an internal invariant, named below with the reason it cannot fail on any
input the callers can give.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kmchev"

# (module, enclosing function) -> why the assert is an internal invariant
ALLOWED_ASSERTS = {
    ("cartan", "_symmetrizer"): "every node of every component is reached from its root with a positive ratio",
    ("cartan", "Realization._completion_columns"): "the right-to-left greedy scan keeps exactly rank independent columns",
    ("weyl", "WeylGroup.inversions"): "the inversions of a reduced word are positive coroots",
}


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
