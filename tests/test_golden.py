"""Golden CLI outputs: every case's stdout must match its stored file byte for byte.

The files under ``tests/golden/`` lock the observable behaviour of the CLI
while the library is refactored.  To regenerate them after an intended
output change, run

    PYTHONPATH=src python tests/test_golden.py --write
"""
import contextlib
import io
import sys
from pathlib import Path

import pytest

from kmchev.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
HYPERBOLIC = str(GOLDEN / "hyperbolic.json")

A2AFF = ["--cartan", "A2~", "--weight", "1,1,0"]

CHEVALLEY_ALL = {
    "a2aff": [*A2AFF, "--w", "0 1 2 1 0 2"],
    "g2": ["--cartan", "G2", "--weight", "2,1", "--w", "1 2 1 2 1 2"],
    "a3": ["--cartan", "A3", "--weight", "1,1,1", "--w", "1 2 1 3 2 1"],
    "a1aff": ["--cartan", "A1~", "--weight", "1,1", "--w", "0 1 0 1"],
    "hyperbolic": ["--gcm-file", HYPERBOLIC, "--weight", "1,0", "--w", "0 1 0 1"],
}

CASES = {
    **{
        f"chevalley_{name}_{tag}.json": ["chevalley", *args, "--model", "all", "--sign", sign]
        for name, args in CHEVALLEY_ALL.items()
        for tag, sign in (("plus", "+1"), ("minus", "-1"))
    },
    **{
        f"crystal_a2aff_{real}.json": ["crystal", *A2AFF, "--w", "0 1 2 1 0 2", "--realization", real]
        for real in ("ls", "alcove")
    },
    **{
        f"crystal_opposite_{real}.json": [
            "crystal", *A2AFF, "--opposite", "--z", "1", "--max-length", "5", "--realization", real,
        ]
        for real in ("ls", "alcove")
    },
    "chevalley_fixed_z.json": ["chevalley", *A2AFF, "--z", "1 2", "--max-length", "4", "--model", "alcove"],
    "chevalley_table.txt": ["chevalley", *A2AFF, "--w", "0 1 2 1", "--sign", "-1", "--format", "table"],
    "chevalley_tree.dot": ["chevalley", *A2AFF, "--w", "0 1 2 1", "--model", "alcove", "--format", "dot"],
    "crystal_graph.dot": ["crystal", *A2AFF, "--w", "0 1 2 1", "--format", "dot"],
    "selftest.json": ["selftest"],
}


def run_case(argv) -> tuple[int, bytes]:
    """Run the CLI in-process and return (exit code, stdout bytes)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue().encode()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    code, out = run_case(CASES[name])
    assert code == 0, out.decode()
    assert out == (GOLDEN / name).read_bytes(), f"{name} differs from its golden file"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    for name, argv in sorted(CASES.items()):
        code, out = run_case(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        (GOLDEN / name).write_bytes(out)
        print(f"wrote {name} ({len(out)} bytes)")
