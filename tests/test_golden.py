"""Golden outputs: the stdout of every CLI case and of the two scripts must
match its stored file byte for byte.

The files under ``tests/golden/`` lock the observable behaviour of the CLI
and of ``scripts/chart_census.py`` and ``scripts/affine_demo.py`` while the
library is refactored.  To regenerate them after an intended
output change, run

    PYTHONPATH=src python tests/test_golden.py --write
"""
import contextlib
import io
import runpy
import sys
from pathlib import Path
from unittest import mock

import pytest

from kmchev import alcove, cli, lspath
from kmchev.cli import _rows_for_model, build_realization, main, parse_args, parse_lam, parse_word
from kmchev.weyl import WeylGroup

GOLDEN = Path(__file__).resolve().parent / "golden"
SCRIPTS_DIR = Path(__file__).resolve().parents[1] / "scripts"
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
    **{
        f"crystal_a2aff_{real}.txt": ["crystal", *A2AFF, "--w", "0 1 2 1 0 2", "--realization", real,
                                      "--format", "table"]
        for real in ("ls", "alcove")
    },
    **{
        f"crystal_opposite_{real}.txt": [
            "crystal", *A2AFF, "--opposite", "--z", "1", "--max-length", "5", "--realization", real,
            "--format", "table",
        ]
        for real in ("ls", "alcove")
    },
    "crystal_graph.dot": ["crystal", *A2AFF, "--w", "0 1 2 1", "--format", "dot"],
    "crystal_tree.dot": ["crystal", *A2AFF, "--w", "0 1 2 1", "--realization", "alcove", "--format", "dot"],
    "selftest.json": ["selftest"],
}


def _models_fault():
    """The alcove model with its last row dropped and its first row's
    multiplicities scaled by 10: the chevalley cross-check must report both."""
    original = cli._rows_for_model

    def faulty(model, R, lam, sign, word):
        rows = original(model, R, lam, sign, word)
        if model != "alcove":
            return rows
        order = sorted(rows, key=lambda z: z.key)
        rows = {z: p for z, p in rows.items() if z != order[-1]}
        rows[order[0]] = {mu: 10 * c for mu, c in rows[order[0]].items()}
        return rows

    return mock.patch.object(cli, "_rows_for_model", faulty)


def _crystal_fault():
    """The alcove realization of a Demazure crystal with its last element dropped."""
    original = alcove.enumerate_tree_antidominant
    return mock.patch.object(alcove, "enumerate_tree_antidominant", lambda W, lam, w: original(W, lam, w)[:-1])


# Cross-check failure reports, produced with a fault injected; they exit 1.
REPORTS = {
    "report_models_disagree.json": (["chevalley", *A2AFF, "--w", "0 1 2 1", "--sign", "-1"], _models_fault),
    "report_realizations_disagree.json": (["crystal", *A2AFF, "--w", "0 1 2 1"], _crystal_fault),
}


# Script outputs at their default arguments: the census is the one exhaustive
# run of e, and of scripts/chart.py's istring and classify_string in both
# directions.
SCRIPTS = {"chart_census.txt": "chart_census.py", "affine_demo.txt": "affine_demo.py"}


def run_script(script: str) -> tuple[int, bytes]:
    """Run scripts/<script> in-process with no arguments; (exit code, stdout bytes)."""
    buf = io.StringIO()
    # scripts/ leads sys.path for the run, as `python scripts/<script>` puts it
    with contextlib.redirect_stdout(buf), mock.patch.object(sys, "argv", [script]), \
            mock.patch.object(sys, "path", [str(SCRIPTS_DIR), *sys.path]):
        try:
            runpy.run_path(str(SCRIPTS_DIR / script), run_name="__main__")
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue().encode()


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


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_disagreement_report(name):
    argv, fault = REPORTS[name]
    with fault():
        code, out = run_case(argv)
    assert code == 1, out.decode()
    assert out == (GOLDEN / name).read_bytes(), f"{name} differs from its golden file"


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_script_output(name):
    code, out = run_script(SCRIPTS[name])
    assert code == 0, out.decode()
    assert out == (GOLDEN / name).read_bytes(), f"{name} differs from its golden file"


def _setup(argv):
    """(realization, lambda, word or None) as the CLI reads argv."""
    args = parse_args(argv)
    R = build_realization(args)
    return R, parse_lam(R, args.weight), parse_word(R, args.w) if args.w else None


def _int_weight(mu) -> bool:
    """A tuple of ints; Fraction and bool coordinates fail."""
    return type(mu) is tuple and all(type(x) is int for x in mu)


@pytest.mark.parametrize("name", sorted(CHEVALLEY_ALL))
def test_chevalley_weights_are_int_tuples(name):
    R, lam, word = _setup(["chevalley", *CHEVALLEY_ALL[name]])
    for sign in (1, -1):
        for model in ("ls", "alcove", "nilhecke"):
            rows = _rows_for_model(model, R, lam, sign, word)
            assert rows
            bad = [mu for poly in rows.values() for mu in poly if not _int_weight(mu)]
            assert not bad, (model, sign, bad[:3])


def test_crystal_weights_are_int_tuples():
    R, lam, word = _setup(CASES["crystal_a2aff_ls.json"])
    W = WeylGroup(R)
    w = W.from_word(word)
    z = W.from_word(parse_word(R, "1"))
    paths = lspath.demazure_crystal(W, lam, w) | lspath.opposite_demazure_ls(W, lam, z, 5)
    assert all(_int_weight(mu) for mu in paths.values())
    pairs = alcove.enumerate_tree_antidominant(W, lam, w) + alcove.enumerate_z_adapted(W, lam, z, "inc", 5)[0]
    for seq, wt in pairs:
        assert _int_weight(wt)
        assert all(_int_weight(alcove.wt_fold(W, lam, seq, levels)) for levels in ("inc", "dec"))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    for name, argv in sorted(CASES.items()):
        code, out = run_case(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        (GOLDEN / name).write_bytes(out)
        print(f"wrote {name} ({len(out)} bytes)")
    for name, script in sorted(SCRIPTS.items()):
        code, out = run_script(script)
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        (GOLDEN / name).write_bytes(out)
        print(f"wrote {name} ({len(out)} bytes)")
    for name, (argv, fault) in sorted(REPORTS.items()):
        with fault():
            code, out = run_case(argv)
        if code != 1:
            raise SystemExit(f"{name}: exit {code}, expected 1")
        (GOLDEN / name).write_bytes(out)
        print(f"wrote {name} ({len(out)} bytes)")
