"""Start-up cost: a process loads only what its command runs.

Each check runs a fresh ``python -S`` with ``src/`` on PYTHONPATH and reads
``sys.modules``: ``dataclasses`` (which pulls in ``inspect``, ``ast`` and
``dis``) is never imported, a bare ``import kmchev`` loads no submodule,
each model (``lspath`` with ``lifts``, ``alcove``, ``kring``) loads no other
and neither the bridge between the first two, so ``--model nilhecke`` and a
fixed-z ``--model alcove`` run load only their own model, each command loads
no other command's module, and no run on a preset or on a well-formed
``--gcm-file`` loads ``argparse``, ``json``, ``fractions`` or what they pull in,
nor does a run that refuses a non-integral ``--weight``.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

EXPORTS = sorted("""
    AdaptedSequence Coroot GCM LSPath LambdaHyperplane LaurentPoly Realization Weight WeylElt WeylGroup apply_Ti
    chevalley_alcove chevalley_ls chevalley_recurrence crystal_up_to demazure_crystal down down_path e
    enumerate_tree_antidominant enumerate_tree_dominant enumerate_z_adapted f interval_below ls_to_seq pairing
    realization_from_json_file realization_from_preset seq_to_ls straight_path up up_path wt_add wt_neg wt_scale
""".split())


def loaded_after(code: str) -> set:
    """The names in sys.modules after a fresh `python -S` runs code."""
    probe = code + "\nimport sys\nprint(sorted(sys.modules))\n"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def test_cli_import_skips_dataclasses():
    loaded = loaded_after("import kmchev.cli")
    assert "dataclasses" not in loaded and "inspect" not in loaded
    assert not {"kmchev.lspath", "kmchev.alcove", "kmchev.kring", "kmchev.cli_crystal", "kmchev.cli_selftest"} & loaded


def test_nilhecke_run_loads_neither_other_model():
    loaded = loaded_after("from kmchev import cli\n"
                          "cli.main(['chevalley', '--cartan', 'A2', '--weight', '1,1', '--w', '1 2', '--model', 'nilhecke'])")
    assert "kmchev.kring" in loaded
    assert not {"kmchev.lspath", "kmchev.alcove", "kmchev.lifts", "dataclasses"} & loaded


FIXED_Z_ALCOVE = ["chevalley", "--cartan", "G2", "--weight", "1,1", "--z", "1", "--max-length", "4", "--model", "alcove"]


@pytest.mark.parametrize("code, model, others", [
    ("import kmchev.alcove", "alcove", {"lspath", "lifts", "kring", "bridge"}),
    ("import kmchev.lspath", "lspath", {"alcove", "kring", "bridge"}),
    ("import kmchev.kring", "kring", {"lspath", "lifts", "alcove", "bridge"}),
    (f"from kmchev import cli\nif cli.main({FIXED_Z_ALCOVE!r}):\n    raise SystemExit('the run failed')", "alcove",
     {"lspath", "lifts", "kring"}),
], ids=["alcove", "lspath", "kring", "fixed-z-alcove-run"])
def test_each_model_loads_no_other(code, model, others):
    loaded = loaded_after(code)
    assert f"kmchev.{model}" in loaded
    assert not {f"kmchev.{m}" for m in others} & loaded, sorted({f"kmchev.{m}" for m in others} & loaded)


def test_bare_import_loads_no_submodule():
    loaded = loaded_after("import kmchev")
    assert {m for m in loaded if m.startswith("kmchev")} == {"kmchev"}


def test_exports_are_unchanged():
    import kmchev
    from kmchev import lspath

    assert sorted(kmchev.__all__) == EXPORTS
    assert len(EXPORTS) == 35
    namespace: dict = {}
    exec("from kmchev import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == EXPORTS
    assert namespace["LSPath"] is lspath.LSPath


# stdlib modules no command needs: argparse (with shutil, bz2, lzma, locale
# and gettext), json, fractions (with decimal and numbers), and the re and
# enum that those pull in
HEAVY = {"argparse", "re", "enum", "json", "fractions", "decimal", "shutil", "locale", "gettext"}


def loaded_by_run(argv: list) -> set:
    """The names in sys.modules after a fresh `python -S` runs kmchev argv."""
    return loaded_after(f"from kmchev import cli\nif cli.main({argv!r}):\n    raise SystemExit('the run failed')")


# each command's module, and those of the other commands, which its run never loads
@pytest.mark.parametrize("argv, own, others", [
    (["chevalley", "--cartan", "A2", "--weight", "1,1", "--w", "1 2"], "cli", {"cli_crystal", "cli_selftest"}),
    (["crystal", "--cartan", "A2~", "--weight", "1,1,0", "--w", "0 1 2 1", "--realization", "alcove"], "cli_crystal",
     {"cli_selftest"}),
    (["selftest"], "cli_selftest", {"cli_crystal"}),
], ids=["chevalley-all", "crystal", "selftest"])
def test_a_run_on_a_preset_loads_no_heavy_stdlib_module(argv, own, others):
    loaded = loaded_by_run(argv)
    assert {"kmchev.lspath", "kmchev.alcove", f"kmchev.{own}"} <= loaded
    assert not HEAVY & loaded, sorted(HEAVY & loaded)
    assert not {f"kmchev.{m}" for m in others} & loaded, sorted({f"kmchev.{m}" for m in others} & loaded)


def test_a_well_formed_gcm_file_run_loads_no_heavy_stdlib_module(tmp_path):
    """The file is read by the C scanner of _json, without json and the re
    and enum it imports, and a chevalley run compiles no other command."""
    gcm = tmp_path / "g2.json"
    gcm.write_text('\n{"matrix": [[2, -1], [-3, 2]]}\n')
    loaded = loaded_by_run(["chevalley", "--gcm-file", str(gcm), "--weight", "1,0", "--w", "0 1"])
    assert not HEAVY & loaded, sorted(HEAVY & loaded)
    assert not {"kmchev.cli_crystal", "kmchev.cli_selftest"} & loaded


def test_a_refused_rational_weight_loads_neither_fractions_nor_decimal():
    """A coordinate such as 1/2 is refused by int() alone: no Fraction is
    built to read it first."""
    loaded = loaded_after("from kmchev import cli\n"
                          "if cli.main(['chevalley', '--cartan', 'A2', '--weight', '1/2,1', '--w', 'e']) != 2:\n"
                          "    raise SystemExit('the weight was not refused')")
    assert not {"fractions", "decimal"} & loaded, sorted({"fractions", "decimal"} & loaded)
