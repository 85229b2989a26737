"""Start-up cost: a process loads only what its command runs.

Each check runs a fresh ``python -S`` with ``src/`` on PYTHONPATH and reads
``sys.modules``: ``dataclasses`` (which pulls in ``inspect``, ``ast`` and
``dis``) is never imported, a bare ``import kmchev`` loads no submodule,
each model (``lspath`` with ``lifts``, ``alcove``, ``kring``) loads no other
and neither the bridge between the first two, so ``--model nilhecke`` and a
fixed-z ``--model alcove`` run load only their own model, and no run on a
preset loads ``argparse``, ``json``, ``fractions`` or what they pull in.
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
    chevalley_alcove chevalley_ls chevalley_recurrence crystal_up_to demazure_crystal down down_path e endpoint
    enumerate_tree_antidominant enumerate_tree_dominant enumerate_z_adapted f interval_below lex_chain lift_subset
    ls_to_seq pairing realization_from_json_file realization_from_preset seq_to_ls straight_path up up_path weight
    wt_add wt_neg wt_scale
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
    assert not {"kmchev.lspath", "kmchev.alcove", "kmchev.kring"} & loaded


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
    assert len(EXPORTS) == 39
    namespace: dict = {}
    exec("from kmchev import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == EXPORTS
    assert namespace["LSPath"] is lspath.LSPath


# stdlib modules no command needs: argparse (with shutil, bz2, lzma, locale
# and gettext), json, fractions (with decimal and numbers), and the re and
# enum that those pull in
HEAVY = {"argparse", "re", "enum", "json", "fractions", "decimal", "shutil", "locale", "gettext"}


@pytest.mark.parametrize("argv", [
    ["chevalley", "--cartan", "A2", "--weight", "1,1", "--w", "1 2"],
    ["crystal", "--cartan", "A2~", "--weight", "1,1,0", "--w", "0 1 2 1", "--realization", "alcove"],
    ["selftest"],
], ids=["chevalley-all", "crystal", "selftest"])
def test_a_run_on_a_preset_loads_no_heavy_stdlib_module(argv):
    loaded = loaded_after(f"from kmchev import cli\nif cli.main({argv!r}):\n    raise SystemExit('the run failed')")
    assert {"kmchev.lspath", "kmchev.alcove"} <= loaded
    assert not HEAVY & loaded, sorted(HEAVY & loaded)


def test_a_gcm_file_run_loads_json_and_no_other_heavy_module(tmp_path):
    """json.decoder imports re, and re enum: those come with json."""
    gcm = tmp_path / "g2.json"
    gcm.write_text('{"matrix": [[2, -1], [-3, 2]]}')
    argv = ["chevalley", "--gcm-file", str(gcm), "--weight", "1,0", "--w", "0 1"]
    loaded = loaded_after(f"from kmchev import cli\nif cli.main({argv!r}):\n    raise SystemExit('the run failed')")
    assert "json" in loaded
    assert not (HEAVY - {"json", "re", "enum"}) & loaded, sorted(HEAVY & loaded)
