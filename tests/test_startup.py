"""Start-up cost: a process loads only what its command runs.

Each check runs a fresh ``python -S`` with ``src/`` on PYTHONPATH and reads
``sys.modules``: ``dataclasses`` (which pulls in ``inspect``, ``ast`` and
``dis``) is never imported, a bare ``import kmchev`` loads no submodule, and
``--model nilhecke`` loads neither of the other two models.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

EXPORTS = sorted("""
    AdaptedSequence Coroot GCM LSPath LambdaHyperplane LaurentPoly Q Realization Weight WeylElt WeylGroup apply_Ti
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


def test_bare_import_loads_no_submodule():
    loaded = loaded_after("import kmchev")
    assert {m for m in loaded if m.startswith("kmchev")} == {"kmchev"}


def test_exports_are_unchanged():
    import kmchev
    from kmchev import lspath

    assert sorted(kmchev.__all__) == EXPORTS
    assert len(EXPORTS) == 40
    namespace: dict = {}
    exec("from kmchev import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == EXPORTS
    assert namespace["LSPath"] is lspath.LSPath
