"""The benchmark's tracer still finds every name it patches or counts.

``bench/tracing.py`` patches functions of ``src/kmchev`` by name and reads
call counts off the profile by name.  A name it no longer finds makes its
metric read 0 with only a ``note:`` in the traced run's output, so a rename
in ``src/`` is caught here, on every Python version, and not only by a traced
benchmark run.
"""
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# Gone from src/ (ts_apply deleted, stdvec moved to tests/reference.py, as
# nothing in src/ called it; up and down left alcove with the path-sequence
# bijection, for kmchev.bridge); the benchmark still patches or counts them,
# and they read 0.
KNOWN_GONE = {"alcove.ts_apply", "alcove.stdvec", "alcove.up", "alcove.down"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("kmchev_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_finds_every_name_it_patches_or_counts():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    missing = {name.removeprefix("kmchev.") for name in tracer.missing}
    assert missing <= KNOWN_GONE, missing - KNOWN_GONE
    counted = {f for fns in tracing.CALL_COUNTS.values() for f in fns}
    counted |= {"weyl.WeylGroup.cocovers", "weyl.WeylGroup.inversions"}
    gone = {f for f in counted if tracing.resolve(f) is None}
    assert gone <= KNOWN_GONE, gone - KNOWN_GONE

