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
# nothing in src/ called it; up and down left alcove for lifts, with the
# path-sequence bijection, now in tests/bridge.py; _num deleted when weights
# became ints by type; inversions moved to tests/reference.py when cocovers
# came to follow the lifting property; mult deleted, as no command multiplied
# through it; coset_decompose replaced by coset_min, which reads the coset off
# one weight and has no w_J half); the benchmark still patches or counts
# them, and they read 0.  Every entry must still be missing, so a stale one
# fails too.
KNOWN_GONE = {"alcove.ts_apply", "alcove.stdvec", "alcove.up", "alcove.down", "cartan._num",
              "weyl.WeylGroup.inversions", "weyl.WeylGroup.mult", "weyl.WeylGroup.coset_decompose"}


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
    counted = {f for fns in tracing.CALL_COUNTS.values() for f in fns}
    counted |= {"weyl.WeylGroup.cocovers", "weyl.WeylGroup.inversions"}
    gone = {f for f in counted if tracing.resolve(f) is None}
    assert missing | gone == KNOWN_GONE, (missing | gone) ^ KNOWN_GONE

