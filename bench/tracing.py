"""Traced in-process runs: per-layer self times and counters.

``run_child`` starts this file as one child process.  The child imports
``kmchev`` from the checkout's ``src/`` and, for every case of a pass, calls
``kmchev.cli.main(argv)`` once untraced and once traced, with stdout captured
and digested, and prints one JSON object: the pass's layer metrics and the
per-case digests.

Tracing is done from outside the program:

* Every thread that runs kmchev code gets its own ``cProfile.Profile``: the
  main thread explicitly, and the worker threads of ``cmd_chevalley``'s
  thread pool through ``threading.setprofile``.  For the traced call the
  pool is swapped for a one-worker pool, so the three models run one after
  another and only one thread executes Python at any time: no model is
  charged for another's GIL wait, and time blocked on a lock (the main thread
  waiting for the models, an idle worker) is set aside as waiting.  A
  per-thread CPU clock (``time.thread_time``) would do the same without the
  swap, but makes cProfile about 2.5 times dearer again on these call-heavy
  models.
* A layer is a module of ``src/kmchev``.  Its self time is the profiled self
  time of its functions plus the self time of stdlib and builtin functions
  (``Fraction`` arithmetic, ABC ``isinstance``, ``json``) that it called,
  followed up the pstats caller edges to the first kmchev caller.
* Counters the profile cannot give (sizes of results, kept comparisons,
  time inside ``lifts``) come from wrappers patched over the names where
  callers look them up: ``lspath`` and ``alcove`` bind ``up``/``down`` with
  ``from .lifts import``, so those modules' names are patched, not only
  ``kmchev.lifts``.
"""
from __future__ import annotations

import contextlib
import cProfile
import hashlib
import importlib
import io
import json
import os
import pstats
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
LAYERS = ("cli", "cartan", "weyl", "lifts", "lspath", "alcove", "kring")

# Counters read off the profile: metric -> functions whose calls it sums.
CALL_COUNTS = {
    "lifts.down_calls": ["lifts.down"],
    "lifts.up_calls": ["lifts.up"],
    "lspath.f_calls": ["lspath.f"],
    "lspath.e_calls": ["lspath.e"],
    "lspath.up_path_calls": ["lspath.up_path"],
    "lspath.down_path_calls": ["lspath.down_path"],
    "alcove.lex_less_calls": ["alcove.lex_less"],
    "alcove.stdvec_calls": ["alcove.stdvec"],
    "alcove.fold_calls": ["alcove.hs_apply", "alcove.ts_apply"],
    "kring.apply_Ti_calls": ["kring.apply_Ti"],
    "kring.hecke_compose_calls": ["kring.hecke_compose"],
    "cartan.num_calls": ["cartan._num"],
    "cartan.reflection_calls": [
        "cartan.Realization.simple_reflection",
        "cartan.Realization.coroot_reflection",
        "cartan.Realization.reflect_coroot",
    ],
    "weyl.elts_created": ["weyl.WeylElt.__init__"],
    "weyl.mult_calls": ["weyl.WeylGroup.mult"],
    "weyl.from_word_calls": ["weyl.WeylGroup.from_word"],
    "weyl.bruhat_leq_calls": ["weyl.WeylGroup.bruhat_leq"],
    "weyl.coset_decompose_calls": ["weyl.WeylGroup.coset_decompose"],
}

WAITS = {"<method 'acquire' of '_thread.lock' objects>", "<method 'acquire' of '_thread.RLock' objects>"}

def resolve(dotted: str):
    """'weyl.WeylGroup.mult' -> the function object, or None if it is gone."""
    mod, *path = dotted.split(".")
    obj = importlib.import_module(f"kmchev.{mod}")
    for part in path:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def code_key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class OneWorkerPool(ThreadPoolExecutor):
    """A ThreadPoolExecutor that runs its jobs one after another."""

    def __init__(self, max_workers=None, *args, **kwargs):
        super().__init__(1, *args, **kwargs)


class Tracer:
    """Profiles every thread of one traced call and keeps wrapper counters."""

    def __init__(self):
        self.profiles: list[cProfile.Profile] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple] = []
        self.missing: list[str] = []

    # -- wrappers --------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def swap(self, module, name: str, replacement) -> None:
        self._patched.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def patch(self, module, name: str, after=None, lifts: bool = False) -> None:
        """Replace module.name; after(result) feeds counters, and lifts=True
        charges the outermost lifts call's wall time to lifts.incl_s.  A name
        the program no longer has is reported, not patched."""
        if not hasattr(module, name):
            self.missing.append(f"{module.__name__}.{name}")
            return
        original = getattr(module, name)
        tracer = self

        def wrapper(*args, **kwargs):
            depth = getattr(tracer._local, "lifts_depth", 0)
            if lifts and depth == 0:
                t0 = time.perf_counter()
            tracer._local.lifts_depth = depth + lifts
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._local.lifts_depth = depth
                if lifts and depth == 0:
                    tracer.add("lifts.incl_s", time.perf_counter() - t0)
            if after is not None:
                after(result)
            return result

        self.swap(module, name, wrapper)

    def install(self) -> None:
        from kmchev import alcove, cli, kring, lifts, lspath

        if hasattr(cli, "ThreadPoolExecutor"):  # cmd_chevalley runs the three models in a pool
            self.swap(cli, "ThreadPoolExecutor", OneWorkerPool)
        add = self.add
        self.patch(lifts, "interval_below", lambda r: add("lifts.interval_elems", len(r)), lifts=True)
        for module in (lifts, lspath, alcove):
            for fn in ("up", "down"):
                self.patch(module, fn, lifts=True)
        self.patch(lspath, "interval_below", lifts=True)
        for fn in ("demazure_crystal", "crystal_up_to"):
            self.patch(lspath, fn, lambda r: add("lspath.crystal_paths", len(r)))
        for fn in ("enumerate_tree_dominant", "enumerate_tree_antidominant"):
            self.patch(alcove, fn, lambda r: add("alcove.tree_nodes", len(r)))
        self.patch(alcove, "enumerate_z_adapted", lambda r: add("alcove.tree_nodes", len(r[0])))
        self.patch(alcove, "lex_less", lambda r: add("alcove.lex_kept", bool(r)))
        self.patch(kring, "chevalley_recurrence", lambda r: add("kring.terms_out", sum(len(p) for p in r.values())))

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    # -- profiling -------------------------------------------------------

    def _start_thread_profile(self, frame, event, arg):
        prof = cProfile.Profile()
        with self._lock:
            self.profiles.append(prof)
        prof.enable()

    @contextlib.contextmanager
    def profiling(self):
        main = cProfile.Profile()
        self.profiles.append(main)
        threading.setprofile(self._start_thread_profile)
        main.enable()
        try:
            yield
        finally:
            main.disable()
            threading.setprofile(None)

    def stats(self) -> pstats.Stats:
        st = pstats.Stats(self.profiles[0])
        for prof in self.profiles[1:]:
            st.add(prof)
        return st


def owner(key: tuple) -> str | None:
    """The layer a profiled function belongs to, 'bench' for this benchmark's
    own wrappers, 'wait' for blocking lock acquisition, None for other stdlib
    and builtins."""
    if key[0] == "~" and key[2] in WAITS:
        return "wait"
    path = Path(key[0])
    if path.parent == SRC / "kmchev" and path.stem in LAYERS:
        return path.stem
    if path.parent == HERE:
        return "bench"
    return None


def attribute(stats: dict) -> dict:
    """Self time per owner, with foreign self time passed up caller edges
    (split by the per-edge self time, or by call counts when that is 0) until
    it reaches a kmchev or benchmark function."""
    out: dict[str, float] = defaultdict(float)
    weights = {}
    for key, (_, _, tt, _, callers) in stats.items():
        who = owner(key)
        if who is not None:
            out[who] += tt
            continue
        edges = {c: e for c, e in callers.items() if c != key}
        total = sum(e[2] for e in edges.values())
        idx = 2 if total > 0 else 1
        total = total if total > 0 else sum(e[1] for e in edges.values())
        weights[key] = {c: e[idx] / total for c, e in edges.items()} if total else {}
    mass = {key: stats[key][2] for key in weights}
    for _ in range(200):
        nxt: dict[tuple, float] = defaultdict(float)
        for key, m in mass.items():
            if not weights[key]:
                out["unattributed"] += m
            for caller, w in weights[key].items():
                who = owner(caller)
                if who is not None:
                    out[who] += m * w
                elif caller in weights:
                    nxt[caller] += m * w
                else:
                    out["unattributed"] += m * w
        mass = {k: m for k, m in nxt.items() if m > 1e-12}
        if not mass:
            break
    out["unattributed"] += sum(mass.values())
    return out


def layer_metrics(tracer: Tracer, out_bytes: int) -> dict:
    """Metrics of one traced call, summed over the pass by the caller."""
    stats = tracer.stats().stats
    m: dict[str, float] = {}
    owners = attribute(stats)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = owners.get(layer, 0.0)

    def calls(dotted: str) -> int:
        fn = resolve(dotted)
        entry = stats.get(code_key(fn)) if fn is not None else None
        return entry[1] if entry else 0

    for name, fns in CALL_COUNTS.items():
        m[name] = sum(calls(f) for f in fns)
    m["cartan.fraction_new"] = sum(v[1] for k, v in stats.items()
                                   if k[2] == "__new__" and Path(k[0]).name == "fractions.py")

    cocovers, inversions = resolve("weyl.WeylGroup.cocovers"), resolve("weyl.WeylGroup.inversions")
    m["weyl.cocover_calls"] = calls("weyl.WeylGroup.cocovers")
    m["weyl.cocover_misses"] = 0
    if cocovers is not None and inversions is not None and code_key(inversions) in stats:
        edge = stats[code_key(inversions)][4].get(code_key(cocovers))
        m["weyl.cocover_misses"] = edge[1] if edge else 0

    m["cli.encode_s"] = 0.0
    for key, (_, _, _, _, callers) in stats.items():
        if key[2] == "dumps" and Path(key[0]).parent.name == "json":
            m["cli.encode_s"] += sum(e[3] for c, e in callers.items() if owner(c) == "cli")
    m["cli.out_mb"] = out_bytes / 1e6
    for name in ("lifts.interval_elems", "lifts.incl_s", "lspath.crystal_paths", "alcove.tree_nodes",
                 "alcove.lex_kept", "kring.terms_out"):
        m[name] = tracer.counts.get(name, 0.0)
    return m


def call_cli(argv: list, tracer: Tracer | None) -> dict:
    """One in-process ``kmchev.cli.main`` call, stdout captured."""
    from kmchev import cli

    buf = io.StringIO()
    err = io.StringIO()
    cpu0, t0 = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                tracer.install()
                try:
                    with tracer.profiling():
                        rc = cli.main(argv)
                finally:
                    tracer.uninstall()
        except SystemExit as exc:  # argparse rejects the argv
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback, which `python -m kmchev` exits 1 on
            traceback.print_exc()
            rc = 1
    seconds, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    data = buf.getvalue().encode()
    return {"rc": rc, "sha256": hashlib.sha256(data).hexdigest(), "seconds": seconds, "cpu_s": cpu,
            "bytes": len(data), "stderr": err.getvalue()[-500:]}


def finish(totals: dict, untraced_s: float, traced_s: float, traced_cpu_s: float) -> dict:
    """Turn the pass totals into the reported metrics."""
    out = dict(totals)
    kept, misses, cocovers = out.pop("alcove.lex_kept"), out.pop("weyl.cocover_misses"), out.pop("weyl.cocover_calls")
    calls = out["alcove.lex_less_calls"]
    out["alcove.lex_kept_ratio"] = kept / calls if calls else 0.0
    out["weyl.cocover_hit_ratio"] = (cocovers - misses) / cocovers if cocovers else 0.0
    out["trace_overhead_ratio"] = traced_s / untraced_s
    layers = sum(out[f"{layer}.self_s"] for layer in LAYERS)
    out["trace_coverage"] = layers / traced_cpu_s if traced_cpu_s else 0.0
    return out


def child(cases: list) -> dict:
    sys.path.insert(0, str(SRC))
    import kmchev.cli  # noqa: F401  (import cost stays outside every timing)

    totals: dict[str, float] = defaultdict(float)
    untraced_s = traced_s = traced_cpu_s = 0.0
    jobs = []
    for argv in cases:
        plain = call_cli(argv, None)
        tracer = Tracer()
        traced = call_cli(argv, tracer)
        for k, v in layer_metrics(tracer, traced["bytes"]).items():
            totals[k] += v
        untraced_s += plain["seconds"]
        traced_s += traced["seconds"]
        traced_cpu_s += traced["cpu_s"]
        jobs.append({"untraced": plain, "traced": traced})
    metrics = finish(totals, untraced_s, traced_s, traced_cpu_s)
    gone = {f"kmchev.{f}" for fns in CALL_COUNTS.values() for f in fns if resolve(f) is None}
    return {"jobs": jobs, "metrics": metrics,
            "notes": [f"{name} is gone; what it fed reads 0" for name in sorted(gone | set(tracer.missing))]}


def run_child(cases: list, timeout: float) -> dict:
    """Run one traced pass in a child process; raise if it fails or times out."""
    proc = subprocess.run(
        [sys.executable, __file__],
        input=json.dumps(cases),
        capture_output=True, text=True, timeout=timeout, cwd=HERE.parent,
        env={**os.environ, "PYTHONHASHSEED": "1"},  # counters repeat from run to run
    )
    if proc.returncode != 0:
        raise RuntimeError(f"traced run failed with exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


if __name__ == "__main__":
    if sys.version_info >= (3, 12):
        # cProfile moved to sys.monitoring in 3.12, which allows one profiler
        # per interpreter, not one per thread.
        raise SystemExit("error: per-thread tracing needs CPython 3.11 or older")
    print(json.dumps(child(json.loads(sys.stdin.read()))))
