"""End-to-end benchmark of the kmchev CLI.

Usage (from the root of a checkout):

    python3 bench/run.py --workload triangle --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # triangle, crystal, nilhecke

With ``--trace 0`` every case runs as its own ``python -m kmchev``
subprocess, pointed at the checkout's ``src/`` through PYTHONPATH, one at a
time: a closed loop with one client, as a user waiting on each job.  A run
makes as many whole passes over the seeded case list as fill ``--seconds``
at the speed the workload was sized at (``cases.PASS_SECONDS``), so every
seed and every commit measures the same number of passes.  With ``--trace 1`` one pass runs in a
child process that calls ``kmchev.cli.main`` in-process, untraced and then
traced, and reports per-layer self times and counters (see ``tracing.py``).

Every case is checked: a non-zero exit (exit 1 is the program's own
cross-check failing), a stdout whose sha256 differs from ``reference.json``,
or a timeout counts as a failed case.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import selectors
import shlex
import statistics
import subprocess
import sys
import time

import cases
import tracing

ROOT = cases.HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_RUNS = 8
CASE_TIMEOUT = 60.0  # seconds; the dearest sized case takes under 5 s
RUN_DEADLINE = 150.0  # seconds after start; no case runs past it

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def units(kind: str) -> dict:
    """{metric name: unit} for "end_to_end" or "per_layer" in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def child_env(hash_seed: int) -> dict:
    """The environment of a CLI child: the checkout's src/ and a fixed hash seed.

    String hashing is salted per process, and the salt alone moves a job's
    time by about 15% from process to process.  Every run therefore uses the
    same salts (pass k runs with PYTHONHASHSEED=k), so that this spread is
    averaged the same way in every run instead of adding noise between runs.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


# `python -m kmchev`, plus an exit hook that reports the child's own peak RSS.
# The kernel's rusage maxrss of a child also counts the memory of the process
# it was forked from before exec, here this benchmark, so it cannot be used.
# Children run with -S: kmchev is stdlib-only and found through PYTHONPATH,
# and the .pth hooks of whatever site-packages the machine has would add a
# start-up cost, and a noisy one, that is no part of kmchev.
LAUNCH = """\
import atexit, runpy, sys
def _peak():
    with open("/proc/self/status") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write("\\n%s%s\\n" % ({mark!r}, kib))
atexit.register(_peak)
runpy.run_module("kmchev", run_name="__main__", alter_sys=True)
"""
PEAK_MARK = "kmchev-bench-peak-kib="


def run_cli(argv: list, timeout: float, hash_seed: int = 1) -> dict:
    """Run one CLI job; its wall time ends when the child is reaped."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-S", "-c", LAUNCH.format(mark=PEAK_MARK), *argv],
        cwd=ROOT, env=child_env(hash_seed), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            left = start + timeout - time.perf_counter()
            if left <= 0:
                timed_out = True
                proc.kill()
                break
            for key, _ in sel.select(left):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    proc.wait()
    seconds = time.perf_counter() - start
    proc.stdout.close()
    proc.stderr.close()
    err = b"".join(chunks[proc.stderr]).decode(errors="replace")
    head, mark, peak = err.rpartition("\n" + PEAK_MARK)
    return {
        "stdout": b"".join(chunks[proc.stdout]),
        "stderr": head if mark else err,
        "rc": proc.returncode,
        "seconds": seconds,
        "rss_mb": int(peak) / 1024 if mark else 0.0,
        "timed_out": timed_out,
    }


def verdict(argv: list, rc: int | None, digest: str | None, reference: dict) -> str:
    """'ok', or why the case failed; rc None means the case timed out."""
    if rc is None:
        return "timeout"
    if rc != 0:
        return f"exit {rc}"
    ref = reference.get(cases.case_key(argv))
    if ref is None:
        return "no reference digest"
    if digest != ref["sha256"]:
        return "digest mismatch"
    return "ok"


def run_case(argv: list, reference: dict, deadline: float, hash_seed: int = 1) -> dict:
    left = min(CASE_TIMEOUT, deadline - time.perf_counter())
    if left <= 0:
        return {"argv": argv, "seconds": 0.0, "rss_mb": 0.0, "items": 0, "status": "not started: run deadline"}
    res = run_cli(argv, left, hash_seed)
    digest = hashlib.sha256(res["stdout"]).hexdigest()
    status = verdict(argv, None if res["timed_out"] else res["rc"], digest, reference)
    if status != "ok" and res["stderr"]:
        status += ": " + res["stderr"].strip().splitlines()[-1][:200]
    items = reference[cases.case_key(argv)]["items"] if status == "ok" else 0
    return {"argv": argv, "seconds": res["seconds"], "rss_mb": res["rss_mb"], "items": items, "status": status}


def harrell_davis(samples: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile of samples.

    A mean of every order statistic, the i-th weighted by the mass that a
    Beta((n+1)p, (n+1)(1-p)) density puts on ((i-1)/n, i/n) (midpoint rule).
    Near a high percentile a pass holds only a few dear cases; a single order
    statistic there moves with the one case that happens to hold its rank,
    where this estimate averages over the cases around it.
    """
    xs = sorted(samples)
    n, steps = len(xs), 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    weights = [
        sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
            for t in ((i + (k + 0.5) / steps) / n for k in range(steps)))
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(samples: list) -> tuple[float, float, int]:
    """(value, percentile, n): the estimate at the rank of the highest sample
    with at least ten beyond it, or of the smallest when there are fewer than
    eleven."""
    n = len(samples)
    k = max(0, n - 11)
    return harrell_davis(samples, (k + 1) / (n + 1)), 100.0 * (k + 1) / n, n


def planned_passes(workload: str, seconds: float) -> int:
    """Whole passes that fill --seconds at the sized speed, at least one."""
    return max(1, round(seconds / cases.PASS_SECONDS[workload]))


def measure(workload: str, seed: int, seconds: float, reference: dict) -> dict:
    """Set-up jobs around whole passes; returns jobs and end-to-end metrics.

    Half the set-up jobs run before the passes and half after, so setup_s
    sees the same machine as the passes.  The percentiles are Harrell-Davis
    estimates over every job of every pass.  A case's wall time is the
    median of its passes, and the time of a pass is the sum of those
    medians, so that one case slowed by a burst of load on the machine does
    not carry a whole pass with it.  Pass k runs its children with hash seed
    k, set-up job j with hash seed j (see ``child_env``).
    """
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE
    pass_cases = cases.cases(workload, seed, reference)
    setup = [run_case(cases.SETUP_ARGV, reference, deadline, j) for j in range(1, SETUP_RUNS // 2 + 1)]
    passes = []
    for k in range(1, planned_passes(workload, seconds) + 1):
        p0 = time.perf_counter()
        jobs = [run_case(argv, reference, deadline, k) for argv in pass_cases]
        passes.append({"seconds": time.perf_counter() - p0, "jobs": jobs})
    setup += [run_case(cases.SETUP_ARGV, reference, deadline, j) for j in range(len(setup) + 1, SETUP_RUNS + 1)]
    per_case = [statistics.median(p["jobs"][k]["seconds"] for p in passes) for k in range(len(pass_cases))]
    samples = [j["seconds"] for p in passes for j in p["jobs"]]
    pass_s = sum(per_case)
    items = statistics.median(sum(j["items"] for j in p["jobs"]) for p in passes)
    tail_s, tail_pct, tail_n = tail(samples)
    every = setup + [j for p in passes for j in p["jobs"]]
    failed = sum(j["status"] != "ok" for j in every)
    metrics = {
        "setup_s": statistics.median(j["seconds"] for j in setup),
        "pass_s": pass_s,
        "case_p50_s": harrell_davis(samples, 0.5),
        "case_tail_s": tail_s,
        "items_per_s": items / pass_s,
        "peak_rss_mb": max(j["rss_mb"] for j in every),
    }
    return {
        "setup": setup, "passes": passes, "per_case": per_case, "metrics": metrics,
        "attempted": len(every), "failed": failed,
        "tail": (tail_pct, tail_n), "wall_s": time.perf_counter() - started,
    }


def describe(workload: str, seed: int, seconds: float, trace: int) -> None:
    print(f"kmchev benchmark: workload={workload} seed={seed} seconds={seconds} trace={trace}")
    print(f"why: {next(w['why'] for w in SPEC['workloads'] if w['name'] == workload)}")
    print(f"python {platform.python_version()} ({platform.python_implementation()}), nproc {os.cpu_count()}, "
          f"measured tree {SRC}")
    print("loop: closed, 1 client, one CLI process alive at a time; the benchmark only runs and times its own "
          "processes: it drops no caches, pins no CPUs and traces nothing outside its own children")


def report(workload: str, seed: int, seconds: float) -> dict:
    reference = cases.load_reference()
    describe(workload, seed, seconds, 0)
    res = measure(workload, seed, seconds, reference)
    for j in res["setup"]:
        print(f"setup {j['seconds']:.4f} s {j['status']} :: {shlex.join(j['argv'])}")
    for n, p in enumerate(res["passes"], 1):
        for j in p["jobs"]:
            print(f"case pass={n} {j['seconds']:.4f} s rss={j['rss_mb']:.1f} MB items={j['items']} "
                  f"{j['status']} :: {shlex.join(j['argv'])}")
        print(f"pass {n}: {p['seconds']:.4f} s over {len(p['jobs'])} cases")
    for argv, seconds in zip(cases.cases(workload, seed, reference), res["per_case"]):
        print(f"case median over passes {seconds:.4f} s :: {shlex.join(argv)}")
    m, unit = res["metrics"], units("end_to_end")
    pct, n = res["tail"]
    for name, value in m.items():
        note = f"  (p{pct:.1f} of {n} case samples)" if name == "case_tail_s" else ""
        print(f"metric {name} = {value:.6g} {unit[name]}{note}")
    print(f"metric fail_ratio = {res['failed'] / res['attempted']:.6g} ratio  "
          f"({res['failed']} failed of {res['attempted']} CLI jobs)")
    print(f"run wall time {res['wall_s']:.1f} s")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in m.items()},
    }


def report_traced(workload: str, seed: int, seconds: float) -> dict:
    reference = cases.load_reference()
    describe(workload, seed, seconds, 1)
    pass_cases = cases.cases(workload, seed, reference)
    res = tracing.run_child(pass_cases, RUN_DEADLINE)
    failed = attempted = 0
    for argv, job in zip(pass_cases, res["jobs"]):
        status = {}
        for w in ("untraced", "traced"):
            status[w] = verdict(argv, job[w]["rc"], job[w]["sha256"], reference)
            if status[w] != "ok" and job[w]["stderr"].strip():
                status[w] += ": " + job[w]["stderr"].strip().splitlines()[-1][:200]
        attempted += 2
        failed += sum(v != "ok" for v in status.values())
        print(f"case untraced={job['untraced']['seconds']:.4f} s traced={job['traced']['seconds']:.4f} s "
              f"{status['untraced']}/{status['traced']} :: {shlex.join(argv)}")
    unit = units("per_layer")
    if set(res["metrics"]) != set(unit):
        raise RuntimeError(f"traced metrics {sorted(res['metrics'])} do not match BENCHMARK.json {sorted(unit)}")
    for name in unit:
        print(f"metric {name} = {res['metrics'][name]:.6g} {unit[name]}")
    for note in res["notes"]:
        print(f"note: {note}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": res["metrics"][k], "unit": u} for k, u in unit.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*cases.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not (SRC / "kmchev" / "__init__.py").is_file():
        print(f"error: no kmchev package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    run = report_traced if ns.trace else report
    if ns.workload != "all":
        result = run(ns.workload, ns.seed, ns.seconds)
    else:
        parts = {w: run(w, ns.seed, ns.seconds) for w in cases.WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in parts.values()),
            "attempted": sum(r["attempted"] for r in parts.values()),
            "failed": sum(r["failed"] for r in parts.values()),
            "metrics": {f"{w}.{k}": v for w, r in parts.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
