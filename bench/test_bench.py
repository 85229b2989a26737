"""Checks of the benchmark itself; they run the CLI and take a few minutes.

    python3 -m pytest bench/test_bench.py
"""
from __future__ import annotations

import copy
import time

import pytest

import cases
import run
import tracing
import words

REFERENCE = cases.load_reference()


def test_layers_match_known_sizes():
    a2t = cases.MATRICES["A2~"]
    assert [len(words.layer(a2t, n)) for n in range(8)] == [1, 3, 6, 9, 12, 15, 18, 21]
    assert words.layer(cases.MATRICES["A3"], 6) == [(0, 1, 0, 2, 1, 0)]
    assert len(words.layer(cases.MATRICES["G2"], 7)) == 0


def test_cases_follow_the_seed():
    for workload in cases.WORKLOADS:
        assert cases.cases(workload, 7, REFERENCE) == cases.cases(workload, 7, REFERENCE)
        assert len({tuple(map(tuple, cases.cases(workload, s, REFERENCE))) for s in range(20)}) > 1


def test_seeds_draw_within_cost_classes():
    """Seeds change the words of a pass, not the sizes of its answers."""
    for workload in cases.WORKLOADS:
        sizes = {
            tuple(REFERENCE[cases.case_key(a)]["items"] for a in cases.cases(workload, s, REFERENCE))
            for s in range(20)
        }
        assert len(sizes) == 1, workload


def test_strata_partition_the_layer():
    sized = [(size, (size,)) for size in (1, 1, 1, 2, 2, 3, 5, 8, 13, 40)]
    blocks = cases.strata(sized, 3)
    assert [w for b in blocks for w in b] == [w for _, w in sized]
    assert blocks[1:] == [[(13,)], [(40,)]]


def test_reference_covers_exactly_the_reachable_cases():
    assert {cases.case_key(a) for a in cases.all_cases()} == set(REFERENCE)


def test_tail_keeps_ten_samples_beyond():
    value, pct, n = run.tail(list(range(40)))
    assert n == 40 and pct == 75.0 and 28.5 < value < 29.5
    assert run.tail([2.5] * 30)[0] == pytest.approx(2.5)
    assert 1.0 < run.tail([3.0, 1.0])[0] < 2.0


def test_harrell_davis_median():
    assert run.harrell_davis([4.0, 1.0, 2.0, 9.0, 3.0], 0.5) == pytest.approx(3.0, abs=0.5)
    assert run.harrell_davis([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)


def test_flipped_digest_counts_as_failure():
    """Negative control: one wrong reference digest must show as a failure."""
    argv = cases.cases("crystal", run.DEFAULT_SEED, REFERENCE)[0]
    flipped = copy.deepcopy(REFERENCE)
    key = cases.case_key(argv)
    flipped[key]["sha256"] = flipped[key]["sha256"][::-1]
    deadline = time.perf_counter() + 60
    assert run.run_case(argv, REFERENCE, deadline)["status"] == "ok"
    assert run.run_case(argv, flipped, deadline)["status"] == "digest mismatch"
    res = run.measure("crystal", run.DEFAULT_SEED, 1, flipped)
    assert res["failed"] >= 1 and res["failed"] / res["attempted"] > 0


def test_timeout_counts_as_failure():
    argv = cases.cases("triangle", run.DEFAULT_SEED, REFERENCE)[-1]
    assert run.run_case(argv, REFERENCE, time.perf_counter() + 0.05)["status"].startswith("timeout")


@pytest.fixture(scope="module")
def traced():
    out = {}
    for workload in cases.WORKLOADS:
        res = tracing.run_child(cases.cases(workload, run.DEFAULT_SEED, REFERENCE), run.RUN_DEADLINE)
        out[workload] = res["metrics"]
        for argv, job in zip(cases.cases(workload, run.DEFAULT_SEED, REFERENCE), res["jobs"]):
            for which in ("untraced", "traced"):
                assert run.verdict(argv, job[which]["rc"], job[which]["sha256"], REFERENCE) == "ok", argv
    return out


def test_traced_run_reports_every_per_layer_metric(traced):
    import json

    names = [m["name"] for m in json.loads((cases.HERE.parent / "BENCHMARK.json").read_text())["per_layer"]]
    for workload, metrics in traced.items():
        assert sorted(metrics) == sorted(names), workload


def test_predicted_zeros_and_non_zeros(traced):
    tri, cry, nil = traced["triangle"], traced["crystal"], traced["nilhecke"]
    assert tri["lifts.down_calls"] > 0 and tri["lifts.interval_elems"] > 0
    assert cry["lifts.down_calls"] == 0 and nil["lifts.down_calls"] == 0
    assert cry["lifts.up_calls"] > 0  # the opposite Demazure cases lift paths upward
    assert cry["kring.apply_Ti_calls"] == 0 and cry["kring.hecke_compose_calls"] == 0
    assert nil["lspath.f_calls"] == 0 and nil["lspath.self_s"] == 0
    assert nil["alcove.tree_nodes"] == 0 and nil["lifts.up_calls"] == 0
    assert nil["kring.terms_out"] > 0 and tri["kring.terms_out"] > 0
    assert tri["lspath.crystal_paths"] > 0 and cry["lspath.crystal_paths"] > 0
    assert cry["alcove.tree_nodes"] > 0 and tri["alcove.tree_nodes"] > 0


def test_layer_self_times_cover_the_traced_cpu(traced):
    for workload, metrics in traced.items():
        assert metrics["trace_coverage"] >= 0.9, workload
        assert metrics["trace_overhead_ratio"] > 1, workload
