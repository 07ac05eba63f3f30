"""Self-tests of the benchmark: metric names, oracle check, trace wrappers.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

run.load_repro()

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "5", "--seconds", "0.3"]
    assert run.main(argv + ["--trace", str(trace), "--size", "tiny"]) == 0
    result = _result(capsys)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert not (run.ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}").exists()


def test_planted_wrong_answer_counts_as_failed(tmp_path):
    harness = run.Harness(run.WORKLOADS["sald-easy-serial"], 3, "tiny", tmp_path)
    try:
        loop = harness.run_loop(0, 4)
        assert harness.failures(loop) == []
        wrong = loop["answers"][2]
        wrong.distances = wrong.distances.copy()
        wrong.distances[-1] *= 1.01
        loop["answers"][1] = RuntimeError("planted")
        failures = harness.failures(loop)
    finally:
        harness.close()
    assert [query for query, _ in failures] == [loop["idx"][1], loop["idx"][2]]
    assert "raised RuntimeError" in failures[0][1]
    assert "distances differ" in failures[1][1]


def test_oracle_rejects_a_position_that_does_not_hold_its_distance():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((300, 16)).astype(np.float32)
    queries = data[:3] + 0.1
    expected = oracle.exact_topk(data, queries, 5)
    right = []
    for q in queries:
        d = np.sqrt(((data.astype(np.float64) - q.astype(np.float64)) ** 2).sum(axis=1))
        order = np.argsort(d)[:5]
        right.append((d[order], order))
    fetch = lambda p: data[p]  # noqa: E731
    assert oracle.find_failures(queries, right, expected, fetch) == []
    swapped = (right[0][0], right[0][1][::-1])
    moved = (right[1][0], right[1][1] + 1)
    failures = oracle.find_failures(queries, [swapped, moved, right[2]], expected, fetch)
    assert [query for query, _ in failures] == [0, 1]


def test_restore_leaves_patched_callables_identical():
    targets = tracer.query_layer_targets()
    originals = [vars(owner)[attr] for owner, attr, _, _ in targets]
    with tracer.install(tracer.Ledger()):
        for (owner, attr, _, _), original in zip(targets, originals):
            assert vars(owner)[attr] is not original
    for (owner, attr, _, _), original in zip(targets, originals):
        assert vars(owner)[attr] is original


def test_self_time_splits_nested_calls_and_keeps_workers_apart():
    ns = types.SimpleNamespace()
    ns.inner = lambda: time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        ns.inner()

    ns.outer = outer
    ledger = tracer.Ledger()
    with tracer.install(ledger, [(ns, "outer", "outer", None), (ns, "inner", "inner", None)]):
        started = time.perf_counter()
        ledger.run(tracer.UNATTRIBUTED, ns.outer)
        wall = time.perf_counter() - started
        worker = threading.Thread(target=ns.inner)
        worker.start()
        worker.join()
    outer_self = ledger.self_seconds("outer")
    inner_here = ledger.self_seconds("inner", calling_only=True)
    assert outer_self >= 0.01 and inner_here >= 0.02
    assert outer_self + inner_here == pytest.approx(ledger.total_seconds("outer"))
    # The worker's sleep costs no CPU: its frame runs on the thread's CPU clock.
    assert ledger.self_seconds("inner") - inner_here < 0.01
    assert ledger.calls("inner") == 2
    ledger.check_adds_up(wall, 1)
    with pytest.raises(tracer.LedgerError):
        ledger.check_adds_up(wall + 0.01, 1)
