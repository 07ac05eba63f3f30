"""Wall-clock ledger benchmark of the Hercules reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload sald-easy-serial --seed 1 --seconds 30 --trace 0

One closed-loop client (this process) issues k = 10 queries through the
public API (``HerculesIndex.build``, ``.knn``, ``.knn_batch``) with the
shipped ``HerculesConfig()`` defaults, waiting for each reply.  Every
answer is checked against a float64 brute-force oracle computed before
the build.  Right after each call, outside its timing, a NumPy float32
brute-force scan over the same in-RAM matrix answers the same queries;
``scan_ratio`` divides Hercules' median time by that floor's, which
cancels much of the machine's speed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes each
call twice, untraced and then with every layer's callable wrapped (see
``tracer.py``), and prints per-layer metrics per query.  The last
line of standard output is one JSON object; the lines before it are the
same numbers for people, plus any failed query.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
K = 10
#: Serial runs take at least this many queries, so that p95 has at least
#: ten samples beyond it.
MIN_SERIAL_QUERIES = 200
#: Serial calls per window of ``batch_ms_p50``: the batch workload's size.
SERIAL_WINDOW = 64
#: A batch gives few samples per run, so its floor GEMM runs this often.
FLOOR_REPEATS_PER_BATCH = 5
#: Queries in the fixed subsample the scan baselines answer.
BASELINE_QUERIES = 5
#: Data series per index: the full benchmark and the self-test's size.
SIZES = {"full": 50_000, "tiny": 1_500}
PATHS = ("approx-only", "full-four-phase", "eapca-skipseq", "sax-skipseq")


@dataclass(frozen=True)
class Workload:
    name: str
    #: "SALD" or "Deep" (``repro.workloads.datasets`` analogs) or "synth"
    #: (random walks).
    dataset: str
    length: int
    #: Query label of ``repro.workloads.generators``: a noise level or "ood".
    queries: str
    #: Queries generated and checked per run; the loop cycles through them.
    pool: int
    #: 0: one ``knn`` call at a time; otherwise the ``knn_batch`` size.
    batch: int = 0
    prefilter: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        # Easy: mostly full-four-phase; phase-1 leaf scans, lower bounds
        # and the 4-thread phase-3/4 fan-out dominate.
        Workload("sald-easy-serial", "SALD", 128, "1%", 1024),
        # Hard: every query takes the skip-sequential scan, so raw reads,
        # the refinement kernel and lower bounds dominate.
        Workload("deep-hard-serial", "Deep", 96, "ood", 320),
        # Batched, pre-filter on: shared leaf reads, multi-query kernels
        # and the (Q x N) signature screen, which runs only here.
        Workload("synth-medium-batch", "synth", 256, "5%", 1024, batch=64, prefilter=True),
    )
}


def load_repro():
    """Import the package from this checkout's ``src``, or exit."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no Hercules sources at {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import repro

    return repro


def make_inputs(workload: Workload, count: int, pool: int, seed: int):
    """Indexed data and query pool, both float32, from ``seed`` alone."""
    from repro.workloads import (
        NOISE_WORKLOADS,
        make_analog,
        make_noise_queries,
        make_ood_split,
        random_walks,
        znormalize,
    )

    ood = workload.queries == "ood"
    total = count + (pool if ood else 0)
    if workload.dataset == "synth":
        data = random_walks(total, workload.length, seed=seed)
    else:
        data = make_analog(workload.dataset, total, workload.length, seed=seed)
    if ood:
        data, queries = make_ood_split(data, pool, seed=seed + 1)
        queries = znormalize(queries)
    else:
        queries = make_noise_queries(
            data, pool, NOISE_WORKLOADS[workload.queries], seed=seed + 1
        )
    return (
        np.ascontiguousarray(data, dtype=np.float32),
        np.ascontiguousarray(queries, dtype=np.float32),
    )


class ScanFloor:
    """NumPy float32 brute-force k-NN over the in-RAM matrix.

    A single query is scored with ``einsum``, on the calling thread: a
    BLAS GEMV leaves BLAS threads spinning on the second core after it
    returns, which slowed the next serial query by 15% or more.  A batch
    is scored with one BLAS GEMM, as the batch engine's kernels are.
    """

    def __init__(self, data: np.ndarray) -> None:
        self.data = data
        self.norms = np.einsum("ij,ij->i", data, data)

    def knn(self, queries: np.ndarray) -> np.ndarray:
        """Row indices of the k nearest rows (one query, or a batch)."""
        if queries.ndim == 1:
            scores = self.norms - 2.0 * np.einsum("ij,j->i", self.data, queries)
            return np.argpartition(scores, K - 1)[:K]
        scores = self.norms[None, :] - 2.0 * (queries @ self.data.T)
        return np.argpartition(scores, K - 1, axis=1)[:, :K]


def new_loop() -> dict:
    """Per-call records of one measured loop."""
    return {"ms": [], "floor_ms": [], "idx": [], "answers": [], "stats": []}


class Harness:
    """One workload's inputs, oracle, index and scan floor."""

    def __init__(self, workload: Workload, seed: int, size: str, workdir: Path) -> None:
        from repro import HerculesConfig, HerculesIndex

        from oracle import exact_topk

        self.workload = workload
        pool = workload.pool if size == "full" else 2 * max(workload.batch, 32)
        self.data, self.queries = make_inputs(workload, SIZES[size], pool, seed)
        self.expected = exact_topk(self.data, self.queries, K)
        self.min_queries = MIN_SERIAL_QUERIES if size == "full" else 10
        self.unit = workload.batch or 1

        started = time.perf_counter()
        self.index = HerculesIndex.build(
            self.data,
            HerculesConfig(prefilter=workload.prefilter),
            directory=workdir / "index",
        )
        self.setup_s = time.perf_counter() - started
        self.floor = ScanFloor(self.data)

    def close(self) -> None:
        self.index.close()

    def unit_queries(self, j: int) -> np.ndarray:
        """Query indices of the j-th call (one query, or one batch)."""
        start = (j * self.unit) % self.queries.shape[0]
        return np.arange(start, start + self.unit)

    def call(self, idx: np.ndarray):
        """One public API call: its ``QueryAnswer`` list and, for a batch,
        its ``BatchStats`` (None for a single query)."""
        if self.workload.batch:
            answer = self.index.knn_batch(self.queries[idx], k=K)
            return list(answer), answer.stats
        return [self.index.knn(self.queries[idx[0]], k=K)], None

    def warm_up(self) -> None:
        """Let lazily built structures exist before anything is timed."""
        if self.workload.batch:
            self.index.knn_batch(self.queries[:4], k=K)
        else:
            for i in range(1, 4):
                self.index.knn(self.queries[-i], k=K)

    def run_call(self, j: int, out: dict, call=None, floor: bool = False) -> None:
        """Make the j-th call through ``call`` (default ``self.call``) and
        append its time and answers to ``out``; with ``floor``, time the
        scan floor on the same queries right after it."""
        idx = self.unit_queries(j)
        started = time.perf_counter()
        try:
            answers, stats = (call or self.call)(idx)
        except Exception as exc:  # counted as failed, never dropped
            answers, stats = [exc] * idx.shape[0], None
        elapsed = time.perf_counter() - started
        out["ms"].append(elapsed * 1e3)
        if floor:
            batch = self.workload.batch
            queries = self.queries[idx] if batch else self.queries[idx[0]]
            for _ in range(FLOOR_REPEATS_PER_BATCH if batch else 1):
                floor_started = time.perf_counter()
                self.floor.knn(queries)
                out["floor_ms"].append((time.perf_counter() - floor_started) * 1e3)
        out["idx"].extend(idx.tolist())
        out["answers"].extend(answers)
        out["stats"].append(stats)

    def run_loop(self, seconds: float, min_calls: int) -> dict:
        """Closed loop: call after call, each followed by the scan floor,
        until both the time and the count are reached."""
        out = new_loop()
        stop = time.perf_counter() + seconds
        j = 0
        while time.perf_counter() < stop or j < min_calls:
            self.run_call(j, out, floor=True)
            j += 1
        return out

    def failures(self, loop: dict) -> list[tuple[int, str]]:
        """(query pool index, reason) of every wrong answer in ``loop``."""
        from oracle import find_failures

        idx = np.asarray(loop["idx"], dtype=np.int64)
        answers = [
            a if isinstance(a, BaseException) else (a.distances, a.positions)
            for a in loop["answers"]
        ]
        found = find_failures(
            self.queries[idx], answers, self.expected[idx], self.index.get_series
        )
        return [(int(idx[i]), reason) for i, reason in found]

    def index_bytes_per_data_byte(self) -> float:
        stored = sum(p.stat().st_size for p in self.index.directory.iterdir() if p.is_file())
        return stored / self.data.nbytes


def end_to_end(harness: Harness, seconds: float) -> tuple[dict, dict]:
    harness.warm_up()
    min_calls = harness.min_queries if not harness.workload.batch else 3
    loop = harness.run_loop(seconds, min_calls)
    ms = np.asarray(loop["ms"])
    unit = harness.unit
    per_query = ms / unit
    if harness.workload.batch:
        batch_ms = ms
    elif len(ms) >= SERIAL_WINDOW:
        batch_ms = np.convolve(ms, np.ones(SERIAL_WINDOW), mode="valid")
    else:
        batch_ms = ms * SERIAL_WINDOW
    metrics = {
        "setup_s": (harness.setup_s, "s"),
        "query_ms_p50": (float(np.median(per_query)), "ms"),
        "query_ms_p95": (float(np.percentile(per_query, 95)), "ms"),
        "batch_ms_p50": (float(np.median(batch_ms)), "ms"),
        "qps": (len(loop["idx"]) / (ms.sum() / 1e3), "1/s"),
        "scan_ratio": (float(np.median(ms) / np.median(loop["floor_ms"])), "ratio"),
        "rss_peak_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "index_bytes_per_data_byte": (harness.index_bytes_per_data_byte(), "ratio"),
    }
    return metrics, loop


def per_layer(harness: Harness, seconds: float) -> tuple[dict, list[dict]]:
    from repro.baselines import PScan, SerialScan
    from repro.core.query import QueryProfile
    from repro.storage import IOSnapshot

    import tracer

    harness.warm_up()
    # Each call runs untraced, then traced, so that drift in the machine's
    # speed cancels out of trace.overhead_pct.
    plain, traced = new_loop(), new_loop()
    ledger = tracer.Ledger()
    root = functools.partial(ledger.run, tracer.UNATTRIBUTED, harness.call)
    io = IOSnapshot()
    stop = time.perf_counter() + seconds
    calls = 0
    while time.perf_counter() < stop or calls < (2 if harness.workload.batch else 20):
        harness.run_call(calls, plain)
        io_before = harness.index.query_io.snapshot()
        with tracer.install(ledger):
            harness.run_call(calls, traced, call=root)
        io = io + (harness.index.query_io.snapshot() - io_before)
        calls += 1
    wall_s = sum(traced["ms"]) / 1e3
    ledger.check_adds_up(wall_s, calls)

    n = len(traced["idx"])
    num_series = harness.data.shape[0]
    profiles = [a.profile for a in traced["answers"] if not isinstance(a, BaseException)]
    stats = [s for s in traced["stats"] if s is not None]

    def ms(layer: str) -> float:
        return ledger.self_seconds(layer) * 1e3 / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def total(field: str) -> float:
        return sum(getattr(p, field) for p in profiles)

    baseline_queries = harness.queries[:BASELINE_QUERIES]
    baselines = {}
    for name, method in (("serial_scan", SerialScan(harness.data)), ("pscan", PScan(harness.data))):
        timings = []
        for q in baseline_queries:
            started = time.perf_counter()
            method.knn(q, k=K)
            timings.append((time.perf_counter() - started) * 1e3)
        baselines[name] = statistics.median(timings)

    report = harness.index.build_report
    metrics = {
        "node.lower_bound_calls": (ledger.calls("node.lower_bound") / n, "count"),
        "node.lower_bound_ms": (ms("node.lower_bound"), "ms"),
        "files.read_calls": (ledger.count("files.read_calls") / n, "count"),
        "files.read_ms": (ms("files.read"), "ms"),
        "files.rows_read_fraction": (ledger.count("files.rows") / (n * num_series), "fraction"),
        "iostats.random_seeks": (io.random_seeks / n, "count"),
        "iostats.bytes_read": (io.bytes_read / n, "bytes"),
        "iostats.modeled_io_ms": (QueryProfile(io=io).modeled_io_seconds() * 1e3 / n, "ms"),
        "euclidean.kernel_calls": (ledger.calls("euclidean.kernel") / n, "count"),
        "euclidean.kernel_ms": (ms("euclidean.kernel"), "ms"),
        "euclidean.rows": (ledger.count("euclidean.rows") / n, "count"),
        "euclidean.points_compared_fraction": (
            ratio(ledger.count("euclidean.points"), ledger.count("euclidean.points_total")),
            "fraction",
        ),
        "results.update_ms": (ms("results.update"), "ms"),
        "sax.mindist_calls": (ledger.calls("sax.mindist") / n, "count"),
        "sax.mindist_ms": (ms("sax.mindist"), "ms"),
        "sax.candidate_fraction": (
            ratio(total("candidate_series"), ledger.count("sax.rows")),
            "fraction",
        ),
        "prefilter.screen_ms": (ms("prefilter.screen"), "ms"),
        "prefilter.survivor_fraction": (
            ratio(ledger.count("prefilter.survivors"), ledger.count("prefilter.screened")),
            "fraction",
        ),
        "batch_query.plan_ms": (ms("batch_query.plan"), "ms"),
        "batch_query.leaf_share_factor": (
            ratio(sum(s.leaf_uses for s in stats), sum(s.unique_leaf_reads for s in stats)),
            "ratio",
        ),
        "batch_query.kernel_rows_per_read": (
            ratio(sum(s.kernel_rows for s in stats), sum(s.unique_leaf_reads for s in stats)),
            "ratio",
        ),
        "query.phase1_ms": (total("time_approx") * 1e3 / n, "ms"),
        "query.phase2_ms": (total("time_candidates") * 1e3 / n, "ms"),
        "query.refine_ms": (total("time_refine") * 1e3 / n, "ms"),
        "query.approx_leaves": (total("approx_leaves") / n, "count"),
        "query.candidate_leaves": (total("candidate_leaves") / n, "count"),
        **{
            f"query.path_fraction.{path}": (
                sum(p.path == path for p in profiles) / n,
                "fraction",
            )
            for path in PATHS
        },
        "construction.build_tree_s": (report.build_seconds, "s"),
        "writing.write_index_s": (report.write_seconds, "s"),
        "construction.splits": (report.splits, "count"),
        "construction.flushes": (report.flushes, "count"),
        "ledger.wall_ms": (wall_s * 1e3 / n, "ms"),
        "ledger.unattributed_ms": (
            ledger.self_seconds(tracer.UNATTRIBUTED, calling_only=True) * 1e3 / n,
            "ms",
        ),
        "ledger.fanout_ms": (
            ledger.self_seconds(tracer.FANOUT, calling_only=True) * 1e3 / n,
            "ms",
        ),
        "ledger.worker_busy_ms": (ledger.total_seconds(tracer.WORKER) * 1e3 / n, "ms"),
        "trace.overhead_pct": (100.0 * (sum(traced["ms"]) / sum(plain["ms"]) - 1.0), "%"),
        "baselines.serial_scan_ms": (baselines["serial_scan"], "ms"),
        "baselines.pscan_ms": (baselines["pscan"], "ms"),
    }
    print("calling-thread ledger, ms per query (layers + unattributed = wall):")
    for layer, seconds_ in sorted(ledger.calling_thread_layers().items()):
        print(f"  {layer:24s} {seconds_ * 1e3 / n:10.3f}")
    print(f"  {'wall':24s} {wall_s * 1e3 / n:10.3f}")
    return metrics, [plain, traced]


def machine_facts() -> str:
    blas = "unknown"
    try:
        info = np.show_config(mode="dicts")
        blas = info["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return (
        f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
        f"NumPy {np.__version__} ({blas})"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    load_repro()
    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    print(f"{workload.name} seed {args.seed}: {machine_facts()}")
    harness = None
    try:
        harness = Harness(workload, args.seed, args.size, workdir)
        print(
            f"  {harness.data.shape[0]} x {harness.data.shape[1]}, "
            f"{workload.queries} queries, k={K}, "
            + (f"knn_batch of {workload.batch}" if workload.batch else "serial knn")
        )
        if args.trace:
            metrics, loops = per_layer(harness, args.seconds)
        else:
            metrics, loop = end_to_end(harness, args.seconds)
            loops = [loop]
        failures = [f for loop in loops for f in harness.failures(loop)]
        attempted = sum(len(loop["idx"]) for loop in loops)
    finally:
        if harness is not None:
            harness.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept while other runs use it
            workdir.parent.rmdir()

    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    print(f"  failed_fraction {len(failures) / attempted:.6g} ({len(failures)} of {attempted})")
    for query, reason in failures:
        print(f"  FAILED query {query}: {reason}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
