"""Batched multi-query execution: shared-leaf scans and matrix kernels.

A workload of Q queries answered one at a time re-descends the tree, re-
reads the same hot leaves, and runs Q independent (1×n) kernel passes.
This engine plans and executes the whole query set together so every
expensive touch is amortized across the queries that need it:

* **Phase 0 — one-pass screening.**  After the per-query descents have
  seeded finite BSFs, ONE vectorized (Q×N) LB_SAX screen runs over the
  in-RAM signature array against the per-query BSF² vector
  (:meth:`~repro.core.prefilter.SignatureArray.screen_batch`: one gather
  + one matmul over tables cached on the array, instead of Q passes).
* **Shared-leaf refinement.**  Descent produces a leaf→{query set}
  access plan; each surviving leaf is read from ``SeriesFile``/
  ``LeafCache`` exactly once and refined with a single blocked
  (Q_leaf × rows) matrix kernel
  (:func:`~repro.distance.euclidean.early_abandon_squared_multi`)
  sharing the row load across queries, with per-query live BSF²
  cutoffs.  Per-query result sets update from the shared distance
  block.
* **Batch-scoped read memoization.**  All leaf reads of the batch —
  including the approximate-descent scans — go through one
  :class:`_BlockStore`, so a leaf touched by many queries is loaded
  once per batch regardless of cache configuration.

**Parity.**  Queries are independent search problems: each keeps its own
:class:`~repro.core.results.ResultSet`, BSF², and profile, and every
pruning check compares an ε-scaled lower bound with that query's own
live BSF².  Leaves are processed in file-position order, so a query's
sequence of checks and updates is the same whichever other queries
share its batch — a single :meth:`~repro.core.index.HerculesIndex.knn`
call is simply a batch of one.  The shared matrix kernel re-evaluates
survivors with the same whole-row arithmetic as the single-query
kernel, so answers are value-identical across batch compositions, for
exact and ε-approximate search alike.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro import obs
from repro.core.config import HerculesConfig
from repro.core.node import Node
from repro.core.query import (
    QueryAnswer,
    QueryProfile,
    _approx_knn,
    _find_candidate_leaves,
    _SearchState,
)
from repro.core.results import ResultSet
from repro.distance.euclidean import (
    early_abandon_squared,
    early_abandon_squared_multi,
)
from repro.storage.files import SeriesFile
from repro.summarization.sax import SaxSpace
from repro.types import DISTANCE_DTYPE

__all__ = ["BatchAnswer", "BatchStats", "exact_knn_batch"]


@dataclass
class BatchStats:
    """Batch-level execution metrics of one :func:`exact_knn_batch` call."""

    num_queries: int = 0
    #: Physical leaf-block loads performed for the whole batch.
    unique_leaf_reads: int = 0
    #: Per-query leaf-block touches served by those loads — descent
    #: scans plus refinement reads, summed over queries.
    #: ``leaf_share_factor`` > 1 means leaves were shared across
    #: queries instead of re-read per query.
    leaf_uses: int = 0
    #: Candidate rows the refinement kernels evaluated, summed over
    #: queries (each shared read serves ``kernel_rows_per_read`` rows).
    kernel_rows: int = 0
    #: Wall seconds of the one-pass signature screen (0 with the
    #: pre-filter tier off).
    screen_seconds: float = 0.0
    #: Wall seconds of the whole batch call.
    total_seconds: float = 0.0

    @property
    def leaf_share_factor(self) -> float:
        """Per-query leaf refinements per physical leaf read."""
        if self.unique_leaf_reads <= 0:
            return 0.0
        return self.leaf_uses / self.unique_leaf_reads

    @property
    def kernel_rows_per_read(self) -> float:
        """Kernel row evaluations amortized over each physical read."""
        if self.unique_leaf_reads <= 0:
            return 0.0
        return self.kernel_rows / self.unique_leaf_reads

    @property
    def screen_seconds_per_query(self) -> float:
        if self.num_queries <= 0:
            return 0.0
        return self.screen_seconds / self.num_queries


class BatchAnswer:
    """Per-query :class:`QueryAnswer` sequence plus batch-level stats.

    Behaves like the list of answers the serial loop used to return
    (iteration, indexing, ``len``), with :attr:`stats` riding along.
    """

    def __init__(self, answers: List[QueryAnswer], stats: BatchStats) -> None:
        self.answers = answers
        self.stats = stats

    def __len__(self) -> int:
        return len(self.answers)

    def __getitem__(self, index):
        return self.answers[index]

    def __iter__(self):
        return iter(self.answers)


class _BlockStore:
    """Batch-scoped leaf-block memo: each block is loaded at most once.

    Sits in front of the ``SeriesFile`` (and its optional LeafCache):
    the first query needing a block loads it; every later use within
    the batch is served from the memo, whatever the cache budget is.
    """

    def __init__(self, lrd: SeriesFile) -> None:
        self._lrd = lrd
        self._blocks: dict = {}
        self.loads = 0
        #: Per-query block touches served (every :meth:`leaf_block`
        #: call, plus the extra users of one multi-query kernel pass
        #: via :meth:`count_shared_uses`) — the numerator of the batch
        #: leaf-share factor.
        self.uses = 0

    def leaf_block(self, leaf: Node, profile: QueryProfile) -> np.ndarray:
        """The leaf's rows; a load credits its LeafCache lookups to
        ``profile``, the query that triggered it."""
        key = (leaf.file_position, leaf.size)
        self.uses += 1
        block = self._blocks.get(key)
        if block is None:
            cache = self._lrd.cache
            before = cache.snapshot() if cache is not None else None
            block = self._lrd.read_range(leaf.file_position, leaf.size)
            if before is not None:
                delta = cache.snapshot() - before
                profile.cache_hits += delta.hits
                profile.cache_misses += delta.misses
            self._blocks[key] = block
            self.loads += 1
        return block

    def count_shared_uses(self, extra: int) -> None:
        """Credit ``extra`` additional queries served by the last read."""
        self.uses += extra


class _BatchSearchState(_SearchState):
    """Per-query search state whose leaf reads flow through the store."""

    def __init__(self, store: _BlockStore, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._store = store

    def read_leaf(self, leaf: Node) -> np.ndarray:
        self.profile.series_accessed += leaf.size
        return self._store.leaf_block(leaf, self.profile)


@dataclass
class _RefineSpec:
    """One query's refinement work, in file-position order."""

    #: "leaves" — scan whole leaves with a live-BSF re-check (the
    #: skip-sequential and NoSAX paths); "series" — refine per-leaf
    #: candidate rows surviving LB_SAX (the full four-phase path);
    #: "none" — phase 1 already answered the query.
    kind: str = "none"
    #: (leaf, phase-2 bound) pairs for "leaves".
    leaves: list = field(default_factory=list)
    #: (leaf, rows-within-leaf, ε-scaled squared LB_SAX) for "series".
    series: list = field(default_factory=list)


def _plan_refinement(
    state: _BatchSearchState,
    lclist: list,
    config: HerculesConfig,
    num_leaves: int,
    num_series: int,
) -> _RefineSpec:
    """One query's access-path decision, emitted as a plan.

    The path is chosen from the query's pre-screen pruning ratios, and
    phase 3 produces its candidate rows in file-position order.
    """
    spec = _RefineSpec()
    state.profile.candidate_leaves = len(lclist)
    if not lclist:
        state.profile.path = "approx-only"
        return spec
    if (
        config.adaptive_thresholds
        and state.profile.eapca_pruning < config.eapca_th
    ):
        state.profile.path = "eapca-skipseq"
        spec.kind = "leaves"
        spec.leaves = list(lclist)
        return spec
    if not config.use_sax:
        state.profile.path = "nosax-leaves"
        spec.kind = "leaves"
        spec.leaves = list(lclist)
        return spec

    # Phase 3 (FindCandidateSeries): BSF² is fixed for the whole pass,
    # leaves visited in file order.
    bsf_squared = state.results.bsf_squared
    length = state.query.shape[0]
    series: list = []
    total = 0
    for leaf, _bound in lclist:
        words = state.lsd_words[
            leaf.file_position : leaf.file_position + leaf.size
        ]
        bounds = state.sax_space.mindist(state.query_paa, words, length)
        scaled = bounds * state.prune_factor
        scaled_sq = scaled * scaled
        mask = scaled_sq < bsf_squared
        if state.sig_mask is not None:
            mask &= state.sig_mask[
                leaf.file_position : leaf.file_position + leaf.size
            ]
        if mask.any():
            rows = np.nonzero(mask)[0]
            series.append((leaf, rows, scaled_sq[rows]))
            total += rows.shape[0]
    sax_pr = 1.0 - (total / num_series if num_series else 0.0)
    state.profile.candidate_series = total
    state.profile.sax_pruning = sax_pr
    if config.adaptive_thresholds and sax_pr < config.sax_th:
        state.profile.path = "sax-skipseq"
        spec.kind = "leaves"
        spec.leaves = list(lclist)
        return spec
    state.profile.path = "full-four-phase"
    spec.kind = "series"
    spec.series = series
    return spec


def _refine_shared(
    states: List[_BatchSearchState],
    specs: List[_RefineSpec],
    store: _BlockStore,
    stats: BatchStats,
) -> None:
    """Refinement over the leaf→{query set} plan.

    Leaves are visited once each, in file-position order.  Each query
    needing a leaf re-checks its lower bounds against its own live BSF²
    (ε-scaled, so the skip is sound for exact and ε-approximate search
    alike); the survivors are refined from one block under per-query
    live BSF² cutoffs.  A leaf with one active query runs the
    early-abandoning single-query kernel; two or more share one
    multi-query kernel call.
    """
    tasks: dict = {}
    for qi, spec in enumerate(specs):
        if spec.kind == "leaves":
            for leaf, bound in spec.leaves:
                tasks.setdefault(leaf.file_position, (leaf, []))[1].append(
                    (qi, bound, None, None)
                )
        elif spec.kind == "series":
            for leaf, rows, bounds_sq in spec.series:
                tasks.setdefault(leaf.file_position, (leaf, []))[1].append(
                    (qi, None, rows, bounds_sq)
                )

    for file_position in sorted(tasks):
        leaf, users = tasks[file_position]
        active = []
        for qi, bound, rows, bounds_sq in users:
            state = states[qi]
            bsf_squared = state.results.bsf_squared
            if rows is None:
                # Whole-leaf user: the skip-sequential re-check.
                if state.scaled_squared(bound) >= bsf_squared:
                    continue
                active.append((qi, None))
            else:
                alive = bounds_sq < bsf_squared
                if not alive.any():
                    continue
                active.append((qi, rows[alive]))
        if not active:
            continue

        block = store.leaf_block(leaf, states[active[0][0]].profile)
        store.count_shared_uses(len(active) - 1)
        length = block.shape[1]
        if len(active) == 1:
            # The single-query kernel abandons rows block by block; the
            # multi-query matmul screen has no abandoning savings.
            qi, rows = active[0]
            state = states[qi]
            squared, compared = early_abandon_squared(
                state.query,
                block if rows is None else block[rows],
                state.results.bsf_squared,
            )
            outcomes = [(qi, rows, squared, compared)]
        else:
            queries = np.stack([states[qi].query for qi, _rows in active])
            cutoffs = np.array(
                [states[qi].results.bsf_squared for qi, _rows in active],
                dtype=DISTANCE_DTYPE,
            )
            row_masks = np.zeros((len(active), leaf.size), dtype=bool)
            for i, (_qi, rows) in enumerate(active):
                if rows is None:
                    row_masks[i] = True
                else:
                    row_masks[i, rows] = True
            distances, points = early_abandon_squared_multi(
                queries, block, cutoffs, row_masks=row_masks
            )
            outcomes = [
                (
                    qi,
                    rows,
                    distances[i] if rows is None else distances[i, rows],
                    int(points[i]),
                )
                for i, (qi, rows) in enumerate(active)
            ]

        for qi, rows, row_distances, compared in outcomes:
            state = states[qi]
            if rows is None:
                row_count = leaf.size
                positions = leaf.file_position + np.arange(
                    leaf.size, dtype=np.int64
                )
            else:
                row_count = rows.shape[0]
                positions = leaf.file_position + rows.astype(np.int64)
            state.results.update_batch_squared(row_distances, positions)
            state.profile.series_accessed += row_count
            state.profile.distance_computations += row_count
            state.profile.points_compared += compared
            state.profile.points_total += row_count * length
            stats.kernel_rows += row_count


def exact_knn_batch(
    queries: np.ndarray,
    k: int,
    config: HerculesConfig,
    root: Node,
    lrd: SeriesFile,
    lsd_words: np.ndarray,
    sax_space: SaxSpace,
    num_leaves: int,
    num_series: int,
    results: Optional[List[ResultSet]] = None,
    signatures=None,
) -> BatchAnswer:
    """Plan and execute a whole query set together (Algorithm 10).

    Each query's answer is value-identical to the answer it gets alone
    (a batch of one).  The engine runs single-threaded — the
    parallelism lives in the batch dimension of the kernels, not in
    worker threads — so answers are deterministic for a fixed index.

    ``results`` optionally supplies one result set per query (shard
    coordinators pass linked sets broadcasting the per-query global
    BSF² vector).  Per-query wall-time attribution inside the shared
    phases is amortized: the screen and shared-refinement walls are
    split evenly across the queries that took part, and each profile's
    ``time_total`` is the sum of its four phase timers.
    """
    arr = np.asarray(queries, dtype=DISTANCE_DTYPE)
    if arr.ndim != 2:
        raise ValueError(
            f"expected a (Q, series_length) query matrix, got shape {arr.shape}"
        )
    num_queries = arr.shape[0]
    stats = BatchStats(num_queries=num_queries)
    if num_queries == 0:
        return BatchAnswer([], stats)
    if results is not None and len(results) != num_queries:
        raise ValueError(
            f"got {len(results)} result sets for {num_queries} queries"
        )

    started = time.perf_counter()
    io_before = lrd.stats.snapshot()
    store = _BlockStore(lrd)
    states: List[_BatchSearchState] = []
    lclists: list = []

    with obs.span("query", k=k, queries=num_queries) as query_span:
        # -- per-query descent (phases 1 + 2); reads memoized ------------
        for qi in range(num_queries):
            phase_started = time.perf_counter()
            state = _BatchSearchState(
                store,
                arr[qi],
                k,
                config,
                lrd,
                lsd_words,
                sax_space,
                num_leaves,
                num_series,
                results=results[qi] if results is not None else None,
            )
            with obs.span("query.phase1.approx") as sp:
                _approx_knn(state, root)
                sp.set("leaves_visited", state.profile.approx_leaves)
            state.profile.time_approx = time.perf_counter() - phase_started
            phase_started = time.perf_counter()
            with obs.span("query.phase2.candidates") as sp:
                lclist = _find_candidate_leaves(state)
                sp.set("candidate_leaves", len(lclist))
            state.profile.time_candidates = (
                time.perf_counter() - phase_started
            )
            # The access path keys off the *tree's* pruning quality, so
            # it is taken from the pre-screen LCList: the screen can only
            # subtract work from the path, never change it.
            state.profile.eapca_pruning = 1.0 - (
                len(lclist) / num_leaves if num_leaves else 0.0
            )
            states.append(state)
            lclists.append(lclist)

        # -- ONE whole-workload signature screen -------------------------
        # Runs even when phase 2 already emptied every LCList: recording
        # screened/survivors for every filtered query keeps the
        # pruned-fraction metric honest.
        if signatures is not None:
            screen_started = time.perf_counter()
            with obs.span("query.prefilter") as sp:
                paa_block = np.stack([s.query_paa for s in states])
                bsf_vector = np.array(
                    [s.results.bsf_squared for s in states],
                    dtype=DISTANCE_DTYPE,
                )
                masks = signatures.screen_batch(
                    paa_block,
                    bsf_vector,
                    arr.shape[1],
                    prune_factor=states[0].prune_factor,
                )
                survivors_total = 0
                for qi, state in enumerate(states):
                    state.sig_mask = masks[qi]
                    state.profile.prefilter_screened = signatures.num_series
                    survivors = int(np.count_nonzero(masks[qi]))
                    state.profile.prefilter_survivors = survivors
                    survivors_total += survivors
                    # A leaf with no surviving rows is never descended.
                    lclists[qi] = [
                        (leaf, bound)
                        for leaf, bound in lclists[qi]
                        if masks[qi][
                            leaf.file_position : leaf.file_position + leaf.size
                        ].any()
                    ]
                sp.set_attrs(
                    screened=signatures.num_series * num_queries,
                    survivors=survivors_total,
                )
            stats.screen_seconds = time.perf_counter() - screen_started

        # -- access-path planning (phase 3 where the path needs it) ------
        refine_started = time.perf_counter()
        with obs.span("query.phase3.filter") as sp:
            specs = [
                _plan_refinement(
                    states[qi], lclists[qi], config, num_leaves, num_series
                )
                for qi in range(num_queries)
            ]
            sp.set(
                "candidate_series",
                sum(state.profile.candidate_series for state in states),
            )

        # -- shared-leaf refinement (phase 4) ----------------------------
        loads_before = store.loads
        with obs.span("query.phase4.refine") as sp:
            _refine_shared(states, specs, store, stats)
            sp.set_attrs(
                unique_leaf_reads=store.loads - loads_before,
                leaf_uses=store.uses,
            )
        refine_seconds = time.perf_counter() - refine_started

        # -- finalize ----------------------------------------------------
        stats.unique_leaf_reads = store.loads
        stats.leaf_uses = store.uses
        stats.total_seconds = time.perf_counter() - started
        answers: List[QueryAnswer] = []
        refine_share = refine_seconds / num_queries
        screen_share = stats.screen_seconds / num_queries
        for state in states:
            distances, positions = state.results.items()
            state.profile.time_screen = screen_share
            state.profile.time_refine = refine_share
            state.profile.time_total = (
                state.profile.time_approx
                + state.profile.time_candidates
                + state.profile.time_screen
                + state.profile.time_refine
            )
            obs.observe_search(state.profile.time_total)
            answers.append(
                QueryAnswer(distances, positions, state.profile)
            )
        io = lrd.stats.snapshot() - io_before
        query_span.set_attrs(
            path=",".join(sorted({state.profile.path for state in states})),
            unique_leaf_reads=stats.unique_leaf_reads,
            leaf_uses=stats.leaf_uses,
            leaf_share_factor=stats.leaf_share_factor,
            kernel_rows=stats.kernel_rows,
            random_seeks=io.random_seeks,
            sequential_reads=io.sequential_reads,
            bytes_read=io.bytes_read,
        )
    return BatchAnswer(answers, stats)
