"""k-NN query answering (Section 3.4, Algorithms 10-14, Figure 5).

The four phases of Exact-kNN:

1. **Approx-kNN** (Algorithm 11) — a best-first descent of the tree by
   LB_EAPCA visiting at most ``L_max`` leaves, computing real distances in
   each, to seed ``BSF_k``.
2. **FindCandidateLeaves** (Algorithm 12) — resume the same priority
   queue without touching disk, collecting the leaves that survive
   LB_EAPCA pruning into LCList, sorted by LRDFile position.
3. **FindCandidateSeries** (Algorithm 13) — an LB_SAX pass over the
   in-memory iSAX words of the candidate leaves, producing the candidate
   series list (SCList).
4. **ComputeResults** (Algorithm 14) — refinement: load surviving series
   from LRDFile and compute real distances.

Adaptive access-path selection: when EAPCA pruning is weak
(``eapca_pr < EAPCA_TH``) phases 3-4 are replaced by a skip-sequential
scan of LRDFile over LCList, and when SAX pruning is weak
(``sax_pr < SAX_TH``) phase 4 is.  A skip-sequential scan pays one random
seek per surviving *leaf* (contiguous in LRDFile) instead of one per
surviving *series*, which is exactly why it wins on hard queries.

This module holds the per-query state and phases 1-2, shared by every
mode; exact search runs phases 3-4 in
:func:`repro.core.batch_query.exact_knn_batch`, where a single query is a
batch of one.  The paper runs phases 3-4 on worker threads; here the
parallelism lives in the batch dimension of the NumPy kernels instead.

Distance kernels operate on whole leaf matrices (the SIMD analog) and the
pipeline runs end-to-end in *squared* distance space (the UCR-suite
optimization): lower bounds are ε-scaled and squared once, every pruning
comparison is against ``BSF²`` (:attr:`ResultSet.bsf_squared`), every
refinement site runs the blocked early-abandoning kernel with the live
``BSF²`` cutoff, and the one square root per answer happens in
``ResultSet.items()``.  The per-query :class:`QueryProfile` records the
path taken, pruning ratios, distance-computation / point-comparison and
I/O counts, plus leaf-cache hits, so harnesses can report the paper's
"percentage of accessed data" metric exactly.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro import obs
from repro.core.config import HerculesConfig
from repro.core.node import Node
from repro.core.results import ResultSet
from repro.distance.euclidean import early_abandon_squared
from repro.storage.files import SeriesFile
from repro.storage.iostats import IOSnapshot
from repro.summarization.eapca import SeriesSketch
from repro.summarization.paa import paa
from repro.summarization.sax import SaxSpace
from repro.types import DISTANCE_DTYPE, as_series


#: Disk parameters of the paper's testbed (Section 4.1): 10K RPM SAS
#: drives in RAID0 with 1290 MB/s sequential throughput.  Used to model
#: what the measured I/O pattern would cost on that hardware.
PAPER_SEEK_SECONDS = 0.005
PAPER_BANDWIDTH_BYTES = 1.29e9


@dataclass
class QueryProfile:
    """Per-query cost and path metrics."""

    path: str = ""
    #: Leaves visited by the approximate phase.
    approx_leaves: int = 0
    #: LCList size and the resulting EAPCA pruning ratio.
    candidate_leaves: int = 0
    eapca_pruning: float = 0.0
    #: SCList size and the resulting SAX pruning ratio (None if phase 3
    #: did not run).
    candidate_series: int = 0
    sax_pruning: Optional[float] = None
    #: Full Euclidean distance computations (series compared).  A series
    #: counts even when the early-abandoning kernel dropped it part-way
    #: through; the point-level savings show up in ``points_compared``.
    distance_computations: int = 0
    #: Individual point comparisons actually performed by the refinement
    #: kernels, and the number a no-abandon kernel would have performed.
    #: Their ratio is the UCR-suite early-abandoning savings.
    points_compared: int = 0
    points_total: int = 0
    #: Whole-array signature screen (zero/zero when the pre-filter tier
    #: is off): series screened and series surviving the LB_SAX pass.
    prefilter_screened: int = 0
    prefilter_survivors: int = 0
    #: Raw series read from LRDFile (drives "% of data accessed").
    series_accessed: int = 0
    #: Leaf-cache lookups served with / without a disk read (zero when no
    #: cache is attached to LRDFile).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Wall-clock seconds.
    time_total: float = 0.0
    #: Per-phase breakdown (approximate search; candidate-leaf collection;
    #: the signature screen; the third/fourth phases or the skip-sequential
    #: fallback).  Exact search sets ``time_total`` to their sum.
    time_approx: float = 0.0
    time_candidates: float = 0.0
    time_screen: float = 0.0
    time_refine: float = 0.0
    #: I/O performed by this query (filled by harnesses that wrap knn
    #: calls with IOStats snapshots; None when the data lives in memory).
    io: Optional["IOSnapshot"] = None

    def data_accessed_fraction(self, num_series: int) -> float:
        return self.series_accessed / num_series if num_series else 0.0

    @property
    def abandoned_fraction(self) -> float:
        """Fraction of point comparisons skipped by early abandoning."""
        if self.points_total <= 0:
            return 0.0
        return 1.0 - self.points_compared / self.points_total

    @property
    def prefilter_pruned_fraction(self) -> Optional[float]:
        """Fraction of series the signature screen pruned; None if it
        did not run."""
        if self.prefilter_screened <= 0:
            return None
        return 1.0 - self.prefilter_survivors / self.prefilter_screened

    @property
    def cache_hit_rate(self) -> Optional[float]:
        """Leaf-cache hit rate for this query; None without any lookups."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else None

    def modeled_io_seconds(
        self,
        seek_seconds: float = PAPER_SEEK_SECONDS,
        bandwidth_bytes: float = PAPER_BANDWIDTH_BYTES,
        byte_scale: float = 1.0,
    ) -> float:
        """What this query's I/O pattern would cost on the paper's disks.

        Laptop-scale files sit in the OS page cache, so measured
        wall-clock underestimates disk effects; this projects the counted
        random seeks and bytes onto the paper's hardware.  Returns 0 when
        no I/O was captured.

        ``byte_scale`` maps the volumes to the paper's regime: a
        scaled-down reproduction keeps the paper's *tree shape* (leaf
        counts, candidate counts, hence seek counts) but shrinks every
        leaf by roughly (paper leaf size / configured leaf size); passing
        that ratio scales the byte term back up so the seek-vs-bandwidth
        balance matches the hardware the constants describe.  The
        default 1.0 reports the raw pattern.
        """
        if self.io is None:
            return 0.0
        return (
            self.io.random_seeks * seek_seconds
            + self.io.bytes_read * byte_scale / bandwidth_bytes
        )


@dataclass
class QueryAnswer:
    """Exact k-NN answers plus the profile of how they were computed."""

    distances: np.ndarray
    positions: np.ndarray
    profile: QueryProfile = field(default_factory=QueryProfile)

    @property
    def k(self) -> int:
        return self.distances.shape[0]


class _SearchState:
    """Mutable state threaded through the four phases of one query."""

    def __init__(
        self,
        query: np.ndarray,
        k: int,
        config: HerculesConfig,
        lrd: SeriesFile,
        lsd_words: np.ndarray,
        sax_space: SaxSpace,
        num_leaves: int,
        num_series: int,
        results: Optional[ResultSet] = None,
    ) -> None:
        self.query = as_series(query).astype(DISTANCE_DTYPE)
        self.sketch = SeriesSketch(self.query)
        self.k = k
        self.config = config
        self.lrd = lrd
        self.lsd_words = lsd_words
        self.sax_space = sax_space
        self.num_leaves = num_leaves
        self.num_series = num_series
        self._cache_before = (
            lrd.cache.snapshot() if lrd.cache is not None else None
        )
        # An externally supplied ResultSet lets a coordinator link this
        # search to others (shard scatter-gather shares the global BSF²
        # through a LinkedResultSet); the default is a private set.
        self.results = results if results is not None else ResultSet(k)
        self.profile = QueryProfile()
        # ε-approximate search tightens every pruning comparison by this
        # factor; 1.0 keeps the search exact (Algorithm 10 as published).
        # All comparisons against BSF happen in squared-distance space, so
        # the factor is applied to the (linear) lower bound and the product
        # squared once — never squared twice.
        self.prune_factor = 1.0 + config.epsilon
        self.pq: list[tuple[float, int, Node]] = []
        self._tiebreak = itertools.count()
        self.query_paa = paa(self.query, sax_space.segments)
        #: Survivor mask of the signature screen (None: tier off); phase
        #: 3 intersects per-leaf row masks with slices of it.
        self.sig_mask: Optional[np.ndarray] = None

    def scaled_squared(self, bound: float) -> float:
        """A linear-space lower bound, ε-scaled and squared for pruning.

        Comparing this against ``results.bsf_squared`` is the squared-space
        equivalent of comparing ``bound * prune_factor`` against ``bsf``
        (both sides are non-negative, so squaring preserves the order).
        """
        scaled = bound * self.prune_factor
        return scaled * scaled

    # -- priority queue helpers ---------------------------------------------

    def push(self, node: Node, bound: float) -> None:
        heapq.heappush(self.pq, (bound, next(self._tiebreak), node))

    def pop(self) -> tuple[float, Node]:
        bound, _, node = heapq.heappop(self.pq)
        return bound, node

    # -- leaf access ----------------------------------------------------------

    def read_leaf(self, leaf: Node) -> np.ndarray:
        """Raw series of a leaf from LRDFile (counted)."""
        data = self.lrd.read_range(leaf.file_position, leaf.size)
        self.profile.series_accessed += leaf.size
        return data

    def scan_leaf(self, leaf: Node) -> None:
        """Read one leaf and refine the result set with real distances.

        Refinement runs the blocked early-abandoning kernel against the
        live BSF²: a candidate abandoned here has distance ≥ the BSF at
        scan time ≥ the final BSF (it decreases monotonically), so it
        could never have entered the top-k — results are identical to a
        full evaluation, only the point comparisons are saved.  The ε
        factor never applies here: it tightens lower-bound pruning, not
        real-distance refinement.
        """
        data = self.read_leaf(leaf)
        squared, compared = early_abandon_squared(
            self.query, data, self.results.bsf_squared
        )
        self.profile.distance_computations += leaf.size
        self.profile.points_compared += compared
        self.profile.points_total += leaf.size * self.query.shape[0]
        positions = leaf.file_position + np.arange(leaf.size, dtype=np.int64)
        # Abandoned rows report inf; the batch update's pre-filter drops
        # them without ever taking the result-set lock.
        self.results.update_batch_squared(squared, positions)

    def finish_profile(self) -> None:
        """Fill the per-query cache counters from LRDFile's leaf cache."""
        cache = self.lrd.cache
        if cache is not None and self._cache_before is not None:
            delta = cache.snapshot() - self._cache_before
            self.profile.cache_hits = delta.hits
            self.profile.cache_misses = delta.misses


def approximate_knn(
    query: np.ndarray,
    k: int,
    config: HerculesConfig,
    root: Node,
    lrd: SeriesFile,
    lsd_words: np.ndarray,
    sax_space: SaxSpace,
    num_leaves: int,
    num_series: int,
    results: Optional[ResultSet] = None,
) -> QueryAnswer:
    """Approximate k-NN: Algorithm 11 alone (phase 1, then stop).

    This is the approximate-answering mode the paper's conclusion points
    to: the best-first descent visits at most ``L_max`` leaves and the
    best-so-far answers become the result.  Answers are not guaranteed
    exact; recall grows with ``L_max`` (measured in the benchmark suite).
    ``results`` optionally supplies the result set searched into — shard
    coordinators pass a linked set sharing the global BSF².
    """
    started = time.perf_counter()
    io_before = lrd.stats.snapshot()
    state = _SearchState(
        query, k, config, lrd, lsd_words, sax_space, num_leaves, num_series,
        results=results,
    )
    with obs.span("query", k=k, mode="approximate") as sp:
        with obs.span("query.phase1.approx"):
            _approx_knn(state, root)
        distances, positions = state.results.items()
        state.profile.path = "approximate"
        state.profile.time_total = time.perf_counter() - started
        state.profile.io = lrd.stats.snapshot() - io_before
        state.finish_profile()
        obs.observe_search(state.profile.time_total)
        sp.set_attrs(
            path=state.profile.path,
            leaves_visited=state.profile.approx_leaves,
            series_accessed=state.profile.series_accessed,
        )
    return QueryAnswer(distances, positions, state.profile)


def progressive_knn(
    query: np.ndarray,
    k: int,
    config: HerculesConfig,
    root: Node,
    lrd: SeriesFile,
    lsd_words: np.ndarray,
    sax_space: SaxSpace,
    num_leaves: int,
    num_series: int,
):
    """Progressive k-NN: yield improving answers until the exact result.

    The paper motivates indexes with interactive analysis (Section 4.1's
    asynchronous workloads; its refs [27, 28] study progressive answers
    explicitly).  This generator exposes that interaction model: it
    yields a :class:`QueryAnswer` snapshot after every leaf visited by
    the best-first descent (each strictly refining the last), and a
    final *exact* answer produced by the standard pipeline.  The
    consumer may stop iterating at any point and keep the best answer
    seen so far.

    Snapshots carry ``profile.path == "progressive-partial"``; the last
    yield carries the full exact profile.
    """
    started = time.perf_counter()
    io_before = lrd.stats.snapshot()
    state = _SearchState(
        query, k, config, lrd, lsd_words, sax_space, num_leaves, num_series
    )
    state.push(root, root.lower_bound(state.sketch))
    visited = 0
    while state.pq:
        bound, node = state.pop()
        if state.scaled_squared(bound) > state.results.bsf_squared:
            state.push(node, bound)
            break
        if node.is_leaf:
            state.scan_leaf(node)
            visited += 1
            distances, positions = state.results.items()
            snapshot = QueryProfile(
                path="progressive-partial",
                approx_leaves=visited,
                series_accessed=state.profile.series_accessed,
                distance_computations=state.profile.distance_computations,
                points_compared=state.profile.points_compared,
                points_total=state.profile.points_total,
                time_total=time.perf_counter() - started,
            )
            yield QueryAnswer(distances, positions, snapshot)
        else:
            for child in (node.left, node.right):
                child_bound = child.lower_bound(state.sketch)
                if state.scaled_squared(child_bound) < state.results.bsf_squared:
                    state.push(child, child_bound)
    state.profile.approx_leaves = visited

    # The descent above ran to pruning-exhaustion, which already makes
    # the current answers exact: the remaining phases would find nothing
    # (every queue entry was pruned).  Emit the final answer with the
    # exact-path profile for uniformity.
    distances, positions = state.results.items()
    state.profile.path = "progressive-final"
    state.profile.time_total = time.perf_counter() - started
    state.profile.io = lrd.stats.snapshot() - io_before
    state.finish_profile()
    yield QueryAnswer(distances, positions, state.profile)


# ---------------------------------------------------------------------------
# Phase 1: Algorithm 11 (Approx-kNN)
# ---------------------------------------------------------------------------


def _approx_knn(state: _SearchState, root: Node) -> None:
    state.push(root, root.lower_bound(state.sketch))
    visited = 0
    while visited < state.config.l_max and state.pq:
        bound, node = state.pop()
        if state.scaled_squared(bound) > state.results.bsf_squared:
            # Everything else in the queue is at least this far: stop.
            state.push(node, bound)  # keep it for phase 2's termination
            break
        if node.is_leaf:
            state.scan_leaf(node)
            visited += 1
        else:
            for child in (node.left, node.right):
                child_bound = child.lower_bound(state.sketch)
                if state.scaled_squared(child_bound) < state.results.bsf_squared:
                    state.push(child, child_bound)
    state.profile.approx_leaves = visited


# ---------------------------------------------------------------------------
# Phase 2: Algorithm 12 (FindCandidateLeaves)
# ---------------------------------------------------------------------------


def _find_candidate_leaves(state: _SearchState) -> list[tuple[Node, float]]:
    # BSF² is fixed for this phase; no distances are computed here.
    bsf_squared = state.results.bsf_squared
    lclist: list[tuple[Node, float]] = []
    while state.pq:
        bound, node = state.pop()
        if state.scaled_squared(bound) > bsf_squared:
            break  # priority order: all remaining nodes prune too
        if node.is_leaf:
            lclist.append((node, bound))
        else:
            for child in (node.left, node.right):
                child_bound = child.lower_bound(state.sketch)
                if state.scaled_squared(child_bound) < bsf_squared:
                    state.push(child, child_bound)
    lclist.sort(key=lambda pair: pair[0].file_position)
    return lclist
