"""Outside-in per-layer trace: wrap layer callables, record self time.

The traced run patches each layer's callable where the query pipeline
looks it up -- a method on its class, or a name imported into a module --
and records every call as a frame on a per-thread stack.  A layer is
credited with its *self* time: the call's duration minus the time of the
wrapped calls nested inside it on the same thread.  The benchmark runs
each query inside a root frame named ``unattributed``, so on the calling
thread the layers' self times and ``unattributed`` partition the query's
wall time exactly.  Calls made on the query's worker threads land in
their own per-thread accumulators: they count as layer busy time, never
as calling-thread wall time.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Iterable, Optional

import numpy as np

#: Root-frame layer: calling-thread time spent in no wrapped layer.
UNATTRIBUTED = "unattributed"
#: Calling-thread time in ``Thread.start``/``join`` of the phase-3/4
#: fan-out: starting the workers and waiting for them.
FANOUT = "fanout"
#: Whole-run frame of every worker thread started while tracing.
WORKER = "worker"

#: An observer sees a wrapped call's positional arguments and result and
#: adds to the thread's named counters.
Observer = Callable[[dict, tuple, object], None]


class LedgerError(AssertionError):
    """The calling thread's self times do not add up to its wall time."""


class _ThreadTally:
    """Frames and totals of one thread (only that thread mutates them)."""

    def __init__(self, ident: int, clock: Callable[[], float]) -> None:
        self.ident = ident
        self.clock = clock
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)


class Ledger:
    """Self-time accounting over patched callables, per thread.

    Use as a context manager: :meth:`patch` targets inside the ``with``
    block; leaving it restores every patched attribute to the exact
    object it held before.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tallies: list[_ThreadTally] = []
        self._patches: list[tuple[object, str, object]] = []
        self.calling_thread = threading.get_ident()

    # -- recording ---------------------------------------------------------

    def _tally(self) -> _ThreadTally:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            ident = threading.get_ident()
            clock = time.perf_counter if ident == self.calling_thread else time.thread_time
            tally = _ThreadTally(ident, clock)
            self._local.tally = tally
            with self._lock:
                self._tallies.append(tally)
        return tally

    def run(self, layer: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a frame credited to ``layer``."""
        tally = self._tally()
        stack = tally.stack
        clock = tally.clock
        frame = [0.0]
        stack.append(frame)
        started = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - started
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
            tally.self_s[layer] += elapsed - frame[0]
            tally.total_s[layer] += elapsed
            tally.calls[layer] += 1

    def patch(
        self,
        owner: object,
        attr: str,
        layer: str,
        observe: Optional[Observer] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording into ``layer``.

        ``attr`` must be defined on ``owner`` itself (a class's own
        method, or a module global), so restoring it puts back the very
        object the pipeline looked up before.
        """
        original = vars(owner)[attr]
        run = self.run

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = run(layer, original, *args, **kwargs)
            if observe is not None:
                observe(self._tally().counts, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every patched attribute, most recent first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Ledger":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- reading -----------------------------------------------------------

    def _sum(self, field: str, key: str, calling_only: bool) -> float:
        with self._lock:
            tallies = list(self._tallies)
        return sum(
            getattr(t, field).get(key, 0)
            for t in tallies
            if not calling_only or t.ident == self.calling_thread
        )

    def self_seconds(self, layer: str, calling_only: bool = False) -> float:
        return self._sum("self_s", layer, calling_only)

    def total_seconds(self, layer: str) -> float:
        return self._sum("total_s", layer, False)

    def calls(self, layer: str) -> int:
        return int(self._sum("calls", layer, False))

    def count(self, name: str) -> float:
        return self._sum("counts", name, False)

    def calling_thread_layers(self) -> dict[str, float]:
        """Self seconds of every layer seen on the calling thread."""
        with self._lock:
            tallies = [t for t in self._tallies if t.ident == self.calling_thread]
        out: dict[str, float] = defaultdict(float)
        for tally in tallies:
            for layer, seconds in tally.self_s.items():
                out[layer] += seconds
        return dict(out)

    def check_adds_up(self, wall_seconds: float, frames: int) -> None:
        """Assert calling-thread self times sum to the measured wall time.

        ``wall_seconds`` is timed outside the root frames; the tolerance
        covers only the wrapper's own entry and exit around each of the
        ``frames`` root calls.
        """
        attributed = sum(self.calling_thread_layers().values())
        tolerance = 1e-3 * wall_seconds + 20e-6 * frames
        if abs(attributed - wall_seconds) > tolerance:
            raise LedgerError(
                f"calling-thread layers sum to {attributed * 1e3:.3f} ms but "
                f"the traced queries took {wall_seconds * 1e3:.3f} ms"
            )


# -- the query pipeline's layers ---------------------------------------------


def _rows_read(counts: dict, args: tuple, result) -> None:
    counts["files.read_calls"] += 1
    counts["files.rows"] += result.shape[0]


def _kernel_single(counts: dict, args: tuple, result) -> None:
    distances, compared = result
    rows = distances.shape[0]
    counts["euclidean.rows"] += rows
    counts["euclidean.points"] += compared
    counts["euclidean.points_total"] += rows * np.shape(args[0])[0]


def _kernel_multi(counts: dict, args: tuple, result) -> None:
    _distances, points = result
    length = np.shape(args[0])[1]
    compared = int(points.sum())
    counts["euclidean.rows"] += compared // length
    counts["euclidean.points"] += compared
    counts["euclidean.points_total"] += compared


def _sax_rows(counts: dict, args: tuple, result) -> None:
    counts["sax.rows"] += np.size(result)


def _screened(counts: dict, args: tuple, result) -> None:
    counts["prefilter.screened"] += result.size
    counts["prefilter.survivors"] += int(np.count_nonzero(result))


def query_layer_targets() -> list[tuple[object, str, str, Optional[Observer]]]:
    """(owner, attribute, layer, observer) for every traced callable."""
    from repro.core import batch_query, query
    from repro.core.node import Node
    from repro.core.prefilter import SignatureArray
    from repro.core.results import ResultSet
    from repro.storage.files import SeriesFile
    from repro.summarization.sax import SaxSpace

    return [
        (Node, "lower_bound", "node.lower_bound", None),
        (SeriesFile, "read_range", "files.read", _rows_read),
        (SeriesFile, "read_positions", "files.read", None),
        (query, "early_abandon_squared", "euclidean.kernel", _kernel_single),
        (batch_query, "early_abandon_squared", "euclidean.kernel", _kernel_single),
        (
            batch_query,
            "early_abandon_squared_multi",
            "euclidean.kernel",
            _kernel_multi,
        ),
        (ResultSet, "update_batch_squared", "results.update", None),
        (SaxSpace, "mindist", "sax.mindist", _sax_rows),
        (SignatureArray, "screen", "prefilter.screen", _screened),
        (SignatureArray, "screen_batch", "prefilter.screen", _screened),
        (batch_query, "_plan_refinement", "batch_query.plan", None),
        (threading.Thread, "start", FANOUT, None),
        (threading.Thread, "join", FANOUT, None),
        (threading.Thread, "run", WORKER, None),
    ]


def install(ledger: Ledger, targets: Iterable[tuple] = ()) -> Ledger:
    """Patch ``targets`` (default: the query pipeline's layers)."""
    for owner, attr, layer, observe in targets or query_layer_targets():
        ledger.patch(owner, attr, layer, observe)
    return ledger
