"""Brute-force float64 k-NN oracle and the tie-aware answer check.

Hercules returns LRDFile positions, which are not dataset rows, so an
answer is judged by its distances: the sorted k distances must equal the
oracle's, and each returned position must hold a series at exactly the
reported distance from the query.  Equal distances at the k-th place may
resolve to either row; comparing distances accepts both.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

#: Relative and absolute tolerance on distances.  Oracle and index both
#: sum float64 squared differences of the same float32 values, so any
#: genuine disagreement is many orders of magnitude larger.
RTOL = 1e-9
ATOL = 1e-9


def exact_topk(
    data: np.ndarray,
    queries: np.ndarray,
    k: int,
    margin: int = 8,
    query_chunk: int = 64,
    row_chunk: int = 8192,
) -> np.ndarray:
    """Sorted k smallest Euclidean distances of every query, shape (Q, k).

    A float64 GEMM expansion shortlists ``k + margin`` rows per query in
    bounded memory; the shortlist is then re-evaluated by summing squared
    differences, the same arithmetic the index's kernels use.
    """
    count = data.shape[0]
    keep = min(count, k + margin)
    out = np.empty((queries.shape[0], min(k, count)))
    for qs in range(0, queries.shape[0], query_chunk):
        block = queries[qs : qs + query_chunk].astype(np.float64)
        block_norms = np.einsum("ij,ij->i", block, block)
        best_d = np.empty((block.shape[0], 0))
        best_i = np.empty((block.shape[0], 0), dtype=np.int64)
        for rs in range(0, count, row_chunk):
            rows = data[rs : rs + row_chunk].astype(np.float64)
            dist = (
                block_norms[:, None]
                + np.einsum("ij,ij->i", rows, rows)[None, :]
                - 2.0 * (block @ rows.T)
            )
            best_d = np.concatenate([best_d, dist], axis=1)
            best_i = np.concatenate(
                [best_i, np.broadcast_to(np.arange(rs, rs + rows.shape[0]), dist.shape)],
                axis=1,
            )
            if best_d.shape[1] > keep:
                part = np.argpartition(best_d, keep - 1, axis=1)[:, :keep]
                best_d = np.take_along_axis(best_d, part, axis=1)
                best_i = np.take_along_axis(best_i, part, axis=1)
        for j in range(block.shape[0]):
            diff = data[best_i[j]].astype(np.float64) - block[j]
            exact = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            out[qs + j] = np.sort(exact)[: out.shape[1]]
    return out


def check_answer(
    query: np.ndarray,
    distances: np.ndarray,
    positions: np.ndarray,
    expected: np.ndarray,
    fetch: Callable[[int], np.ndarray],
) -> Optional[str]:
    """Why one answer is wrong, or None when it matches the oracle."""
    distances = np.asarray(distances, dtype=np.float64)
    positions = np.asarray(positions)
    if distances.shape != expected.shape or positions.shape != expected.shape:
        return f"{distances.shape[0]} answers, expected {expected.shape[0]}"
    if not np.allclose(np.sort(distances), expected, rtol=RTOL, atol=ATOL):
        worst = float(np.max(np.abs(np.sort(distances) - expected)))
        return f"distances differ from brute force by up to {worst:.3g}"
    if np.unique(positions).shape[0] != positions.shape[0]:
        return "the same position is returned twice"
    q = np.asarray(query, dtype=np.float64)
    stored = np.array(
        [np.sqrt(np.sum((fetch(int(p)).astype(np.float64) - q) ** 2)) for p in positions]
    )
    if not np.allclose(stored, distances, rtol=RTOL, atol=ATOL):
        return "a returned position does not hold a series at its reported distance"
    return None


def find_failures(
    queries: np.ndarray,
    answers: Sequence[object],
    expected: np.ndarray,
    fetch: Callable[[int], np.ndarray],
) -> list[tuple[int, str]]:
    """(query index, reason) for every wrong or missing answer.

    ``answers[i]`` is a ``(distances, positions)`` pair, or an exception
    when the call for query ``i`` raised.
    """
    failures = []
    for i, answer in enumerate(answers):
        if isinstance(answer, BaseException):
            failures.append((i, f"raised {type(answer).__name__}: {answer}"))
            continue
        reason = check_answer(queries[i], answer[0], answer[1], expected[i], fetch)
        if reason is not None:
            failures.append((i, reason))
    return failures
