"""Error propagation from the query phases."""

import numpy as np
import pytest

from repro import HerculesConfig, HerculesIndex

from ..conftest import make_random_walks


@pytest.fixture()
def index(tmp_path):
    data = make_random_walks(500, 32, seed=290)
    config = HerculesConfig(
        leaf_capacity=40,
        num_build_threads=1,
        flush_threshold=1,
        l_max=2,
        sax_segments=8,
        adaptive_thresholds=False,  # force phases 3-4 to always run
    )
    idx = HerculesIndex.build(data, config, directory=tmp_path / "idx")
    yield idx
    idx.close()


class TestQueryWorkerErrors:
    def test_phase3_worker_error_propagates(self, index, monkeypatch):
        # SaxSpace is a frozen dataclass: patch at class level.
        def broken_mindist(self, query_paa, words, length):
            raise RuntimeError("injected mindist failure")

        monkeypatch.setattr(
            index.sax_space.__class__, "mindist", broken_mindist
        )
        query = make_random_walks(1, 32, seed=291)[0]
        with pytest.raises(RuntimeError, match="injected mindist failure"):
            index.knn(query, k=1)

    def test_phase4_read_error_propagates(self, index, monkeypatch):
        from repro.errors import StorageError

        original = index._lrd.read_range
        calls = []

        def broken(position, count):
            # l_max=2: the approximate phase reads at most two leaves;
            # every later read is a phase-4 refinement read.
            calls.append(position)
            if len(calls) > 2:
                raise StorageError("injected read failure")
            return original(position, count)

        monkeypatch.setattr(index._lrd, "read_range", broken)
        query = make_random_walks(1, 32, seed=292)[0]
        with pytest.raises(StorageError, match="injected read failure"):
            index.knn(query, k=1)
        calls.clear()
        with pytest.raises(StorageError, match="injected read failure"):
            index.knn_batch(query[None, :], k=1)

    def test_queries_work_after_a_failed_query(self, index, monkeypatch):
        """A failed query must not poison the index for later ones."""
        query = make_random_walks(1, 32, seed=293)[0]
        original_mindist = index.sax_space.__class__.mindist

        def broken(self, query_paa, words, length):
            raise RuntimeError("one-off failure")

        monkeypatch.setattr(index.sax_space.__class__, "mindist", broken)
        with pytest.raises(RuntimeError):
            index.knn(query, k=1)
        monkeypatch.setattr(index.sax_space.__class__, "mindist", original_mindist)

        answer = index.knn(query, k=1)
        assert np.isfinite(answer.distances[0])
