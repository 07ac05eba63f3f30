"""Micro-benchmarks of index-level operations.

Not a paper figure: construction throughput of each index and the cost
of a single Hercules query phase pipeline, measured in isolation.
"""

from __future__ import annotations

import pytest

from repro.baselines import DSTreeConfig, DSTreeIndex, ParisConfig, ParisIndex
from repro.core import HerculesConfig, HerculesIndex
from repro.workloads.generators import random_walks

from .conftest import scaled


@pytest.fixture(scope="module")
def corpus():
    return random_walks(scaled(5_000), 64, seed=3)


@pytest.fixture(scope="module")
def queries():
    return random_walks(5, 64, seed=4)


def _hercules_config(num_series: int) -> HerculesConfig:
    return HerculesConfig(
        leaf_capacity=100,
        num_build_threads=4,
        db_size=512,
        flush_threshold=1,
        l_max=4,
    )


def test_build_hercules(benchmark, corpus):
    def build():
        index = HerculesIndex.build(corpus, _hercules_config(corpus.shape[0]))
        index.close()

    benchmark.pedantic(build, rounds=3, iterations=1)


def test_build_hercules_sequential(benchmark, corpus):
    def build():
        config = HerculesConfig(
            leaf_capacity=100,
            num_build_threads=1,
            flush_threshold=1,
            db_size=512,
        )
        index = HerculesIndex.build(corpus, config)
        index.close()

    benchmark.pedantic(build, rounds=3, iterations=1)


def test_build_dstree(benchmark, corpus):
    def build():
        index = DSTreeIndex.build(corpus, DSTreeConfig(leaf_capacity=100))
        index.close()

    benchmark.pedantic(build, rounds=3, iterations=1)


def test_build_paris(benchmark, corpus):
    def build():
        ParisIndex.build(corpus, ParisConfig(leaf_capacity=20))

    benchmark.pedantic(build, rounds=3, iterations=1)


def test_hercules_query(benchmark, corpus, queries):
    index = HerculesIndex.build(corpus, _hercules_config(corpus.shape[0]))

    def run():
        for query in queries:
            index.knn(query, k=10)

    benchmark.pedantic(run, rounds=3, iterations=1)
    index.close()


def test_dstree_query(benchmark, corpus, queries):
    index = DSTreeIndex.build(corpus, DSTreeConfig(leaf_capacity=100))

    def run():
        for query in queries:
            index.knn(query, k=10)

    benchmark.pedantic(run, rounds=3, iterations=1)
    index.close()
