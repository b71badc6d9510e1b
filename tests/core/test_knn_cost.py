"""Exact distance-count gate for mvp/gmvp-tree k-NN.

The paper's cost model is distance computations per query (section 5),
and the count is deterministic for a fixed build seed and query set, so
it can be gated exactly.  The batched exact kernels must stay close to
the count of a strictly one-node-at-a-time best-first search (the
unbudgeted ``approx_tree_knn``), which is the order that tightens the
k-th-distance bound fastest.  A level-synchronous wave order pays about
2.7-2.9x that count on these trees and fails the gate.
"""

import numpy as np
import pytest

from repro import LinearScan, MVPTree
from repro.core.gmvptree import GMVPTree
from repro.indexes import kernels
from repro.metric import L2, CountingMetric
from repro.obs import QueryStats

K = 10
#: Allowed mean-count ratio against single-pop best-first.
MAX_RATIO = 1.25

BUILDERS = {
    "mvpt": lambda objects, metric: MVPTree(objects, metric, m=3, k=13, p=4, rng=0),
    "gmvpt": lambda objects, metric: GMVPTree(objects, metric, rng=0),
}


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(0)
    data = rng.random((5000, 6))
    data[1000:1040] = data[0]  # a block of duplicates: ties at distance 0
    queries = [rng.random(6) for _ in range(45)]
    queries += [data[0], data[1], data[1020], data[5], data[4999]]
    return data, queries


@pytest.fixture(scope="module", params=sorted(BUILDERS))
def tree(request, workload):
    data, _ = workload
    counting = CountingMetric(L2())
    return request.param, BUILDERS[request.param](data, counting), counting


def _knn_count(counting, search):
    counting.reset()
    answer = search()
    return answer, counting.count


def test_exact_answers_match_brute_force_and_best_first(tree, workload):
    family, index, counting = tree
    data, queries = workload
    oracle = LinearScan(data, L2())
    ours = theirs = 0
    for query in queries:
        stats = QueryStats()
        got, spent = _knn_count(
            counting, lambda: index.knn_search(query, K, stats=stats)
        )
        assert stats.distance_calls == spent
        reference, reference_spent = _knn_count(
            counting, lambda: kernels.approx_tree_knn(index, family, query, K)[0]
        )
        assert got == oracle.knn_search(query, K) == reference
        ours += spent
        theirs += reference_spent
    assert ours <= MAX_RATIO * theirs, (ours / len(queries), theirs / len(queries))


@pytest.mark.parametrize("epsilon", [0.25, 1.0])
def test_relaxed_answers_keep_the_guarantee_and_the_count(tree, workload, epsilon):
    family, index, counting = tree
    data, queries = workload
    oracle = LinearScan(data, L2())
    ours = theirs = 0
    for query in queries:
        got, spent = _knn_count(
            counting, lambda: index.knn_search(query, K, epsilon=epsilon)
        )
        _, reference_spent = _knn_count(
            counting,
            lambda: kernels.approx_tree_knn(index, family, query, K, epsilon=epsilon),
        )
        truth = oracle.knn_search(query, K)
        assert len(got) == K and len({n.id for n in got}) == K
        assert got[-1].distance <= (1 + epsilon) * truth[-1].distance + 1e-12
        for neighbor in got:
            assert neighbor.distance == pytest.approx(
                float(np.linalg.norm(data[neighbor.id] - query)), abs=1e-12
            )
        ours += spent
        theirs += reference_spent
    assert ours <= MAX_RATIO * theirs, (ours / len(queries), theirs / len(queries))
