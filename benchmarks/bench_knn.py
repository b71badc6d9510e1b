"""k-NN search cost across structures.

The paper lists nearest/k-nearest queries among the similarity-query
variants (section 2) and cites [Chi94] for vp-tree k-NN; this bench
measures the distance computations of the k-NN search on the clustered
workload, where locality makes k-NN tractable.  The vp-tree expands one
tree level per batched round; the mvp-tree keeps a frontier ordered by
lower bound, descends to the nearest leaf first, and then expands only
the near half of the admitted bound window per round (see
``repro.indexes.kernels``).
"""

import numpy as np

from repro import GNAT, GHTree, MVPTree, VPTree
from repro.datasets import clustered_vectors
from repro.metric import L2, CountingMetric


def test_knn_costs(benchmark):
    data = clustered_vectors(40, 75, dim=20, rng=0)  # n = 3000
    # Queries near the data (perturbed members): the realistic k-NN case.
    rng = np.random.default_rng(1)
    queries = [
        data[int(rng.integers(len(data)))] + rng.normal(0, 0.05, 20)
        for __ in range(15)
    ]
    ks = (1, 10, 50)

    builders = {
        "vpt(2)": lambda m: VPTree(data, m, m=2, rng=0),
        "mvpt(3,80)": lambda m: MVPTree(data, m, m=3, k=80, p=5, rng=0),
        "gh-tree": lambda m: GHTree(data, m, rng=0),
        "gnat(8)": lambda m: GNAT(data, m, degree=8, rng=0),
    }

    def measure():
        rows = {}
        for name, build in builders.items():
            counting = CountingMetric(L2())
            index = build(counting)
            counting.reset()
            per_k = {}
            for k in ks:
                for query in queries:
                    index.knn_search(query, k)
                per_k[k] = counting.reset() / len(queries)
            rows[name] = per_k
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    benchmark.extra_info["table"] = {
        name: {str(k): round(v, 1) for k, v in per_k.items()}
        for name, per_k in rows.items()
    }

    print(f"\nk-NN distance computations per query (n={len(data)}):")
    print(f"{'structure':<12}" + "".join(f"k={k:<10}" for k in ks))
    for name, per_k in rows.items():
        print(f"{name:<12}" + "".join(f"{per_k[k]:<12.1f}" for k in ks))

    for name, per_k in rows.items():
        # Larger k never gets cheaper.
        costs = [per_k[k] for k in ks]
        assert costs == sorted(costs)
        # And every structure beats the brute-force bound.
        assert per_k[1] < len(data)
