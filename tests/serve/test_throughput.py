"""Serving-throughput benchmark: overlap, stats identity, CLI plumbing.

With >= 2 workers over an expensive metric the engine evaluates shard
units concurrently, while answers and distance-computation totals stay
identical to the sequential loop.  Overlap is proven with a barrier the
workers must meet at, not with wall-clock timings a loaded host skews.
"""

import json
import threading
import time

import numpy as np
import pytest

from repro.bench import throughput
from repro.bench.throughput import (
    SimulatedCostMetric,
    make_batch,
    run_throughput,
    serve_main,
)
from repro.metric import L2


class TestSimulatedCostMetric:
    def test_values_are_unchanged(self):
        slow = SimulatedCostMetric(L2(), 0.0)
        a, b = np.zeros(3), np.ones(3)
        assert slow.distance(a, b) == L2().distance(a, b)
        xs = np.random.default_rng(0).random((4, 3))
        np.testing.assert_allclose(
            slow.batch_distance(xs, b), L2().batch_distance(xs, b)
        )

    def test_scalar_call_sleeps(self):
        slow = SimulatedCostMetric(L2(), 0.01)
        start = time.perf_counter()
        slow.distance(np.zeros(2), np.ones(2))
        assert time.perf_counter() - start >= 0.01

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError, match="cost_s"):
            SimulatedCostMetric(L2(), -1.0)


class TestMakeBatch:
    def test_alternates_kinds(self):
        batch = make_batch(6, 4, 0.3, 5, np.random.default_rng(0))
        assert [q.kind for q in batch] == ["range", "knn"] * 3
        assert batch[0].radius == 0.3
        assert batch[1].k == 5


class TestRunThroughput:
    def test_results_identical_and_stats_verified(self):
        # run_throughput internally asserts stats == CountingMetric on
        # both the sequential and the concurrent path.
        result = run_throughput(
            n=300, dim=6, n_shards=3, workers=3, n_queries=12, seed=1
        )
        assert result.results_identical
        assert result.n_degraded == 0
        assert result.engine_distance_calls == result.sequential_distance_calls
        assert result.engine_distance_calls > 0

    def test_two_workers_overlap_shard_units(self, monkeypatch):
        # The first two evaluations made off the main thread (i.e. by
        # engine workers; the sequential baseline runs on the main
        # thread) must meet at a two-party barrier.  They can only meet
        # if two shard units are inside the metric at the same time; a
        # serial engine breaks the barrier at its timeout instead.
        barrier = threading.Barrier(2, timeout=30.0)
        lock = threading.Lock()
        arrivals, met = [], []

        class Rendezvous(SimulatedCostMetric):
            def _meet(self):
                if threading.current_thread() is threading.main_thread():
                    return
                with lock:
                    arrivals.append(None)
                    armed = len(arrivals) <= 2
                if armed:
                    barrier.wait()
                    with lock:
                        met.append(None)

            def distance(self, a, b):
                self._meet()
                return super().distance(a, b)

            def batch_distance(self, xs, y):
                self._meet()
                return super().batch_distance(xs, y)

        monkeypatch.setattr(throughput, "SimulatedCostMetric", Rendezvous)
        result = run_throughput(
            n=64,
            dim=4,
            n_shards=2,
            workers=2,
            backend="linear",
            n_queries=16,
            seed=0,
            simulated_cost_s=200e-6,
        )
        assert not barrier.broken
        assert len(met) == 2
        assert result.results_identical
        assert result.n_degraded == 0

    def test_to_dict_and_report_are_consistent(self):
        result = run_throughput(
            n=120, dim=4, n_shards=2, workers=2, n_queries=4, seed=2
        )
        payload = result.to_dict()
        assert payload["results_identical"] is True
        assert payload["speedup"] == result.speedup
        assert "results identical" in result.report()


class TestServeBenchCLI:
    def test_text_output(self, capsys):
        code = serve_main(
            ["--n", "200", "--dim", "4", "--shards", "2", "--workers", "2",
             "--queries", "6"]
        )
        assert code == 0
        assert "speedup" in capsys.readouterr().out

    def test_json_output(self, capsys):
        code = serve_main(
            ["--n", "200", "--dim", "4", "--shards", "2", "--workers", "2",
             "--queries", "6", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["results_identical"] is True
        assert payload["n_shards"] == 2
