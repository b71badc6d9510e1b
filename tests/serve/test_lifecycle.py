"""RebuildCoordinator: churn accounting, rolling swaps, rebalancing.

Complements the churn chaos campaign (randomised, end-to-end) with
deterministic unit coverage: the churn ratio arithmetic, the threshold
and floor gates, epoch bumps per rolled replica, split/merge triggers,
and the background-thread driver.
"""

import threading
import time

import numpy as np
import pytest

from repro import LinearScan, Neighbor
from repro.check.invariants import verify_shard_manager
from repro.metric import L2
from repro.serve import RebuildCoordinator, ShardManager


@pytest.fixture()
def deployment(uniform_data):
    objects = uniform_data[:60]
    manager = ShardManager(
        objects, L2(), n_shards=3, backend="vpt", rng=2,
        replication_factor=2,
    )
    ledger = {gid: np.asarray(row) for gid, row in enumerate(objects)}
    return manager, ledger


def assert_exact(manager, ledger, queries, *, radius=0.6, k=6):
    gids = manager.live_ids()
    oracle = LinearScan(np.array([ledger[g] for g in gids]), L2())
    for query in queries:
        want = sorted(gids[i] for i in oracle.range_search(query, radius))
        assert manager.range_search(query, radius) == want
        assert manager.knn_search(query, k) == [
            Neighbor(n.distance, gids[n.id]) for n in oracle.knn_search(query, k)
        ]


class TestConstruction:
    def test_rejects_builderless_manager(self, deployment):
        manager, _ = deployment
        manager._builder = None
        with pytest.raises(TypeError, match="builder"):
            RebuildCoordinator(manager)

    def test_rejects_nonpositive_threshold(self, deployment):
        manager, _ = deployment
        with pytest.raises(ValueError, match="churn_threshold"):
            RebuildCoordinator(manager, churn_threshold=0.0)


class TestChurnAccounting:
    def test_shard_churn_counts_memtable_and_tombstones(self, deployment):
        manager, ledger = deployment
        coordinator = RebuildCoordinator(manager, rng=0)
        assert coordinator.shard_churn(0) == 0.0
        # One memtable row (vpt bases cannot absorb) and one tombstone:
        # live goes 20 -> 21 -> 20, churn = (1 + 1) / 20.
        row = np.random.default_rng(1).random(10)
        gid = manager.insert(row)
        ledger[gid] = row
        assert gid % 3 == 0
        manager.delete(0)
        assert coordinator.shard_churn(0) == pytest.approx(2 / 20)
        assert coordinator.shard_churn(1) == 0.0

    def test_min_churn_floor_gates_small_shards(self, deployment):
        manager, ledger = deployment
        coordinator = RebuildCoordinator(
            manager, churn_threshold=0.05, min_churn=4, rng=0
        )
        manager.delete(0)
        manager.delete(3)
        # Churn ratio 2/18 > 0.05 but only 2 pending entries: floored.
        assert coordinator.churned_shards() == []
        manager.delete(6)
        manager.delete(9)
        assert coordinator.churned_shards() == [0]


class TestRollingRebuild:
    def test_rebuild_drains_churn_and_bumps_epochs(self, deployment):
        manager, ledger = deployment
        coordinator = RebuildCoordinator(manager, rng=3)
        rng = np.random.default_rng(4)
        for _ in range(6):
            row = rng.random(10)
            ledger[manager.insert(row)] = row
        for victim in (1, 4, 7):
            manager.delete(victim)
            del ledger[victim]
        before = manager.epoch(1)
        epochs = coordinator.rebuild_shard(1)
        # One swap per replica, each bumping the shard epoch.
        assert epochs == [before + 1, before + 2]
        assert manager.memtable(1) == []
        for replica in range(2):
            _ids, dead = manager.slot_state(1, replica)
            assert dead == set()
        assert verify_shard_manager(manager) == []
        assert_exact(manager, ledger, [ledger[2], ledger[11]])

    def test_rebuild_of_empty_shard_is_a_noop(self, uniform_data):
        manager = ShardManager(
            uniform_data[:2], L2(), n_shards=4, backend="linear", rng=0
        )
        coordinator = RebuildCoordinator(manager, rng=0)
        empty = next(
            s for s, ids in enumerate(manager.shard_ids) if not ids
        )
        assert coordinator.rebuild_shard(empty) == []

    def test_run_once_rebuilds_exactly_the_churned_shards(self, deployment):
        manager, ledger = deployment
        coordinator = RebuildCoordinator(
            manager, churn_threshold=0.1, min_churn=2, rng=5
        )
        for victim in (0, 3, 6, 9):
            manager.delete(victim)
            del ledger[victim]
        summary = coordinator.run_once()
        assert summary["split"] is None and summary["merged"] is None
        assert list(summary["rebuilt"]) == [0]
        assert len(summary["rebuilt"][0]) == 2
        assert coordinator.churned_shards() == []


class TestRebalancing:
    @pytest.fixture()
    def skewed(self, uniform_data):
        """Contiguous shards of 20/20/20, starved down to 20/4/4."""
        objects = uniform_data[:60]
        manager = ShardManager(
            objects, L2(), n_shards=3, backend="vpt",
            assignment="contiguous", rng=6, replication_factor=2,
        )
        ledger = {gid: np.asarray(row) for gid, row in enumerate(objects)}
        for shard in (1, 2):
            for victim in list(manager.shard_ids[shard])[:16]:
                manager.delete(victim)
                del ledger[victim]
        return manager, ledger

    def test_split_triggers_on_size_skew(self, skewed):
        manager, ledger = skewed
        coordinator = RebuildCoordinator(
            manager, split_factor=1.5, min_split_size=8, merge_factor=0,
            rng=7,
        )
        actions = coordinator.maybe_rebalance()
        assert actions["split"] == (0, 3)
        assert actions["merged"] is None
        # Both halves were rebuilt on the spot: no memtable residue.
        assert manager.memtable(0) == [] and manager.memtable(3) == []
        sizes = manager.shard_sizes()
        assert sizes[0] == 10 and sizes[3] == 10
        assert verify_shard_manager(manager) == []
        assert_exact(manager, ledger, [ledger[2], ledger[57]])

    def test_merge_folds_the_two_smallest(self, skewed):
        manager, ledger = skewed
        coordinator = RebuildCoordinator(
            manager, split_factor=100.0, merge_factor=2.0, rng=8
        )
        actions = coordinator.maybe_rebalance()
        assert actions["split"] is None
        assert actions["merged"] == (1, 2)
        sizes = manager.shard_sizes()
        assert sizes[1] == 0 and sizes[2] == 8
        assert verify_shard_manager(manager) == []
        assert_exact(manager, ledger, [ledger[2], ledger[57]])

    def test_balanced_deployment_is_untouched(self, deployment):
        manager, _ = deployment
        coordinator = RebuildCoordinator(manager, rng=9)
        assert coordinator.maybe_rebalance() == {"split": None, "merged": None}
        assert manager.n_shards == 3


class TestBackgroundDriver:
    def test_start_twice_raises(self, deployment):
        manager, _ = deployment
        coordinator = RebuildCoordinator(manager, rng=0)
        coordinator.start(interval_s=5.0)
        try:
            with pytest.raises(RuntimeError, match="already started"):
                coordinator.start()
        finally:
            coordinator.stop()

    def test_stop_is_idempotent(self, deployment):
        manager, _ = deployment
        coordinator = RebuildCoordinator(manager, rng=0)
        coordinator.start(interval_s=5.0)
        coordinator.stop()
        coordinator.stop()

    def test_background_pass_drains_churn(self, deployment):
        manager, ledger = deployment
        coordinator = RebuildCoordinator(
            manager, churn_threshold=0.05, min_churn=2, rng=1
        )
        for victim in (0, 3, 6):
            manager.delete(victim)
            del ledger[victim]
        coordinator.start(interval_s=0.02)
        try:
            deadline = time.monotonic() + 5.0
            while coordinator.churned_shards() and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            coordinator.stop()
        assert coordinator.churned_shards() == []
        assert verify_shard_manager(manager) == []
        assert_exact(manager, ledger, [ledger[1], ledger[4]])

    def test_failed_pass_is_recorded_and_the_thread_keeps_running(
        self, deployment
    ):
        manager, _ = deployment
        coordinator = RebuildCoordinator(manager, rng=0)
        calls = []
        recovered = threading.Event()

        def flaky_run_once():
            calls.append(None)
            if len(calls) == 1:
                raise RuntimeError("disk full during rebuild")
            recovered.set()
            return {}

        coordinator.run_once = flaky_run_once
        assert (coordinator.error_count, coordinator.last_error) == (0, None)
        coordinator.start(interval_s=0.01)
        try:
            assert recovered.wait(timeout=10.0)
            assert coordinator._thread.is_alive()
        finally:
            coordinator.stop()
        assert coordinator.error_count == 1
        error = coordinator.last_error
        assert (error.type, error.message) == (
            "RuntimeError",
            "disk full during rebuild",
        )
        assert "flaky_run_once" in error.traceback
        assert error.traceback.rstrip().endswith(
            "RuntimeError: disk full during rebuild"
        )
