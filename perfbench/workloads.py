"""The benchmark's three workloads; README.md says why each exists.

Every workload is a closed loop with one client over uniform vectors
under L2.  A step alternates one k-NN query (k = 10) with one range
query whose radius returns about ten objects on average; the churn
workload adds an insert and a delete to each step.  Queries are fresh
points drawn from the seed, never dataset members.

A plain phase measures the end-to-end metrics with tracing off.  The
traced phase replays the same query stream through each public entry
point in turn -- metric, bare index (or ``.rsx`` store), the shards one
by one, the sequential ``ShardManager``, the ``QueryEngine`` -- and logs
one span per layer boundary.  A layer's self time is its time minus the
time of the layer it wraps.
"""

from __future__ import annotations

import copy
import gc
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from harness import (
    Oracle,
    Recorder,
    Span,
    SpanLog,
    TimedMetric,
    attempt,
    check_knn,
    check_range,
    timed,
)
from repro import MVPTree, QueryStats
from repro.metric import L2, CountingMetric
from repro.serve import Query, QueryEngine, RebuildCoordinator, ShardManager
from repro.store import open_index, save_shard_stores, write_store

K = 10
KINDS = ("knn", "range")
SHARDS = 4


@dataclass(frozen=True)
class Shape:
    """Sizes of one workload.

    ``counted`` k-NN and range queries (the first of each phase) define
    the distance-count metrics and guarantee the p95 has at least ten
    samples beyond it; ``traced`` is the same floor for the traced
    phase.  ``setups`` is how many set-ups a run times, on twin
    deployments spread through the timed phase; ``setup_s`` is their
    median.  Short set-ups vary most from one to the next, so they get
    the most samples.
    """

    n: int
    dim: int
    radius: float  # about ten hits per range query (calibrated offline)
    #: Median seconds of the oracle's distance pass on the reference host
    #: (see ``harness.HostScale``).
    ref_scan_s: float
    counted: int = 400
    traced: int = 40
    setups: int = 8
    rebuild_every: int = 20  # churn: steps between coordinator passes
    prechurn: int = 200  # churn: write-only steps before timing starts


SHAPES = {
    "lowdim-library": Shape(n=50_000, dim=6, radius=0.195, ref_scan_s=2.25e-3),
    "highdim-serve": Shape(
        n=20_000, dim=16, radius=0.813, ref_scan_s=1.6e-3, setups=16
    ),
    "churn-serve": Shape(
        n=8_000, dim=6, radius=0.272, ref_scan_s=0.39e-3, traced=120, setups=16
    ),
}


def _stream(seed: int, purpose: int) -> np.random.Generator:
    """Independent deterministic random stream for one input purpose."""
    return np.random.default_rng([seed, purpose])


_DATA, _QUERIES, _INSERTS, _DELETES, _WARM, _BUILD, _REBUILD = range(7)

#: Seed of each workload's corpus and of every index build over it.  The
#: run's ``--seed`` draws the traffic -- queries, inserted rows, deleted
#: ids -- so every run builds the same structure and only the traffic
#: varies; a seed-dependent corpus moved the mean distance counts by
#: about 4% between seeds, which no amount of traffic averages out.
CORPUS_SEED = 0


def _corpus(purpose: int) -> np.random.Generator:
    return _stream(CORPUS_SEED, purpose)


class QueryStream:
    """Fresh uniform query points, Latin-hypercube stratified per block.

    Within each block of ``block`` queries every coordinate takes one
    value from each of ``block`` equal slices of [0, 1).  Each query is
    still uniform, but a block covers the cube evenly, so mean per-query
    costs (which depend strongly on distance to the cube's faces) vary
    far less from seed to seed than with independent draws.
    """

    def __init__(self, seed: int, dim: int, block: int):
        self.rng = _stream(seed, _QUERIES)
        self.dim = dim
        self.block = block
        self.pending: list = []

    def next(self) -> np.ndarray:
        if not self.pending:
            slots = np.stack(
                [self.rng.permutation(self.block) for _ in range(self.dim)], axis=1
            )
            points = (slots + self.rng.random((self.block, self.dim))) / self.block
            self.pending = list(points[::-1])
        return self.pending.pop()


class Workload:
    """Set-up, plain steps and traced steps of one workload."""

    def __init__(self, shape: Shape, seed: int, scratch: Path):
        self.shape = shape
        self.seed = seed
        self.scratch = scratch
        self.points = _corpus(_DATA).random((shape.n, shape.dim))
        self.probes: list[float] = []
        self.oracle = Oracle(self.points, probes=self.probes)
        self.timed_metric: TimedMetric | None = None
        self.extra: dict = {}

    # -- hooks -------------------------------------------------------------

    def setup(self) -> dict:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release the current deployment (before the next set-up)."""

    def prechurn(self) -> None:
        """Bring the deployment to the state timing starts from."""

    def plain_query(self, kind, q):
        """``(answer, distance computations, error)`` through the serving
        path; ``error`` is ``None`` unless the answer came back degraded."""
        raise NotImplementedError

    def traced_setup(self) -> None:
        """Prepare the traced replay (timing metric, lazy arrays built)."""

    def traced_query(self, log: SpanLog, qid: int, kind: str, q):
        """As :meth:`plain_query`, replayed through every layer in turn."""
        raise NotImplementedError

    # -- shared steps ------------------------------------------------------

    def begin_phase(self) -> None:
        self.queries = QueryStream(self.seed, self.shape.dim, self.shape.counted)
        self.rebuilds: list[tuple[int, float]] = []
        self.write_s: dict[str, list[float]] = {"insert": [], "delete": []}

    def current_oracle(self) -> Oracle:
        return self.oracle

    def twin_setup(self) -> dict:
        """Time one set-up of a second deployment beside the live one,
        then release it; returns the set-up's parts and their sum as
        ``setup_s``.  The twin is a shallow copy: ``setup`` rebinds its
        deployment attributes and never mutates the live ones."""
        twin = copy.copy(self)
        gc.collect()
        parts = twin.setup()
        twin.teardown()
        parts["setup_s"] = sum(parts.values())
        return parts

    def check(self, kind, q, value):
        if kind == "knn":
            return check_knn(self.current_oracle(), q, K, value)
        return check_range(self.current_oracle(), q, self.shape.radius, value)

    def step(self, i: int, rec: Recorder, log: SpanLog | None = None) -> None:
        """One k-NN and one range query, plain or (with ``log``) traced."""
        q = self.queries.next()
        for j, kind in enumerate(KINDS):
            if log is None:
                out, seconds, error = attempt(self.plain_query, kind, q)
            else:
                out, seconds, error = attempt(
                    self.traced_query, log, 2 * i + j, kind, q
                )
            dists = scan_s = None
            if error is None:
                value, dists, error = out
                if error is None:
                    error, scan_s = self.check(kind, q, value)
            rec.op(kind, seconds, error, dists=dists, scan_s=scan_s)

    def index_span(self, log, qid, kind, parent, search, *args):
        """Bare-index call with stats and metric timing: the index span."""
        tm = self.timed_metric
        calls, rows, metric_s = tm.snapshot()
        stats = QueryStats()
        tm.active = True
        start = time.perf_counter()
        out = search(*args, stats=stats)
        end = time.perf_counter()
        tm.active = False
        calls1, rows1, metric_s1 = tm.snapshot()
        counts = {
            "calls": calls1 - calls,
            "rows": rows1 - rows,
            "metric_s": metric_s1 - metric_s,
            "dists": stats.distance_calls,
            "nodes": stats.nodes_visited,
            "seen": stats.leaf_points_seen,
            "filtered": stats.leaf_points_filtered,
            "hits": len(out),
        }
        log.spans.append(Span(qid, kind, "index", parent, start, end, counts))
        return out, stats.distance_calls


class LowdimLibrary(Workload):
    """A bare in-process MVPTree: no serving code at all."""

    def setup(self) -> dict:
        self.counter = CountingMetric(L2())
        self.tree, build = timed(self._build, self.counter)
        warm = _corpus(_WARM).random(self.shape.dim)
        _, warm_s = timed(self._warm, self.tree, warm)
        return {"build_s": build, "warm_s": warm_s, "fork_s": 0.0, "write_s": 0.0}

    def _build(self, metric):
        return MVPTree(
            self.points, metric, m=3, k=13, p=4, rng=_corpus(_BUILD)
        )

    def _warm(self, tree, q) -> None:
        # The first search builds the tree's flat kernel arrays lazily.
        tree.knn_search(q, K)
        tree.range_search(q, self.shape.radius)

    def plain_query(self, kind, q):
        # CountingMetric costs one locked increment per metric call; the
        # tree makes about six calls per query, so it does not show.
        self.counter.reset()
        if kind == "knn":
            value = self.tree.knn_search(q, K)
        else:
            value = self.tree.range_search(q, self.shape.radius)
        return value, self.counter.reset(), None

    def traced_setup(self) -> None:
        # The traced index layer is the same tree built again over the
        # timing metric (same corpus, same build seed).  The store layer
        # is that tree written to ``.rsx`` and reopened over the same
        # metric; its span is logged beside the index span, not under it.
        self.timed_metric = TimedMetric(L2())
        self.traced_tree = self._build(self.timed_metric)
        path = self.scratch / "lowdim.rsx"
        _, write_s = timed(write_store, self.traced_tree, path)
        self.store, open_s = timed(open_index, path, self.timed_metric)
        self.extra["store.write_s"] = write_s
        self.extra["store.open_ms"] = open_s * 1e3
        self.extra["store.mib"] = path.stat().st_size / 2**20
        warm = _corpus(_WARM).random(self.shape.dim)
        self._warm(self.traced_tree, warm)
        self._warm(self.store, warm)

    def teardown(self) -> None:
        self.tree = None
        store = getattr(self, "store", None)
        if store is not None:
            store.close()
            self.store = None

    def traced_query(self, log, qid, kind, q):
        search = "knn_search" if kind == "knn" else "range_search"
        arg = K if kind == "knn" else self.shape.radius

        def store_span():
            # With stats, like the index span, so the difference is the
            # store's own cost.
            return log.record(
                qid, kind, "store", None, getattr(self.store, search), q, arg,
                stats=QueryStats(),
            )

        # Alternate the order, so the caches one search warms for the
        # other favour neither layer.
        stored = store_span() if qid // 2 % 2 else None
        value, dists = self.index_span(
            log, qid, kind, None, getattr(self.traced_tree, search), q, arg
        )
        if stored is None:
            stored = store_span()
        error = None
        if sorted(stored) != sorted(value):
            error = "the .rsx store answered differently from the in-memory tree"
        return value, dists, error


def _engine_answer(engine: QueryEngine, kind: str, q, radius: float):
    query = Query.knn(q, K) if kind == "knn" else Query.range(q, radius)
    result = engine.run_batch([query]).results[0]
    error = None
    if result.degraded:
        error = (
            f"degraded: {result.shards_failed} failed, "
            f"{result.shards_timed_out} timed out"
        )
    return result.value, result.stats.distance_calls, error, result


class _Sharded(Workload):
    """Shared traced replay for the two ``ShardManager`` workloads."""

    def bare_index(self, shard):
        """``(index, k)`` the shard layer searches for this shard."""
        raise NotImplementedError

    def traced_query(self, log, qid, kind, q):
        # Replays run top-down on even steps and bottom-up on odd ones, so
        # the caches a replay warms for the next one favour no layer.
        layers = [self._trace_index, self._trace_shards, self._trace_sharding]
        if (qid // 2) % 2:
            layers.reverse()
        for layer in layers:
            layer(log, qid, kind, q)
        value, dists, error, result = log.record(
            qid, kind, "engine", None, _engine_answer, self.engine, kind, q,
            self.shape.radius,
        )
        log.spans[-1].counts["units"] = (
            len(result.stats.shard_outcomes) + result.stats.retries
        )
        return value, dists, error

    def _trace_index(self, log, qid, kind, q):
        for shard in range(self.manager.n_shards):
            index, k = self.bare_index(shard)
            if index is None or k < 1:
                continue
            if kind == "knn":
                self.index_span(log, qid, kind, "shards", index.knn_search, q, k)
            else:
                self.index_span(
                    log, qid, kind, "shards", index.range_search, q,
                    self.shape.radius,
                )

    def _trace_shards(self, log, qid, kind, q):
        start = time.perf_counter()
        for shard in range(self.manager.n_shards):
            if kind == "knn":
                self.manager.shard_knn_search(shard, q, K)
            else:
                self.manager.shard_range_search(shard, q, self.shape.radius)
        log.spans.append(
            Span(qid, kind, "shards", "sharding", start, time.perf_counter(), {})
        )

    def _trace_sharding(self, log, qid, kind, q):
        memtable = sum(
            len(self.manager.memtable(s)) for s in range(self.manager.n_shards)
        )
        if kind == "knn":
            log.record(qid, kind, "sharding", "engine", self.manager.knn_search, q, K)
        else:
            log.record(
                qid, kind, "sharding", "engine", self.manager.range_search, q,
                self.shape.radius,
            )
        log.spans[-1].counts["memtable_rows"] = memtable

    def plain_query(self, kind, q):
        value, dists, error, _ = _engine_answer(
            self.engine, kind, q, self.shape.radius
        )
        return value, dists, error


class HighdimServe(_Sharded):
    """Four vp-tree shards served from ``.rsx`` stores by two worker
    processes; at d = 16 the trees compute almost every distance."""

    def setup(self) -> dict:
        self.manager, build = timed(
            ShardManager,
            self.points,
            L2(),
            n_shards=SHARDS,
            backend="vpt",
            rng=_corpus(_BUILD),
        )
        self.store_dir = Path(tempfile.mkdtemp(dir=self.scratch))
        self.paths, write = timed(save_shard_stores, self.manager, self.store_dir)
        self.engine, fork = timed(
            QueryEngine,
            self.manager,
            executor="process",
            workers=2,
            store_paths=self.paths,
            metric_spec="l2",
        )
        _, warm = timed(self._warm)
        return {"build_s": build, "warm_s": warm, "fork_s": fork, "write_s": write}

    def _warm(self) -> None:
        # Every worker opens every shard store on its first search there;
        # a few fanned-out batches reach each (worker, shard) pair.
        warm = _corpus(_WARM).random((4, self.shape.dim))
        for _ in range(2):
            self.engine.run_batch([Query.knn(q, K) for q in warm])
            self.engine.run_batch([Query.range(q, self.shape.radius) for q in warm])

    def teardown(self) -> None:
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.close()
            self.engine = None
            shutil.rmtree(self.store_dir, ignore_errors=True)
        for store in getattr(self, "stores", {}).values():
            store.close()
        self.stores = {}

    def traced_setup(self) -> None:
        self.timed_metric = TimedMetric(L2())
        self.stores, opens = {}, []
        for (shard, _replica), path in sorted(self.paths.items()):
            self.stores[shard], seconds = timed(open_index, path, self.timed_metric)
            opens.append(seconds)
        self.extra["store.open_ms"] = statistics.median(opens) * 1e3
        self.extra["store.mib"] = (
            sum(Path(p).stat().st_size for p in self.paths.values()) / 2**20
        )
        # Build the in-memory shards' lazy kernel arrays before timing.
        warm = _corpus(_WARM).random(self.shape.dim)
        self.manager.knn_search(warm, K)
        for store in self.stores.values():
            store.knn_search(warm, K)

    def bare_index(self, shard):
        store = self.stores.get(shard)
        return store, None if store is None else min(K, len(store))


#: Churn share at which churn-serve's coordinator rebuilds a shard.  At
#: the default 0.25 a rebuild wave came every ~1,080 steps, about one
#: run's worth, so a run's mean tombstone load -- and its latencies --
#: depended on how many steps the host managed; at 0.05 a wave comes
#: every ~220 steps and a run averages over about five of them.
CHURN_THRESHOLD = 0.05


class ChurnServe(_Sharded):
    """Replicated vp-tree shards behind the thread engine, with an insert,
    a delete and periodic synchronous rebuild passes between queries."""

    def setup(self, metric=None) -> dict:
        self.manager, build = timed(
            ShardManager,
            self.points,
            metric if metric is not None else L2(),
            n_shards=SHARDS,
            backend="vpt",
            replication_factor=2,
            rng=_corpus(_BUILD),
        )
        self.engine, fork = timed(QueryEngine, self.manager, workers=2)
        self.coordinator = RebuildCoordinator(
            self.manager, churn_threshold=CHURN_THRESHOLD, rng=_corpus(_REBUILD)
        )
        _, warm = timed(self._warm)
        self.live_rows = np.empty((self.shape.n + 16, self.shape.dim))
        self.live_rows[: self.shape.n] = self.points
        self.live_ids = np.arange(self.shape.n + 16, dtype=np.int64)
        self.position = {gid: gid for gid in range(self.shape.n)}
        self.n_live = self.shape.n
        return {"build_s": build, "warm_s": warm, "fork_s": fork, "write_s": 0.0}

    def _warm(self) -> None:
        # First search on every replica builds its lazy kernel arrays.
        q = _corpus(_WARM).random(self.shape.dim)
        for shard in range(self.manager.n_shards):
            for replica in range(self.manager.replication_factor):
                self.manager.shard_knn_search(shard, q, K, replica=replica)
                self.manager.shard_range_search(
                    shard, q, self.shape.radius, replica=replica
                )
        self.engine.run_batch([Query.knn(q, K), Query.range(q, self.shape.radius)])

    def teardown(self) -> None:
        engine = getattr(self, "engine", None)
        if engine is not None:
            engine.close()
            self.engine = None

    def current_oracle(self) -> Oracle:
        self.oracle.use(self.live_rows[: self.n_live], self.live_ids[: self.n_live])
        return self.oracle

    # -- the live-set mirror the oracle scans ------------------------------

    def _mirror_insert(self, gid: int, row) -> None:
        if self.n_live == len(self.live_rows):
            rows, ids = self.live_rows, self.live_ids
            self.live_rows = np.concatenate([rows, np.empty_like(rows)])
            self.live_ids = np.concatenate([ids, np.empty_like(ids)])
        self.live_rows[self.n_live] = row
        self.live_ids[self.n_live] = gid
        self.position[gid] = self.n_live
        self.n_live += 1

    def _mirror_delete(self, gid: int) -> None:
        pos = self.position.pop(gid)
        last = self.n_live - 1
        if pos != last:
            moved = int(self.live_ids[last])
            self.live_rows[pos] = self.live_rows[last]
            self.live_ids[pos] = moved
            self.position[moved] = pos
        self.n_live = last

    def prechurn(self) -> None:
        """Write-only steps that bring the memtables near the rebuild
        threshold, so every timed phase starts at the same point of the
        rebuild cycle.  The write
        streams start here and run on through the timed phase."""
        self.inserts = _stream(self.seed, _INSERTS)
        self.deletes = _stream(self.seed, _DELETES)
        for _ in range(self.shape.prechurn):
            self._writes(None)

    def _writes(self, rec: Recorder | None) -> None:
        row = self.inserts.random(self.shape.dim)
        expected = self.manager.next_id()
        gid, seconds, error = attempt(self.manager.insert, row)
        if error is None:
            if gid != expected:
                error = f"insert returned id {gid}, expected {expected}"
            self._mirror_insert(gid, row)
        self._write_done(rec, "insert", seconds, error)
        victim = int(self.live_ids[int(self.deletes.integers(self.n_live))])
        _, seconds, error = attempt(self.manager.delete, victim)
        self._mirror_delete(victim)
        self._write_done(rec, "delete", seconds, error)

    def _write_done(self, rec, kind, seconds, error) -> None:
        if rec is not None:
            rec.op("write", seconds, error)
            self.write_s[kind].append(seconds)

    def _maybe_rebuild(self, i: int, rec: Recorder) -> None:
        if (i + 1) % self.shape.rebuild_every:
            return
        summary, seconds, error = attempt(self.coordinator.run_once)
        rec.busy(seconds)
        if error is not None:
            rec.failure(f"rebuild pass after step {i}: {error}")
            return
        shards = len(summary["rebuilt"])
        if shards:
            self.rebuilds.append((shards, seconds))

    def step(self, i: int, rec: Recorder, log: SpanLog | None = None) -> None:
        super().step(i, rec, log)
        self._writes(rec)
        self._maybe_rebuild(i, rec)

    def traced_setup(self) -> None:
        # A second deployment over the timing metric replays the plain
        # phase's exact history: same builds, same writes, same rebuilds.
        self.teardown()
        self.timed_metric = TimedMetric(L2())
        self.setup(self.timed_metric)
        self.prechurn()

    def bare_index(self, shard):
        index = self.manager.replica(shard, 0)
        if index is None:
            return None, 0
        ids, dead = self.manager.slot_state(shard, 0)
        live = len(self.manager.shard_ids[shard])
        return index, min(min(K, live) + len(dead), len(ids))


WORKLOADS = {
    "lowdim-library": LowdimLibrary,
    "highdim-serve": HighdimServe,
    "churn-serve": ChurnServe,
}
