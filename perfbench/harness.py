"""Shared machinery for the repository benchmark.

Everything here lives outside the ``repro`` package on purpose: the
benchmark drives the program only through its public APIs, checks every
answer against its own numpy brute force, and records its trace spans
around the calls it makes into each layer.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.metric import Metric

# ----------------------------------------------------------------------
# Oracle: exact brute force over the current live set
# ----------------------------------------------------------------------

#: Relative slack for comparing the program's distances with the
#: oracle's.  Both compute ``sqrt(sum((x - q)**2))`` in float64, so they
#: agree to the last bits; the slack only absorbs a different summation
#: order, never a wrong answer.
_REL_TOL = 1e-9


def l2_distances(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Euclidean distance from every row to ``query``."""
    return np.sqrt(np.square(rows - query).sum(axis=1))


class Oracle:
    """Exact k-NN and range answers by a full numpy scan.

    ``rows``/``ids`` are the live set: a fixed dataset, or a mirror the
    churn workload keeps in step with every insert and delete (see
    :meth:`use`).  k-NN order is ``(distance, id)``, the program's
    tie-break.  Each call returns the answer and the seconds the whole
    brute force took (the numerator of the ``*_vs_scan`` ratios).  Each
    scan also appends a host-speed sample to ``probes``: the seconds of
    the distance pass alone, a fixed amount of numpy work, and those of
    :func:`python_probe` run right after it (see :class:`HostScale`).

    The scan works in buffers allocated once, never in fresh temporaries.
    Under glibc's default malloc, whether a large temporary comes from
    the heap or from fresh, page-faulting pages depends on the heap's
    history, and that made the same scan run 1.6 times slower in some
    runs than in others.
    """

    def __init__(self, rows, ids=None, probes: list | None = None):
        self.probes = probes
        self._diff = np.empty((0, rows.shape[1]))
        self._dist = np.empty(0)
        self._part = np.empty(0)
        self.use(rows, ids)

    def use(self, rows, ids=None) -> None:
        """Scan ``rows`` (with ``ids``, default their positions) from now on."""
        self.rows = rows
        self.ids = np.arange(len(rows)) if ids is None else ids
        if len(rows) > len(self._dist):
            capacity = len(rows) + len(rows) // 4
            self._diff = np.empty((capacity, rows.shape[1]))
            self._dist = np.empty(capacity)
            self._part = np.empty(capacity)

    def _scan(self, query):
        n = len(self.rows)
        diff, dist = self._diff[:n], self._dist[:n]
        start = time.perf_counter()
        np.subtract(self.rows, query, out=diff)
        np.square(diff, out=diff)
        diff.sum(axis=1, out=dist)
        np.sqrt(dist, out=dist)
        if self.probes is not None:
            scan_s = time.perf_counter() - start
            self.probes.append((start, scan_s, python_probe()))
        return dist, start

    def knn(self, query, k: int):
        dist, start = self._scan(query)
        k = min(k, len(dist))
        part = self._part[: len(dist)]
        np.copyto(part, dist)
        part.partition(k - 1)
        cand = np.nonzero(dist <= part[k - 1])[0]
        order = np.lexsort((self.ids[cand], dist[cand]))[:k]
        ids = self.ids[cand[order]]
        dists = dist[cand[order]]
        return ids, dists, time.perf_counter() - start

    def range(self, query, radius: float):
        dist, start = self._scan(query)
        hits = np.sort(self.ids[dist <= radius])
        return hits, time.perf_counter() - start

    def distance_of(self, gids, query) -> np.ndarray:
        """True distances of specific live ids (mismatch diagnosis)."""
        position = {int(g): i for i, g in enumerate(self.ids)}
        rows = [position.get(int(g)) for g in gids]
        if any(r is None for r in rows):
            return np.full(len(gids), np.nan)
        return l2_distances(self.rows[rows], query)


def check_knn(oracle: Oracle, query, k: int, neighbors):
    """``(error, scan seconds)``; ``error`` is ``None`` for a correct answer.

    Ids must equal the oracle's ``(distance, id)`` order.  Where they
    differ, the answer still counts as correct when every returned id is
    live at its reported distance and the distances match the oracle's
    top k position by position (a tie the two sides broke alike up to
    rounding).
    """
    want_ids, want_d, scan_s = oracle.knn(query, k)
    got_ids = np.array([n.id for n in neighbors], dtype=np.int64)
    got_d = np.array([n.distance for n in neighbors], dtype=np.float64)
    if len(got_ids) != len(want_ids):
        return f"knn gave {len(got_ids)} neighbors, not {len(want_ids)}", scan_s
    close = np.allclose(got_d, want_d, rtol=_REL_TOL, atol=0.0)
    if np.array_equal(got_ids, want_ids) and close:
        return None, scan_s
    true_d = oracle.distance_of(got_ids, query)
    if close and np.allclose(true_d, got_d, rtol=_REL_TOL, atol=0.0):
        return None, scan_s
    return (
        f"knn ids {got_ids[:4].tolist()}... != oracle {want_ids[:4].tolist()}...",
        scan_s,
    )


def check_range(oracle: Oracle, query, radius: float, ids):
    """``(error, scan seconds)``; ``error`` is ``None`` for the exact answer.

    Points whose true distance is within rounding of ``radius`` may fall
    on either side; any other difference is an error.
    """
    want, scan_s = oracle.range(query, radius)
    got = np.asarray(sorted(int(i) for i in ids), dtype=np.int64)
    if np.array_equal(got, want):
        return None, scan_s
    diff = np.setxor1d(got, want)
    true_d = oracle.distance_of(diff, query)
    if np.all(np.abs(true_d - radius) <= _REL_TOL * max(radius, 1.0)):
        return None, scan_s
    return f"range differs from oracle on ids {diff[:6].tolist()}", scan_s


# ----------------------------------------------------------------------
# Recording a timed phase
# ----------------------------------------------------------------------


@dataclass
class Recorder:
    """Per-operation outcomes of one timed phase.

    ``counted`` is how many operations of each query kind feed the
    distance-count metrics: the first ``counted`` of the phase, so the
    counts depend on the seed alone, never on how fast the host ran.
    Failed operations count toward that floor but add no distance count.
    """

    counted: int
    latency: dict = field(default_factory=lambda: {"knn": [], "range": [], "write": []})
    #: When each operation was recorded, for :meth:`HostScale.at`.
    ended: dict = field(default_factory=lambda: {"knn": [], "range": [], "write": []})
    dists: dict = field(default_factory=lambda: {"knn": [], "range": []})
    vs_scan: dict = field(default_factory=lambda: {"knn": [], "range": []})
    #: ``(ended, seconds)`` of serving-side work that is not an operation.
    other_busy: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def op(self, kind, seconds, error=None, *, dists=None, scan_s=None):
        """Record one timed operation and its oracle verdict."""
        self.attempted += 1
        self.latency[kind].append(seconds)
        self.ended[kind].append(time.perf_counter())
        if error is not None:
            self.failed += 1
            self.failures.append(f"{kind} op {self.attempted}: {error}")
        if dists is not None and len(self.latency[kind]) <= self.counted:
            self.dists[kind].append(dists)
        if scan_s is not None and seconds > 0:
            self.vs_scan[kind].append(scan_s / seconds)

    def failure(self, message: str) -> None:
        """A failed serving-side action that is not a timed operation."""
        self.attempted += 1
        self.failed += 1
        self.failures.append(message)

    def busy(self, seconds: float) -> None:
        """Serving-side work that is not an operation (a rebuild pass)."""
        self.other_busy.append((time.perf_counter(), seconds))

    def complete(self) -> bool:
        """Have the count-defining first operations all run?"""
        return all(len(self.latency[k]) >= self.counted for k in self.dists)

    def end_to_end(self, scale: HostScale) -> dict:
        """End-to-end metrics; each time is rescaled to the reference host
        by the factor of its moment (see :class:`HostScale`)."""
        seconds = {
            k: np.array([scale.at(t - s, t) * s for s, t in zip(v, self.ended[k])])
            for k, v in self.latency.items()
        }
        busy = sum(v.sum() for v in seconds.values()) + sum(
            scale.at(t - s, t) * s for t, s in self.other_busy
        )
        ms = {k: v * 1e3 for k, v in seconds.items()}
        return {
            "throughput_ops_s": self.attempted / busy,
            "knn_p50_ms": float(np.percentile(ms["knn"], 50)),
            "knn_p95_ms": float(np.percentile(ms["knn"], 95)),
            "range_p50_ms": float(np.percentile(ms["range"], 50)),
            "range_p95_ms": float(np.percentile(ms["range"], 95)),
            "knn_dists": _mean(self.dists["knn"]),
            "range_dists": _mean(self.dists["range"]),
            "knn_vs_scan": _median(self.vs_scan["knn"]),
            "range_vs_scan": _median(self.vs_scan["range"]),
            "ok_frac": (self.attempted - self.failed) / self.attempted,
        }


def _mean(values: list) -> float:
    return float(np.mean(values)) if values else 0.0


def _median(values: list) -> float:
    """0 when every operation failed (there is nothing to report)."""
    return float(np.median(values)) if values else 0.0


#: Median seconds of :func:`python_probe` on the reference host.
REF_PYTHON_PROBE_S = 0.12e-3


def python_probe() -> float:
    """Seconds a fixed pure-Python loop takes: the host's speed as the
    interpreter sees it."""
    start = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(600):
        acc += (i * 0.5) % 7.0
        table[i & 127] = acc
    return time.perf_counter() - start


class HostScale:
    """Factors that convert this run's times to the reference host.

    The host's speed drifts: it runs in fast and slow spells lasting from
    under a second to tens of seconds, so raw times spread by 10-20% from
    run to run, and a run's tail latencies come from its slow spells.
    Each probe pairs the oracle's numpy distance pass with a pure-Python
    loop; the drift slows the two by different amounts, and the program
    mixes both kinds of work, so a probe's factor is the geometric mean
    of the two reference-over-measured time ratios.  A time is rescaled
    by the median factor of the probes taken within ``WINDOW_S`` of it.
    """

    WINDOW_S = 0.5
    #: Fewer probes than this in a window: use the whole phase's median.
    MIN_PROBES = 9

    def __init__(self, probes: list, ref_scan_s: float):
        data = np.asarray(probes, dtype=float).reshape(-1, 3)
        self.t = data[:, 0]
        self.factor = np.sqrt(
            ref_scan_s / data[:, 1] * REF_PYTHON_PROBE_S / data[:, 2]
        )
        # No probes means no operation reached its oracle check.
        self.overall = float(np.median(self.factor)) if len(self.factor) else 1.0

    def at(self, start: float, end: float) -> float:
        """Factor for work done between ``start`` and ``end``."""
        lo = np.searchsorted(self.t, start - self.WINDOW_S)
        hi = np.searchsorted(self.t, end + self.WINDOW_S)
        if hi - lo < self.MIN_PROBES:
            return self.overall
        return float(np.median(self.factor[lo:hi]))


def run_for(seconds: float, step, recorder: Recorder, pause=None, pauses=0) -> None:
    """Closed loop, one client: call ``step(i)`` until ``seconds`` of
    running time have passed *and* the count-defining operations have run.

    ``pause()`` runs ``pauses`` times between steps, spread evenly over
    the ``seconds``; the time it takes does not count as running time.
    """
    start = time.perf_counter()
    paused = 0.0
    due = [(j + 0.5) * seconds / pauses for j in range(pauses)]
    i = 0
    while time.perf_counter() - start - paused < seconds or not recorder.complete():
        step(i)
        i += 1
        while due and time.perf_counter() - start - paused >= due[0]:
            due.pop(0)
            began = time.perf_counter()
            pause()
            paused += time.perf_counter() - began


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def attempt(fn, *args, **kwargs):
    """``(result, seconds, error)`` of one operation that must not abort
    the run: an exception becomes a recorded failure."""
    start = time.perf_counter()
    try:
        out, error = fn(*args, **kwargs), None
    except Exception as exc:  # counted against ok_frac, listed in the report
        out, error = None, f"{type(exc).__name__}: {exc}"
    return out, time.perf_counter() - start, error


def median_of(runs: list[dict]) -> dict:
    """Key-wise median of several set-up timing dicts."""
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


# ----------------------------------------------------------------------
# Tracing: a timing metric and an in-memory span log
# ----------------------------------------------------------------------


class TimedMetric(Metric):
    """Metric wrapper that counts and times every evaluation.

    Only records while ``active`` is true, so the one wrapper can sit
    under a whole deployment and still attribute metric time to the
    index layer alone.  Values pass through untouched: an index built
    over it is identical to one built over the inner metric.
    """

    def __init__(self, inner: Metric):
        self.inner = inner
        self.active = False
        self.calls = 0
        self.rows = 0
        self.seconds = 0.0

    def distance(self, a, b) -> float:
        if not self.active:
            return self.inner.distance(a, b)
        start = time.perf_counter()
        out = self.inner.distance(a, b)
        self.seconds += time.perf_counter() - start
        self.calls += 1
        self.rows += 1
        return out

    def batch_distance(self, xs, y):
        if not self.active:
            return self.inner.batch_distance(xs, y)
        start = time.perf_counter()
        out = self.inner.batch_distance(xs, y)
        self.seconds += time.perf_counter() - start
        self.calls += 1
        self.rows += len(out)
        return out

    def snapshot(self) -> tuple[int, int, float]:
        return self.calls, self.rows, self.seconds


@dataclass
class Span:
    qid: int
    kind: str
    layer: str
    parent: str | None
    start: float
    end: float
    counts: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanLog:
    """Spans kept in memory until the run ends; one per layer boundary.

    All spans of one query share its ``qid``.  ``parent`` names the layer
    above, whose replay of the same query this span peels: a layer's
    self time is its spans' time minus its child layer's.
    """

    def __init__(self):
        self.spans: list[Span] = []

    def record(self, qid, kind, layer, parent, fn, *args, **kwargs):
        """Call ``fn`` and log the span around it; returns ``fn``'s result."""
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        end = time.perf_counter()
        self.spans.append(Span(qid, kind, layer, parent, start, end, {}))
        return out

    def layer(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.layer == name]

    def seconds(self, name: str) -> float:
        return sum(s.seconds for s in self.layer(name))

    def count(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self.layer(name))

    def median_per_query(self, name: str, kind: str) -> float:
        """Median over queries of ``kind`` of the layer's time per query."""
        per_q: dict[int, float] = {}
        for s in self.layer(name):
            if s.kind == kind:
                per_q[s.qid] = per_q.get(s.qid, 0.0) + s.seconds
        return statistics.median(per_q.values()) if per_q else 0.0


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------


def _hwm_kib(pid: int | str) -> int:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def child_pids() -> list[int]:
    """Live child processes of this one (the engine's workers), by pid."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # the process ended while we looked
        if ppid == me:
            pids.append(int(entry))
    return sorted(pids)


def peak_rss_mib() -> float:
    """Peak resident memory of this process plus its live children.

    Children (the serving engine's worker processes) are found by their
    parent pid; each contributes its own high-water mark.
    """
    if not os.path.isdir("/proc/self"):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    total = _hwm_kib("self")
    for pid in child_pids():
        try:
            total += _hwm_kib(pid)
        except OSError:
            continue  # the process ended while we looked
    return total / 1024.0

