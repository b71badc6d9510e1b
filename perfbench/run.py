"""Repository benchmark: three workloads over the public ``repro`` APIs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload lowdim-library --seed 1 \\
        --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of a plain run; ``--trace 1`` spends half
the time on a plain phase and half on a traced replay and reports the
per-layer metrics.  Oracle mismatches are listed on standard error.
See ``perfbench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Where a run keeps its temporary files (shard stores), inside the
#: checkout; each run makes and removes its own subdirectory.
SCRATCH = ROOT / ".perfbench-tmp"

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "knn_p50_ms": "ms",
    "knn_p95_ms": "ms",
    "range_p50_ms": "ms",
    "range_p95_ms": "ms",
    "knn_dists": "count",
    "range_dists": "count",
    "knn_vs_scan": "ratio",
    "range_vs_scan": "ratio",
    "peak_rss_mib": "MiB",
    "ok_frac": "frac",
}

PER_LAYER_UNITS = {
    "metric.calls_per_q": "count",
    "metric.rows_per_call": "count",
    "metric.ms_per_q": "ms",
    "metric.share": "frac",
    "index.self_ms_per_q": "ms",
    "index.self_us_per_dist": "us",
    "index.hits_per_dist": "ratio",
    "index.nodes_per_q": "count",
    "index.leaf_filter_frac": "frac",
    "store.write_s": "s",
    "store.open_ms": "ms",
    "store.mib": "MiB",
    "store.self_ms_per_q": "ms",
    "sharding.self_ms_per_q": "ms",
    "sharding.memtable_rows_per_q": "count",
    "sharding.insert_us": "us",
    "sharding.delete_us": "us",
    "engine.self_ms_per_q": "ms",
    "engine.vs_seq_ratio": "ratio",
    "engine.units_per_q": "count",
    "lifecycle.rebuilds": "count",
    "lifecycle.rebuild_ms_per_shard": "ms",
    "setup.build_s": "s",
    "setup.warm_s": "s",
    "setup.fork_s": "s",
    "trace.overhead_frac": "frac",
}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(wl, log, plain, setup: dict, plain_scale, traced_scale) -> dict:
    """Per-layer metrics from the traced phase's spans (see README.md).

    Times are rescaled to the reference host like the end-to-end ones
    (``setup`` already is), those of the traced phase by its own probes;
    the store's write and open times are not rescaled.
    """
    n_q = len({s.qid for s in log.spans})
    index_s = log.seconds("index")
    metric_s = log.count("index", "metric_s")
    calls = log.count("index", "calls")
    dists = log.count("index", "dists")
    sharded = bool(log.layer("engine"))
    top = "engine" if sharded else "index"
    overhead = statistics.mean(
        _div(
            log.median_per_query(top, kind) * traced_scale,
            statistics.median(plain.latency[kind]) * plain_scale,
        )
        for kind in ("knn", "range")
    ) - 1.0
    ms = 1e3 * traced_scale
    out = {
        "metric.calls_per_q": calls / n_q,
        "metric.rows_per_call": _div(log.count("index", "rows"), calls),
        "metric.ms_per_q": metric_s / n_q * ms,
        "metric.share": _div(metric_s, index_s),
        "index.self_ms_per_q": (index_s - metric_s) / n_q * ms,
        "index.self_us_per_dist": _div(index_s - metric_s, dists) * 1e3 * ms,
        "index.hits_per_dist": _div(log.count("index", "hits"), dists),
        "index.nodes_per_q": log.count("index", "nodes") / n_q,
        "index.leaf_filter_frac": _div(
            log.count("index", "filtered"), log.count("index", "seen")
        ),
        "store.write_s": wl.extra.get("store.write_s", setup["write_s"]),
        "store.open_ms": wl.extra.get("store.open_ms", 0.0),
        "store.mib": wl.extra.get("store.mib", 0.0),
        "store.self_ms_per_q": 0.0,
        "sharding.self_ms_per_q": 0.0,
        "sharding.memtable_rows_per_q": 0.0,
        "sharding.insert_us": 0.0,
        "sharding.delete_us": 0.0,
        "engine.self_ms_per_q": 0.0,
        "engine.vs_seq_ratio": 0.0,
        "engine.units_per_q": 0.0,
        "lifecycle.rebuilds": 0.0,
        "lifecycle.rebuild_ms_per_shard": 0.0,
        "setup.build_s": setup["build_s"],
        "setup.warm_s": setup["warm_s"],
        "setup.fork_s": setup["fork_s"],
        "trace.overhead_frac": overhead,
    }
    if log.layer("store"):
        out["store.self_ms_per_q"] = (log.seconds("store") - index_s) / n_q * ms
    if sharded:
        sharding_s = log.seconds("sharding")
        engine_s = log.seconds("engine")
        out["sharding.self_ms_per_q"] = (sharding_s - log.seconds("shards")) / n_q * ms
        memtable = log.count("sharding", "memtable_rows")
        out["sharding.memtable_rows_per_q"] = memtable / n_q
        out["engine.self_ms_per_q"] = (engine_s - sharding_s) / n_q * ms
        out["engine.vs_seq_ratio"] = _div(engine_s, sharding_s)
        out["engine.units_per_q"] = log.count("engine", "units") / n_q
    if wl.write_s["insert"]:
        out["sharding.insert_us"] = statistics.median(wl.write_s["insert"]) * 1e3 * ms
        out["sharding.delete_us"] = statistics.median(wl.write_s["delete"]) * 1e3 * ms
    if wl.rebuilds:
        shards = sum(n for n, _ in wl.rebuilds)
        out["lifecycle.rebuilds"] = float(shards)
        out["lifecycle.rebuild_ms_per_shard"] = (
            sum(s for _, s in wl.rebuilds) / shards * ms
        )
    return out


def run_workload(name, *, seed, seconds, trace, shape=None, scratch=SCRATCH):
    """Run one workload; returns a dict with the plain ``Recorder``, the
    traced one (or ``None``), the metrics, and the failure list."""
    from harness import HostScale, Recorder, SpanLog, median_of, peak_rss_mib, run_for
    from workloads import SHAPES, WORKLOADS

    shape = shape or SHAPES[name]
    scratch.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=scratch))
    wl = WORKLOADS[name](shape, seed, run_dir)
    try:
        wl.setup()
        wl.prechurn()
        wl.begin_phase()
        gc.collect()
        plain = Recorder(shape.counted)
        # The set-ups are timed on twin deployments, spread evenly through
        # the timed phase: the host's speed comes in spells of a few
        # seconds, and set-ups bunched before the phase sampled one or two
        # of them.  Each is rescaled by the probes taken around it.
        setups: list[tuple] = []

        def twin_setup():
            start = time.perf_counter()
            parts = wl.twin_setup()
            setups.append((start, time.perf_counter(), parts))

        run_for(
            seconds / 2 if trace else seconds,
            lambda i: wl.step(i, plain),
            plain,
            pause=twin_setup,
            pauses=shape.setups,
        )
        scale = HostScale(wl.probes, shape.ref_scan_s)
        metrics = plain.end_to_end(scale)
        metrics["peak_rss_mib"] = peak_rss_mib()
        setup = median_of(
            [
                {key: value * scale.at(start, end) for key, value in parts.items()}
                for start, end, parts in setups
            ]
        )
        metrics["setup_s"] = setup["setup_s"]
        print(
            f"perfbench: host scale {scale.overall:.4f} (probe medians: scan"
            f" {statistics.median(p[1] for p in wl.probes) * 1e3:.4f} ms,"
            f" python {statistics.median(p[2] for p in wl.probes) * 1e3:.4f} ms);"
            f" set-up median {median_of([p for _, _, p in setups])['setup_s']:.4f} s"
            " before rescaling",
            file=sys.stderr,
        )
        traced = None
        if trace:
            wl.traced_setup()
            wl.begin_phase()
            gc.collect()
            traced, log = Recorder(shape.traced), SpanLog()
            first_probe = len(wl.probes)
            run_for(seconds / 2, lambda i: wl.step(i, traced, log), traced)
            traced_scale = HostScale(wl.probes[first_probe:], shape.ref_scan_s)
            metrics = layer_metrics(
                wl, log, plain, setup, scale.overall, traced_scale.overall
            )
    finally:
        wl.teardown()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            scratch.rmdir()  # only when no other run is using it
        except OSError:
            pass
    failures = plain.failures + (traced.failures if traced else [])
    return {
        "plain": plain,
        "traced": traced,
        "metrics": metrics,
        "failures": failures,
        "attempted": plain.attempted + (traced.attempted if traced else 0),
        "failed": plain.failed + (traced.failed if traced else 0),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("lowdim-library", "highdim-serve", "churn-serve"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_workload(
        args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace)
    )
    for failure in result["failures"][:50]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps(report(result, trace=bool(args.trace))))
    return 0


def report(result: dict, *, trace: bool) -> dict:
    """The result line: end-to-end metrics, or per-layer ones when traced."""
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": float(result["metrics"][name]), "unit": unit}
            for name, unit in units.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
