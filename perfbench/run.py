"""Wall-clock benchmark of the served index (see ``perfbench/README.md``).

Run from the repository root::

    python3 perfbench/run.py --workload point_zipf --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs the workload twice on identically built deployments, first untraced and
then with the outside-in ledger installed (half of ``--seconds`` each), and
reports the per-layer metrics.  Every answer is checked against a numpy
oracle.  The last line of standard output is the JSON result; the line
before it is a JSON report with the host fingerprint and the details.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from ledger import LAYERS as LAYER_TARGETS
from ledger import Ledger

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Everything the benchmark writes (compiled kernels, temporary stores).
BUILD_DIR = ROOT / ".bench_build" / "perfbench"

#: Deployments built per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = {"point_zipf": 15, "range_scan": 15, "mixed_durable": 7}

LAYERS = tuple(LAYER_TARGETS)

END_TO_END_UNITS = {
    "setup_s": "s",
    "read_per_s": "1/s",
    "call_ms_p50": "ms",
    "sim_mean": "sim_ms",
    "sim_p99": "sim_ms",
    "index_bytes_per_key": "B/key",
    "peak_rss_mib": "MiB",
}

RATIO_UNITS = {
    "serve.cache.hit_rate": "frac",
    "serve.cache.negative_hit_rate": "frac",
    "serve.cache.invalidated_keys": "1/kop",
    "serve.batching.keys_per_batch": "keys",
    "serve.batching.dispatching_poll_frac": "frac",
    "core.index.keys_per_call": "keys",
    "core.updatable.keys_per_call": "keys",
    "rtx.nodes_per_ray": "nodes",
    "serve.replication.replica_reads_per_batch": "reads",
    "serve.replication.write_fanout": "writes",
    "serve.maintenance.busy_ms": "ms/kop",
    "serve.maintenance.compactions": "1/kop",
    "serve.maintenance.rebuilds": "1/kop",
    "serve.maintenance.checkpoints": "1/kop",
    "store.write_amp": "ratio",
    "store.fsyncs_per_update_call": "1/call",
    "store.checkpoint_bytes": "B",
    "store.recovery_s": "s",
    "ledger.other_frac": "frac",
    "ledger.overhead_frac": "frac",
}


def per_layer_units():
    units = {}
    for layer in LAYERS:
        units[f"{layer}.self_us_per_op"] = "us"
        units[f"{layer}.calls_per_op"] = "calls/op"
    units.update(RATIO_UNITS)
    return units


def tail(samples):
    """``(value, percentile, n)``: the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


# ------------------------------------------------------------------- host


def fingerprint():
    import numpy

    from repro.rtx import compiled

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiled_backend": compiled.available_backend(),
    }


def engine_guard():
    """Raise unless ``engine="compiled"`` runs a compiled kernel backend.

    Without a C compiler the compiled engine silently degrades to the vector
    engine and records a ``compiled_engine_fallback`` gauge; a benchmark of
    that would measure the wrong engine.
    """
    import numpy as np

    from repro.core.config import CgRXConfig
    from repro.core.index import CgRXIndex
    from repro.obs import profile
    from repro.obs.telemetry import TelemetryRegistry
    from repro.rtx import compiled

    backend = compiled.available_backend()
    if backend not in ("cc", "numba"):
        raise RuntimeError(f"no compiled kernel backend (got {backend!r})")
    registry = TelemetryRegistry()
    profile.enable_profiling(registry)
    try:
        keys = np.arange(0, 1 << 13, 3, dtype=np.uint64)
        index = CgRXIndex(keys, config=CgRXConfig(engine="compiled", key_bits=64))
        index.point_lookup_batch(keys[:64])
    finally:
        profile.disable_profiling()
    if compiled.last_fallback_reason is not None or registry.labeled_values(
        "compiled_engine_fallback"
    ):
        raise RuntimeError(f"compiled engine fell back: {compiled.last_fallback_reason}")


# ---------------------------------------------------------------- observers


def _bump(ledger, key, amount=1.0):
    ledger.counts[key] += amount


def _cache_get(ledger, args, entry):
    _bump(ledger, "cache.gets")
    if entry is not None:
        _bump(ledger, "cache.hits")
        if entry.match_count == 0:
            _bump(ledger, "cache.negative_hits")


def _batches(ledger, args, batches):
    _bump(ledger, "batching.batches", len(batches))
    _bump(ledger, "batching.keys", sum(batch.size for batch in batches))


def _poll(ledger, args, batches):
    _bump(ledger, "batching.polls")
    if batches:
        _bump(ledger, "batching.dispatching_polls")
    _batches(ledger, args, batches)


def _index_call(prefix):
    def observe(ledger, args, result):
        _bump(ledger, f"{prefix}.calls")
        _bump(ledger, f"{prefix}.keys", len(args[1]))

    return observe


def _rays(ledger, args, batch):
    nodes = getattr(batch, "nodes_visited", None)
    if nodes is not None:
        _bump(ledger, "rtx.rays", len(nodes))
        _bump(ledger, "rtx.nodes", int(nodes.sum()))


def _put(ledger, args, written):
    _bump(ledger, "store.put_bytes", written)
    if args[0].fsync:
        _bump(ledger, "store.fsyncs")


def _checkpoint(ledger, args, written):
    _bump(ledger, "store.checkpoints")
    _bump(ledger, "store.checkpoint_bytes", written)


def install_observers(ledger):
    observers = {
        ("serve.cache", "get"): _cache_get,
        ("serve.cache", "invalidate_keys"): lambda l, a, n: _bump(l, "cache.invalidated", n),
        ("serve.batching", "offer"): _batches,
        ("serve.batching", "drain"): _batches,
        ("serve.batching", "poll"): _poll,
        ("rtx", "cast_axis_closest_batch"): _rays,
        ("store", "put"): _put,
        ("store", "checkpoint"): _checkpoint,
    }
    for layer in ("core.index", "core.updatable"):
        for method in ("point_lookup_batch", "range_lookup_batch"):
            observers[(layer, method)] = _index_call(layer)
    ledger.observers.update(observers)


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(ledger, timer, traced, untraced, untraced_timer):
    ops = max(1, traced.ops)
    kops = ops / 1000.0
    c = ledger.counts
    # Layer times at reference speed, like every other time of the benchmark.
    speed = statistics.median(timer.speeds)
    metrics = ledger.layer_report(LAYERS, ops)
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_op"] *= speed
    reads = ("point_lookup_batch", "range_lookup_batch")
    group_reads = ledger.edge_calls(None, "serve.replication", reads)
    group_writes = ledger.edge_calls(None, "serve.replication", ("update_batch",))
    update_counts = timer.kind_counts.get("update_batch", {})
    user_bytes = traced.extra.get("user_bytes", 0.0)
    metrics.update(
        {
            "serve.cache.hit_rate": _ratio(c["cache.hits"], c["cache.gets"]),
            "serve.cache.negative_hit_rate": _ratio(c["cache.negative_hits"], c["cache.gets"]),
            "serve.cache.invalidated_keys": c["cache.invalidated"] / kops,
            "serve.batching.keys_per_batch": _ratio(c["batching.keys"], c["batching.batches"]),
            "serve.batching.dispatching_poll_frac": _ratio(
                c["batching.dispatching_polls"], c["batching.polls"]
            ),
            "core.index.keys_per_call": _ratio(c["core.index.keys"], c["core.index.calls"]),
            "core.updatable.keys_per_call": _ratio(
                c["core.updatable.keys"], c["core.updatable.calls"]
            ),
            "rtx.nodes_per_ray": _ratio(c["rtx.nodes"], c["rtx.rays"]),
            "serve.replication.replica_reads_per_batch": _ratio(
                ledger.edge_calls("serve.replication", "core.updatable", reads), group_reads
            ),
            "serve.replication.write_fanout": _ratio(
                ledger.edge_calls("serve.replication", "core.updatable", ("update_batch",)),
                group_writes,
            ),
            "serve.maintenance.busy_ms": speed
            * ledger.inclusive_ns.get("serve.maintenance", 0)
            / 1e6
            / kops,
            "serve.maintenance.compactions": traced.extra.get("compactions_performed", 0) / kops,
            "serve.maintenance.rebuilds": traced.extra.get("rebuilds_performed", 0) / kops,
            "serve.maintenance.checkpoints": traced.extra.get("checkpoints_performed", 0) / kops,
            "store.write_amp": _ratio(update_counts.get("store.put_bytes", 0.0), user_bytes),
            "store.fsyncs_per_update_call": _ratio(
                update_counts.get("store.fsyncs", 0.0),
                len(timer.samples.get("update_batch", ())),
            ),
            "store.checkpoint_bytes": _ratio(
                update_counts.get("store.checkpoint_bytes", 0.0),
                update_counts.get("store.checkpoints", 0.0),
            ),
            "store.recovery_s": untraced.extra.get("recovery_s", 0.0),
        }
    )
    untraced_rate = untraced.ops / untraced_timer.total_s()
    traced_rate = traced.ops / timer.total_s()
    metrics["ledger.overhead_frac"] = 1.0 - traced_rate / untraced_rate
    return metrics


# -------------------------------------------------------------------- runs


def measure(workload, seconds, checks, ledger=None):
    from workloads import Timer

    timer = Timer(ledger)
    served = workload.build()
    if ledger is not None:
        ledger.install()
    try:
        result = workload.run(served, seconds, timer, checks)
    finally:
        if ledger is not None:
            ledger.restore()
    return result, timer


def end_to_end(workload, seconds, checks):
    from workloads import host_speed

    # Each build is scaled by the mean host speed read just before and
    # just after it.
    setups, wall_setups = [], []
    speed = host_speed()
    for _ in range(SETUP_REPEATS[workload.name]):
        began = time.perf_counter()
        served = workload.build()
        wall_setups.append(time.perf_counter() - began)
        del served
        after = host_speed()
        setups.append(wall_setups[-1] * (speed + after) / 2.0)
        speed = after
    result, timer = measure(workload, seconds, checks)
    read_medians = timer.position_medians(workload.read_call)
    calls = [ns / 1e6 for ns in timer.scaled[workload.primary_call]]
    tail_ms, tail_pct, tail_n = tail(
        [ns / 1e6 for ns in timer.position_medians(workload.primary_call)]
    )
    metrics = {
        "setup_s": statistics.median(setups),
        "read_per_s": workload.reads_per_call * len(read_medians) / (sum(read_medians) / 1e9),
        "call_ms_p50": statistics.median(calls),
    }
    metrics.update(result.first_pass)
    details = {
        "primary_call": workload.primary_call,
        "call_samples": len(calls),
        "call_ms_tail": tail_ms,
        "call_tail_percentile": tail_pct,
        "call_positions": tail_n,
        "ops": result.ops,
        "reads": result.reads,
        "written_keys": result.written_keys,
        "timed_wall_s": timer.total_s(scaled=False),
        "host_speed": {
            "median": statistics.median(timer.speeds),
            "min": min(timer.speeds),
            "max": max(timer.speeds),
            "samples": len(timer.speeds),
        },
        "wall_setup_s": statistics.median(wall_setups),
        "mean_read_per_s": result.reads / timer.total_s(workload.read_call),
        "wall_read_per_s": result.reads / timer.total_s(workload.read_call, scaled=False),
        "wall_call_ms_p50": statistics.median(timer.samples[workload.primary_call]) / 1e6,
    }
    if result.written_keys:
        details["update_keys_per_s"] = result.written_keys / timer.total_s("update_batch")
    details.update(result.extra)
    return metrics, details


def per_layer(workload, seconds, checks):
    untraced, untraced_timer = measure(workload, seconds / 2.0, checks)
    ledger = Ledger()
    install_observers(ledger)
    traced, timer = measure(workload, seconds / 2.0, checks, ledger)
    common = min(len(untraced.digests), len(traced.digests))
    identical = untraced.digests[:common] == traced.digests[:common]
    checks.record("traced_answers_identical", common, 0 if identical else common)
    metrics = per_layer_metrics(ledger, timer, traced, untraced, untraced_timer)
    layers_s = sum(ledger.self_ns.get(layer, 0) for layer in LAYERS) / 1e9
    details = {
        "traced_units_compared": common,
        "traced_total_s": ledger.total_ns / 1e9,
        "layers_plus_other_s": layers_s + metrics["ledger.other_frac"] * ledger.total_ns / 1e9,
        "host_speed": statistics.median(timer.speeds),
        "traced_ops": traced.ops,
        "untraced_ops": untraced.ops,
    }
    return metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    # Keep every file the program writes inside the checkout.
    os.environ["REPRO_CC_CACHE_DIR"] = str(BUILD_DIR / "cc")
    scratch = tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR)
    tempfile.tempdir = scratch
    sys.path.insert(0, str(src))

    from oracle import Checks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    try:
        engine_guard()
    except RuntimeError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 3
    workload = WORKLOADS[args.workload](args.seed, scratch)
    checks = Checks()
    try:
        if args.trace:
            metrics, details = per_layer(workload, args.seconds, checks)
            units = per_layer_units()
        else:
            metrics, details = end_to_end(workload, args.seconds, checks)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    from repro.rtx import compiled

    if compiled.last_fallback_reason is not None:
        print(
            f"perfbench: compiled engine fell back: {compiled.last_fallback_reason}",
            file=sys.stderr,
        )
        return 3
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": fingerprint(),
        "failed_checks": checks.summary(),
        "failed_frac": checks.failed / max(1, checks.attempted),
        "details": details,
    }
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
