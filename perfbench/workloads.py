"""The three benchmark workloads: seeded inputs, deployment set-up and the timed loop.

Every workload drives the public API of :class:`repro.serve.ShardedIndex`
from one thread, with ``engine="compiled"`` pinned on both the router and
the shard indexes, 64-bit keys from ``generate_keys(..., uniformity=0.5)``,
4 range shards and a 1024-entry result cache.  Admission control (QoS), the
reliability layer, resharding and the ``repro.obs`` tracer stay off: they
are not on the request path being measured.

A workload repeats a fixed *pass* of :attr:`Workload.pass_calls` timed API
calls until ``seconds`` have passed, and always finishes the first pass.
The simulated-clock latencies, the footprint and the peak RSS are read
right after the first pass, so they depend on the seed only, never on how
fast the host ran.
"""

from __future__ import annotations

import hashlib
import re
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from oracle import Checks, SortedOracle

from repro.bench.harness import cgrx_factory, cgrxu_factory
from repro.serve.sharded import ServeConfig, ShardedIndex
from repro.workloads import generate_keys, range_lookups, update_waves, zipf_request_stream
from repro.workloads.requests import RequestStream

KEY_BITS = 64
#: Bytes a user hands over per written entry: the key, plus a row id on insert.
KEY_BYTES = KEY_BITS // 8
ROW_ID_BYTES = 4
NUM_SHARDS = 4
CACHE_ENTRIES = 1024
ZIPF = 1.0
MISS_FRACTION = 0.05
REQUESTS_PER_MS = 200.0
#: Requests per ``serve_stream`` call.
SEGMENT = 2048

#: Timed call time between two host-speed measurements.
CALIBRATE_EVERY_NS = 25_000_000
#: Wall time of :func:`reference_kernel` at reference speed: its time on an
#: idle 2-vCPU Intel Xeon cloud VM, so scaled times read as on that host.
REFERENCE_NS = 550_000

_REF_KEYS = np.sort(np.random.default_rng(0).integers(0, 1 << 40, 4096, dtype=np.uint64))
_REF_PROBES = [int(k) for k in _REF_KEYS[::64]]


def reference_kernel() -> int:
    """Fixed CPU work shaped like the serving loop: dict, list, int and numpy calls."""
    table: Dict[int, int] = {}
    values: List[float] = []
    total = 0
    for i in range(1200):
        key = _REF_PROBES[i % 64]
        table[key] = i
        total += table.get(key + 1, 0)
        values.append(float(i))
        if i % 8 == 0:
            total += int(np.searchsorted(_REF_KEYS, _REF_KEYS[i % 4096]))
    return total + len(values)


def host_speed() -> float:
    """Reference time over the measured time of :func:`reference_kernel`.

    The fastest of three back-to-back runs after an untimed warm-up run, so
    that a cold cache, a garbage collection or an interrupt inside one run
    does not count as a slow host.
    """
    reference_kernel()
    fastest = None
    for _ in range(3):
        start = time.perf_counter_ns()
        reference_kernel()
        elapsed = time.perf_counter_ns() - start
        fastest = elapsed if fastest is None else min(fastest, elapsed)
    return REFERENCE_NS / fastest


def make_keys(num_keys: int, seed: int):
    """The benchmark's key set: half a dense prefix, half uniform 64-bit keys."""
    return generate_keys(num_keys, uniformity=0.5, key_bits=KEY_BITS, seed=seed)


def serve_config(**overrides) -> ServeConfig:
    return ServeConfig(
        num_shards=NUM_SHARDS,
        partitioner="range",
        key_bits=KEY_BITS,
        cache_capacity=CACHE_ENTRIES,
        engine="compiled",
        **overrides,
    )


def digest(*arrays) -> str:
    """Stable digest of answer arrays (traced and untraced runs compare these)."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(str(array.dtype).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def peak_rss_mib() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def index_bytes_per_key(served: ShardedIndex) -> float:
    """Simulated device footprint of the shard indexes per stored key.

    Only the ``shard_<id>`` components count: rebuild buffers in flight,
    host-side compiled arenas and the result cache are excluded.
    """
    components = served.memory_footprint().components
    total = sum(v for k, v in components.items() if re.fullmatch(r"shard_\d+", k))
    return total / max(1, len(served))


def replica_entries(served: ShardedIndex):
    """``(keys, row_ids)`` held by every replica, concatenated over shards.

    Reads the shard indexes themselves (``export_entries`` of the live
    index), not the router's authoritative arrays, so an acked write that
    never reached an index shows up.
    """
    per_replica: Dict[int, List] = {}
    for shard in served.router.shards:
        if shard.index is None:
            continue
        replicas = getattr(shard.index, "replicas", None)
        indexes = [r.index for r in replicas] if replicas is not None else [shard.index]
        for position, index in enumerate(indexes):
            per_replica.setdefault(position, []).append(index.export_entries())
    result = []
    for parts in per_replica.values():
        keys = np.concatenate([p[0] for p in parts])
        rows = np.concatenate([p[1] for p in parts])
        result.append((keys, rows))
    return result


class Timer:
    """Times the benchmark's API calls, per call kind, in nanoseconds.

    Other tenants of a shared host slow every call down together: on a
    2-vCPU Intel Xeon cloud VM, by up to 2.3x for minutes at a time.  So the
    timer also keeps every call's time *at reference speed*: the call's
    wall time multiplied by :func:`host_speed`, which times a fixed
    reference kernel before the call (at most ``CALIBRATE_EVERY_NS`` of
    calls apart; the median of the last three readings applies).  The
    program under test never runs inside the reference kernel, so a change
    to the program moves the scaled times as much as the wall times.

    With a ledger, each call also runs as a ledger root span, and the
    ledger's observer counts are split by the kind of call they happened in
    (:attr:`kind_counts`).
    """

    def __init__(self, ledger=None) -> None:
        self.ledger = ledger
        #: Wall time of every call, by kind.
        self.samples: Dict[str, List[int]] = {}
        #: The same calls at reference speed.
        self.scaled: Dict[str, List[float]] = {}
        #: Every measured host speed (reference / measured).
        self.speeds: List[float] = []
        self.kind_counts: Dict[str, Dict[str, float]] = {}
        self._by_position: Dict[str, Dict[int, List[float]]] = {}
        self._speed = 1.0
        self._since_ns = CALIBRATE_EVERY_NS

    def __call__(self, kind: str, position: int, fn: Callable, *args, **kwargs):
        if self._since_ns >= CALIBRATE_EVERY_NS:
            self.speeds.append(host_speed())
            # The median of the last three readings, so one odd reading
            # does not rescale a whole calibration window.
            self._speed = statistics.median(self.speeds[-3:])
            self._since_ns = 0
        ledger = self.ledger
        before = dict(ledger.counts) if ledger is not None else None
        start = time.perf_counter_ns()
        if ledger is None:
            result = fn(*args, **kwargs)
        else:
            result = ledger.root(fn, *args, **kwargs)
        elapsed = time.perf_counter_ns() - start
        self._since_ns += elapsed
        self.samples.setdefault(kind, []).append(elapsed)
        self.scaled.setdefault(kind, []).append(elapsed * self._speed)
        self._by_position.setdefault(kind, {}).setdefault(position, []).append(
            elapsed * self._speed
        )
        if ledger is not None:
            counts = self.kind_counts.setdefault(kind, {})
            for key, value in ledger.counts.items():
                counts[key] = counts.get(key, 0.0) + value - before.get(key, 0.0)
        return result

    def position_medians(self, kind: str) -> List[float]:
        """Median scaled time of every position of ``kind`` over its repeats.

        A workload repeats a fixed pass of calls; ``position`` is a call's
        place in the pass.  The median over repeats drops the host's
        transient stalls and keeps what the call itself costs.
        """
        by_position = self._by_position.get(kind, {})
        return [statistics.median(by_position[p]) for p in sorted(by_position)]

    def total_s(self, kind: Optional[str] = None, scaled: bool = True) -> float:
        """Summed time of the calls of ``kind`` (of every kind when ``None``)."""
        source = self.scaled if scaled else self.samples
        kinds = [kind] if kind is not None else list(source)
        return sum(sum(source.get(k, ())) for k in kinds) / 1e9


@dataclass
class RunResult:
    """What one timed loop produced."""

    #: Workload operations completed (requests, ranges, written keys).
    ops: int = 0
    reads: int = 0
    written_keys: int = 0
    #: One digest per call, in order (traced vs untraced comparison).
    digests: List[str] = field(default_factory=list)
    #: Values read right after the first pass.
    first_pass: Dict[str, float] = field(default_factory=dict)
    #: Anything else worth reporting.
    extra: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Base class: seeded inputs, set-up and the timed loop."""

    name = ""
    #: The call kind whose latency is ``call_ms_*``.
    primary_call = ""
    #: The call kind that answers reads (``read_per_s``), and reads per call.
    read_call = ""
    reads_per_call = SEGMENT
    #: Calls in one pass; the loop always completes the first pass.
    pass_calls = 1

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = int(seed)
        #: Directory for temporary stores; the caller removes it.
        self.scratch = scratch

    # --------------------------------------------------------------- set-up

    def build(self) -> ShardedIndex:
        raise NotImplementedError

    def new_store_dir(self) -> str:
        return tempfile.mkdtemp(prefix="store-", dir=self.scratch)

    def inputs_digest(self) -> str:
        """Digest of the generated inputs (same seed -> same digest)."""
        raise NotImplementedError

    # ----------------------------------------------------------------- loop

    def run(self, served: ShardedIndex, seconds: float, timer: Timer, checks: Checks) -> RunResult:
        raise NotImplementedError

    def _after_first_pass(self, served: ShardedIndex, result: RunResult) -> None:
        result.first_pass["index_bytes_per_key"] = index_bytes_per_key(served)
        result.first_pass["peak_rss_mib"] = peak_rss_mib()

    def _stream_sim(self, served: ShardedIndex, result: RunResult) -> None:
        snapshot = served.metrics.snapshot()
        result.first_pass["sim_mean"] = float(snapshot["latency_mean_ms"])
        result.first_pass["sim_p99"] = float(snapshot["latency_p99_ms"])

    def _serve_segment(
        self,
        served: ShardedIndex,
        segment: RequestStream,
        oracle: SortedOracle,
        timer: Timer,
        checks: Checks,
        result: RunResult,
        check: str,
        position: int,
    ) -> None:
        timer("serve_stream", position, served.serve_stream, segment, record_answers=True)
        answers = served.last_answers
        checks.point_answers(
            check,
            oracle,
            segment.keys,
            answers,
            masks=(
                served.last_shed,
                served.last_unavailable,
                served.last_deadline_exceeded,
                served.last_stale,
            ),
        )
        result.digests.append(digest(answers[0], answers[1]))
        result.reads += len(segment)
        result.ops += len(segment)


class _Segments:
    """Consecutive ``SEGMENT``-request slices of one Zipf stream.

    One stream keeps a fixed key popularity (the hot set the cache can
    hold); slices are re-based onto one continuous simulated timeline.  The
    pool repeats when a fast host consumes all of it.
    """

    def __init__(self, stream: RequestStream) -> None:
        self.stream = stream
        self.count = len(stream) // SEGMENT
        self.next_ms = 0.0

    def take(self, index: int) -> RequestStream:
        start = (index % self.count) * SEGMENT
        part = slice(start, start + SEGMENT)
        arrivals = self.stream.arrival_ms[part]
        arrivals = arrivals - arrivals[0] + self.next_ms
        self.next_ms = float(arrivals[-1]) + 1.0 / REQUESTS_PER_MS
        return RequestStream(
            arrival_ms=arrivals,
            keys=self.stream.keys[part],
            client_ids=self.stream.client_ids[part],
            description=self.stream.description,
        )


def build_cgrx(keyset) -> ShardedIndex:
    """The read-only deployment: cgRX (bucket 32) shards, rf=1, memory only."""
    return ShardedIndex(
        keyset.keys,
        keyset.row_ids,
        factory=cgrx_factory(32, engine="compiled"),
        config=serve_config(),
    )


class PointZipf(Workload):
    """Read-only ``serve_stream`` over 2^16 keys on cgRX (bucket 32), rf=1."""

    name = "point_zipf"
    primary_call = "serve_stream"
    read_call = "serve_stream"
    num_keys = 1 << 16
    pool_requests = 1 << 17
    pass_calls = pool_requests // SEGMENT

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self.keyset = make_keys(self.num_keys, self.seed)
        self.stream = zipf_request_stream(
            self.keyset,
            self.pool_requests,
            zipf_coefficient=ZIPF,
            requests_per_ms=REQUESTS_PER_MS,
            miss_fraction=MISS_FRACTION,
            seed=self.seed + 1,
        )

    def inputs_digest(self) -> str:
        return digest(
            self.keyset.keys, self.keyset.row_ids, self.stream.keys, self.stream.arrival_ms
        )

    def build(self) -> ShardedIndex:
        return build_cgrx(self.keyset)

    def run(self, served, seconds, timer, checks) -> RunResult:
        result = RunResult()
        oracle = SortedOracle(self.keyset.keys, self.keyset.row_ids)
        segments = _Segments(self.stream)
        deadline = time.perf_counter() + seconds
        unit = 0
        while unit < self.pass_calls or time.perf_counter() < deadline:
            segment = segments.take(unit)
            position = unit % self.pass_calls
            self._serve_segment(
                served, segment, oracle, timer, checks, result, "point_answers", position
            )
            unit += 1
            if unit == self.pass_calls:
                self._stream_sim(served, result)
                self._after_first_pass(served, result)
        return result


class RangeScan(Workload):
    """Fixed-size ``range_lookup_batch`` calls, ~16 hits per range, same deployment."""

    name = "range_scan"
    primary_call = "range_lookup_batch"
    read_call = "range_lookup_batch"
    num_keys = 1 << 16
    reads_per_call = 64
    expected_hits = 16
    pass_calls = 256

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self.keyset = make_keys(self.num_keys, self.seed)
        self.lows, self.highs = range_lookups(
            self.keyset,
            self.reads_per_call * self.pass_calls,
            self.expected_hits,
            seed=self.seed + 1,
        )

    def inputs_digest(self) -> str:
        return digest(self.keyset.keys, self.keyset.row_ids, self.lows, self.highs)

    def build(self) -> ShardedIndex:
        return build_cgrx(self.keyset)

    def run(self, served, seconds, timer, checks) -> RunResult:
        result = RunResult()
        oracle = SortedOracle(self.keyset.keys, self.keyset.row_ids)
        sim_ms: List[float] = []
        deadline = time.perf_counter() + seconds
        unit = 0
        while unit < self.pass_calls or time.perf_counter() < deadline:
            position = unit % self.pass_calls
            part = slice(position * self.reads_per_call, (position + 1) * self.reads_per_call)
            lows, highs = self.lows[part], self.highs[part]
            answer = timer("range_lookup_batch", position, served.range_lookup_batch, lows, highs)
            checks.range_answers("range_answers", oracle, lows, highs, answer.row_ids)
            lengths = np.fromiter((len(r) for r in answer.row_ids), dtype=np.int64)
            result.digests.append(digest(lengths, *answer.row_ids))
            result.reads += len(lows)
            result.ops += len(lows)
            unit += 1
            if unit <= self.pass_calls:
                sim_ms.append(served.lookup_time_ms(answer))
            if unit == self.pass_calls:
                result.first_pass["sim_mean"] = float(np.mean(sim_ms))
                result.first_pass["sim_p99"] = float(np.percentile(sim_ms, 99))
                self._after_first_pass(served, result)
        return result


class MixedDurable(Workload):
    """Reads beside quorum writes on a durable, rf=3 cgRXu (node 128) deployment.

    A cycle is 8 insert waves then 8 delete waves (``update_waves``, growth
    2.0).  Every wave is one ``SEGMENT``-request Zipf segment over the
    current key set followed by the wave's keys in ``update_batch`` calls of
    :attr:`keys_per_call` keys.  Each call is one WAL record per shard it
    touches, fsynced before the ack (``store_fsync=True``); the maintenance
    worker checkpoints a shard after 32 records.  A pass is one
    whole cycle, so every run compacts, rebuilds and checkpoints.  The run
    ends with ``ShardedIndex.cold_start`` from the store.
    """

    name = "mixed_durable"
    primary_call = "update_batch"
    read_call = "serve_stream"
    num_keys = 1 << 15
    keys_per_call = 512
    waves_per_kind = 8
    growth = 2.0

    def __init__(self, seed: int, scratch: str) -> None:
        super().__init__(seed, scratch)
        self.keyset = make_keys(self.num_keys, self.seed)
        self._waves: Dict[int, list] = {}

    @property
    def pass_calls(self) -> int:
        # One cycle: per wave one segment plus the wave's update calls.
        return 2 * self.waves_per_kind * (1 + self.calls_per_wave())

    def calls_per_wave(self) -> int:
        wave_size = int(round((self.growth - 1.0) * self.num_keys)) // self.waves_per_kind
        return -(-wave_size // self.keys_per_call)

    def waves(self, cycle: int) -> list:
        """The insert/delete waves of one cycle (each cycle returns to the base set)."""
        if cycle not in self._waves:
            self._waves = {
                cycle: update_waves(
                    self.keyset,
                    self.waves_per_kind,
                    self.waves_per_kind,
                    growth_factor=self.growth,
                    seed=self.seed * 1000 + cycle + 7,
                )
            }
        return self._waves[cycle]

    def segment(self, oracle: SortedOracle, wave_seed: int, next_ms: float) -> RequestStream:
        stream = zipf_request_stream(
            oracle.keyset(KEY_BITS),
            SEGMENT,
            zipf_coefficient=ZIPF,
            requests_per_ms=REQUESTS_PER_MS,
            miss_fraction=MISS_FRACTION,
            seed=wave_seed,
        )
        stream.arrival_ms = stream.arrival_ms + next_ms
        return stream

    def inputs_digest(self) -> str:
        oracle = SortedOracle(self.keyset.keys, self.keyset.row_ids)
        parts = [self.keyset.keys, self.keyset.row_ids]
        for wave in self.waves(0):
            parts += [wave.insert_keys, wave.insert_row_ids, wave.delete_keys]
        parts.append(self.segment(oracle, self.seed + 1, 0.0).keys)
        return digest(*parts)

    def config(self, store_dir: str) -> ServeConfig:
        return serve_config(replication_factor=3, store_dir=store_dir, store_fsync=True)

    def factory(self):
        return cgrxu_factory(128, engine="compiled")

    def build(self) -> ShardedIndex:
        return ShardedIndex(
            self.keyset.keys,
            self.keyset.row_ids,
            factory=self.factory(),
            config=self.config(self.new_store_dir()),
        )

    def _check_entries(self, check, served, oracle, checks, attempted) -> None:
        for keys, rows in replica_entries(served):
            checks.entries(check, oracle, keys, rows, attempted)
            attempted = 0

    def run(self, served, seconds, timer, checks) -> RunResult:
        result = RunResult()
        oracle = SortedOracle(self.keyset.keys, self.keyset.row_ids)
        maintenance_before = served.maintenance.snapshot()
        deadline = time.perf_counter() + seconds
        unit = 0
        cycle = 0
        next_ms = 0.0
        user_bytes = 0
        done = False
        while not done:
            for wave_index, wave in enumerate(self.waves(cycle)):
                wave_seed = self.seed * 1000 + cycle * 100 + wave.wave
                segment = self.segment(oracle, wave_seed, next_ms)
                next_ms = float(segment.arrival_ms[-1]) + 1.0 / REQUESTS_PER_MS
                self._serve_segment(
                    served, segment, oracle, timer, checks, result, "mixed_point_answers",
                    wave_index,
                )
                unit += 1
                inserting = wave.kind == "insert"
                keys = wave.insert_keys if inserting else wave.delete_keys
                for call, start in enumerate(range(0, len(keys), self.keys_per_call)):
                    part = slice(start, start + self.keys_per_call)
                    position = wave_index * self.calls_per_wave() + call
                    if inserting:
                        update = timer(
                            "update_batch",
                            position,
                            served.update_batch,
                            insert_keys=keys[part],
                            insert_row_ids=wave.insert_row_ids[part],
                        )
                        oracle.apply(
                            insert_keys=keys[part], insert_row_ids=wave.insert_row_ids[part]
                        )
                        acked = update.inserted
                    else:
                        update = timer(
                            "update_batch", position, served.update_batch, delete_keys=keys[part]
                        )
                        oracle.apply(delete_keys=keys[part])
                        acked = update.deleted
                    written = len(keys[part])
                    user_bytes += written * (KEY_BYTES + ROW_ID_BYTES if inserting else KEY_BYTES)
                    checks.record("update_acks", written, abs(written - int(acked)))
                    result.digests.append(digest(np.asarray([update.inserted, update.deleted])))
                    result.written_keys += written
                    result.ops += written
                    unit += 1
                self._check_entries("export_entries", served, oracle, checks, wave.size)
                if unit == self.pass_calls:
                    self._stream_sim(served, result)
                    self._after_first_pass(served, result)
                if unit >= self.pass_calls and time.perf_counter() >= deadline:
                    done = True
                    break
            if not done:
                cycle += 1
        after = served.maintenance.snapshot()
        for key in ("compactions_performed", "rebuilds_performed", "checkpoints_performed"):
            result.extra[key] = after[key] - maintenance_before[key]
        result.extra["user_bytes"] = user_bytes
        result.extra["maintenance_time_ms"] = (
            after["maintenance_time_ms"] - maintenance_before["maintenance_time_ms"]
        )
        self._guard_background_work(result, checks)

        store = served.store
        recovered = timer(
            "cold_start",
            0,
            ShardedIndex.cold_start,
            store,
            factory=self.factory(),
            config=self.config(None),
        )
        result.extra["recovery_s"] = timer.scaled["cold_start"][-1] / 1e9
        self._check_entries("cold_start_entries", recovered, oracle, checks, len(oracle))
        # Every stored key plus every key this cycle wrote: the deleted ones
        # must come back as misses.
        written = np.concatenate([w.insert_keys for w in self.waves(cycle)])
        probe = np.unique(np.concatenate([oracle.keys, written]))
        answer = recovered.point_lookup_batch(probe)
        checks.point_answers(
            "cold_start_lookups", oracle, probe, (answer.row_ids, answer.match_counts)
        )
        return result

    def _guard_background_work(self, result: RunResult, checks: Checks) -> None:
        """Every run must compact, rebuild and checkpoint at least once."""
        for key in ("compactions_performed", "rebuilds_performed", "checkpoints_performed"):
            checks.record(f"background_{key}", 1, 0 if result.extra[key] >= 1 else 1)


WORKLOADS = {w.name: w for w in (PointZipf, RangeScan, MixedDurable)}
