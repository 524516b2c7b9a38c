"""Equivalence tests for the batch-granular serving hot path.

The serving loop records metrics per batch or per buffered stream instead of
per request, the batch scheduler skips polls before its next deadline, the
cgRX wrapper sums bucket-search work in one vectorised pass, and the compiled
kernel's table pointers are built once.  Each of those must be exactly
equivalent to the per-request code it replaced; the references below spell
that code out.
"""

from __future__ import annotations

import ctypes

import numpy as np
import pytest

from repro.core.bucket_search import BucketSearchModel
from repro.core.config import BucketLayout, SearchStrategy
from repro.obs.telemetry import LogBucketHistogram
from repro.rtx import compiled
from repro.serve import sharded
from repro.serve.batching import BatchPolicy, BatchScheduler
from repro.serve.metrics import (
    CLIENT_REQUESTS_METRIC,
    TENANT_LATENCY_METRIC,
    TENANT_REQUESTS_METRIC,
    BoundedLatencyHistogram,
    MetricsRegistry,
)
from repro.serve.qos import TenantQoS
from repro.serve.reliability import ReliabilityConfig
from repro.serve.sharded import ServeConfig, ShardedIndex
from repro.workloads.adversarial import TenantSpec, multi_tenant_stream
from repro.workloads.failures import failure_schedule
from repro.workloads.keygen import generate_keys
from repro.workloads.requests import RequestStream


class PerRequestMetrics(MetricsRegistry):
    """Reference registry: the bulk recorders replayed one request at a time,
    exactly as the serving loop recorded before it buffered per batch."""

    def record_requests(self, latencies_ms, arrivals_ms, completions_ms) -> None:
        for latency, arrival, completion in zip(latencies_ms, arrivals_ms, completions_ms):
            self.latency.record(latency)
            self.request_arrivals.append(float(arrival))
            self.request_latencies.append(float(latency))
            self.bump("requests")
            if self.first_arrival_ms is None or arrival < self.first_arrival_ms:
                self.first_arrival_ms = float(arrival)
            if self.last_completion_ms is None or completion > self.last_completion_ms:
                self.last_completion_ms = float(completion)

    def record_clients(self, client_ids) -> None:
        for client in client_ids:
            self.telemetry.counter(CLIENT_REQUESTS_METRIC, client=str(int(client))).inc()

    def record_tenant_requests(self, tenant_ids, latencies_ms) -> None:
        for tenant, latency in zip(tenant_ids, latencies_ms):
            label = str(int(tenant))
            self.telemetry.counter(TENANT_REQUESTS_METRIC, tenant=label).inc()
            self.telemetry.get_or_create(
                TENANT_LATENCY_METRIC, BoundedLatencyHistogram, tenant=label
            ).record(float(latency))


def _latency_samples(rng, count):
    """Latencies over six decades: pairwise and sequential sums differ."""
    return (10.0 ** rng.uniform(-3.0, 3.0, size=count)).tolist()


# --------------------------------------------------------------------------
# Ordered bulk histogram record
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_record_ordered_matches_per_sample_records(seed):
    rng = np.random.default_rng(seed)
    values = _latency_samples(rng, 5000)
    # Underflow and overflow buckets too (early, so the total still carries
    # the low bits a pairwise sum would change).
    values[10:10] = [0.0, -1.0, 2e9]
    per_sample, bulk = LogBucketHistogram(), LogBucketHistogram()
    per_sample.record(0.37)
    bulk.record(0.37)
    for value in values:
        per_sample.record(value)
    for chunk in np.array_split(np.asarray(values), 7):
        bulk.record_ordered(chunk)
    bulk.record_ordered([])
    assert bulk.total.hex() == per_sample.total.hex()
    assert np.array_equal(bulk.bucket_counts, per_sample.bucket_counts)
    assert (bulk.count, bulk.min, bulk.max) == (per_sample.count, per_sample.min, per_sample.max)


def test_pairwise_record_many_is_not_ordered():
    """Why the ordered variant exists: a pairwise sum drifts in the last bits."""
    values = _latency_samples(np.random.default_rng(0), 5000)
    sequential, pairwise = LogBucketHistogram(), LogBucketHistogram()
    for value in values:
        sequential.record(value)
    pairwise.record_many(values)
    assert pairwise.total != sequential.total
    assert pairwise.total == pytest.approx(sequential.total, rel=1e-12)


# --------------------------------------------------------------------------
# Bulk registry recorders
# --------------------------------------------------------------------------


def _registry_state(metrics: MetricsRegistry):
    return (
        repr(metrics.snapshot()),
        repr(metrics.telemetry.snapshot()),
        metrics.telemetry.exposition(),
        metrics.request_latencies,
        metrics.request_arrivals,
    )


def test_bulk_recorders_match_per_request_api():
    rng = np.random.default_rng(3)
    count = 3000
    latencies = _latency_samples(rng, count)
    arrivals = np.sort(rng.uniform(0.0, 500.0, size=count)).tolist()
    completions = [a + l for a, l in zip(arrivals, latencies)]
    clients = rng.integers(0, 40, size=count)
    tenants = rng.integers(-1, 3, size=count)

    reference = PerRequestMetrics(num_shards=4)
    single = MetricsRegistry(num_shards=4)
    bulk = MetricsRegistry(num_shards=4)
    for registry in (reference, single, bulk):
        registry.bump("cache_hits", 5)
        registry.record_shard_batch(1, 17, 0.25, reason="timeout")
    reference.record_requests(latencies, arrivals, completions)
    reference.record_clients(clients)
    labeled = tenants != -1
    reference.record_tenant_requests(tenants[labeled], np.asarray(latencies)[labeled])
    for position in range(count):
        single.record_request(latencies[position], arrivals[position], completions[position])
        single.record_client(int(clients[position]))
        if tenants[position] != -1:
            single.record_tenant_request(int(tenants[position]), latencies[position])
    for part in np.array_split(np.arange(count), 5):
        bulk.record_requests(
            [latencies[i] for i in part],
            [arrivals[i] for i in part],
            [completions[i] for i in part],
        )
        bulk.record_clients(clients[part])
        mine = part[labeled[part]]
        bulk.record_tenant_requests(tenants[mine], np.asarray(latencies)[mine])
    expected = _registry_state(reference)
    assert _registry_state(single) == expected
    assert _registry_state(bulk) == expected


def test_record_requests_shares_the_given_float_objects():
    """The exact per-request log keeps the caller's floats, not copies."""
    latency, arrival = 0.01, 12.5
    metrics = MetricsRegistry()
    metrics.record_requests([latency, latency], [arrival, arrival], [13.0, 13.0])
    assert all(value is latency for value in metrics.request_latencies)
    assert all(value is arrival for value in metrics.request_arrivals)


# --------------------------------------------------------------------------
# Scheduler horizon
# --------------------------------------------------------------------------


class ScanEveryPollScheduler(BatchScheduler):
    """Reference scheduler: every poll scans every queue (no horizon)."""

    def _flush_expired(self, now_ms):
        batches = []
        for shard_id in sorted(self._queues):
            queue = self._queues[shard_id]
            deadline = queue.deadline_ms + self.policy.max_wait_ms
            if len(queue) and deadline <= now_ms:
                batches.append(self._dispatch(shard_id, queue, deadline, "timeout"))
        return batches


def _batch_tuple(batch):
    return (
        batch.shard_id,
        batch.keys.tobytes(),
        batch.request_ids.tobytes(),
        batch.arrival_ms.tobytes(),
        batch.dispatch_ms,
        batch.reason,
        None if batch.tenant_ids is None else batch.tenant_ids.tobytes(),
    )


@pytest.mark.parametrize(
    "num_shards, max_batch_size, max_wait_ms",
    [(1, 4096, 1.0), (4, 8, 0.5), (3, 1, 1.0), (5, 16, 0.0), (8, 3, 0.25), (2, 64, 2.0)],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_horizon_scheduler_matches_scan_every_poll(num_shards, max_batch_size, max_wait_ms, seed):
    rng = np.random.default_rng(seed)
    policy = BatchPolicy(max_batch_size=max_batch_size, max_wait_ms=max_wait_ms)
    horizon, reference = BatchScheduler(policy), ScanEveryPollScheduler(policy)
    now = 0.0
    for request_id in range(1500):
        # A coarse time grid makes arrivals land exactly on deadlines too.
        now += float(rng.integers(0, 3)) * 0.125
        action = rng.random()
        if action < 0.5:
            shard = int(rng.integers(0, num_shards))
            key = int(rng.integers(0, 1 << 40))
            tenant = int(rng.integers(-1, 2))
            outputs = [
                scheduler.offer(shard, request_id, key, now, tenant_id=tenant)
                for scheduler in (horizon, reference)
            ]
        elif action < 0.98:
            outputs = [scheduler.poll(now) for scheduler in (horizon, reference)]
        else:
            outputs = [scheduler.drain(now) for scheduler in (horizon, reference)]
        assert [_batch_tuple(b) for b in outputs[0]] == [_batch_tuple(b) for b in outputs[1]]
        assert horizon.total_pending == reference.total_pending
    assert [_batch_tuple(b) for b in horizon.drain(now + 10.0)] == [
        _batch_tuple(b) for b in reference.drain(now + 10.0)
    ]
    assert horizon.num_dispatched == reference.num_dispatched


# --------------------------------------------------------------------------
# Vectorised bucket-search work
# --------------------------------------------------------------------------


@pytest.mark.parametrize("strategy", [SearchStrategy.LINEAR, SearchStrategy.BINARY])
@pytest.mark.parametrize("layout", [BucketLayout.ROW, BucketLayout.COLUMN])
@pytest.mark.parametrize("bucket_size", [1, 4, 32, 256])
def test_point_search_total_matches_summed_point_search(strategy, layout, bucket_size):
    rng = np.random.default_rng(bucket_size)
    model = BucketSearchModel(strategy=strategy, layout=layout, key_bytes=8, rowid_bytes=4)
    scanned = np.concatenate(
        [
            rng.integers(1, 4 * bucket_size + 40, size=300),
            [0, 0, -3, 1, bucket_size, bucket_size + 1, 10 * bucket_size + 17],
        ]
    ).astype(np.int64)
    rng.shuffle(scanned)
    expected_bytes = expected_ops = 0
    for entries in scanned:
        if entries <= 0:
            continue
        cost = model.point_search(bucket_size, int(entries))
        expected_bytes += cost.bytes_read
        expected_ops += cost.compute_ops
    total = model.point_search_total(bucket_size, scanned)
    assert (total.bytes_read, total.compute_ops) == (expected_bytes, expected_ops)
    assert type(total.bytes_read) is int and type(total.compute_ops) is int
    empty = model.point_search_total(bucket_size, np.zeros(5, dtype=np.int64))
    assert (empty.bytes_read, empty.compute_ops) == (0, 0)


# --------------------------------------------------------------------------
# Compiled kernel table pointers
# --------------------------------------------------------------------------


def test_table_pointers_are_built_once_and_address_the_tables():
    from repro.core import CgRXConfig, CgRXIndex

    keys = np.arange(0, 3000, 3, dtype=np.uint64)
    index = CgRXIndex(keys, config=CgRXConfig(bucket_size=8, key_bits=64))
    tables = compiled.CompiledBvhTables(index.pipeline.bvh, compiled.Arena())
    assert tables.usable
    struct = tables.struct
    assert tables.address == ctypes.addressof(struct)
    arrays = tables.table_arrays()
    assert len(arrays) == len(struct._fields_) == 13
    assert [getattr(struct, name) for name, _ in struct._fields_] == [
        a.ctypes.data for a in arrays
    ]
    assert all(a.flags.c_contiguous for a in arrays)


# --------------------------------------------------------------------------
# End to end: buffered recording vs per-request recording
# --------------------------------------------------------------------------


def _every_path_stream(keyset):
    """Tenants (one flooding), unlabeled requests and negative keys."""
    stream = multi_tenant_stream(
        keyset,
        [
            TenantSpec(tenant=1, requests_per_ms=8.0, zipf_coefficient=0.6),
            TenantSpec(tenant=2, requests_per_ms=1.0),
        ],
        duration_ms=60.0,
        seed=3,
    )
    rng = np.random.default_rng(1)
    keys = stream.keys.astype(np.int64)
    negative = rng.random(keys.size) < 0.05
    keys[negative] = -rng.integers(1, 1000, int(negative.sum()))
    tenants = stream.tenant_ids.copy()
    tenants[rng.random(keys.size) < 0.1] = -1
    return RequestStream(
        arrival_ms=stream.arrival_ms,
        keys=keys,
        client_ids=stream.client_ids,
        tenant_ids=tenants,
    )


def _serve(keyset, stream, metrics):
    config = ServeConfig(
        num_shards=4,
        key_bits=32,
        cache_capacity=256,
        max_wait_ms=0.3,
        tenants=(
            TenantQoS(tenant=1, priority=0, rate_limit_per_ms=2.0, cache_share=0.25),
            TenantQoS(tenant=2, priority=2, cache_share=0.25),
        ),
        max_queue_depth=48,
        replication_factor=2,
        reliability=ReliabilityConfig(deadline_ms=0.25),
        telemetry_sample_interval_ms=5.0,
    )
    metrics.telemetry.sample_interval_ms = config.telemetry_sample_interval_ms
    deployment = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
    deployment.inject_failures(failure_schedule(4, 2, 60.0, seed=2))
    deployment.serve_stream(stream, metrics=metrics, record_answers=True)
    return deployment


def test_buffered_stream_matches_per_request_recording(monkeypatch):
    keyset = generate_keys(num_keys=4096, uniformity=0.5, key_bits=32, seed=5)
    stream = _every_path_stream(keyset)
    buffered = MetricsRegistry(num_shards=4)
    fast = _serve(keyset, stream, buffered)
    # The reference flushes each record before the next request is served.
    monkeypatch.setattr(sharded, "_CHUNK_REQUESTS", 1)
    per_request = PerRequestMetrics(num_shards=4)
    slow = _serve(keyset, stream, per_request)

    snapshot = buffered.snapshot()
    for counter in (
        "requests_shed",
        "deadline_exceeded",
        "negative_key_misses",
        "cache_hits",
        "cache_misses",
        "tenant_1_requests",
        "tenant_2_requests",
    ):
        assert snapshot.get(counter, 0) > 0, counter
    assert len(buffered.telemetry.series) > 5

    assert [a.tobytes() for a in fast.last_answers] == [
        a.tobytes() for a in slow.last_answers
    ]
    for name in ("last_shed", "last_unavailable", "last_deadline_exceeded", "last_stale"):
        assert getattr(fast, name).tobytes() == getattr(slow, name).tobytes(), name
    assert repr(snapshot) == repr(per_request.snapshot())
    assert repr(buffered.telemetry.series) == repr(per_request.telemetry.series)
    assert repr(buffered.telemetry.snapshot()) == repr(per_request.telemetry.snapshot())
    assert buffered.request_latencies == per_request.request_latencies
    assert buffered.request_arrivals == per_request.request_arrivals
