"""`ShardedIndex`: a served, sharded deployment behind the `GpuIndex` interface.

The facade composes the serving layers — shard router, LRU result/negative
cache, request batch scheduler, background maintenance worker and telemetry
registry — while still *being* a :class:`~repro.baselines.base.GpuIndex`:
bulk-call benchmarks (and the contract tests) drive it exactly like any
single-instance baseline, and :meth:`serve_stream` additionally serves a
timed client request stream the way a deployment would.

Simulated-time accounting: shards execute concurrently, so the deployment's
bulk-load time is the slowest shard's build (makespan), foreground lookup
stats aggregate all shard kernels, and maintenance work is accounted on the
worker (off the request path) rather than in the foreground results.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from repro.baselines.base import (
    GpuIndex,
    LookupResult,
    RangeLookupResult,
    UpdateResult,
    sorted_lookup_results,
)
from repro.baselines.sorted_array import SortedArrayIndex
from repro.gpu.device import RTX_4090, GpuDevice
from repro.gpu.kernels import KernelStats, combine
from repro.gpu.memory import MemoryFootprint
from repro.obs.trace import Tracer
from repro.serve.batching import BatchPolicy, BatchScheduler
from repro.serve.cache import ResultCache
from repro.serve.maintenance import MaintenancePolicy, MaintenanceWorker, ReshardPolicy
from repro.serve.metrics import MetricsRegistry
from repro.serve.partition import out_of_domain_mask
from repro.serve.qos import UNLABELED_TENANT, AdmissionController, TenantQoS
from repro.serve.reliability import ReliabilityConfig, ReliabilityState
from repro.serve.replication import (
    FailureInjector,
    ReplicatedShardRouter,
    ReplicationConfig,
    SimulatedClock,
)
from repro.serve.router import ShardFactory, ShardRouter
from repro.store import DeploymentStore, LocalDirBackend
from repro.workloads.keygen import KeySet
from repro.workloads.requests import RequestStream


#: Requests the serving loop converts to Python scalars at a time, and
#: buffered request records after which it flushes its log into the metrics
#: registry: both keep the loop's transient memory independent of the
#: stream's length.
_CHUNK_REQUESTS = 512


def _stream_requests(stream: RequestStream, keys: np.ndarray, key_max: int):
    """``(request_id, arrival_ms, key)`` of every request as Python scalars,
    converted one chunk at a time instead of one numpy element at a time.

    Keys above ``key_max`` come out as ``-1``: like negative keys they lie
    outside the deployment's keyspace, and the serving loop answers every
    negative key host-side, so the per-request test stays one comparison.
    """
    if keys.dtype.kind not in "iu":
        yield from stream
        return
    arrivals = np.asarray(stream.arrival_ms, dtype=np.float64)
    count = len(stream)
    can_exceed = np.iinfo(keys.dtype).max > key_max
    for start in range(0, count, _CHUNK_REQUESTS):
        stop = min(start + _CHUNK_REQUESTS, count)
        chunk = keys[start:stop]
        if can_exceed:
            above = chunk > key_max
            if above.any():
                # Wrapped values of the masked positions are overwritten.
                chunk = np.where(above, -1, chunk.astype(np.int64))
        yield from zip(range(start, stop), arrivals[start:stop].tolist(), chunk.tolist())


class _RequestLog:
    """Per-stream buffer of served-request records, in recording order.

    The serving loop appends one record per answered request (cache hits,
    negative keys and batch riders alike) and :meth:`flush` hands the buffer
    to the metrics registry in bulk, which leaves the registry exactly as
    per-request recording would.
    """

    __slots__ = ("latencies", "arrivals", "completions", "request_ids", "tenants")

    def __init__(self, tenants: bool) -> None:
        self.latencies: list = []
        self.arrivals: list = []
        self.completions: list = []
        self.request_ids: list = []
        #: Tenant label per record; ``None`` for streams without tenants.
        self.tenants: Optional[list] = [] if tenants else None

    def append(self, latency, arrival, completion, request_id, tenant) -> None:
        self.latencies.append(latency)
        self.arrivals.append(arrival)
        self.completions.append(completion)
        self.request_ids.append(request_id)
        if self.tenants is not None:
            self.tenants.append(tenant)

    def extend(self, latencies, arrivals, completions, request_ids, tenants) -> None:
        """Append one batch's records (``tenants`` is ``None`` when the batch
        carries no tenant labels)."""
        self.latencies.extend(latencies)
        self.arrivals.extend(arrivals)
        self.completions.extend(completions)
        self.request_ids.extend(request_ids)
        if self.tenants is not None:
            self.tenants.extend(
                tenants if tenants is not None else [UNLABELED_TENANT] * len(latencies)
            )

    def flush(self, metrics: MetricsRegistry, client_ids: np.ndarray) -> None:
        if not self.request_ids:
            return
        metrics.record_requests(self.latencies, self.arrivals, self.completions)
        metrics.record_clients(client_ids[self.request_ids])
        if self.tenants is not None:
            tenants = np.asarray(self.tenants, dtype=np.int64)
            labeled = tenants != UNLABELED_TENANT
            if labeled.any():
                metrics.record_tenant_requests(
                    tenants[labeled], np.asarray(self.latencies)[labeled]
                )
            self.tenants.clear()
        self.latencies.clear()
        self.arrivals.clear()
        self.completions.clear()
        self.request_ids.clear()


@dataclass(frozen=True)
class ServeConfig:
    """Configuration of a served deployment."""

    #: Number of index shards.
    num_shards: int = 4
    #: Key-space partitioning strategy: ``"range"`` or ``"hash"``.
    partitioner: str = "range"
    #: Key width of the deployment.
    key_bits: int = 64
    #: Result-cache entries (0 disables the cache).
    cache_capacity: int = 4096
    #: Dispatch a shard batch at this size.
    max_batch_size: int = 4096
    #: ... or after the oldest queued request waited this long.
    max_wait_ms: float = 1.0
    #: Degradation score at which the maintenance worker rebuilds a shard.
    rebuild_threshold: float = 0.5
    #: Degradation score at which the maintenance worker starts compacting
    #: a shard's hottest-chained buckets (the cheap first tier; set it at or
    #: above ``rebuild_threshold`` to disable incremental compaction).
    compact_threshold: float = 0.2
    #: Hottest-chained buckets folded per compaction task.
    compact_max_buckets: int = 64
    #: How full shard rebuilds swap in: ``"double_buffered"`` (background
    #: build + atomic swap, zero unavailability) or ``"stop_the_world"``.
    rebuild_mode: str = "double_buffered"
    #: Host-side latency charged to a request answered from cache.
    cache_latency_ms: float = 0.01
    #: Replicas per shard (1 = unreplicated, the plain shard router).
    replication_factor: int = 1
    #: Read-balancing policy across a shard's replicas.
    read_policy: str = "round_robin"
    #: Write quorum per shard (majority of the replicas when ``None``).
    write_quorum: Optional[int] = None
    #: Apply-log records retained per shard for replica catch-up.
    log_capacity: int = 64
    #: Scatter/gather execution engine of the shard router: ``"vector"``
    #: (batched span computation), ``"compiled"`` (vector routing plus the
    #: compiled hot path inside every shard) or ``"scalar"``; answers are
    #: identical under all three.
    engine: str = "vector"
    #: Arm the request tracer: every served request, batch execution,
    #: replica read/failover and maintenance window records a span on the
    #: simulated clock (exportable as Chrome trace-event JSON).  Tracing is
    #: behavior-neutral: answers and metrics are byte-identical either way.
    tracing: bool = False
    #: Period (simulated ms) of time-series telemetry snapshots during
    #: serving; 0 disables sampling.
    telemetry_sample_interval_ms: float = 0.0
    #: Per-tenant QoS contracts (priorities, rate limits, reserved cache
    #: shares); ``None`` serves every request unconditionally.
    tenants: Optional[Tuple[TenantQoS, ...]] = None
    #: Deployment-wide queued backlog at which low-priority tenants are shed
    #: (0 disables saturation shedding; rate limits still apply).
    max_queue_depth: int = 0
    #: Backlog multiple of ``max_queue_depth`` past which *every* request is
    #: shed.
    hard_limit_factor: float = 2.0
    #: Enable dynamic shard split/merge driven by observed load skew
    #: (range-partitioned, unreplicated deployments only).
    reshard: bool = False
    #: How often (simulated ms) the serving loop re-evaluates the topology.
    reshard_interval_ms: float = 50.0
    #: Split the hottest shard once its windowed load exceeds this multiple
    #: of the mean per-shard load.
    reshard_split_skew: float = 2.0
    #: Merge the coldest adjacent pair once its combined load drops below
    #: this fraction of the mean per-shard load.
    reshard_merge_fraction: float = 0.4
    #: Topology ceiling for splits.
    reshard_max_shards: int = 64
    #: Never split a shard storing fewer entries than this.
    reshard_min_split_entries: int = 128
    #: Durable-tier directory: when set, the deployment attaches a
    #: :class:`repro.store.DeploymentStore` over a
    #: :class:`repro.store.LocalDirBackend` rooted here — every acknowledged
    #: write batch is WAL-logged before its ack, the maintenance worker takes
    #: periodic checkpoints, and :meth:`ShardedIndex.cold_start` can rebuild
    #: the deployment from the directory after a process exit.
    store_dir: Optional[str] = None
    #: Whether every durable put carries an fsync barrier (the overhead knob
    #: the durability experiment measures).
    store_fsync: bool = True
    #: WAL records accumulated behind a checkpoint before the maintenance
    #: worker takes the next one.
    checkpoint_wal_records: int = 32
    #: Tail-tolerance layer (:class:`repro.serve.reliability.ReliabilityConfig`):
    #: request deadlines, per-shard retry budgets, hedged reads, per-replica
    #: circuit breakers and explicit partial results.  ``None`` keeps the
    #: classic never-give-up read semantics.
    reliability: Optional[ReliabilityConfig] = None

    def describe(self) -> str:
        cache = f"cache={self.cache_capacity}" if self.cache_capacity else "no-cache"
        label = f"sharded({self.partitioner}x{self.num_shards}, {cache})"
        if self.replication_factor > 1:
            label = (
                f"replicated({self.partitioner}x{self.num_shards}"
                f"x{self.replication_factor}, {self.read_policy}, {cache})"
            )
        if self.reshard:
            label = f"adaptive-{label}"
        if self.tenants:
            label = f"{label}+qos"
        if self.reliability is not None:
            label = f"{label}+rel"
        return label

    def replication(self) -> "ReplicationConfig":
        """The per-shard replica-group configuration this config implies."""
        return ReplicationConfig(
            replication_factor=self.replication_factor,
            read_policy=self.read_policy,
            write_quorum=self.write_quorum,
            log_capacity=self.log_capacity,
        )


def _default_factory(keyset: KeySet, device: GpuDevice) -> GpuIndex:
    return SortedArrayIndex(
        keyset.keys, keyset.row_ids, key_bits=keyset.key_bits, device=device
    )


class ShardedIndex(GpuIndex):
    """Sharded, cached, batch-served deployment of any `GpuIndex` type."""

    name = "sharded"
    supports_point = True
    supports_range = True
    supports_64bit = True
    supports_updates = True
    supports_bulk_load = True
    memory_class = "med"

    def __init__(
        self,
        keys: np.ndarray,
        row_ids: Optional[np.ndarray] = None,
        factory: Optional[ShardFactory] = None,
        config: Optional[ServeConfig] = None,
        device: GpuDevice = RTX_4090,
    ) -> None:
        super().__init__(device)
        self.config = config or ServeConfig()
        self.name = self.config.describe()
        self._key_dtype = np.uint32 if self.config.key_bits == 32 else np.uint64
        self._key_max = int(np.iinfo(self._key_dtype).max)
        if self.config.reshard:
            if self.config.partitioner != "range":
                raise ValueError(
                    "dynamic resharding needs the range partitioner "
                    "(hash placement has no boundaries to move)"
                )
            if self.config.replication_factor > 1:
                raise ValueError(
                    "dynamic resharding is not supported on replicated "
                    "deployments"
                )

        keys = np.asarray(keys, dtype=self._key_dtype)
        if row_ids is None:
            row_ids = np.arange(keys.shape[0], dtype=np.uint32)
        row_ids = np.asarray(row_ids, dtype=np.uint32)

        #: Simulated clock driving failure injection and replica recovery.
        self.clock = SimulatedClock()
        router_args = dict(
            factory=factory or _default_factory,
            num_shards=self.config.num_shards,
            partitioner=self.config.partitioner,
            key_bits=self.config.key_bits,
            device=device,
            engine=self.config.engine,
        )
        if self.config.replication_factor > 1:
            self.router: ShardRouter = ReplicatedShardRouter(
                keys,
                row_ids,
                replication=self.config.replication(),
                clock=self.clock,
                **router_args,
            )
        else:
            self.router = ShardRouter(keys, row_ids, **router_args)
        #: Tail-tolerance machinery shared by every replica group (``None``
        #: when :attr:`ServeConfig.reliability` is unset): retry budgets,
        #: hedging quantiles, circuit breakers and their counters.
        self.reliability: Optional[ReliabilityState] = None
        if self.config.reliability is not None:
            self.reliability = ReliabilityState(self.config.reliability, self.clock)
        #: Failure-schedule replayer (armed by :meth:`inject_failures`).
        self.failures: Optional[FailureInjector] = None
        #: Per-tenant admission control (None = serve everything).
        self.admission: Optional[AdmissionController] = None
        if self.config.tenants or self.config.max_queue_depth:
            self.admission = AdmissionController(
                tenants=self.config.tenants or (),
                max_queue_depth=self.config.max_queue_depth,
                hard_limit_factor=self.config.hard_limit_factor,
            )
        cache_partitions = (
            self.admission.cache_partitions() if self.admission is not None else {}
        )
        self.cache: Optional[ResultCache] = (
            ResultCache(self.config.cache_capacity, partitions=cache_partitions or None)
            if self.config.cache_capacity
            else None
        )
        self.maintenance = MaintenanceWorker(
            self.router,
            policy=MaintenancePolicy(
                rebuild_threshold=self.config.rebuild_threshold,
                compact_threshold=self.config.compact_threshold,
                compact_max_buckets=self.config.compact_max_buckets,
                rebuild_mode=self.config.rebuild_mode,
                checkpoint_wal_records=self.config.checkpoint_wal_records,
            ),
            cache=self.cache,
            reshard_policy=ReshardPolicy(
                enabled=self.config.reshard,
                interval_ms=self.config.reshard_interval_ms,
                split_skew=self.config.reshard_split_skew,
                merge_fraction=self.config.reshard_merge_fraction,
                min_split_entries=self.config.reshard_min_split_entries,
                max_shards=self.config.reshard_max_shards,
            ),
        )
        #: Durable tier (armed via ``ServeConfig.store_dir`` or
        #: :meth:`attach_store`); ``None`` keeps the deployment memory-only.
        self.store: Optional[DeploymentStore] = None
        #: Per-shard recovery reports of the last :meth:`cold_start`.
        self.last_recovery: Optional[dict] = None
        #: Request tracer on the simulated clock (spans only when armed via
        #: ``ServeConfig.tracing`` or by flipping ``tracer.enabled``).
        self.tracer = Tracer(clock=self.clock, enabled=self.config.tracing)
        #: Cumulative telemetry over every served stream (serve_stream default).
        self.metrics = MetricsRegistry(num_shards=self.config.num_shards)
        if self.config.telemetry_sample_interval_ms > 0.0:
            self.metrics.telemetry.sample_interval_ms = (
                self.config.telemetry_sample_interval_ms
            )
        self.router.partitioner.route_counter = self.metrics.telemetry.counter(
            "serve_partition_keys_routed_total", kind=self.router.partitioner.kind
        )
        self._bind_group_metrics(self.metrics)
        #: Trace ids of in-flight requests (cache-miss probes recorded before
        #: the batch that answers the request completes the trace).
        self._request_trace_ids = {}
        #: Batch results awaiting their simulated completion time (serve_stream),
        #: and the earliest of those completion times.
        self._pending_fills = []
        self._next_fill_ms = float("inf")
        #: Buffered per-request records of the stream being served.
        self._request_log = None
        #: Per-shard device horizon: a shard executes one batch at a time, so
        #: a batch dispatched while the previous one is still running queues
        #: on the device (this is what makes a saturated hot shard *visible*
        #: as latency instead of free parallelism).
        self._device_busy_until = {}
        #: Requests inside dispatched-but-uncompleted batches, as a heap of
        #: ``(completion_ms, size)``.  Together with the scheduler queues this
        #: is the backlog signal admission control sheds against.
        self._inflight = []
        self._inflight_count = 0
        #: Per-request answers of the last ``serve_stream(record_answers=True)``.
        self.last_answers = None
        #: Boolean mask of requests shed by admission control in the last
        #: ``serve_stream(record_answers=True)`` (excluded from oracle checks).
        self.last_shed = None
        #: Boolean mask of requests abandoned as explicit partial results
        #: (shard unavailable within the reliability bounds); excluded from
        #: oracle byte-checks the same way ``last_shed`` is.
        self.last_unavailable = None
        #: Boolean mask of requests whose deadline expired before their batch
        #: completed (answered deterministically at the deadline, masked).
        self.last_deadline_exceeded = None
        #: Boolean mask of requests answered from the last durable state
        #: instead of a live replica (graceful degradation; masked).
        self.last_stale = None
        self._answer_sink = None
        self._unavailable_sink = None
        self._deadline_sink = None
        self._stale_sink = None
        #: Per-shard durable-state lookup tables for stale reads, rebuilt per
        #: served stream (stale by contract; never fed back into the cache).
        self._stale_tables = {}
        self.build_stats = [
            stats
            for shard in self.router.shards
            if shard.index is not None
            for stats in shard.index.build_stats
        ]
        if self.config.store_dir:
            self.attach_store(
                DeploymentStore(
                    LocalDirBackend(self.config.store_dir, fsync=self.config.store_fsync),
                    key_bits=self.config.key_bits,
                )
            )

    # ------------------------------------------------------------- durability

    def attach_store(self, store: DeploymentStore) -> DeploymentStore:
        """Arm the durable tier: WAL-before-ack plus periodic checkpoints.

        Attaching *rebases* the store on the deployment's current state —
        every shard gets a fresh checkpoint at its current LSN and stale WAL
        records are dropped — so attach is also how a recovered deployment
        re-arms durability after :meth:`cold_start`.
        """
        store.metrics = self.metrics
        store.tracer = self.tracer
        store.clock = self.clock
        store.key_bits = self.config.key_bits
        self.store = store
        self.router.bind_sinks(store=store)
        self.maintenance.store = store
        store.checkpoint_deployment(self.router)
        return store

    @classmethod
    def cold_start(
        cls,
        store: DeploymentStore,
        factory: Optional[ShardFactory] = None,
        config: Optional[ServeConfig] = None,
        device: GpuDevice = RTX_4090,
    ) -> "ShardedIndex":
        """Rebuild a deployment from its durable store after a process exit.

        Every shard is recovered to the latest valid checkpoint plus its WAL
        tail (torn tail records truncated, corrupt ones skipped and counted),
        the deployment is bulk-loaded from the recovered entries, and the
        store is re-attached (rebased) so serving continues durably.  The
        per-shard recovery reports land in :attr:`last_recovery`.
        """
        manifest = store.read_manifest()
        config = config or ServeConfig()
        # The passed store is re-attached below; store_dir=None keeps the
        # constructor from arming a second one over the same directory.
        config = replace(
            config,
            num_shards=int(manifest["num_shards"]),
            partitioner=str(manifest["partitioner"]),
            key_bits=int(manifest["key_bits"]),
            store_dir=None,
        )
        recoveries = [
            store.recover_shard(shard_id)
            for shard_id in range(int(manifest["num_shards"]))
        ]
        key_dtype = np.uint32 if config.key_bits == 32 else np.uint64
        keys = np.concatenate(
            [recovery.keys for recovery in recoveries]
            or [np.empty(0, dtype=key_dtype)]
        ).astype(key_dtype)
        row_ids = np.concatenate(
            [recovery.row_ids for recovery in recoveries]
            or [np.empty(0, dtype=np.uint32)]
        ).astype(np.uint32)
        deployment = cls(
            keys, row_ids, factory=factory, config=config, device=device
        )
        deployment.attach_store(store)
        deployment.last_recovery = {
            "num_shards": len(recoveries),
            "entries_recovered": int(sum(r.num_entries for r in recoveries)),
            "records_replayed": int(sum(r.replayed for r in recoveries)),
            "torn_truncated": int(sum(r.torn_truncated for r in recoveries)),
            "corrupt_skipped": int(sum(r.corrupt_skipped for r in recoveries)),
            "recovery_wall_ms": float(sum(r.wall_ms for r in recoveries)),
            "shards": [
                {
                    "shard_id": r.shard_id,
                    "entries": r.num_entries,
                    "checkpoint_lsn": r.checkpoint_lsn,
                    "lsn": r.lsn,
                    "replayed": r.replayed,
                    "wall_ms": r.wall_ms,
                }
                for r in recoveries
            ],
        }
        return deployment

    # ------------------------------------------------------------------ build

    @property
    def build_time_ms(self) -> float:
        """Shards bulk-load concurrently: the deployment is ready at the makespan."""
        return self.router.build_time_ms()

    # ---------------------------------------------------------------- lookups

    def _cache_probe_stats(self, num_keys: int) -> KernelStats:
        # The cache is a host-side hash map in front of the device: pure
        # compute, no kernel launch.
        return KernelStats(name="serve.cache_probe", compute_ops=num_keys, launches=0)

    def point_lookup_batch(self, keys: np.ndarray) -> LookupResult:
        # Signed batches, and batches holding keys above the key dtype's
        # maximum, keep their dtype: the router answers out-of-domain keys as
        # misses, and an eager uint cast here would wrap them onto stored
        # keys instead (and poison the cache with aliases).
        keys = np.asarray(keys)
        if not np.issubdtype(keys.dtype, np.signedinteger) and (
            out_of_domain_mask(keys, self._key_max) is None
        ):
            keys = keys.astype(self._key_dtype)
        num = int(keys.shape[0])
        if self.cache is None:
            return self.router.point_lookup_batch(keys)

        cached, row_agg, counts = self.cache.probe_batch(keys)
        parts = [self._cache_probe_stats(num)]
        uncached = np.where(~cached)[0]
        if uncached.shape[0]:
            served = self.router.point_lookup_batch(keys[uncached])
            row_agg[uncached] = served.row_ids
            counts[uncached] = served.match_counts
            self.cache.fill_batch(keys[uncached], served.row_ids, served.match_counts)
            parts.append(served.stats)
        stats = combine("serve.point_lookup", parts)
        return LookupResult(row_ids=row_agg, match_counts=counts, stats=stats)

    def range_lookup_batch(self, lows: np.ndarray, highs: np.ndarray) -> RangeLookupResult:
        # Range results are not cached: their result sets are unbounded and
        # update invalidation would have to track interval overlaps.  The
        # raw (possibly signed) endpoints go straight to the router, whose
        # span computation clamps negatives instead of wrapping them.
        return self.router.range_lookup_batch(np.asarray(lows), np.asarray(highs))

    # ---------------------------------------------------------------- updates

    def update_batch(
        self,
        insert_keys: Optional[np.ndarray] = None,
        insert_row_ids: Optional[np.ndarray] = None,
        delete_keys: Optional[np.ndarray] = None,
    ) -> UpdateResult:
        """Route the update, invalidate the cache, kick background maintenance."""
        if self.cache is not None:
            # Exact-key invalidation is sufficient for correctness: a cached
            # entry (positive or negative) is only stale if its own key was
            # inserted or deleted.  Blanket negative trimming is left to the
            # maintenance worker.
            if insert_keys is not None:
                self.cache.invalidate_keys(np.asarray(insert_keys))
            if delete_keys is not None:
                self.cache.invalidate_keys(np.asarray(delete_keys))
        result = self.router.update_batch(
            insert_keys=insert_keys,
            insert_row_ids=insert_row_ids,
            delete_keys=delete_keys,
        )
        # Maintenance runs off the request path: degraded shards are queued
        # and healed here, but the time is accounted on the worker, not on
        # the foreground update result.
        self.maintenance.run_cycle(self.clock.now_ms)
        return result

    # ------------------------------------------------------------ replication

    def inject_failures(self, events) -> FailureInjector:
        """Arm a failure schedule (crash/slow/transient events) for serving.

        The events replay on the simulated clock as requests arrive; only
        replicated deployments (``replication_factor > 1``) can be armed.
        """
        if not self.router.replicated:
            raise ValueError(
                "failure injection needs a replicated deployment "
                "(ServeConfig.replication_factor > 1)"
            )
        injector = FailureInjector(self.router, list(events))
        if self.failures is not None:
            # Faults the previous schedule already applied must still expire.
            injector.adopt_pending_ends(self.failures)
        injector.telemetry = self.metrics.telemetry
        self.failures = injector
        return self.failures

    def _bind_group_metrics(self, metrics: MetricsRegistry) -> None:
        """Point the router's (and so the replica groups') and the
        maintenance worker's telemetry at the active registry, so a stream
        served into a caller-provided registry gets the failover,
        availability and maintenance-window records too (not just request
        latency)."""
        self.router.bind_sinks(
            metrics=metrics, tracer=self.tracer, reliability=self.reliability
        )
        self.maintenance.metrics = metrics
        self.maintenance.tracer = self.tracer
        if self.store is not None:
            self.store.metrics = metrics
            self.store.tracer = self.tracer
        if self.failures is not None:
            self.failures.telemetry = metrics.telemetry

    def _poll_failures(self, now_ms: float) -> None:
        """Advance the clock; apply due failure transitions; heal off-path."""
        self.clock.advance(now_ms)
        if self.failures is None:
            return
        if self.failures.poll(now_ms):
            # Recovered replicas re-enter via the maintenance worker: scan
            # spots the RECOVERING state and runs the resync task off-path.
            self.maintenance.run_cycle(now_ms)

    def replication_snapshot(self) -> Optional[dict]:
        """Replica/availability report (None for unreplicated deployments)."""
        return self.router.replication_snapshot() if self.router.replicated else None

    # ----------------------------------------------------------------- memory

    def memory_footprint(self) -> MemoryFootprint:
        footprint = MemoryFootprint()
        for shard in self.router.shards:
            if shard.index is not None:
                footprint.add(
                    f"shard_{shard.shard_id}",
                    shard.index.memory_footprint().total_bytes,
                )
            if shard.pending_index is not None:
                # A double-buffered rebuild in flight: the replacement is
                # resident alongside the live generation until the swap.
                footprint.add(
                    f"shard_{shard.shard_id}_rebuild_buffer",
                    shard.pending_index.memory_footprint().total_bytes,
                )
            # Host-side compiled-tier arenas (quantized node tables + packed
            # chain tables); reported separately so the simulated-device
            # footprint above stays engine-independent.
            if shard.index is not None:
                arena_bytes = getattr(shard.index, "compiled_buffers_bytes", None)
                if arena_bytes is not None:
                    bytes_held = arena_bytes()
                    if bytes_held:
                        footprint.add(
                            f"shard_{shard.shard_id}_compiled_arena", bytes_held
                        )
        if self.cache is not None:
            # Host-side entry: key + aggregate + count + LRU links.
            footprint.add("result_cache", len(self.cache) * (self.config.key_bits // 8 + 24))
        return footprint

    def degradation_score(self) -> float:
        """Worst degradation over all shards."""
        scores = [
            shard.index.degradation_score()
            for shard in self.router.shards
            if shard.index is not None
        ]
        return max(scores) if scores else 0.0

    def __len__(self) -> int:
        return self.router.num_entries

    # ---------------------------------------------------------------- serving

    def serve_stream(
        self,
        stream: RequestStream,
        policy: Optional[BatchPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        record_answers: bool = False,
    ) -> MetricsRegistry:
        """Serve a timed client request stream through the batching layer.

        Each request is first checked against the result cache (answered at
        host latency on a hit); the rest are coalesced per shard by the batch
        scheduler and executed as device-sized batches.  A request's latency
        is its queueing delay plus the device time of the batch it rode in.
        An armed failure schedule (:meth:`inject_failures`) replays on the
        same clock, so crashes/failovers land between requests exactly where
        the schedule puts them.  Returns the metrics registry with
        per-request telemetry — the deployment's own :attr:`metrics` unless a
        separate one is passed.  With ``record_answers=True`` the per-request
        answers are kept in :attr:`last_answers` as ``(row_ids,
        match_counts)`` arrays indexed by request id, which is what the
        differential availability checks compare against a single-instance
        oracle.
        """
        policy = policy or BatchPolicy(
            max_batch_size=self.config.max_batch_size,
            max_wait_ms=self.config.max_wait_ms,
        )
        metrics = metrics or self.metrics
        self._bind_group_metrics(metrics)
        scheduler = BatchScheduler(policy, telemetry=metrics.telemetry)
        tracer = self.tracer
        telemetry = metrics.telemetry
        self._request_trace_ids = {}
        # Routing is computed from the *raw* stream keys: the partitioner
        # clamps signed keys below the unsigned keyspace instead of letting a
        # uint cast wrap them onto the top shard (the negative requests are
        # answered host-side below and never reach a batch anyway).
        raw_keys = np.asarray(stream.keys)
        shard_of = self.router.partitioner.shard_of(raw_keys)
        tenant_ids = stream.tenant_ids
        admission = self.admission
        # Batch results become cacheable only at the batch's simulated
        # completion time; until then they are parked here.
        self._pending_fills = []
        self._next_fill_ms = float("inf")
        self._answer_sink = (
            (np.full(len(stream), -1, dtype=np.int64), np.zeros(len(stream), dtype=np.int64))
            if record_answers
            else None
        )
        shed_mask = np.zeros(len(stream), dtype=bool) if record_answers else None
        self.last_shed = None
        if record_answers:
            self._unavailable_sink = np.zeros(len(stream), dtype=bool)
            self._deadline_sink = np.zeros(len(stream), dtype=bool)
            self._stale_sink = np.zeros(len(stream), dtype=bool)
        else:
            self._unavailable_sink = None
            self._deadline_sink = None
            self._stale_sink = None
        self._stale_tables = {}
        self._device_busy_until = {}
        self._inflight = []
        self._inflight_count = 0
        reshard_policy = self.maintenance.reshard_policy
        resharding = reshard_policy.enabled and self.router.supports_resharding
        window_shards: list = []
        window_keys: list = []
        next_reshard_ms = reshard_policy.interval_ms if resharding else float("inf")

        # Per-request records are buffered and handed to the registry in
        # bulk (see ``flush``); counters of host-side outcomes stay local ints.
        log = self._request_log = _RequestLog(tenants=tenant_ids is not None)
        client_ids = stream.client_ids
        cache = self.cache
        cache_latency = self.config.cache_latency_ms
        sampling = bool(telemetry.sample_interval_ms)
        cache_hits = cache_negative_hits = cache_misses = 0
        negative_key_misses = out_of_domain_key_misses = 0

        def flush() -> None:
            nonlocal cache_hits, cache_negative_hits, cache_misses
            nonlocal negative_key_misses, out_of_domain_key_misses
            log.flush(metrics, client_ids)
            for event, count in (
                ("cache_hits", cache_hits),
                ("cache_negative_hits", cache_negative_hits),
                ("cache_misses", cache_misses),
                ("negative_key_misses", negative_key_misses),
                ("out_of_domain_key_misses", out_of_domain_key_misses),
            ):
                if count:
                    metrics.bump(event, count)
            cache_hits = cache_negative_hits = cache_misses = 0
            negative_key_misses = out_of_domain_key_misses = 0

        last_arrival = 0.0
        for request_id, arrival_ms, key in _stream_requests(
            stream, raw_keys, self._key_max
        ):
            last_arrival = arrival_ms
            if len(log.request_ids) >= _CHUNK_REQUESTS:
                flush()
            if sampling and telemetry.sample_due(arrival_ms):
                flush()
                telemetry.sample(arrival_ms)
            self._poll_failures(arrival_ms)
            # Dispatch batches whose wait deadline has passed — even when this
            # request itself will be answered from cache — then make their
            # completed results visible before probing the cache.
            due = scheduler.poll(arrival_ms)
            if due:
                self._execute_batches(due, metrics)
            if arrival_ms >= self._next_fill_ms:
                self._commit_pending_fills(arrival_ms)
            tenant = (
                int(tenant_ids[request_id]) if tenant_ids is not None else UNLABELED_TENANT
            )
            if admission is not None:
                while self._inflight and self._inflight[0][0] <= arrival_ms:
                    self._inflight_count -= heapq.heappop(self._inflight)[1]
                decision = admission.admit(
                    tenant,
                    arrival_ms,
                    scheduler.total_pending + self._inflight_count,
                )
                if not decision.admitted:
                    metrics.record_shed(tenant, decision.reason)
                    if tracer.enabled:
                        tracer.emit(
                            "admission.shed",
                            arrival_ms,
                            0.0,
                            "serve",
                            "requests",
                            tracer.new_trace_id(),
                            None,
                            {
                                "request_id": request_id,
                                "tenant": tenant,
                                "reason": decision.reason,
                            },
                        )
                    if shed_mask is not None:
                        shed_mask[request_id] = True
                    continue
            if key < 0:
                # Keys outside the keyspace (signed keys below it, and keys
                # above it, which arrive as -1) are definitional misses,
                # answered host-side at cache latency; they never enter a
                # batch, whose cast to the key dtype would wrap them onto
                # stored keys.
                log.append(
                    cache_latency, arrival_ms, arrival_ms + cache_latency, request_id, tenant
                )
                if raw_keys[request_id] < 0:
                    negative_key_misses += 1
                else:
                    out_of_domain_key_misses += 1
                continue
            if cache is not None:
                entry = cache.get(key, tenant=tenant if tenant >= 0 else None)
                if entry is not None:
                    log.append(
                        cache_latency,
                        arrival_ms,
                        arrival_ms + cache_latency,
                        request_id,
                        tenant,
                    )
                    if entry.match_count > 0:
                        cache_hits += 1
                    else:
                        cache_negative_hits += 1
                    if tracer.enabled:
                        trace_id = tracer.new_trace_id()
                        root = tracer.emit(
                            "request",
                            arrival_ms,
                            cache_latency,
                            "request",
                            "requests",
                            trace_id,
                            None,
                            {"request_id": request_id, "cache_hit": True},
                        )
                        tracer.emit(
                            "cache.probe",
                            arrival_ms,
                            cache_latency,
                            "cache",
                            "cache",
                            trace_id,
                            root.span_id,
                            {"hit": True, "negative": entry.match_count == 0},
                        )
                    if self._answer_sink is not None:
                        self._answer_sink[0][request_id] = entry.row_agg
                        self._answer_sink[1][request_id] = entry.match_count
                    continue
                cache_misses += 1
                if tracer.enabled:
                    # The miss probe joins the request's trace; the root span
                    # is recorded when the batch carrying it completes.
                    trace_id = tracer.new_trace_id()
                    self._request_trace_ids[request_id] = trace_id
                    tracer.emit(
                        "cache.probe",
                        arrival_ms,
                        0.0,
                        "cache",
                        "cache",
                        trace_id,
                        None,
                        {"request_id": request_id, "hit": False},
                    )
            due = scheduler.offer(
                int(shard_of[request_id]), request_id, key, arrival_ms, tenant_id=tenant
            )
            if due:
                self._execute_batches(due, metrics)
            if resharding:
                window_shards.append(int(shard_of[request_id]))
                window_keys.append(key)
                if arrival_ms >= next_reshard_ms:
                    shard_of = self._maybe_reshard(
                        scheduler,
                        metrics,
                        stream,
                        arrival_ms,
                        window_shards,
                        window_keys,
                        shard_of,
                    )
                    window_shards.clear()
                    window_keys.clear()
                    next_reshard_ms = arrival_ms + reshard_policy.interval_ms

        self._poll_failures(last_arrival + policy.max_wait_ms)
        self._execute_batches(
            scheduler.drain(last_arrival + policy.max_wait_ms), metrics
        )
        self._commit_pending_fills(float("inf"))
        flush()
        self._request_log = None
        if self.cache is not None:
            self.cache.publish_telemetry(telemetry)
        if telemetry.sample_interval_ms:
            telemetry.sample(self.clock.now_ms)
        # Outages still in progress count against this stream's
        # availability up to the point serving stopped.
        for group in self.router.groups.values():
            group.flush_unavailability(self.clock.now_ms)
        # The caller's registry was only bound for this stream; maintenance
        # and group telemetry afterwards report to the deployment's own again.
        self._bind_group_metrics(self.metrics)
        if self._answer_sink is not None:
            self.last_answers = self._answer_sink
            self.last_shed = shed_mask
            self.last_unavailable = self._unavailable_sink
            self.last_deadline_exceeded = self._deadline_sink
            self.last_stale = self._stale_sink
            self._answer_sink = None
            self._unavailable_sink = None
            self._deadline_sink = None
            self._stale_sink = None
        return metrics

    def _maybe_reshard(
        self,
        scheduler: BatchScheduler,
        metrics: MetricsRegistry,
        stream: RequestStream,
        now_ms: float,
        window_shards: list,
        window_keys: list,
        shard_of: np.ndarray,
    ) -> np.ndarray:
        """Evaluate the reshard policy at an interval boundary.

        In-flight batches are flushed first so no queued request crosses a
        topology change with a stale shard id; with the queues empty the
        split/merge commits atomically between requests, and the epoch
        lifecycle's version guard folds in any concurrent writes — no request
        is ever lost or misrouted (zero-downtime by construction).
        """
        self._execute_batches(scheduler.drain(now_ms), metrics)
        self._commit_pending_fills(now_ms)
        ops = self.maintenance.run_reshard(
            now_ms,
            np.asarray(window_shards, dtype=np.int64),
            np.asarray(window_keys, dtype=np.int64),
        )
        if not ops:
            return shard_of
        # Shard ids renumber across a topology change, and split/merge swaps
        # in freshly built index generations — stale device horizons would
        # charge the new shards for batches the old ones ran.
        self._device_busy_until = {}
        metrics.num_shards = self.router.num_shards
        if self.store is not None:
            # Shard ids (and their LSN sequences) renumbered: rebase the
            # durable namespaces on the committed topology.
            self.store.checkpoint_deployment(self.router)
        return self.router.partitioner.shard_of(np.asarray(stream.keys))

    def _commit_pending_fills(self, now_ms: float) -> None:
        """Move completed batch results into the cache (simulated-time ordering)."""
        if self.cache is None or not self._pending_fills:
            return
        remaining = []
        for completion_ms, fill_keys, row_agg, counts, fill_tenants in self._pending_fills:
            if completion_ms <= now_ms:
                self.cache.fill_batch(fill_keys, row_agg, counts, tenants=fill_tenants)
            else:
                remaining.append((completion_ms, fill_keys, row_agg, counts, fill_tenants))
        self._pending_fills = remaining
        self._next_fill_ms = min((fill[0] for fill in remaining), default=float("inf"))

    def _execute_batches(self, batches, metrics: MetricsRegistry) -> None:
        """Run dispatched batches on their shards; their riders' records go
        to the stream's request log."""
        tracer = self.tracer
        log = self._request_log
        rel = self.reliability
        deadline_cfg = rel.config.deadline_ms if rel is not None else 0.0
        for batch in batches:
            shard = self.router.shards[batch.shard_id]
            batch_keys = batch.keys.astype(self._key_dtype)
            exec_start = max(
                batch.dispatch_ms,
                self._device_busy_until.get(batch.shard_id, 0.0),
            )
            if shard.index is None:
                row_agg = np.full(batch.size, -1, dtype=np.int64)
                counts = np.zeros(batch.size, dtype=np.int64)
                exec_ms = overhead_ms = 0.0
                unavailable = False
            else:
                # The batch's deadline is the laxest of its riders': requests
                # coalesce, so the read is only abandoned once *every* rider
                # is past its budget.
                deadline_abs = (
                    float(batch.arrival_ms.max()) + deadline_cfg
                    if deadline_cfg > 0
                    else None
                )
                # The batch span is the propagation context: replica reads
                # and engine kernels recorded below it become its children.
                batch_span = None
                if tracer.enabled:
                    batch_span = tracer.push_span(
                        "batch.execute",
                        exec_start,
                        category="router",
                        lane=f"shard-{batch.shard_id}",
                        shard=batch.shard_id,
                        batch_size=batch.size,
                        reason=batch.reason,
                        engine=self.config.engine,
                        epoch=getattr(shard.index, "epoch", None),
                    )
                try:
                    read = self.router.read_point(
                        batch.shard_id, batch_keys, exec_start, deadline_abs
                    )
                finally:
                    if batch_span is not None:
                        tracer.pop()
                row_agg, counts = read.result.row_ids, read.result.match_counts
                exec_ms, overhead_ms = read.time_ms, read.overhead_ms
                unavailable = read.unavailable
                if batch_span is not None:
                    batch_span.duration_ms = exec_ms
            stale = False
            if unavailable:
                metrics.bump("requests_unavailable", batch.size)
                if (
                    rel is not None
                    and rel.config.stale_reads
                    and self.store is not None
                ):
                    stale_answer = self._stale_lookup(batch.shard_id, batch_keys)
                    if stale_answer is not None:
                        row_agg, counts = stale_answer
                        stale = True
                        unavailable = False
                        metrics.bump("stale_reads_served", batch.size)
                        rel.bump("stale_reads_served", batch.size)
            completion_ms = exec_start + exec_ms
            self._device_busy_until[batch.shard_id] = completion_ms
            heapq.heappush(self._inflight, (completion_ms, batch.size))
            self._inflight_count += batch.size
            if self._answer_sink is not None:
                self._answer_sink[0][batch.request_ids] = row_agg
                self._answer_sink[1][batch.request_ids] = counts
                if unavailable:
                    self._unavailable_sink[batch.request_ids] = True
                if stale:
                    self._stale_sink[batch.request_ids] = True
            device_ms = exec_ms - overhead_ms
            tenant_labels = batch.tenant_ids
            arrivals = batch.arrival_ms
            latencies = completion_ms - arrivals
            finishes = [completion_ms] * batch.size
            if deadline_cfg > 0:
                late = latencies > deadline_cfg
                if late.any():
                    # A client gave up at its deadline: its observed latency
                    # is the deadline, deterministically, and the late
                    # answer is masked out of the oracle check.
                    latencies[late] = deadline_cfg
                    finishes = np.where(
                        late, arrivals + deadline_cfg, completion_ms
                    ).tolist()
                    metrics.bump("deadline_exceeded", int(late.sum()))
                    if self._deadline_sink is not None:
                        self._deadline_sink[batch.request_ids[late]] = True
            log.extend(
                latencies.tolist(),
                arrivals.tolist(),
                finishes,
                batch.request_ids.tolist(),
                tenant_labels.tolist() if tenant_labels is not None else None,
            )
            if tracer.enabled:
                self._trace_batch_requests(
                    tracer, batch, exec_start, completion_ms, device_ms, overhead_ms
                )
            metrics.record_shard_batch(
                batch.shard_id, batch.size, exec_ms, reason=batch.reason
            )
            if self.cache is not None and not (unavailable or stale):
                # Unavailable (miss-shaped) and stale answers never enter the
                # result cache: they would poison later fresh reads.
                self._pending_fills.append(
                    (completion_ms, batch_keys, row_agg, counts, tenant_labels)
                )
                if completion_ms < self._next_fill_ms:
                    self._next_fill_ms = completion_ms

    def _stale_lookup(self, shard_id: int, keys: np.ndarray):
        """Answer a batch from the shard's last durable state (checkpoint +
        WAL tail) when every live replica is out of reach.  Returns ``(row_agg,
        match_counts)`` mirroring the live duplicate-aware aggregate
        semantics, or ``None`` when the store has nothing for the shard."""
        table = self._stale_tables.get(shard_id)
        if table is None:
            try:
                recovery = self.store.recover_shard(shard_id)
            except (KeyError, FileNotFoundError, ValueError):
                return None
            order = np.argsort(recovery.keys, kind="stable")
            sorted_keys = recovery.keys[order]
            sorted_rows = recovery.row_ids[order].astype(np.int64)
            rowid_prefix = np.concatenate(
                [np.zeros(1, dtype=np.int64), np.cumsum(sorted_rows)]
            )
            table = (sorted_keys, rowid_prefix)
            self._stale_tables[shard_id] = table
        sorted_keys, rowid_prefix = table
        return sorted_lookup_results(
            sorted_keys, rowid_prefix, keys.astype(sorted_keys.dtype)
        )

    def _trace_batch_requests(
        self, tracer, batch, exec_start, completion_ms, device_ms, overhead_ms
    ) -> None:
        """Emit the per-request stage spans of one completed batch.

        Stage attribute dicts are built once per batch and shared across its
        requests (spans never mutate attributes after emission), and spans go
        through :meth:`Tracer.emit` directly — this loop runs once per served
        request and dominates the traced path's cost.
        """
        emit = tracer.emit
        new_trace_id = tracer.new_trace_id
        pending = self._request_trace_ids
        shard_id = batch.shard_id
        size = batch.size
        engine = self.config.engine
        dispatch_ms = batch.dispatch_ms
        request_ids = batch.request_ids.tolist()
        arrivals = batch.arrival_ms.tolist()
        wait_attrs = {"shard": shard_id, "reason": batch.reason}
        device_attrs = {"shard": shard_id, "batch_size": size, "engine": engine}
        failover_attrs = {"shard": shard_id}
        device_queue_ms = exec_start - dispatch_ms
        failover_start = exec_start + device_ms
        for position in range(size):
            request_id = request_ids[position]
            arrival = arrivals[position]
            trace_id = pending.pop(request_id, None)
            if trace_id is None:
                trace_id = new_trace_id()
            root = emit(
                "request",
                arrival,
                completion_ms - arrival,
                "request",
                "requests",
                trace_id,
                None,
                {
                    "request_id": request_id,
                    "shard": shard_id,
                    "batch_size": size,
                    "engine": engine,
                },
            )
            root_id = root.span_id
            emit(
                "queue.wait", arrival, dispatch_ms - arrival,
                "serve", "requests", trace_id, root_id, wait_attrs,
            )
            if device_queue_ms > 0.0:
                emit(
                    "device.queue", dispatch_ms, device_queue_ms,
                    "device", "requests", trace_id, root_id, device_attrs,
                )
            emit(
                "device.execute", exec_start, device_ms,
                "device", "requests", trace_id, root_id, device_attrs,
            )
            if overhead_ms > 0.0:
                emit(
                    "replica.failover", failover_start, overhead_ms,
                    "replication", "requests", trace_id, root_id, failover_attrs,
                )
