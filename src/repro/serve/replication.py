"""Per-shard replica groups: load-balanced reads, quorum writes, failover.

PR 1's :class:`~repro.serve.router.ShardRouter` gave every key range exactly
one index instance — a single point of failure per shard, and no way to
spread read load.  This module puts a :class:`ReplicaGroup` behind each
shard: ``replication_factor`` identical index instances built from the same
authoritative entry arrays.

* **Reads** are balanced over the healthy replicas by a pluggable policy
  (round-robin or least-loaded) and *fail over*: a replica throwing a
  transient error is skipped at a small detection penalty, and a group whose
  replicas are all down performs an emergency restart (snapshot rebuild) so
  answers are never lost — only latency is.
* **Writes** fan out to every up replica and are acknowledged once a quorum
  (majority by default) applied them.  Every update batch is appended to the
  group's *apply log* with a monotone LSN; replicas that were down during a
  write lag behind and are barred from serving reads until they catch up.
* **Catch-up** replays the apply log when the outage was short, and falls
  back to a full snapshot resync (rebuild from the authoritative arrays,
  which track live-index semantics via ``export_entries``) when the log was
  trimmed past the replica's position.
* **Failure injection** runs on the simulated clock: a
  :class:`FailureInjector` consumes a schedule of crash / slow-replica /
  transient-error events (see :func:`repro.workloads.failures.failure_schedule`)
  and drives the health-state transitions ``HEALTHY -> DOWN -> RECOVERING ->
  HEALTHY`` that the router and maintenance worker react to.
* **Rebalancing**: replicas can join (snapshot-built, immediately serving)
  and leave at runtime; the read policies rebalance automatically because
  they only ever consider the current membership.

A :class:`ReplicaGroup` sits in its shard's ``index`` slot for writes and
maintenance (updates, ``export_entries``, footprint, degradation), but does
not pose as an index for reads: its reads return a
:class:`~repro.serve.router.ShardRead` that carries each read's own failover
overhead, slowdown and hedge outcome, and :class:`ReplicatedShardRouter`
routes the scatter/gather reads to them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import (
    GpuIndex,
    LookupResult,
    RangeLookupResult,
    UnsupportedOperation,
    UpdateResult,
    cancel_opposing_updates,
)
from repro.gpu.cost_model import CostModel
from repro.gpu.device import RTX_4090, GpuDevice
from repro.gpu.kernels import KernelStats, combine
from repro.gpu.memory import MemoryFootprint
from repro.obs.trace import NULL_TRACER
from repro.serve.router import ShardFactory, ShardRead, ShardRouter, apply_update_to_entries
from repro.workloads.keygen import KeySet

# Replica health states.
HEALTHY = "healthy"
DOWN = "down"
RECOVERING = "recovering"


class SimulatedClock:
    """Monotone simulated time shared by a deployment's failure machinery."""

    def __init__(self, now_ms: float = 0.0) -> None:
        self.now_ms = float(now_ms)

    def advance(self, to_ms: float) -> float:
        """Move time forward (never backward); returns the current time."""
        self.now_ms = max(self.now_ms, float(to_ms))
        return self.now_ms


@dataclass(frozen=True)
class ReplicationConfig:
    """How a shard's replica group is sized and operated."""

    #: Number of replicas per shard.
    replication_factor: int = 3
    #: Read-balancing policy: ``"round_robin"`` or ``"least_loaded"``.
    read_policy: str = "round_robin"
    #: Replicas that must apply a write before it counts as acknowledged
    #: (majority of the replication factor when ``None``).
    write_quorum: Optional[int] = None
    #: Apply-log records retained for catch-up; a replica lagging further
    #: behind is resynced from a full snapshot instead of log replay.
    log_capacity: int = 64
    #: Host-side latency of detecting a failed read attempt and retrying on
    #: the next replica.
    failover_penalty_ms: float = 0.05
    #: Latency of an emergency snapshot restart when no replica is available.
    restart_penalty_ms: float = 5.0
    #: Rounds of every-available-replica-erroring failover a read tolerates
    #: before the group declares it unavailable (and force-restarts a replica
    #: to keep the never-fail contract, or returns an explicit partial result
    #: when the reliability layer is armed).  The loop used to spin until the
    #: injected error supply drained, i.e. effectively forever.
    max_failover_rounds: int = 16

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        if self.max_failover_rounds < 1:
            raise ValueError("max_failover_rounds must be >= 1")
        if self.read_policy not in ("round_robin", "least_loaded"):
            raise ValueError(
                f"unknown read_policy {self.read_policy!r}; "
                "expected 'round_robin' or 'least_loaded'"
            )
        if self.write_quorum is not None and not (
            1 <= self.write_quorum <= self.replication_factor
        ):
            raise ValueError("write_quorum must be within [1, replication_factor]")
        if self.log_capacity < 0:
            raise ValueError("log_capacity must be >= 0")

    @property
    def quorum(self) -> int:
        """Effective write quorum (majority unless configured explicitly)."""
        if self.write_quorum is not None:
            return self.write_quorum
        return self.replication_factor // 2 + 1


@dataclass
class LogRecord:
    """One update batch in a group's apply log."""

    lsn: int
    insert_keys: np.ndarray
    insert_row_ids: np.ndarray
    delete_keys: np.ndarray


@dataclass
class Replica:
    """One replica of a shard: its index instance plus health bookkeeping."""

    replica_id: int
    shard_id: int
    index: Optional[GpuIndex] = None
    state: str = HEALTHY
    #: LSN of the last update batch this replica applied.
    applied_lsn: int = 0
    #: Execution-time multiplier (> 1.0 while a slow-replica fault is active).
    slow_factor: float = 1.0
    #: Number of upcoming read attempts that raise a transient error.
    pending_transient: int = 0
    #: Accumulated simulated device-busy time (drives least-loaded balancing).
    busy_ms: float = 0.0
    #: Requests served (drives the per-replica load-skew metric).
    reads_served: int = 0
    builds: int = 0
    #: Outstanding overlapping outages; the replica only starts recovering
    #: when the *last* one ends.
    outage_depth: int = 0
    #: Process incarnation, bumped by every resync; outage-end events that
    #: target an earlier incarnation are stale and must be ignored.
    incarnation: int = 0
    #: Factors of the currently active (possibly overlapping) slowdowns;
    #: ``slow_factor`` always holds their maximum, 1.0 when none are active.
    active_slowdowns: List[float] = field(default_factory=list)

    @property
    def available(self) -> bool:
        """Whether the replica may serve reads (up *and* fully caught up)."""
        return self.state == HEALTHY and self.index is not None


class ReplicaGroup:
    """A shard's replica set: balanced, failing-over reads and quorum writes.

    Reads (:meth:`read_point`, :meth:`read_range`) return a
    :class:`~repro.serve.router.ShardRead` and leave nothing behind on the
    group.  The group owns the shard's authoritative ``(keys, row_ids)`` arrays (kept
    in live-index tie-order via ``export_entries`` after native updates, the
    same discipline the shard router uses) plus the apply log.  Invariant:
    every replica in the ``HEALTHY`` state has applied every logged update,
    so *any* available replica answers reads identically — which is what
    makes read balancing and failover answer-preserving.
    """

    #: The group handles update routing internally (per-replica native
    #: updates or rebuilds), so the router never rebuild-falls-back on it.
    supports_updates = True

    def __init__(
        self,
        shard_id: int,
        keys: np.ndarray,
        row_ids: np.ndarray,
        factory: ShardFactory,
        config: Optional[ReplicationConfig] = None,
        clock: Optional[SimulatedClock] = None,
        device: GpuDevice = RTX_4090,
        key_bits: int = 64,
    ) -> None:
        self.shard_id = int(shard_id)
        self.config = config or ReplicationConfig()
        self.clock = clock or SimulatedClock()
        self.device = device
        self.factory = factory
        self.key_bits = key_bits
        self._key_dtype = np.uint32 if key_bits == 32 else np.uint64
        self.cost_model = CostModel(device)

        #: Authoritative entries, sorted by key (live-index tie-order).
        self.keys = np.asarray(keys, dtype=self._key_dtype).copy()
        self.row_ids = np.asarray(row_ids, dtype=np.uint32).copy()

        #: Apply log: the most recent ``log_capacity`` update batches.
        self.log: List[LogRecord] = []
        self.lsn = 0

        #: Telemetry sink; the deployment points this at its registry.
        self.metrics = None
        #: Span sink; the deployment points this at its tracer.  The default
        #: is the shared disabled tracer, so every emission site is a cheap
        #: ``enabled`` check.
        self.tracer = NULL_TRACER
        #: Durable tier (:class:`repro.store.DeploymentStore`); when attached,
        #: every acknowledged write batch is WAL-logged before its ack and a
        #: recovering replica restores from checkpoint + WAL tail instead of
        #: copying a live peer.
        self.store = None
        self.counters: Dict[str, int] = {}
        #: Closed unavailability windows ``(start_ms, end_ms)``.
        self.unavailability_windows: List[Tuple[float, float]] = []
        self._unavailable_since: Optional[float] = None
        self._rr_cursor = 0
        #: Deployment-wide reliability machinery
        #: (:class:`repro.serve.reliability.ReliabilityState`); ``None``
        #: keeps the PR-2 failover semantics.
        self.reliability = None

        self.replicas: List[Replica] = []
        self._next_replica_id = 0
        self.build_stats: List[KernelStats] = []
        for _ in range(self.config.replication_factor):
            replica = self._new_replica()
            if replica.index is not None:  # empty groups build no indexes
                self.build_stats.extend(replica.index.build_stats)

    # ------------------------------------------------------------- membership

    def _new_replica(self) -> Replica:
        replica = Replica(replica_id=self._next_replica_id, shard_id=self.shard_id)
        self._next_replica_id += 1
        self._build_replica(replica)
        replica.applied_lsn = self.lsn
        self.replicas.append(replica)
        return replica

    def _build_replica(self, replica: Replica) -> List[KernelStats]:
        """(Re)build one replica's index from the authoritative snapshot."""
        if self.keys.size == 0:
            replica.index = None
            replica.builds += 1
            return []
        keyset = KeySet(
            keys=self.keys.copy(),
            row_ids=self.row_ids.copy(),
            key_bits=self.key_bits,
            description=f"shard {self.shard_id} replica {replica.replica_id}",
        )
        replica.index = self.factory(keyset, self.device)
        replica.builds += 1
        return list(replica.index.build_stats)

    def replica(self, replica_id: int) -> Replica:
        for replica in self.replicas:
            if replica.replica_id == replica_id:
                return replica
        raise KeyError(f"shard {self.shard_id} has no replica {replica_id}")

    def available_replicas(self) -> List[Replica]:
        return [replica for replica in self.replicas if replica.available]

    def recovering_replicas(self) -> List[Replica]:
        return [replica for replica in self.replicas if replica.state == RECOVERING]

    def add_replica(self) -> Replica:
        """Join: build a fresh replica from the current snapshot and serve."""
        replica = self._new_replica()
        self._bump("joins")
        self._maybe_close_window()
        return replica

    def remove_replica(self, replica_id: int) -> Replica:
        """Leave: drop a replica from the group (never the last available one)."""
        replica = self.replica(replica_id)
        remaining = [r for r in self.available_replicas() if r.replica_id != replica_id]
        if replica.available and not remaining:
            raise ValueError(
                f"cannot remove replica {replica_id}: it is the last available "
                f"replica of shard {self.shard_id}"
            )
        self.replicas.remove(replica)
        self._bump("leaves")
        return replica

    @property
    def num_entries(self) -> int:
        return int(self.keys.shape[0])

    # ----------------------------------------------------------- health / I/O

    def _bump(self, counter: str, amount: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + int(amount)

    def crash(self, replica_id: int, now_ms: float) -> None:
        """Take a replica down (its in-memory index survives for warm restart)."""
        replica = self.replica(replica_id)
        replica.outage_depth += 1
        if replica.state == DOWN:
            return  # overlapping crash: the outage deepens, no new transition
        replica.state = DOWN
        self._bump("crashes")
        if not self.available_replicas() and self._unavailable_since is None:
            self._unavailable_since = float(now_ms)

    def process_kill(self, replica_id: int, now_ms: float) -> None:
        """Whole-process crash: the replica's index and apply state die with it.

        Unlike :meth:`crash` (whose in-memory index survives for a warm
        restart), recovery after a process kill must rebuild state from
        scratch — from the durable store when one is attached, else from the
        authoritative snapshot.
        """
        replica = self.replica(replica_id)
        self.crash(replica_id, now_ms)
        replica.index = None
        replica.applied_lsn = 0
        self._bump("process_kills")

    def end_outage(self, replica_id: int, now_ms: float) -> None:
        """One outage of a crashed replica ended; it starts recovering only
        when no overlapping outage is still active, and must resync before
        serving either way."""
        replica = self.replica(replica_id)
        if replica.state == DOWN:
            replica.outage_depth = max(0, replica.outage_depth - 1)
            if replica.outage_depth == 0:
                replica.state = RECOVERING

    def set_slow(self, replica_id: int, slow_factor: float) -> None:
        """Apply a slowdown; overlapping slowdowns hold the worst active factor."""
        replica = self.replica(replica_id)
        replica.active_slowdowns.append(max(1.0, float(slow_factor)))
        replica.slow_factor = max(replica.active_slowdowns)
        self._bump("slowdowns")

    def clear_slow(self, replica_id: int, slow_factor: Optional[float] = None) -> None:
        """End one slowdown (by factor, or the worst when unspecified); the
        replica's speed recovers to the worst *still-active* slowdown."""
        try:
            replica = self.replica(replica_id)
        except KeyError:
            return  # the replica left the group while slowed
        if not replica.active_slowdowns:
            return
        ended = (
            max(1.0, float(slow_factor))
            if slow_factor is not None and max(1.0, float(slow_factor)) in replica.active_slowdowns
            else max(replica.active_slowdowns)
        )
        replica.active_slowdowns.remove(ended)
        replica.slow_factor = (
            max(replica.active_slowdowns) if replica.active_slowdowns else 1.0
        )

    def inject_transient(self, replica_id: int, count: int = 1) -> None:
        self.replica(replica_id).pending_transient += int(count)

    def _maybe_close_window(self) -> None:
        """Close the open unavailability window if a replica is available again."""
        if self._unavailable_since is not None and self.available_replicas():
            window = (self._unavailable_since, self.clock.now_ms)
            self.unavailability_windows.append(window)
            if self.metrics is not None:
                self.metrics.record_unavailability(*window)
            self._unavailable_since = None

    def flush_unavailability(self, now_ms: float) -> None:
        """Report the open unavailability window up to ``now_ms`` and keep it
        open from there, so end-of-stream telemetry includes outages that are
        still in progress without ever double-counting them."""
        if self._unavailable_since is None or now_ms <= self._unavailable_since:
            return
        window = (self._unavailable_since, float(now_ms))
        self.unavailability_windows.append(window)
        if self.metrics is not None:
            self.metrics.record_unavailability(*window)
        self._unavailable_since = float(now_ms)

    # ----------------------------------------------------------------- resync

    def resync(self, replica: Replica, now_ms: Optional[float] = None) -> KernelStats:
        """Catch a recovered replica up: log replay if possible, else snapshot.

        Idempotent: an already-healthy, caught-up replica resyncs as a no-op.
        """
        now_ms = self.clock.now_ms if now_ms is None else float(now_ms)
        self.clock.advance(now_ms)
        parts: List[KernelStats] = []
        if replica.applied_lsn == self.lsn and replica.available:
            return combine(f"serve.resync_s{self.shard_id}r{replica.replica_id}", parts)
        replica.state = RECOVERING

        if self.store is not None and replica.index is None and self.keys.size:
            # Durable restore: a process-killed replica rebuilds from the
            # latest checkpoint plus the WAL tail instead of copying a live
            # peer.  If the durable state trails the group LSN (it should
            # not: every ack was logged first), the paths below top it off.
            parts.extend(self._restore_replica_durable(replica))

        log_start = self.log[0].lsn if self.log else self.lsn + 1
        replayable = (
            replica.index is not None
            and replica.index.supports_updates
            and replica.applied_lsn + 1 >= log_start
        )
        if replayable and replica.applied_lsn < self.lsn:
            for record in self.log:
                if record.lsn <= replica.applied_lsn:
                    continue
                result = replica.index.update_batch(
                    insert_keys=record.insert_keys if record.insert_keys.size else None,
                    insert_row_ids=(
                        record.insert_row_ids if record.insert_keys.size else None
                    ),
                    delete_keys=record.delete_keys if record.delete_keys.size else None,
                )
                parts.append(result.stats)
            self._bump("resyncs_log_replay")
        elif replica.applied_lsn < self.lsn or replica.index is None:
            parts.extend(self._build_replica(replica))
            self._bump("resyncs_snapshot")
        replica.applied_lsn = self.lsn
        replica.state = HEALTHY
        # A resync is a (re)start: it supersedes any outage still scheduled
        # against the old process (emergency restarts cut outages short),
        # outage-end events aimed at that process become stale, and faults
        # injected against it (slowdowns, pending transient errors) die with
        # the process.
        replica.outage_depth = 0
        replica.incarnation += 1
        replica.active_slowdowns.clear()
        replica.slow_factor = 1.0
        replica.pending_transient = 0
        self._maybe_close_window()
        return combine(f"serve.resync_s{self.shard_id}r{replica.replica_id}", parts)

    def _restore_replica_durable(self, replica: Replica) -> List[KernelStats]:
        """Rebuild one replica from the durable store (checkpoint + WAL tail)."""
        recovery = self.store.recover_shard(self.shard_id)
        if recovery.keys.size == 0 and recovery.lsn == 0:
            return []  # nothing durable yet; the snapshot path takes over
        keyset = KeySet(
            keys=recovery.keys.copy(),
            row_ids=recovery.row_ids.copy(),
            key_bits=self.key_bits,
            description=(
                f"shard {self.shard_id} replica {replica.replica_id} (durable restore)"
            ),
        )
        replica.index = self.factory(keyset, self.device)
        replica.builds += 1
        replica.applied_lsn = recovery.lsn
        self._bump("resyncs_durable")
        return list(replica.index.build_stats)

    # ------------------------------------------------------------------ reads

    def _read_candidates(self, exclude: Iterable[int] = ()) -> List[Replica]:
        excluded = set(exclude)
        return [
            replica
            for replica in self.available_replicas()
            if replica.replica_id not in excluded
        ]

    def _choose(self, candidates: List[Replica]) -> Replica:
        if self.config.read_policy == "least_loaded":
            return min(candidates, key=lambda r: (r.busy_ms * r.slow_factor, r.replica_id))
        pick = candidates[self._rr_cursor % len(candidates)]
        self._rr_cursor += 1
        return pick

    def _emergency_restart(self) -> Replica:
        """No replica is available: snapshot-restart one so reads never fail."""
        now = self.clock.now_ms
        if self._unavailable_since is None:
            self._unavailable_since = now
        candidates = [r for r in self.replicas if r.state in (DOWN, RECOVERING)]
        if not candidates:
            raise RuntimeError(f"shard {self.shard_id} has no replicas at all")
        replica = min(candidates, key=lambda r: r.replica_id)
        self.clock.advance(now + self.config.restart_penalty_ms)
        self.resync(replica)  # closes the unavailability window
        self._bump("emergency_restarts")
        if self.metrics is not None:
            self.metrics.record_failover(self.config.restart_penalty_ms)
        return replica

    def _force_restart(self, traced: bool, tracer, at_ms: float) -> float:
        """Every available replica keeps erroring: declare the lowest-id one
        wedged and restart its process (resync clears injected fault state),
        keeping the never-fail read contract with *bounded* work.  Returns
        the restart time charged to the read (0.0 when nothing restarted)."""
        available = self.available_replicas()
        if not available:
            return 0.0  # nothing to restart; the emergency path handles this case
        replica = min(available, key=lambda r: r.replica_id)
        if traced:
            tracer.record_span(
                "replica.restart",
                at_ms,
                self.config.restart_penalty_ms,
                category="replication",
                lane=f"shard-{self.shard_id}",
                shard=self.shard_id,
                replica=replica.replica_id,
                outcome="forced_restart",
            )
        self.clock.advance(self.clock.now_ms + self.config.restart_penalty_ms)
        replica.state = RECOVERING  # force the resync past its no-op fast path
        self.resync(replica)
        self._bump("forced_restarts")
        if self.metrics is not None:
            self.metrics.record_failover(self.config.restart_penalty_ms)
        return self.config.restart_penalty_ms

    def _serve_read(
        self, call, num_requests: int, fallback, start_ms=None, deadline_ms=None
    ) -> ShardRead:
        """Pick a replica, failing over past transient errors, and call it.

        When a tracer is armed, every attempt emits a span on the simulated
        timeline: failed attempts as ``replica.attempt`` (failover penalty),
        emergency restarts as ``replica.restart``, and the serving attempt as
        ``replica.read`` with a child ``engine.lookup`` span for the device
        kernel itself.  Spans attach to whatever span is active on the
        tracer's context stack (the router's batch span), so a request trace
        reaches from the coalescer down to the engine.  None of this changes
        counters or answers: tracing is behavior-neutral by construction.

        With the reliability layer armed (:attr:`reliability`), the loop is
        additionally governed by per-shard retry budgets with backed-off,
        jittered retries, per-replica circuit breakers filtering the
        candidate set, the absolute ``deadline_ms`` of a read dispatched at
        ``start_ms``, and online-quantile read hedging; reads that cannot be
        served within those bounds return ``fallback()``'s miss-shaped
        answer as an ``unavailable`` read.
        Without it, the only change from the classic semantics is that
        all-replicas-erroring rounds are *bounded*
        (``ReplicationConfig.max_failover_rounds``) by a forced restart
        instead of spinning until the error supply drains.
        """
        if self.keys.size == 0:  # an emptied group answers without a replica
            return ShardRead(fallback(), self.cost_model)
        rel = self.reliability
        rel_config = rel.config if rel is not None else None
        partial = rel is not None and rel_config.partial_results
        breakers = rel is not None and rel_config.breaker_enabled
        tracer = self.tracer
        traced = tracer.enabled
        base_ms = 0.0
        if traced:
            context = tracer.current
            base_ms = context.start_ms if context is not None else self.clock.now_ms
        if start_ms is None:
            start_ms = base_ms if traced else self.clock.now_ms
        now_ms = self.clock.now_ms
        # Host-side time this read paid before its answer: failover
        # penalties, retry backoff and restarts.
        overhead_ms = 0.0

        def out_of_time(extra_ms: float) -> bool:
            return (
                deadline_ms is not None
                and start_ms + overhead_ms + extra_ms > deadline_ms
            )

        def give_up(reason: str) -> ShardRead:
            # Abandon the read as an explicit partial result: a deterministic
            # miss-shaped answer the serving layer masks out of oracle
            # byte-checks exactly like shed requests.
            self._bump("read_unavailable")
            self._bump(f"read_unavailable_{reason}")
            if self.metrics is not None:
                self.metrics.bump("reads_unavailable")
            if rel is not None:
                rel.bump("read_unavailable")
            if traced:
                tracer.record_span(
                    "replica.unavailable",
                    base_ms + overhead_ms,
                    0.0,
                    category="replication",
                    lane=f"shard-{self.shard_id}",
                    shard=self.shard_id,
                    reason=reason,
                )
            return ShardRead(
                fallback(), self.cost_model, overhead_ms=overhead_ms, unavailable=True
            )

        tried: List[int] = []
        rounds = 0
        retries = 0
        while True:
            candidates = self._read_candidates(exclude=tried)
            if breakers and candidates:
                admitted = [
                    replica
                    for replica in candidates
                    if rel.breaker(self.shard_id, replica.replica_id).allow(now_ms)
                ]
                if admitted:
                    if len(admitted) < len(candidates):
                        self._bump("breaker_skips", len(candidates) - len(admitted))
                    candidates = admitted
                else:
                    # Every breaker is open: fail open and serve anyway — a
                    # breaker must never cost availability, only steer load.
                    self._bump("breaker_fail_open")
            if not candidates:
                if tried:  # every available replica errored this round
                    rounds += 1
                    if rounds >= self.config.max_failover_rounds:
                        if partial:
                            return give_up("rounds")
                        self._bump("read_unavailable")
                        overhead_ms += self._force_restart(
                            traced, tracer, base_ms + overhead_ms
                        )
                    tried = []
                    continue
                # No replica is available at all.
                if partial and not rel_config.allow_emergency_restart:
                    return give_up("no_replicas")
                if partial and out_of_time(self.config.restart_penalty_ms):
                    return give_up("deadline")
                if traced:
                    tracer.record_span(
                        "replica.restart",
                        base_ms + overhead_ms,
                        self.config.restart_penalty_ms,
                        category="replication",
                        lane=f"shard-{self.shard_id}",
                        shard=self.shard_id,
                    )
                replica = self._emergency_restart()
                overhead_ms += self.config.restart_penalty_ms
            else:
                replica = self._choose(candidates)
            if replica.pending_transient > 0:
                replica.pending_transient -= 1
                tried.append(replica.replica_id)
                self._bump("failovers")
                self._bump("transient_errors")
                if traced:
                    tracer.record_span(
                        "replica.attempt",
                        base_ms + overhead_ms,
                        self.config.failover_penalty_ms,
                        category="replication",
                        lane=f"shard-{self.shard_id}",
                        shard=self.shard_id,
                        replica=replica.replica_id,
                        outcome="transient_error",
                    )
                overhead_ms += self.config.failover_penalty_ms
                if self.metrics is not None:
                    self.metrics.record_failover(self.config.failover_penalty_ms)
                if breakers:
                    rel.breaker(self.shard_id, replica.replica_id).record(
                        now_ms, False
                    )
                if rel is not None:
                    retries += 1
                    if rel.budget(self.shard_id).take(now_ms):
                        rel.bump("retries")
                        overhead_ms += rel.backoff_ms(self.shard_id, retries)
                    else:
                        rel.bump("retry_budget_exhausted")
                        if self.metrics is not None:
                            self.metrics.bump("retry_budget_exhausted")
                        if partial:
                            return give_up("retry_budget")
                    if partial and out_of_time(self.config.failover_penalty_ms):
                        return give_up("deadline")
                continue
            result = call(replica.index)
            kernel_ms = self.cost_model.kernel_time_ms(result.stats)
            service_ms = kernel_ms * replica.slow_factor
            effective_ms = service_ms
            hedged_ms = None
            hedge_replica = None
            if rel is not None:
                threshold = rel.hedge_threshold_ms()
                if service_ms > threshold:
                    hedge_replica = self._choose_hedge(replica, tried, now_ms)
                if hedge_replica is not None:
                    # The hedge fires once the primary has been out for the
                    # threshold; identical replicas run the same kernel, so
                    # the duplicate's service time only differs by its slow
                    # factor.  First answer wins; the loser's device cost
                    # stays accounted on its replica.
                    hedge_service_ms = kernel_ms * hedge_replica.slow_factor
                    hedge_total_ms = threshold + hedge_service_ms
                    hedge_won = hedge_total_ms < service_ms
                    effective_ms = min(service_ms, hedge_total_ms)
                    hedge_replica.busy_ms += hedge_service_ms
                    self._bump("hedges")
                    self._bump("hedge_wins" if hedge_won else "hedge_losses")
                    rel.bump("hedges")
                    rel.bump("hedge_wins" if hedge_won else "hedge_losses")
                    rel.hedge_waste_ms += (
                        service_ms - effective_ms if hedge_won else hedge_service_ms
                    )
                    if self.metrics is not None:
                        self.metrics.record_hedge(hedge_won)
                    if breakers:
                        rel.breaker(
                            self.shard_id, hedge_replica.replica_id
                        ).record(now_ms, True)
                    if traced:
                        tracer.record_span(
                            "replica.hedge",
                            base_ms + overhead_ms + threshold,
                            hedge_service_ms,
                            category="replication",
                            lane=f"shard-{self.shard_id}",
                            shard=self.shard_id,
                            replica=hedge_replica.replica_id,
                            primary=replica.replica_id,
                            won=hedge_won,
                            batch_size=num_requests,
                        )
                    hedged_ms = effective_ms
                rel.observe_read(effective_ms)
                if breakers:
                    rel.breaker(self.shard_id, replica.replica_id).record(
                        now_ms, service_ms <= rel.slow_threshold_ms()
                    )
            replica.reads_served += int(num_requests)
            replica.busy_ms += service_ms
            self._bump("reads", num_requests)
            if self.metrics is not None:
                self.metrics.record_replica_request(
                    self.shard_id, replica.replica_id, num_requests
                )
            if traced:
                read_span = tracer.record_span(
                    "replica.read",
                    base_ms + overhead_ms,
                    service_ms,
                    category="replication",
                    lane=f"shard-{self.shard_id}",
                    shard=self.shard_id,
                    replica=replica.replica_id,
                    slow_factor=replica.slow_factor,
                    batch_size=num_requests,
                )
                tracer.record_span(
                    "engine.lookup",
                    base_ms + overhead_ms,
                    kernel_ms,
                    category="device",
                    lane=f"shard-{self.shard_id}",
                    parent=read_span,
                    shard=self.shard_id,
                    replica=replica.replica_id,
                    engine=getattr(replica.index, "engine", None)
                    or getattr(getattr(replica.index, "config", None), "engine", None),
                )
            return ShardRead(
                result, self.cost_model, replica.slow_factor, overhead_ms, hedged_ms
            )

    def _choose_hedge(self, primary: Replica, tried: List[int], now_ms: float):
        """Second healthy replica for a hedged read (least-loaded; breakers
        respected strictly — no hedge beats a hedge against a sick replica)."""
        rel = self.reliability
        peers = [
            replica
            for replica in self._read_candidates(exclude=tried)
            if replica.replica_id != primary.replica_id
            and replica.pending_transient == 0
        ]
        if rel is not None and rel.config.breaker_enabled:
            peers = [
                replica
                for replica in peers
                if rel.breaker(self.shard_id, replica.replica_id).allow(now_ms)
            ]
        if not peers:
            return None
        return min(peers, key=lambda r: (r.busy_ms * r.slow_factor, r.replica_id))

    def read_point(self, keys: np.ndarray, start_ms=None, deadline_ms=None) -> ShardRead:
        """Point-read through the failover loop; an absolute ``deadline_ms``
        bounds it (reliability layer armed), else it is unbounded in time."""
        keys = np.asarray(keys, dtype=self._key_dtype)

        def miss() -> LookupResult:
            return LookupResult(
                row_ids=np.full(keys.shape[0], -1, dtype=np.int64),
                match_counts=np.zeros(keys.shape[0], dtype=np.int64),
                stats=KernelStats(name="serve.replica_point_lookup", launches=0),
            )

        return self._serve_read(
            lambda index: index.point_lookup_batch(keys),
            int(keys.shape[0]),
            miss,
            start_ms,
            deadline_ms,
        )

    def read_range(self, lows: np.ndarray, highs: np.ndarray) -> ShardRead:
        """Range-read the group through the failover loop (never deadline-bound)."""
        lows = np.asarray(lows, dtype=self._key_dtype)
        highs = np.asarray(highs, dtype=self._key_dtype)

        def empty() -> RangeLookupResult:
            return RangeLookupResult(
                row_ids=[np.empty(0, dtype=np.uint32) for _ in range(lows.shape[0])],
                stats=KernelStats(name="serve.replica_range_lookup", launches=0),
            )

        return self._serve_read(
            lambda index: index.range_lookup_batch(lows, highs), int(lows.shape[0]), empty
        )

    # ----------------------------------------------------------------- writes

    def update_batch(
        self,
        insert_keys: Optional[np.ndarray] = None,
        insert_row_ids: Optional[np.ndarray] = None,
        delete_keys: Optional[np.ndarray] = None,
    ) -> UpdateResult:
        """Fan a write out to every up replica; acknowledge at quorum.

        Down replicas miss the write and lag behind (their ``applied_lsn``
        stays put); :meth:`resync` brings them back.  The returned stats sum
        the work of every replica that applied — replicas apply concurrently,
        so the deployment-level makespan accounting stays with the caller.
        """
        insert_keys = (
            np.asarray(insert_keys, dtype=self._key_dtype)
            if insert_keys is not None
            else np.empty(0, dtype=self._key_dtype)
        )
        if insert_row_ids is None:
            insert_row_ids = np.arange(insert_keys.shape[0], dtype=np.uint32)
        insert_row_ids = np.asarray(insert_row_ids, dtype=np.uint32)
        delete_keys = (
            np.asarray(delete_keys, dtype=self._key_dtype)
            if delete_keys is not None
            else np.empty(0, dtype=self._key_dtype)
        )
        # The router already cancels opposing pairs before routing (a no-op
        # here on that path); repeating it keeps *direct* group use on the
        # same batch semantics as every other update surface.
        insert_keys, insert_row_ids, delete_keys = cancel_opposing_updates(
            insert_keys, insert_row_ids, delete_keys
        )

        self.lsn += 1
        self.log.append(
            LogRecord(
                lsn=self.lsn,
                insert_keys=insert_keys.copy(),
                insert_row_ids=insert_row_ids.copy(),
                delete_keys=delete_keys.copy(),
            )
        )
        if len(self.log) > self.config.log_capacity:
            del self.log[: len(self.log) - self.config.log_capacity]
        if self.store is not None:
            # Durability barrier: the WAL append happens before any replica
            # applies and before the quorum ack — an acknowledged write is on
            # disk by definition.
            self.store.log_batch(
                self.shard_id, self.lsn, insert_keys, insert_row_ids, delete_keys
            )

        parts: List[KernelStats] = []
        acked = 0
        any_rebuilt = False
        removed: Optional[int] = None
        up = [replica for replica in self.replicas if replica.state == HEALTHY]
        native = bool(up) and up[0].index is not None and up[0].index.supports_updates

        if not native:
            # Rebuild-fallback replicas (or a fully-down group) need the
            # post-update authoritative snapshot maintained here.
            self.keys, self.row_ids, removed = apply_update_to_entries(
                self.keys, self.row_ids, insert_keys, insert_row_ids, delete_keys
            )

        first_result = None
        for replica in up:
            if native:
                result = replica.index.update_batch(
                    insert_keys=insert_keys if insert_keys.size else None,
                    insert_row_ids=insert_row_ids if insert_keys.size else None,
                    delete_keys=delete_keys if delete_keys.size else None,
                )
                parts.append(result.stats)
                any_rebuilt = any_rebuilt or result.rebuilt
                if first_result is None:
                    first_result = result
            else:
                parts.extend(self._build_replica(replica))
                any_rebuilt = True
            replica.applied_lsn = self.lsn
            acked += 1

        if native:
            # Snapshot a natively-updated replica as the authoritative state
            # so a later rebuild/resync reproduces the live tie-order of
            # duplicates — and the sorted-array maintenance would then be
            # redundant work (mirrors the router's update path).
            removed = first_result.deleted
            try:
                self.keys, self.row_ids = up[0].index.export_entries()
            except UnsupportedOperation:
                self.keys, self.row_ids, removed = apply_update_to_entries(
                    self.keys, self.row_ids, insert_keys, insert_row_ids, delete_keys
                )

        self._bump("writes")
        self._bump("write_acks", acked)
        if acked < min(self.config.quorum, len(self.replicas)):
            self._bump("quorum_failures")
            if self.metrics is not None:
                self.metrics.bump("quorum_failures")

        stats = combine(f"serve.replicated_update_s{self.shard_id}", parts)
        return UpdateResult(
            inserted=int(insert_keys.shape[0]),
            deleted=removed,
            stats=stats,
            rebuilt=any_rebuilt,
        )

    def compact_buckets(self, bucket_ids) -> KernelStats:
        """Compact the same buckets on every caught-up replica.

        Compaction never changes answers, so replicas that miss it (down or
        recovering ones) merely keep longer chains until their next resync —
        the group's read-interchangeability invariant is preserved either
        way.  Replicas whose index type has no chains are skipped.
        """
        parts: List[KernelStats] = []
        for replica in self.replicas:
            if replica.state != HEALTHY or replica.index is None:
                continue
            compact = getattr(replica.index, "compact_buckets", None)
            if callable(compact):
                parts.append(compact(bucket_ids))
        self._bump("compactions")
        return combine(f"serve.compact_s{self.shard_id}", parts)

    def bucket_chain_lengths(self) -> np.ndarray:
        """Chain lengths of the first available chain-based replica.

        Healthy replicas apply identical update batches to identical builds,
        so any one of them is representative of the group's chain debt.
        """
        for replica in self.available_replicas():
            chain_lengths = getattr(replica.index, "bucket_chain_lengths", None)
            if callable(chain_lengths):
                return np.asarray(chain_lengths())
        return np.zeros(0, dtype=np.int64)

    def reload(self, keys: np.ndarray, row_ids: np.ndarray) -> List[KernelStats]:
        """Replace the authoritative snapshot and rebuild every up replica.

        Used by the maintenance worker to heal a degraded shard.  The apply
        log is cleared: a replica that was down across a reload can no longer
        replay, so its next resync takes the snapshot path.
        """
        self.keys = np.asarray(keys, dtype=self._key_dtype).copy()
        self.row_ids = np.asarray(row_ids, dtype=np.uint32).copy()
        self.lsn += 1
        self.log.clear()
        parts: List[KernelStats] = []
        for replica in self.replicas:
            if replica.state == HEALTHY:
                parts.extend(self._build_replica(replica))
                replica.applied_lsn = self.lsn
        if self.store is not None:
            # The reload bumped the LSN without a WAL record; checkpointing
            # here keeps the durable state exactly at the group LSN.
            self.store.checkpoint(self.shard_id, *self.durable_state())
        self._bump("reloads")
        return parts

    def durable_state(self) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """``(keys, row_ids, lsn, epoch)`` for checkpointing: the group's own
        LSN, and the epoch of the first available replica's index."""
        epoch = next(
            (
                int(getattr(replica.index, "epoch", 0))
                for replica in self.available_replicas()
            ),
            0,
        )
        return self.keys, self.row_ids, self.lsn, epoch

    # ------------------------------------------------------------- index-like

    def export_entries(self) -> Tuple[np.ndarray, np.ndarray]:
        # No defensive copy: the authoritative arrays are only ever rebound
        # (update/reload build fresh arrays), so handing out references is
        # safe and saves two O(entries) copies per routed write.
        return self.keys, self.row_ids

    @property
    def build_time_ms(self) -> float:
        """Replicas bulk-load concurrently: the group is ready at the makespan."""
        times = [
            replica.index.build_time_ms
            for replica in self.replicas
            if replica.index is not None
        ]
        return max(times) if times else 0.0

    def memory_footprint(self) -> MemoryFootprint:
        footprint = MemoryFootprint()
        for replica in self.replicas:
            if replica.index is not None:
                footprint.add(
                    f"replica_{replica.replica_id}",
                    replica.index.memory_footprint().total_bytes,
                )
        return footprint

    def degradation_score(self) -> float:
        scores = [
            replica.index.degradation_score()
            for replica in self.replicas
            if replica.available
        ]
        return max(scores) if scores else 0.0

    def __len__(self) -> int:
        return self.num_entries

    # ------------------------------------------------------------------ report

    def replica_loads(self) -> np.ndarray:
        """Requests served per replica, current membership order."""
        return np.asarray([r.reads_served for r in self.replicas], dtype=np.int64)

    def unavailable_ms(self) -> float:
        total = sum(end - start for start, end in self.unavailability_windows)
        if self._unavailable_since is not None:
            total += self.clock.now_ms - self._unavailable_since
        return float(total)

    def snapshot(self) -> dict:
        report = {
            "shard_id": self.shard_id,
            "replicas": len(self.replicas),
            "available": len(self.available_replicas()),
            "lsn": self.lsn,
            "unavailable_ms": self.unavailable_ms(),
            "states": {r.replica_id: r.state for r in self.replicas},
        }
        report.update(self.counters)
        return report


class ReplicatedShardRouter(ShardRouter):
    """A shard router whose shards are replica groups instead of bare indexes.

    Scatter/gather, update routing and the authoritative-array discipline are
    inherited — the group plugs into the ``shard.index`` slot and handles
    balancing, fan-out and failover internally, and reports to the router's
    sinks; shard reads go to the group's reads.
    """

    replicated = True

    def __init__(
        self,
        keys: np.ndarray,
        row_ids: np.ndarray,
        factory: ShardFactory,
        num_shards: int,
        partitioner: str = "range",
        key_bits: int = 64,
        device: GpuDevice = RTX_4090,
        engine: str = "vector",
        replication: Optional[ReplicationConfig] = None,
        clock: Optional[SimulatedClock] = None,
    ) -> None:
        self.replication = replication or ReplicationConfig()
        self.clock = clock or SimulatedClock()
        super().__init__(
            keys,
            row_ids,
            factory=factory,
            num_shards=num_shards,
            partitioner=partitioner,
            key_bits=key_bits,
            device=device,
            engine=engine,
        )

    def _build_shard(self, shard) -> List[KernelStats]:
        if shard.num_entries == 0:
            shard.index = None
            shard.builds += 1
            return []
        group = self.groups.get(shard.shard_id)
        if group is None:
            group = ReplicaGroup(
                shard.shard_id,
                shard.keys,
                shard.row_ids,
                factory=self.factory,
                config=self.replication,
                clock=self.clock,
                device=self.device,
                key_bits=self.key_bits,
            )
            self._bind_group(group)
            self.groups[shard.shard_id] = group
            stats = list(group.build_stats)
            if self.store is not None:
                # A group built after the store was attached (its shard was
                # empty until now) starts its own LSN sequence: rebase the
                # shard's durable state on it, so its WAL records replay on
                # top of its initial entries.
                self.store.rebase_shard(shard.shard_id, *group.durable_state())
        else:
            # Rebuild request (maintenance healing): reload the existing group
            # in place so replica membership and failure state survive.
            stats = group.reload(shard.keys, shard.row_ids)
        shard.index = group
        shard.builds += 1
        return stats

    def _bind_group(self, group: ReplicaGroup) -> None:
        group.store = self.store
        group.metrics = self.metrics
        group.tracer = self.tracer
        group.reliability = self.reliability

    def bind_sinks(self, **sinks) -> None:
        super().bind_sinks(**sinks)
        for group in self.groups.values():
            self._bind_group(group)

    def read_point(self, shard_id, keys, start_ms=None, deadline_ms=None) -> ShardRead:
        return self.shards[shard_id].index.read_point(keys, start_ms, deadline_ms)

    def read_range(self, shard_id, lows, highs) -> ShardRead:
        return self.shards[shard_id].index.read_range(lows, highs)

    # --------------------------------------------------------------- lifecycle

    @property
    def supports_resharding(self) -> bool:
        """Splitting/merging replica groups would have to re-home apply logs
        and failure state per replica; not supported (yet)."""
        return False

    def begin_shard_rebuild(self, shard_id: int) -> KernelStats:
        """Mark a group rebuild in flight (no replacement copy is buffered).

        A replica group rebuilds *rolling* — each replica reloads from the
        authoritative snapshot while its peers keep serving — so the begin
        phase has nothing to build; the reload happens at commit.  The base
        class's behaviour (building a bare inner index and swapping it over
        the group) would silently drop the group's replication state.
        """
        shard = self.shards[int(shard_id)]
        if shard.pending_rebuild:
            raise ValueError(f"shard {shard_id} already has a rebuild in flight")
        shard.pending_rebuild = True
        shard.pending_version = shard.version
        return KernelStats(name=f"serve.rebuild_shard_{shard_id}", launches=0)

    def commit_shard_rebuild(self, shard_id: int) -> None:
        """Reload the replica group in place, preserving its membership."""
        shard = self.shards[int(shard_id)]
        if not shard.pending_rebuild:
            raise ValueError(f"shard {shard_id} has no rebuild in flight")
        shard.pending_rebuild = False
        self._build_shard(shard)

    def rebuild_shard(self, shard_id: int, mode: str = "double_buffered") -> KernelStats:
        """Reload the shard's replica group in place (both modes).

        A replica group is inherently double-buffered: each replica rebuilds
        from the authoritative snapshot while its peers keep serving reads,
        so there is never an offline window and no second full shard copy to
        buffer — ``stop_the_world`` is accepted for interface compatibility
        but cannot make a replicated shard unavailable.
        """
        if mode not in ("double_buffered", "stop_the_world"):
            raise ValueError(f"unknown rebuild mode {mode!r}")
        shard = self.shards[int(shard_id)]
        if shard.pending_rebuild:
            self.abort_shard_rebuild(shard_id)  # superseded two-phase rebuild
        stats = combine(f"serve.rebuild_shard_{shard_id}", self._build_shard(shard))
        self.rebuild_peak_bytes = max(
            self.rebuild_peak_bytes, self.memory_footprint_bytes()
        )
        return stats

    # ------------------------------------------------------------- membership

    def rebalance_replicas(self, replication_factor: int) -> None:
        """Grow or shrink every group to ``replication_factor`` replicas.

        The replication config follows the new size, so the majority-quorum
        maths and the reported factor stay true to the actual membership.
        """
        import dataclasses

        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        self.replication = dataclasses.replace(
            self.replication, replication_factor=replication_factor
        )
        for group in self.groups.values():
            group.config = self.replication
            while len(group.replicas) < replication_factor:
                group.add_replica()
            while len(group.replicas) > replication_factor:
                spare = [r for r in group.replicas if not r.available]
                victim = spare[-1] if spare else group.replicas[-1]
                group.remove_replica(victim.replica_id)

    # ---------------------------------------------------------------- reports

    def replica_load_skew(self) -> float:
        """Max-over-mean request load across every replica of every shard."""
        from repro.serve.metrics import shard_skew

        loads = [
            int(load) for group in self.groups.values() for load in group.replica_loads()
        ]
        return shard_skew(np.asarray(loads, dtype=np.int64)) if loads else 1.0

    def replication_snapshot(self) -> dict:
        groups = [group.snapshot() for group in self.groups.values()]
        totals: Dict[str, float] = {}
        for group in self.groups.values():
            for counter, value in group.counters.items():
                totals[counter] = totals.get(counter, 0) + value
        return {
            "replication_factor": self.replication.replication_factor,
            "read_policy": self.replication.read_policy,
            "write_quorum": self.replication.quorum,
            "unavailable_ms": sum(group.unavailable_ms() for group in self.groups.values()),
            "replica_load_skew": self.replica_load_skew(),
            "groups": groups,
            **totals,
        }


@dataclass(frozen=True)
class FailureEvent:
    """One scheduled fault against a specific replica."""

    at_ms: float
    kind: str  # "crash" | "process_kill" | "slow" | "transient"
    shard_id: int
    replica_id: int
    #: Outage / slowdown length (crash and slow events).
    duration_ms: float = 0.0
    #: Execution-time multiplier while a slow event is active.
    slow_factor: float = 4.0
    #: Read attempts that fail before the replica behaves again (transient).
    error_count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "process_kill", "slow", "transient"):
            raise ValueError(f"unknown failure kind {self.kind!r}")


class FailureInjector:
    """Replays a failure schedule against a replicated router's groups.

    Driven by the simulated clock: :meth:`poll` applies every event (and
    every crash/slow expiry) due by ``now_ms``, in timestamp order, and
    returns human-readable transition records.  Crashed replicas transition
    to ``RECOVERING`` when their outage ends; actually resyncing them is the
    maintenance worker's job (or the group's emergency-restart path).
    """

    def __init__(self, router: ReplicatedShardRouter, events: Sequence[FailureEvent]) -> None:
        self.router = router
        self._heap: List[Tuple[float, int, str, FailureEvent, Optional[int]]] = []
        self._sequence = 0
        for event in sorted(events, key=lambda e: e.at_ms):
            self._push(event.at_ms, "start", event)
        #: Every transition applied so far, as ``(time_ms, description)``.
        self.log: List[Tuple[float, str]] = []
        #: When set (a :class:`repro.obs.telemetry.TelemetryRegistry`),
        #: :meth:`poll` publishes ``fault_active_<kind>`` gauges so traces
        #: and the time-series sampler show failure windows without parsing
        #: schedules.
        self.telemetry = None
        self._active: Dict[str, int] = {}

    def _push(
        self,
        at_ms: float,
        phase: str,
        event: FailureEvent,
        incarnation: Optional[int] = None,
    ) -> None:
        heapq.heappush(
            self._heap, (float(at_ms), self._sequence, phase, event, incarnation)
        )
        self._sequence += 1

    @property
    def pending(self) -> int:
        return len(self._heap)

    def adopt_pending_ends(self, predecessor: "FailureInjector") -> None:
        """Carry over a replaced injector's not-yet-fired fault expiries.

        Re-arming a new schedule must not orphan the end events of faults the
        old schedule already applied — a crashed replica would otherwise stay
        down forever.  Unapplied *start* events of the old schedule are
        intentionally dropped (the caller replaced that future)."""
        for at_ms, _, phase, event, incarnation in predecessor._heap:
            if phase == "end":
                self._push(at_ms, "end", event, incarnation)

    def poll(self, now_ms: float) -> List[Tuple[float, str]]:
        """Apply all transitions due by ``now_ms``; returns the new ones."""
        self.router.clock.advance(now_ms)
        applied: List[Tuple[float, str]] = []
        while self._heap and self._heap[0][0] <= now_ms:
            at_ms, _, phase, event, incarnation = heapq.heappop(self._heap)
            group = self.router.groups.get(event.shard_id)
            if group is None:
                continue
            try:
                description = self._apply(group, at_ms, phase, event, incarnation)
            except KeyError:
                continue  # the replica left the group before the event fired
            if description is not None:
                applied.append((at_ms, description))
        self.log.extend(applied)
        self._publish_gauges()
        return applied

    def _publish_gauges(self) -> None:
        if self.telemetry is None:
            return
        for kind in ("crash", "process_kill", "slow"):
            self.telemetry.gauge(f"fault_active_{kind}").set(
                float(self._active.get(kind, 0))
            )
        pending = sum(
            replica.pending_transient
            for group in self.router.groups.values()
            for replica in group.replicas
        )
        self.telemetry.gauge("fault_active_transient").set(float(pending))

    def _apply(
        self,
        group: ReplicaGroup,
        at_ms: float,
        phase: str,
        event: FailureEvent,
        incarnation: Optional[int],
    ) -> Optional[str]:
        target = f"s{event.shard_id}r{event.replica_id}"
        if phase == "end":
            # The scheduled window is over either way (a superseding restart
            # only ended it early), so the active-fault gauge always drops.
            if event.kind in ("crash", "process_kill", "slow"):
                self._active[event.kind] = max(
                    0, self._active.get(event.kind, 0) - 1
                )
            # A restart (resync) since the fault started supersedes it; its
            # end event must not cut a *newer* fault on the fresh process
            # short.
            if group.replica(event.replica_id).incarnation != incarnation:
                return None
            if event.kind in ("crash", "process_kill"):
                group.end_outage(event.replica_id, at_ms)
                return f"{target} outage over (recovering)"
            group.clear_slow(event.replica_id, event.slow_factor)
            return f"{target} back to full speed"
        if event.kind in ("crash", "process_kill", "slow"):
            self._active[event.kind] = self._active.get(event.kind, 0) + 1
        if event.kind == "crash":
            group.crash(event.replica_id, at_ms)
            self._push(
                at_ms + event.duration_ms,
                "end",
                event,
                incarnation=group.replica(event.replica_id).incarnation,
            )
            return f"{target} crashed for {event.duration_ms:g}ms"
        if event.kind == "process_kill":
            group.process_kill(event.replica_id, at_ms)
            self._push(
                at_ms + event.duration_ms,
                "end",
                event,
                incarnation=group.replica(event.replica_id).incarnation,
            )
            return f"{target} process killed for {event.duration_ms:g}ms"
        if event.kind == "slow":
            group.set_slow(event.replica_id, event.slow_factor)
            self._push(
                at_ms + event.duration_ms,
                "end",
                event,
                incarnation=group.replica(event.replica_id).incarnation,
            )
            return f"{target} slowed x{event.slow_factor:g} for {event.duration_ms:g}ms"
        group.inject_transient(event.replica_id, event.error_count)
        return f"{target} will throw {event.error_count} transient error(s)"
