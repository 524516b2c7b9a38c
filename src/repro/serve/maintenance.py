"""Background shard maintenance: tiered, queueable tasks with idempotent completion.

Long-running deployments of the updatable index degrade: every insert wave
grows cgRXu's node chains, and once buckets are several nodes deep each
lookup pays the extra chain hops (Section IV of the paper keeps lookups fast
precisely because the BVH is never refit — the chains are where the debt
accumulates).  The maintenance worker periodically scans the shards and
heals the debt through an **escalating tier policy**, always off the request
path:

1. **compact** — fold the hottest-chained buckets of a mildly degraded
   shard back into minimal chains (``CgRXuIndex.compact_buckets``); where
   compaction moved representative geometry the index *refits* its BVH
   rather than rebuilding it,
2. **refit escalation** — a shard whose accumulated refits degraded the
   BVH's overlap quality past the configured ratio is promoted straight to
   a rebuild, and
3. **rebuild** — a heavily degraded shard is rebuilt from scratch; by
   default **double-buffered** (the replacement is built in the background
   and swapped in atomically, zero unavailability), optionally
   ``stop_the_world`` (the pre-lifecycle behaviour, whose offline window is
   recorded against availability).

Maintenance device time is accounted per tier, separately from foreground
lookup time.  The task model follows the taskqueue idiom: tasks are plain
functions marked ``@queueable``, every task re-checks its precondition when
it runs (a shard healed by an earlier task completes as a no-op, so
duplicate enqueues are harmless), and failures are captured on the task
record instead of being raised into the serving loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.gpu.kernels import KernelStats
from repro.obs.trace import NULL_TRACER

#: Registry of queueable maintenance task functions, keyed by name.
QUEUEABLE_TASKS: Dict[str, Callable] = {}


def queueable(fn: Callable) -> Callable:
    """Register a function as an enqueueable maintenance task."""
    QUEUEABLE_TASKS[fn.__name__] = fn
    fn.queueable = True
    return fn


@dataclass
class MaintenanceTask:
    """One queued unit of background work."""

    #: Name of a registered queueable function.
    name: str
    shard_id: int
    enqueued_at_ms: float
    status: str = "pending"  # pending | done | skipped | failed
    attempts: int = 0
    #: Captured error message of a failed attempt.
    error: Optional[str] = None
    completed_at_ms: Optional[float] = None
    #: Device work the task performed (None for no-op completions).
    work: Optional[KernelStats] = None


@dataclass
class MaintenancePolicy:
    """When shards are considered degraded and how eagerly they are healed."""

    #: Rebuild a shard once its degradation score reaches this value.  The
    #: score of cgRXu is the mean number of *extra* chain nodes per bucket, so
    #: 0.5 means "half the buckets grew a second node on average".
    rebuild_threshold: float = 0.5
    #: Compact a shard's hottest-chained buckets once its degradation
    #: reaches this value (the cheap first tier; set it at or above
    #: ``rebuild_threshold`` to disable incremental compaction).
    compact_threshold: float = 0.2
    #: Hottest-chained buckets folded per compaction task.
    compact_max_buckets: int = 64
    #: How full rebuilds swap in: ``"double_buffered"`` (background build
    #: plus atomic swap — zero unavailability, both generations briefly
    #: resident) or ``"stop_the_world"`` (shard offline during the build;
    #: the outage window is recorded on the metrics registry).
    rebuild_mode: str = "double_buffered"
    #: Trim the result cache once this fraction of its entries is negative
    #: (negative entries crowd out the positive hits the cache exists for).
    negative_trim_fraction: float = 0.5
    #: Take a durable checkpoint of a shard (and truncate its WAL) once this
    #: many WAL records accumulated behind the previous checkpoint.  Only
    #: active when the deployment has a store attached.
    checkpoint_wal_records: int = 32
    #: Give up on a task after this many failed attempts.
    max_attempts: int = 3

    def __post_init__(self) -> None:
        if self.rebuild_mode not in ("double_buffered", "stop_the_world"):
            raise ValueError(
                f"unknown rebuild mode {self.rebuild_mode!r}; expected "
                "'double_buffered' or 'stop_the_world'"
            )
        if self.compact_max_buckets < 1:
            raise ValueError("compact_max_buckets must be >= 1")


@dataclass
class ReshardPolicy:
    """When the deployment splits hot shards and merges cold neighbours.

    Decisions are driven by the *observed request load* per shard over a
    rolling window (the same load-skew signal the metrics registry reports),
    not by stored entry counts: a hotspot migration leaves entry counts
    untouched while concentrating traffic on one shard.
    """

    #: Master switch; the serving loop only plans reshards when enabled.
    enabled: bool = False
    #: How often the serving loop re-evaluates the topology.
    interval_ms: float = 50.0
    #: Split the hottest shard once it serves more than this multiple of the
    #: mean per-shard load in the window.
    split_skew: float = 2.0
    #: Merge the coldest adjacent shard pair once its *combined* load drops
    #: below this fraction of the mean per-shard load.
    merge_fraction: float = 0.4
    #: Minimum window requests before any decision is made (noise floor).
    min_window_requests: int = 64
    #: Never split a shard storing fewer entries than this.
    min_split_entries: int = 128
    #: Topology bounds.
    max_shards: int = 64
    min_shards: int = 1

    def __post_init__(self) -> None:
        if self.interval_ms <= 0:
            raise ValueError("interval_ms must be > 0")
        if self.split_skew <= 1.0:
            raise ValueError("split_skew must be > 1")
        if self.merge_fraction < 0.0:
            raise ValueError("merge_fraction must be >= 0")
        if self.min_shards < 1 or self.max_shards < self.min_shards:
            raise ValueError("need 1 <= min_shards <= max_shards")


class MaintenanceQueue:
    """FIFO of maintenance tasks with pending-duplicate suppression."""

    def __init__(self) -> None:
        self.tasks: List[MaintenanceTask] = []

    def enqueue(self, name: str, shard_id: int, now_ms: float) -> Optional[MaintenanceTask]:
        """Queue a task unless the same (name, shard) is already pending."""
        if name not in QUEUEABLE_TASKS:
            raise KeyError(f"{name!r} is not a registered queueable task")
        for task in self.tasks:
            if task.status == "pending" and task.name == name and task.shard_id == shard_id:
                return None
        task = MaintenanceTask(name=name, shard_id=int(shard_id), enqueued_at_ms=float(now_ms))
        self.tasks.append(task)
        return task

    def pending(self) -> List[MaintenanceTask]:
        return [task for task in self.tasks if task.status == "pending"]

    def by_status(self, status: str) -> List[MaintenanceTask]:
        return [task for task in self.tasks if task.status == status]


# --------------------------------------------------------------------------
# Queueable task bodies
# --------------------------------------------------------------------------


@queueable
def compact_shard(worker: "MaintenanceWorker", task: MaintenanceTask) -> Optional[KernelStats]:
    """Tier 1: fold the hottest node chains of a mildly degraded shard.

    Incremental healing — per-bucket chain compaction plus a BVH refit when
    compaction re-anchored representatives.  Idempotent: a shard that
    healed below the compact threshold before the task ran (or whose index
    type has no chains) completes as a no-op.
    """
    if worker.degradation_of(task.shard_id) < worker.policy.compact_threshold:
        return None
    return worker.router.compact_shard(
        task.shard_id, worker.policy.compact_max_buckets
    )


@queueable
def rebuild_shard(worker: "MaintenanceWorker", task: MaintenanceTask) -> Optional[KernelStats]:
    """Tier 3: rebuild a heavily degraded shard from its authoritative arrays.

    Double-buffered by default: the replacement is built while the live
    index keeps serving, then swapped in atomically.  Idempotent: if the
    shard is no longer degraded (and its BVH quality no longer escalated)
    when the task runs, it completes without doing any work.
    """
    if worker.degradation_of(task.shard_id) < worker.policy.rebuild_threshold and not (
        worker.needs_bvh_rebuild(task.shard_id)
    ):
        return None
    return worker.router.rebuild_shard(task.shard_id, mode=worker.policy.rebuild_mode)


@queueable
def resync_replicas(worker: "MaintenanceWorker", task: MaintenanceTask) -> Optional[KernelStats]:
    """Catch up every recovering replica of one shard's replica group.

    Recovered processes re-enter the group in the ``RECOVERING`` state and
    may not serve reads until they replayed the apply log (or took a fresh
    snapshot); this task performs that catch-up off the request path.
    Idempotent: a shard whose replicas are all healthy (or that is not
    replicated at all) completes as a no-op.
    """
    group = worker.router.group(task.shard_id)
    if group is None:
        return None
    replicas = group.recovering_replicas()
    if not replicas:
        return None
    parts = []
    for replica in replicas:
        # Count like rebuilds_performed: no-op completions excluded.  A warm
        # restart that missed no writes flips state without replay/rebuild.
        did_work = replica.applied_lsn != group.lsn or replica.index is None
        parts.append(group.resync(replica, worker.now_ms))
        if did_work:
            worker.resyncs_performed += 1
    from repro.gpu.kernels import combine

    return combine(f"serve.resync_shard_{task.shard_id}", parts)


@queueable
def trim_negative_cache(worker: "MaintenanceWorker", task: MaintenanceTask) -> Optional[KernelStats]:
    """Evict negative entries when they crowd out the positive ones.

    Idempotent: completes as a no-op if the negative fraction dropped back
    below the policy threshold before the task ran.
    """
    if worker.cache is None:
        return None
    if worker.cache.negative_fraction < worker.policy.negative_trim_fraction:
        return None
    worker.cache.invalidate_negative()
    # Host-side work only: report a zero-cost kernel so the task counts as done.
    return KernelStats(name="serve.cache_trim", launches=0)


@queueable
def checkpoint_shard(worker: "MaintenanceWorker", task: MaintenanceTask) -> Optional[KernelStats]:
    """Take a durable checkpoint of one shard and truncate its WAL behind it.

    The checkpoint captures the shard's authoritative entries at its current
    LSN — the same state the epoch snapshot lifecycle rebuilds from — so a
    later recovery replays only the records that arrived after it.
    Idempotent: completes as a no-op when no store is attached or the WAL
    backlog dropped back below the policy threshold before the task ran.
    """
    if worker.store is None:
        return None
    if worker.store.wal_backlog(task.shard_id) < worker.policy.checkpoint_wal_records:
        return None
    state = worker.router.durable_state(task.shard_id)
    worker.store.checkpoint(task.shard_id, *state)
    worker.checkpoints_performed += 1
    # Host/storage-side work only: a zero-launch kernel marks the task done.
    return KernelStats(name=f"serve.checkpoint_shard_{task.shard_id}", launches=0)


#: Maintenance tier a task's device time is accounted under.
TASK_TIERS: Dict[str, str] = {
    "compact_shard": "compact",
    "rebuild_shard": "rebuild",
    "resync_replicas": "resync",
    "trim_negative_cache": "cache",
    "checkpoint_shard": "checkpoint",
}


class MaintenanceWorker:
    """Scans shards for degradation and drains the task queue off-path."""

    def __init__(
        self,
        router,
        policy: Optional[MaintenancePolicy] = None,
        cache=None,
        metrics=None,
        reshard_policy: Optional[ReshardPolicy] = None,
    ) -> None:
        self.router = router
        self.policy = policy or MaintenancePolicy()
        self.reshard_policy = reshard_policy or ReshardPolicy()
        self.cache = cache
        #: Telemetry sink for maintenance windows and stop-the-world outages
        #: (the deployment points this at its active registry).
        self.metrics = metrics
        #: Span sink; the deployment points this at its tracer, so executed
        #: maintenance tasks appear as spans on their own trace lane.
        self.tracer = NULL_TRACER
        self.queue = MaintenanceQueue()
        #: Simulated device time spent on background maintenance.
        self.maintenance_time_ms: float = 0.0
        #: ... broken down per maintenance tier.
        self.tier_time_ms: Dict[str, float] = {}
        #: Number of rebuilds actually performed (no-op completions excluded).
        self.rebuilds_performed: int = 0
        #: Number of compaction passes actually performed.
        self.compactions_performed: int = 0
        #: Number of replica resyncs performed (replicated deployments).
        self.resyncs_performed: int = 0
        #: Number of committed shard splits / merges.
        self.splits_performed: int = 0
        self.merges_performed: int = 0
        #: Durable tier (:class:`repro.store.DeploymentStore`); when attached,
        #: the scan also queues checkpoint tasks against WAL backlog.
        self.store = None
        #: Number of durable checkpoints actually taken (no-ops excluded).
        self.checkpoints_performed: int = 0
        #: Simulated time of the cycle currently executing (for task bodies).
        self.now_ms: float = 0.0

    # ------------------------------------------------------------------- scan

    def degradation_of(self, shard_id: int) -> float:
        """Degradation score of one shard (0.0 for empty or healthy shards)."""
        shard = self.router.shards[int(shard_id)]
        if shard.index is None:
            return 0.0
        return float(shard.index.degradation_score())

    def needs_bvh_rebuild(self, shard_id: int) -> bool:
        """Refit escalation: the shard's BVH overlap quality crossed its limit.

        Incremental compaction heals chains with refits rather than BVH
        rebuilds; once the refit debt (tracked as overlap-area growth)
        passes the index's ``refit_escalation_ratio`` the shard is promoted
        straight to the rebuild tier.
        """
        index = self.router.shards[int(shard_id)].index
        ratio_of = getattr(index, "bvh_overlap_ratio", None)
        threshold = getattr(getattr(index, "config", None), "refit_escalation_ratio", None)
        if not callable(ratio_of) or threshold is None:
            return False
        return float(ratio_of()) > float(threshold)

    def scan(self, now_ms: float = 0.0) -> List[MaintenanceTask]:
        """Enqueue tiered healing for degraded shards and a trim for a stale cache.

        Escalating policy per shard: heavy degradation (or escalated refit
        debt) queues a full rebuild; mild degradation queues incremental
        compaction of the hottest-chained buckets.
        """
        enqueued: List[MaintenanceTask] = []
        for shard in self.router.shards:
            degradation = self.degradation_of(shard.shard_id)
            if (
                degradation >= self.policy.rebuild_threshold
                or self.needs_bvh_rebuild(shard.shard_id)
            ):
                task = self.queue.enqueue("rebuild_shard", shard.shard_id, now_ms)
                if task is not None:
                    enqueued.append(task)
            elif degradation >= self.policy.compact_threshold:
                task = self.queue.enqueue("compact_shard", shard.shard_id, now_ms)
                if task is not None:
                    enqueued.append(task)
            group = self.router.group(shard.shard_id)
            if group is not None and group.recovering_replicas():
                task = self.queue.enqueue("resync_replicas", shard.shard_id, now_ms)
                if task is not None:
                    enqueued.append(task)
            if (
                self.store is not None
                and self.store.wal_backlog(shard.shard_id)
                >= self.policy.checkpoint_wal_records
            ):
                task = self.queue.enqueue("checkpoint_shard", shard.shard_id, now_ms)
                if task is not None:
                    enqueued.append(task)
        if (
            self.cache is not None
            and len(self.cache) > 0
            and self.cache.negative_fraction >= self.policy.negative_trim_fraction
        ):
            # The cache is deployment-wide, not per shard: use -1 as shard id.
            task = self.queue.enqueue("trim_negative_cache", -1, now_ms)
            if task is not None:
                enqueued.append(task)
        return enqueued

    # -------------------------------------------------------------------- run

    def run_pending(self, now_ms: float = 0.0) -> List[MaintenanceTask]:
        """Execute every pending task, capturing failures on the task record."""
        executed: List[MaintenanceTask] = []
        self.now_ms = float(now_ms)
        for task in self.queue.pending():
            body = QUEUEABLE_TASKS[task.name]
            task.attempts += 1
            try:
                work = body(self, task)
            except Exception as error:  # captured, never raised into serving
                task.error = f"{type(error).__name__}: {error}"
                task.status = "failed" if task.attempts >= self.policy.max_attempts else "pending"
                continue
            if work is not None:
                task.work = work
                cost_ms = self._work_time_ms(task.shard_id, work)
                self.maintenance_time_ms += cost_ms
                tier = TASK_TIERS.get(task.name, "other")
                self.tier_time_ms[tier] = self.tier_time_ms.get(tier, 0.0) + cost_ms
                if task.name == "rebuild_shard":
                    self.rebuilds_performed += 1
                elif task.name == "compact_shard":
                    self.compactions_performed += 1
                if self.tracer.enabled and cost_ms > 0.0:
                    self.tracer.record_span(
                        f"maintenance.{tier}",
                        self.now_ms,
                        cost_ms,
                        category="maintenance",
                        lane="maintenance",
                        shard=task.shard_id,
                        task=task.name,
                    )
                if self.metrics is not None and cost_ms > 0.0:
                    window = (self.now_ms, self.now_ms + cost_ms)
                    self.metrics.record_maintenance(tier, *window)
                    self.metrics.telemetry.counter(
                        "serve_maintenance_tasks_total", tier=tier
                    ).inc()
                    if (
                        task.name == "rebuild_shard"
                        and self.policy.rebuild_mode == "stop_the_world"
                        and not self.router.replicated
                    ):
                        # The shard had no index for the duration of the
                        # build: that is a real outage, unlike the
                        # double-buffered swap (or a replica group's rolling
                        # rebuild).
                        self.metrics.record_unavailability(*window)
            task.status = "done" if task.work is not None else "skipped"
            task.completed_at_ms = float(now_ms)
            executed.append(task)
        return executed

    def run_cycle(self, now_ms: float = 0.0) -> List[MaintenanceTask]:
        """One background iteration: scan, then drain the queue."""
        self.scan(now_ms)
        return self.run_pending(now_ms)

    # --------------------------------------------------------------- reshard

    def plan_reshard(
        self, window_shards: np.ndarray, window_keys: np.ndarray
    ) -> List[Tuple[str, int, Optional[int]]]:
        """Topology changes warranted by the window's observed load skew.

        Returns at most one ``("split", shard, split_key)`` or one
        ``("merge", shard, None)`` — resharding is deliberately incremental,
        one committed change per evaluation interval, so a transient spike
        never triggers a topology thrash.  The split key is the median of
        the window's requests into the hot shard (the point that halves the
        *observed* load, which for a hotspot is far from the stored median).
        """
        policy = self.reshard_policy
        router = self.router
        if not policy.enabled or not getattr(router, "supports_resharding", False):
            return []
        window_shards = np.asarray(window_shards)
        if window_shards.shape[0] < policy.min_window_requests:
            return []
        num_shards = router.num_shards
        loads = np.bincount(window_shards, minlength=num_shards).astype(np.float64)
        mean = loads.sum() / num_shards
        hottest = int(np.argmax(loads))
        if (
            num_shards < policy.max_shards
            and loads[hottest] >= policy.split_skew * mean
            and router.shards[hottest].num_entries >= policy.min_split_entries
        ):
            hot_keys = np.sort(np.asarray(window_keys)[window_shards == hottest])
            split_key = int(hot_keys[hot_keys.shape[0] // 2])
            return [("split", hottest, split_key)]
        if num_shards > max(policy.min_shards, 1):
            pair_loads = loads[:-1] + loads[1:]
            coldest = int(np.argmin(pair_loads))
            if pair_loads[coldest] <= policy.merge_fraction * mean:
                return [("merge", coldest, None)]
        return []

    def run_reshard(
        self, now_ms: float, window_shards: np.ndarray, window_keys: np.ndarray
    ) -> List[str]:
        """Plan and commit reshard operations; returns the ops performed.

        The serving loop calls this *after* flushing the batch queues —
        queued requests were routed under the old topology — and recomputes
        its routing afterwards.  Both phases of each operation reuse the
        epoch double-buffer lifecycle, so shards keep serving throughout.
        """
        executed: List[str] = []
        self.now_ms = float(now_ms)
        for op, shard_id, split_key in self.plan_reshard(window_shards, window_keys):
            try:
                if op == "split":
                    work = self.router.split_shard(shard_id, split_key)
                else:
                    work = self.router.merge_shards(shard_id)
            except ValueError:
                # Unsplittable (e.g. every windowed request hit one stored
                # key) or a racing lifecycle operation: skip this interval.
                continue
            cost_ms = self._work_time_ms(shard_id, work)
            self.maintenance_time_ms += cost_ms
            self.tier_time_ms["reshard"] = (
                self.tier_time_ms.get("reshard", 0.0) + cost_ms
            )
            if op == "split":
                self.splits_performed += 1
            else:
                self.merges_performed += 1
            if self.tracer.enabled:
                self.tracer.record_span(
                    f"reshard.{op}",
                    self.now_ms,
                    cost_ms,
                    category="maintenance",
                    lane="maintenance",
                    shard=int(shard_id),
                    num_shards=self.router.num_shards,
                )
            if self.metrics is not None:
                if cost_ms > 0.0:
                    self.metrics.record_maintenance(
                        "reshard", self.now_ms, self.now_ms + cost_ms
                    )
                self.metrics.telemetry.counter("serve_reshard_total", op=op).inc()
            executed.append(op)
        return executed

    def _work_time_ms(self, shard_id: int, work: KernelStats) -> float:
        if shard_id < 0:  # deployment-wide (host-side) task, no device time
            return 0.0
        shard = self.router.shards[int(shard_id)]
        if shard.index is None:
            return 0.0
        return shard.index.cost_model.kernel_time_ms(work)

    # ---------------------------------------------------------------- reports

    def snapshot(self) -> dict:
        report = {
            "tasks_enqueued": len(self.queue.tasks),
            "tasks_done": len(self.queue.by_status("done")),
            "tasks_skipped": len(self.queue.by_status("skipped")),
            "tasks_failed": len(self.queue.by_status("failed")),
            "rebuilds_performed": self.rebuilds_performed,
            "compactions_performed": self.compactions_performed,
            "resyncs_performed": self.resyncs_performed,
            "splits_performed": self.splits_performed,
            "merges_performed": self.merges_performed,
            "checkpoints_performed": self.checkpoints_performed,
            "maintenance_time_ms": self.maintenance_time_ms,
            "rebuild_peak_bytes": int(getattr(self.router, "rebuild_peak_bytes", 0)),
            "compiled_arena_bytes": self._compiled_arena_bytes(),
        }
        for tier, time_ms in sorted(self.tier_time_ms.items()):
            report[f"maintenance_ms_{tier}"] = time_ms
        return report

    def _compiled_arena_bytes(self) -> int:
        """Total host-side compiled-tier arena bytes across live shards."""
        total = 0
        for shard in self.router.shards:
            if shard.index is None:
                continue
            arena_bytes = getattr(shard.index, "compiled_buffers_bytes", None)
            if arena_bytes is not None:
                total += int(arena_bytes())
        return total
