"""Shard router: scatter/gather over per-shard index instances.

A :class:`ShardRouter` owns one :class:`~repro.baselines.base.GpuIndex`
instance per shard plus the authoritative key/rowID arrays each shard was
built from.  Point-lookup batches are scattered by the partitioner, answered
per shard, and gathered back into request order; range lookups are scattered
only to the shards whose key ranges overlap the query interval.  Updates are
routed the same way — shards whose index type supports native updates apply
them in place, all others are rebuilt from the (updated) authoritative
arrays, which is also the primitive the background maintenance worker uses to
heal degraded shards.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.baselines.base import (
    GpuIndex,
    LookupResult,
    RangeLookupResult,
    UnsupportedOperation,
    UpdateResult,
    cancel_opposing_updates,
    delete_one_per_key,
)
from repro.core.config import validate_engine
from repro.gpu.cost_model import CostModel
from repro.gpu.device import RTX_4090, GpuDevice
from repro.gpu.kernels import KernelStats, combine
from repro.obs.trace import NULL_TRACER
from repro.serve.partition import (
    Partitioner,
    make_partitioner,
    negative_key_mask,
    out_of_domain_mask,
    routing_keys,
)
from repro.workloads.keygen import KeySet

if TYPE_CHECKING:
    from repro.serve.replication import ReplicaGroup

#: Factory building one shard's index from its keyset (harness signature).
ShardFactory = Callable[[KeySet, GpuDevice], GpuIndex]


def apply_update_to_entries(
    keys: np.ndarray,
    row_ids: np.ndarray,
    insert_keys: np.ndarray,
    insert_row_ids: np.ndarray,
    delete_keys: np.ndarray,
) -> "tuple[np.ndarray, np.ndarray, int]":
    """Apply an update slice to sorted authoritative ``(keys, row_ids)`` arrays.

    Deletes remove one occurrence per delete key (cgRXu's semantics, via
    :func:`~repro.baselines.base.delete_one_per_key`); inserts land behind
    existing duplicates of the same key.  Returns the new arrays plus the
    number of entries actually removed.  Shared by the shard router and the
    replication layer so every authoritative copy agrees byte-for-byte.
    """
    keys, row_ids, removed = delete_one_per_key(keys, row_ids, delete_keys)
    if insert_keys.size:
        # np.insert places same-position values in argument order, so an
        # unsorted batch would break the sorted invariant; sort it first.
        order = np.argsort(insert_keys, kind="stable")
        insert_keys = insert_keys[order]
        insert_row_ids = insert_row_ids[order]
        positions = np.searchsorted(keys, insert_keys, side="right")
        keys = np.insert(keys, positions, insert_keys)
        row_ids = np.insert(row_ids, positions, insert_row_ids)
    return keys, row_ids, removed


@dataclass
class ShardRead:
    """One shard read's answer plus what its simulated time is made of.

    A plain shard's read keeps the defaults; a replica group's read fills in
    the serving replica's slowdown, its failover overhead and, when a hedge
    raced it, the first-answer-wins time.
    """

    #: The shard's answer (a :class:`LookupResult` or :class:`RangeLookupResult`).
    result: Union[LookupResult, RangeLookupResult]
    #: Cost model of the device that answered.
    cost_model: CostModel
    #: Execution-time multiplier of the replica that answered.
    slow_factor: float = 1.0
    #: Host-side failover, retry-backoff and restart time the read paid.
    overhead_ms: float = 0.0
    #: Effective service time when a hedge raced the primary; ``None``
    #: keeps the kernel-time formula.
    hedged_ms: Optional[float] = None
    #: Abandoned as an explicit partial result: ``result`` is a deterministic
    #: miss the serving layer masks out of oracle byte-checks.
    unavailable: bool = False

    @property
    def time_ms(self) -> float:
        """Simulated time of the read, overhead included (computed on demand:
        the untraced scatter never needs it).  For a plain shard this is
        exactly ``index.lookup_time_ms(result)``."""
        if self.hedged_ms is not None:
            return self.hedged_ms + self.overhead_ms
        return (
            self.cost_model.kernel_time_ms(self.result.stats) * self.slow_factor
            + self.overhead_ms
        )


@dataclass
class ShardCall:
    """Per-shard breakdown of the last scattered batch (for skew accounting)."""

    shard_id: int
    batch_size: int
    stats: KernelStats


@dataclass
class _Shard:
    """One shard: its index instance and the authoritative entry arrays."""

    shard_id: int
    #: Authoritative keys, kept sorted ascending.
    keys: np.ndarray
    #: RowIDs aligned with ``keys``.
    row_ids: np.ndarray
    index: Optional[GpuIndex] = None
    #: Number of rebuilds this shard has seen (bulk load included).
    builds: int = 0
    #: Replacement index of an in-flight double-buffered rebuild.  While it
    #: exists both generations are resident, which is exactly the peak the
    #: deployment's memory accounting must expose.
    pending_index: Optional[GpuIndex] = None
    #: True between ``begin_shard_rebuild`` and its commit/abort (the
    #: replacement of an empty shard is ``None`` yet still pending).
    pending_rebuild: bool = False
    #: Bumped on every authoritative mutation; lets a rebuild commit detect
    #: updates that landed while the replacement was building.
    version: int = 0
    #: ``version`` the in-flight replacement was built from.
    pending_version: int = -1
    #: In-flight reshard (``"split"`` or ``"merge"``) whose replacement
    #: indexes live in :attr:`reshard_indexes` until commit/abort.  Like a
    #: rebuild's pending buffer, both generations are resident meanwhile.
    reshard_kind: Optional[str] = None
    #: Split key of an in-flight split.
    reshard_key: int = 0
    #: Replacement indexes: ``(left, right)`` for a split, ``(combined,)``
    #: for a merge (``None`` entries for empty halves).
    reshard_indexes: tuple = ()
    #: ``version`` the reshard replacement(s) were built from.
    reshard_version: int = -1
    #: Right-neighbour ``version`` an in-flight merge was built from.
    reshard_partner_version: int = -1

    @property
    def num_entries(self) -> int:
        return int(self.keys.shape[0])


class ShardRouter:
    """Range- or hash-partitioned deployment of one index type."""

    #: Whether shards are replica groups: the one answer the serving stack
    #: consults for "is this deployment replicated?".
    replicated = False

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
    ) -> None:
        if key_bits not in (32, 64):
            raise ValueError("key_bits must be 32 or 64")
        #: Scatter/gather execution engine (``"vector"`` scatters range
        #: batches with one vectorized span computation; answers identical).
        self.engine = validate_engine(engine)
        self.key_bits = key_bits
        self.key_bytes = key_bits // 8
        self._key_dtype = np.uint32 if key_bits == 32 else np.uint64
        self._key_max = int(np.iinfo(self._key_dtype).max)
        self.device = device
        self.factory = factory
        #: Deployment sinks (:meth:`bind_sinks`).  The durable tier WAL-logs
        #: every acknowledged write batch before it returns (plain shards via
        #: the router, replica groups themselves); only groups report to the
        #: metrics registry and reliability state.
        self.tracer = NULL_TRACER
        self.store = None
        self.metrics = None
        self.reliability = None
        #: Replica groups by shard id; empty on a plain router.
        self.groups: Dict[int, "ReplicaGroup"] = {}

        keys = np.asarray(keys, dtype=self._key_dtype)
        row_ids = np.asarray(row_ids, dtype=np.uint32)
        self.partitioner: Partitioner = make_partitioner(partitioner, keys, num_shards)

        shard_ids = self.partitioner.shard_of(keys)
        self.shards: List[_Shard] = []
        for shard_id in range(self.partitioner.num_shards):
            member = shard_ids == shard_id
            shard_keys = keys[member]
            shard_rows = row_ids[member]
            order = np.argsort(shard_keys, kind="stable")
            shard = _Shard(
                shard_id=shard_id,
                keys=shard_keys[order],
                row_ids=shard_rows[order],
            )
            self._build_shard(shard)
            self.shards.append(shard)

        #: Per-shard breakdown of the most recent scattered call.
        self.last_calls: List[ShardCall] = []
        #: Largest deployment footprint observed during a rebuild — for
        #: double-buffered rebuilds this includes the window in which both
        #: shard generations were resident.
        self.rebuild_peak_bytes: int = 0
        #: Bumped on every committed split/merge; serving loops compare it to
        #: invalidate routing decisions cached under the old topology.
        self.topology_version: int = 0
        #: Committed split/merge counts (for reports and telemetry).
        self.reshard_counts: Dict[str, int] = {"split": 0, "merge": 0}

    # -------------------------------------------------------------- structure

    @property
    def num_shards(self) -> int:
        return self.partitioner.num_shards

    def bind_sinks(self, **sinks) -> None:
        """Point deployment sinks (``store``, ``metrics``, ``tracer``,
        ``reliability``) at new objects."""
        for name, sink in sinks.items():
            if name not in ("store", "metrics", "tracer", "reliability"):
                raise TypeError(f"unknown deployment sink {name!r}")
            setattr(self, name, sink)

    def group(self, shard_id: int) -> Optional["ReplicaGroup"]:
        """The replica group serving ``shard_id`` (``None`` on a plain router
        and for an empty replicated shard, which has no live group)."""
        return self.shards[int(shard_id)].index if self.replicated else None

    def durable_state(self, shard_id: int) -> Tuple[np.ndarray, np.ndarray, int, int]:
        """A shard's ``(keys, row_ids, lsn, epoch)`` for checkpointing.

        Replica groups carry their own LSN; a plain shard's LSN is its
        version (bumped once per authoritative mutation), and its epoch comes
        from the index's snapshot lifecycle when it has one.
        """
        group = self.group(shard_id)
        if group is not None:
            return group.durable_state()
        shard = self.shards[int(shard_id)]
        epoch = int(getattr(shard.index, "epoch", 0))
        return shard.keys, shard.row_ids, int(shard.version), epoch

    def shard_sizes(self) -> np.ndarray:
        """Authoritative entry count per shard (drives the skew metric)."""
        return np.asarray([shard.num_entries for shard in self.shards], dtype=np.int64)

    @property
    def num_entries(self) -> int:
        return int(self.shard_sizes().sum())

    def build_time_ms(self) -> float:
        """Simulated bulk-load time: shards build concurrently, so the makespan."""
        times = [
            shard.index.build_time_ms for shard in self.shards if shard.index is not None
        ]
        return max(times) if times else 0.0

    def _make_index(self, shard: _Shard) -> Optional[GpuIndex]:
        """Build an index instance from the shard's authoritative arrays.

        ``None`` for an empty shard (lookups into it are trivial misses).
        """
        if shard.num_entries == 0:
            return None
        keyset = KeySet(
            keys=shard.keys.copy(),
            row_ids=shard.row_ids.copy(),
            key_bits=self.key_bits,
            description=f"shard {shard.shard_id}",
        )
        return self.factory(keyset, self.device)

    def _build_shard(self, shard: _Shard) -> List[KernelStats]:
        """(Re)build one shard's index in place from its authoritative arrays."""
        shard.index = self._make_index(shard)
        shard.builds += 1
        return list(shard.index.build_stats) if shard.index is not None else []

    # --------------------------------------------------------------- lifecycle

    def _make_replacement(self, shard: _Shard) -> Optional[GpuIndex]:
        """Build a shard's replacement index for a double-buffered rebuild.

        Indexes with a snapshot lifecycle (cgRXu) are rebuilt through
        ``snapshot()``/``build_from_snapshot()`` so the replacement carries
        the epoch lineage (``epoch + 1``); everything else is rebuilt from
        the authoritative arrays, which track the live index's entries
        byte-for-byte either way.
        """
        live = shard.index
        if (
            live is not None
            and shard.num_entries > 0
            and live.supports_updates
            and hasattr(live, "snapshot")
            and hasattr(live, "build_from_snapshot")
        ):
            # Only native updaters rebuild via their own snapshot: their live
            # entries track every write.  A rebuild-fallback index (cgRX) is
            # rebuilt from the authoritative arrays, which may already be
            # ahead of the live index within this very update.
            return live.build_from_snapshot(live.snapshot(), device=self.device)
        # Empty shards (or index types without a snapshot lifecycle) rebuild
        # from the authoritative arrays; an emptied shard's replacement is
        # simply no index at all.
        return self._make_index(shard)

    def begin_shard_rebuild(self, shard_id: int) -> KernelStats:
        """Phase one of a double-buffered rebuild: build the replacement.

        The live index keeps serving; the replacement lives in the shard's
        rebuild buffer (visible in the deployment's memory footprint) until
        :meth:`commit_shard_rebuild` swaps it in or
        :meth:`abort_shard_rebuild` drops it.
        """
        shard = self.shards[int(shard_id)]
        if shard.pending_rebuild:
            raise ValueError(f"shard {shard_id} already has a rebuild in flight")
        shard.pending_index = self._make_replacement(shard)
        shard.pending_rebuild = True
        shard.pending_version = shard.version
        build_stats = (
            list(shard.pending_index.build_stats)
            if shard.pending_index is not None
            else []
        )
        return combine(f"serve.rebuild_shard_{shard_id}", build_stats)

    def commit_shard_rebuild(self, shard_id: int) -> None:
        """Phase two: atomically swap the replacement in (zero unavailability).

        Every call the shard's index answered before this point was served
        by the old generation; every later call by the new one — there is no
        instant at which the shard has no index.  Updates that landed while
        the replacement was building (the shard's version moved past the one
        the replacement was built from) trigger a catch-up rebuild from the
        current state before the swap, so a commit can never lose writes.
        """
        shard = self.shards[int(shard_id)]
        if not shard.pending_rebuild:
            raise ValueError(f"shard {shard_id} has no rebuild in flight")
        if shard.version != shard.pending_version:
            shard.pending_index = self._make_replacement(shard)
            shard.pending_version = shard.version
        shard.index = shard.pending_index
        shard.pending_index = None
        shard.pending_rebuild = False
        shard.builds += 1

    def abort_shard_rebuild(self, shard_id: int) -> None:
        """Drop an in-flight replacement without swapping it in."""
        shard = self.shards[int(shard_id)]
        shard.pending_index = None
        shard.pending_rebuild = False

    def rebuild_shard(self, shard_id: int, mode: str = "double_buffered") -> KernelStats:
        """Rebuild one shard from scratch; returns the build work performed.

        ``double_buffered`` (default) builds the replacement off the request
        path and swaps it in atomically — the shard serves throughout, at
        the price of both generations being resident during the build.
        ``stop_the_world`` takes the shard offline for the build (the
        pre-lifecycle behaviour); the caller accounts the outage window
        against availability.
        """
        shard = self.shards[int(shard_id)]
        if shard.pending_rebuild:
            # An immediate full rebuild supersedes a replacement someone
            # started via the explicit two-phase API: it would be built
            # from the same (or staler) state anyway.
            self.abort_shard_rebuild(shard_id)
        if mode == "double_buffered":
            stats = self.begin_shard_rebuild(shard_id)
            self.rebuild_peak_bytes = max(
                self.rebuild_peak_bytes, self.memory_footprint_bytes()
            )
            self.commit_shard_rebuild(shard_id)
            return stats
        if mode != "stop_the_world":
            raise ValueError(f"unknown rebuild mode {mode!r}")
        shard.index = None  # offline for the duration of the build
        build_stats = self._build_shard(shard)
        self.rebuild_peak_bytes = max(
            self.rebuild_peak_bytes, self.memory_footprint_bytes()
        )
        return combine(f"serve.rebuild_shard_{shard_id}", build_stats)

    def compact_shard(self, shard_id: int, max_buckets: int = 64) -> Optional[KernelStats]:
        """Compact the hottest-chained buckets of one shard.

        The cheap first maintenance tier: fold the longest node chains of a
        chain-based index (cgRXu, or every replica of a cgRXu replica group)
        back into minimal chains.  ``None`` when the shard is empty, its
        index type has no chains, or no bucket is chained at all.
        """
        shard = self.shards[int(shard_id)]
        index = shard.index
        if index is None:
            return None
        compact = getattr(index, "compact_buckets", None)
        chain_lengths = getattr(index, "bucket_chain_lengths", None)
        if not callable(compact) or not callable(chain_lengths):
            return None
        lengths = np.asarray(chain_lengths())
        chained = np.nonzero(lengths > 1)[0]
        if chained.size == 0:
            return None
        hottest = chained[np.argsort(lengths[chained], kind="stable")[::-1]]
        return compact(hottest[: int(max_buckets)])

    # --------------------------------------------------------------- resharding

    @property
    def supports_resharding(self) -> bool:
        """Whether the deployment can split/merge shards in place."""
        return self.partitioner.supports_resharding

    def _build_from_slice(
        self, label: str, keys: np.ndarray, row_ids: np.ndarray, lineage: Optional[GpuIndex]
    ) -> Optional[GpuIndex]:
        """Build a replacement index from an authoritative-array slice.

        When the live index carries the snapshot lifecycle (cgRXu), the
        replacement is built through a sliced snapshot so it keeps the epoch
        lineage (``epoch + 1``), exactly like a double-buffered rebuild;
        otherwise it is built through the shard factory.  ``None`` for an
        empty slice.
        """
        if keys.shape[0] == 0:
            return None
        if (
            lineage is not None
            and hasattr(lineage, "snapshot")
            and hasattr(lineage, "build_from_snapshot")
        ):
            snapshot = lineage.snapshot()
            sliced = dataclasses.replace(
                snapshot, keys=keys.copy(), row_ids=row_ids.copy()
            )
            return lineage.build_from_snapshot(sliced, device=self.device)
        keyset = KeySet(
            keys=keys.copy(),
            row_ids=row_ids.copy(),
            key_bits=self.key_bits,
            description=label,
        )
        return self.factory(keyset, self.device)

    def _check_reshardable(self, shard: _Shard) -> None:
        if not self.supports_resharding:
            raise ValueError(
                f"{self.partitioner.kind} partitioner cannot reshard in place"
            )
        if shard.pending_rebuild or shard.reshard_kind is not None:
            raise ValueError(
                f"shard {shard.shard_id} already has a rebuild or reshard in flight"
            )

    @staticmethod
    def _split_position(shard: _Shard, split_key: int) -> int:
        return int(
            np.searchsorted(shard.keys, shard.keys.dtype.type(split_key), side="left")
        )

    def begin_shard_split(self, shard_id: int, split_key: Optional[int] = None) -> KernelStats:
        """Phase one of a zero-downtime split: build both half replacements.

        The live shard keeps serving; the halves sit in the shard's reshard
        buffer (counted in the memory footprint) until
        :meth:`commit_shard_split`.  ``split_key`` defaults to the shard's
        median stored key; it must divide the stored entries so both halves
        are non-empty at build time.
        """
        shard = self.shards[int(shard_id)]
        self._check_reshardable(shard)
        if shard.num_entries < 2:
            raise ValueError(f"shard {shard_id} is too small to split")
        if split_key is None:
            split_key = int(shard.keys[shard.num_entries // 2])
        split_key = max(int(split_key), 0)
        position = self._split_position(shard, split_key)
        if position <= 0 or position >= shard.num_entries:
            raise ValueError("split key does not divide the shard's entries")
        left = self._build_from_slice(
            f"shard {shard_id}L",
            shard.keys[:position],
            shard.row_ids[:position],
            shard.index,
        )
        right = self._build_from_slice(
            f"shard {shard_id}R",
            shard.keys[position:],
            shard.row_ids[position:],
            shard.index,
        )
        shard.reshard_kind = "split"
        shard.reshard_key = split_key
        shard.reshard_indexes = (left, right)
        shard.reshard_version = shard.version
        return combine(
            f"serve.split_shard_{shard_id}",
            [s for half in (left, right) if half is not None for s in half.build_stats],
        )

    def commit_shard_split(self, shard_id: int) -> None:
        """Phase two: atomically replace the shard with its two halves.

        The old shard serves every call up to this point and the halves every
        later one — no unavailability window.  If updates landed since the
        halves were built (version moved), they are rebuilt from the current
        authoritative arrays first, so the commit can never lose writes.
        """
        shard_id = int(shard_id)
        shard = self.shards[shard_id]
        if shard.reshard_kind != "split":
            raise ValueError(f"shard {shard_id} has no split in flight")
        split_key = shard.reshard_key
        left, right = shard.reshard_indexes
        if shard.version != shard.reshard_version:
            position = self._split_position(shard, split_key)
            left = self._build_from_slice(
                f"shard {shard_id}L",
                shard.keys[:position],
                shard.row_ids[:position],
                shard.index,
            )
            right = self._build_from_slice(
                f"shard {shard_id}R",
                shard.keys[position:],
                shard.row_ids[position:],
                shard.index,
            )
        position = self._split_position(shard, split_key)
        self.partitioner.split_at(shard_id, split_key)
        left_shard = _Shard(
            shard_id=shard_id,
            keys=shard.keys[:position].copy(),
            row_ids=shard.row_ids[:position].copy(),
            index=left,
            builds=shard.builds + 1,
        )
        right_shard = _Shard(
            shard_id=shard_id + 1,
            keys=shard.keys[position:].copy(),
            row_ids=shard.row_ids[position:].copy(),
            index=right,
            builds=shard.builds + 1,
        )
        self.shards[shard_id : shard_id + 1] = [left_shard, right_shard]
        self._renumber_shards()
        self.reshard_counts["split"] += 1
        self.topology_version += 1

    def begin_shard_merge(self, shard_id: int) -> KernelStats:
        """Phase one of a zero-downtime merge of ``shard_id`` and its right
        neighbour: build the combined replacement off the request path."""
        shard_id = int(shard_id)
        if shard_id >= len(self.shards) - 1:
            raise ValueError(f"shard {shard_id} has no right neighbour to merge")
        left, right = self.shards[shard_id], self.shards[shard_id + 1]
        self._check_reshardable(left)
        self._check_reshardable(right)
        # Left keys all sort below the boundary the right shard starts at,
        # so concatenation preserves the sorted invariant.
        combined = self._build_from_slice(
            f"shard {shard_id}M",
            np.concatenate([left.keys, right.keys]),
            np.concatenate([left.row_ids, right.row_ids]),
            left.index if left.index is not None else right.index,
        )
        left.reshard_kind = "merge"
        left.reshard_indexes = (combined,)
        left.reshard_version = left.version
        left.reshard_partner_version = right.version
        return combine(
            f"serve.merge_shard_{shard_id}",
            list(combined.build_stats) if combined is not None else [],
        )

    def commit_shard_merge(self, shard_id: int) -> None:
        """Phase two: atomically replace both shards with the merged one,
        rebuilding first if either side took writes since the build."""
        shard_id = int(shard_id)
        left = self.shards[shard_id]
        if left.reshard_kind != "merge":
            raise ValueError(f"shard {shard_id} has no merge in flight")
        right = self.shards[shard_id + 1]
        (combined,) = left.reshard_indexes
        if (
            left.version != left.reshard_version
            or right.version != left.reshard_partner_version
        ):
            combined = self._build_from_slice(
                f"shard {shard_id}M",
                np.concatenate([left.keys, right.keys]),
                np.concatenate([left.row_ids, right.row_ids]),
                left.index if left.index is not None else right.index,
            )
        self.partitioner.merge_with_next(shard_id)
        merged = _Shard(
            shard_id=shard_id,
            keys=np.concatenate([left.keys, right.keys]),
            row_ids=np.concatenate([left.row_ids, right.row_ids]),
            index=combined,
            builds=max(left.builds, right.builds) + 1,
        )
        self.shards[shard_id : shard_id + 2] = [merged]
        self._renumber_shards()
        self.reshard_counts["merge"] += 1
        self.topology_version += 1

    def abort_reshard(self, shard_id: int) -> None:
        """Drop an in-flight split/merge replacement without committing."""
        shard = self.shards[int(shard_id)]
        shard.reshard_kind = None
        shard.reshard_indexes = ()
        shard.reshard_version = -1
        shard.reshard_partner_version = -1

    def split_shard(self, shard_id: int, split_key: Optional[int] = None) -> KernelStats:
        """Build-and-commit split (both phases; peak footprint recorded)."""
        stats = self.begin_shard_split(shard_id, split_key)
        self.rebuild_peak_bytes = max(
            self.rebuild_peak_bytes, self.memory_footprint_bytes()
        )
        self.commit_shard_split(shard_id)
        return stats

    def merge_shards(self, shard_id: int) -> KernelStats:
        """Build-and-commit merge of ``shard_id`` with its right neighbour."""
        stats = self.begin_shard_merge(shard_id)
        self.rebuild_peak_bytes = max(
            self.rebuild_peak_bytes, self.memory_footprint_bytes()
        )
        self.commit_shard_merge(shard_id)
        return stats

    def _renumber_shards(self) -> None:
        for position, shard in enumerate(self.shards):
            shard.shard_id = position

    def _routing_stats(self, num_keys: int) -> KernelStats:
        return KernelStats(
            name="serve.route",
            threads=num_keys,
            bytes_read=num_keys * self.key_bytes,
            compute_ops=self.partitioner.routing_compute_ops(num_keys),
            launches=1,
        )

    # ---------------------------------------------------------------- lookups

    def read_point(self, shard_id: int, keys, start_ms=None, deadline_ms=None) -> ShardRead:
        """Point-read one non-empty shard (``start_ms``/``deadline_ms`` bound a
        replica group's failover; a plain shard cannot fail over)."""
        index = self.shards[shard_id].index
        return ShardRead(index.point_lookup_batch(keys), index.cost_model)

    def read_range(self, shard_id: int, lows, highs) -> ShardRead:
        """Range-read one non-empty shard."""
        index = self.shards[shard_id].index
        return ShardRead(index.range_lookup_batch(lows, highs), index.cost_model)

    def _push_scatter_span(self, batch_size: int, **attributes):
        """Open a scattered call's ``router.scatter`` span (``None`` untraced)."""
        tracer = self.tracer
        if not tracer.enabled:
            return None
        return tracer.push_span(
            "router.scatter",
            tracer.clock.now_ms if tracer.clock is not None else 0.0,
            category="router",
            lane="router",
            batch_size=batch_size,
            engine=self.engine,
            partitioner=self.partitioner.kind,
            **attributes,
        )

    def _gather(self, scatter_span, shard_id: int, batch_size: int, read, parts) -> None:
        """Account one shard's read of a scattered call: its kernel stats, its
        :class:`ShardCall` and, traced, its ``router.shard_call`` span.  Shards
        answer concurrently, so the scatter span covers the slowest read."""
        stats = read.result.stats
        parts.append(stats)
        self.last_calls.append(ShardCall(shard_id, batch_size, stats))
        if scatter_span is not None:
            shard_ms = read.time_ms
            scatter_span.duration_ms = max(scatter_span.duration_ms, shard_ms)
            self.tracer.record_span(
                "router.shard_call",
                scatter_span.start_ms,
                shard_ms,
                category="router",
                lane=f"shard-{shard_id}",
                parent=scatter_span,
                shard=shard_id,
                batch_size=batch_size,
            )

    def point_lookup_batch(self, keys: np.ndarray) -> LookupResult:
        """Scatter a point-lookup batch, answer per shard, gather in order.

        Keys outside the stored keyspace — negative (signed-dtype) keys, and
        keys above the key dtype's maximum — are answered as definitional
        misses without touching any shard.  Casting them instead would wrap
        them onto the keyspace and, for 32-bit deployments, alias real
        stored keys.
        """
        raw = np.asarray(keys)
        outside = out_of_domain_mask(raw, self._key_max)
        if outside is not None:
            keys = np.where(outside, 0, raw).astype(self._key_dtype)
        else:
            keys = np.asarray(raw, dtype=self._key_dtype)
        num = int(keys.shape[0])
        row_agg = np.full(num, -1, dtype=np.int64)
        counts = np.zeros(num, dtype=np.int64)
        parts: List[KernelStats] = [self._routing_stats(num)]
        self.last_calls = []
        scatter_span = self._push_scatter_span(num)
        try:
            if num:
                shard_ids = self.partitioner.shard_of(keys)
                if outside is not None:
                    # Out-of-domain keys keep the (-1, 0) miss answer and are
                    # never scattered.
                    shard_ids[outside] = -1
                for shard_id in np.unique(shard_ids).tolist():
                    if shard_id < 0 or self.shards[shard_id].index is None:
                        continue
                    member = np.where(shard_ids == shard_id)[0]
                    read = self.read_point(shard_id, keys[member])
                    row_agg[member] = read.result.row_ids
                    counts[member] = read.result.match_counts
                    self._gather(scatter_span, shard_id, int(member.shape[0]), read, parts)
        finally:
            if scatter_span is not None:
                self.tracer.pop()
        stats = combine("serve.point_lookup", parts)
        return LookupResult(row_ids=row_agg, match_counts=counts, stats=stats)

    def range_lookup_batch(self, lows: np.ndarray, highs: np.ndarray) -> RangeLookupResult:
        """Scatter range lookups to overlapping shards and concatenate results.

        Endpoints clamp to the unsigned keyspace: a range whose high end is
        negative matches nothing, one that straddles zero behaves like
        ``[0, high]``; likewise a range whose low end lies above the key
        dtype's maximum matches nothing, and a high end above it clamps to
        the maximum.
        """
        lows_raw = np.asarray(lows)
        highs_raw = np.asarray(highs)
        if lows_raw.shape != highs_raw.shape:
            raise ValueError("lows and highs must have the same shape")
        lows = routing_keys(lows_raw)
        beyond = out_of_domain_mask(lows, self._key_max)
        lows = np.minimum(lows, self._key_max).astype(self._key_dtype)
        highs = np.minimum(routing_keys(highs_raw), self._key_max).astype(self._key_dtype)
        num = int(lows.shape[0])
        parts: List[KernelStats] = [self._routing_stats(num)]
        self.last_calls = []

        # Scatter: shard -> positions of the queries that touch it.  The
        # vector engine computes every query's shard span in two vectorized
        # searchsorted sweeps instead of a per-query Python loop.  Routing
        # sees the *raw* endpoints so entirely-negative ranges get an empty
        # shard span instead of a clamped one.
        per_shard: Dict[int, "List[int] | np.ndarray"] = {}
        # Span dispatch is plain searchsorted math; "compiled" behaves as
        # "vector" here and accelerates inside the shards instead.  Ranges
        # starting above the keyspace touch no shard.
        if self.engine != "scalar" and num:
            first, last = self.partitioner.shard_span_batch(lows_raw, highs_raw)
            if beyond is not None:
                last[beyond] = -1
            for shard_id in range(self.num_shards):
                member = np.nonzero((first <= shard_id) & (shard_id <= last))[0]
                if member.size:
                    per_shard[shard_id] = member
        else:
            for position in range(num):
                if beyond is not None and beyond[position]:
                    continue
                for shard_id in self.partitioner.shards_for_range(int(lows_raw[position]), int(highs_raw[position])):
                    per_shard.setdefault(int(shard_id), []).append(position)

        scatter_span = self._push_scatter_span(num, kind="range")
        collected: List[List[np.ndarray]] = [[] for _ in range(num)]
        try:
            for shard_id in sorted(per_shard):
                if self.shards[shard_id].index is None:
                    continue
                positions = per_shard[shard_id]
                read = self.read_range(shard_id, lows[positions], highs[positions])
                row_ids = read.result.row_ids
                for offset, position in enumerate(positions):
                    if row_ids[offset].shape[0]:
                        collected[position].append(row_ids[offset])
                self._gather(scatter_span, shard_id, len(positions), read, parts)
        finally:
            if scatter_span is not None:
                self.tracer.pop()

        row_ids = [
            np.concatenate(pieces) if pieces else np.empty(0, dtype=np.uint32)
            for pieces in collected
        ]
        stats = combine("serve.range_lookup", parts)
        return RangeLookupResult(row_ids=row_ids, stats=stats)

    # ---------------------------------------------------------------- updates

    def update_batch(
        self,
        insert_keys: Optional[np.ndarray] = None,
        insert_row_ids: Optional[np.ndarray] = None,
        delete_keys: Optional[np.ndarray] = None,
    ) -> UpdateResult:
        """Route an update batch; rebuild shards whose index cannot update in place.

        Negative keys are rejected uniformly at this boundary: the stored
        keyspace is unsigned, so a signed key can neither be inserted nor
        name an entry to delete — silently wrapping it would corrupt a
        different key's entries.
        """
        for side, batch in (("insert", insert_keys), ("delete", delete_keys)):
            if batch is not None and negative_key_mask(np.asarray(batch)) is not None:
                raise ValueError(
                    f"negative {side} keys are outside the unsigned keyspace"
                )
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

        # Normalising to cgRXu's cancellation semantics here keeps every
        # shard type — native updaters and rebuild-fallback shards alike —
        # in agreement with the authoritative arrays, so background
        # rebuilds can never change query answers.
        insert_keys, insert_row_ids, delete_keys = cancel_opposing_updates(
            insert_keys, insert_row_ids, delete_keys
        )

        parts: List[KernelStats] = [
            self._routing_stats(int(insert_keys.shape[0] + delete_keys.shape[0]))
        ]
        insert_shards = self.partitioner.shard_of(insert_keys)
        delete_shards = self.partitioner.shard_of(delete_keys)

        inserted = 0
        deleted = 0
        any_rebuilt = False
        touched = np.union1d(np.unique(insert_shards), np.unique(delete_shards))
        for shard_id in touched:
            shard = self.shards[int(shard_id)]
            shard_inserts = insert_keys[insert_shards == shard_id]
            shard_insert_rows = insert_row_ids[insert_shards == shard_id]
            shard_deletes = delete_keys[delete_shards == shard_id]
            inserted += int(shard_inserts.shape[0])

            if shard.index is not None and shard.index.supports_updates:
                result = shard.index.update_batch(
                    insert_keys=shard_inserts if shard_inserts.size else None,
                    insert_row_ids=shard_insert_rows if shard_inserts.size else None,
                    delete_keys=shard_deletes if shard_deletes.size else None,
                )
                parts.append(result.stats)
                any_rebuilt = any_rebuilt or result.rebuilt
                # Where the live index can dump its entries, snapshot it as
                # the authoritative state: a rebuild then reproduces the live
                # index exactly, duplicate tie-order included — and the
                # sorted-array maintenance below would be redundant work.
                try:
                    shard.keys, shard.row_ids = shard.index.export_entries()
                    shard.version += 1
                    deleted += result.deleted
                except UnsupportedOperation:
                    deleted += self._apply_authoritative(
                        shard, shard_inserts, shard_insert_rows, shard_deletes
                    )
            else:
                deleted += self._apply_authoritative(
                    shard, shard_inserts, shard_insert_rows, shard_deletes
                )
                parts.append(self.rebuild_shard(int(shard_id)))
                any_rebuilt = True

            if self.store is not None and not self.replicated:
                # Plain shards have no replication log; the shard version
                # (bumped exactly once above) is their LSN.  Replica groups
                # WAL-log their batches themselves before acknowledging.
                self.store.log_batch(
                    int(shard_id),
                    shard.version,
                    shard_inserts,
                    shard_insert_rows,
                    shard_deletes,
                )

        stats = combine("serve.update", parts)
        return UpdateResult(inserted=inserted, deleted=deleted, stats=stats, rebuilt=any_rebuilt)

    @staticmethod
    def _apply_authoritative(
        shard: _Shard,
        insert_keys: np.ndarray,
        insert_row_ids: np.ndarray,
        delete_keys: np.ndarray,
    ) -> int:
        """Apply an update slice to the shard's sorted authoritative arrays.

        Deletes remove one occurrence per delete key (matching cgRXu's
        semantics); returns the number of entries actually removed.
        """
        shard.keys, shard.row_ids, removed = apply_update_to_entries(
            shard.keys, shard.row_ids, insert_keys, insert_row_ids, delete_keys
        )
        shard.version += 1
        return removed

    # ------------------------------------------------------------------ memory

    def memory_footprint_bytes(self) -> int:
        """Resident device bytes, in-flight rebuild buffers included."""
        total = sum(
            shard.index.memory_footprint().total_bytes
            for shard in self.shards
            if shard.index is not None
        )
        total += sum(
            shard.pending_index.memory_footprint().total_bytes
            for shard in self.shards
            if shard.pending_index is not None
        )
        total += sum(
            replacement.memory_footprint().total_bytes
            for shard in self.shards
            for replacement in shard.reshard_indexes
            if replacement is not None
        )
        return int(total)
