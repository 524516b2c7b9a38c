"""Compiled node-chain kernels for cgRXu: point-lookup walk and update apply.

The vector engine's batched chain walk (``CgRXuIndex._collect_batch``)
advances all still-searching keys one node per lockstep iteration — ~15
numpy dispatches per level over gathered ``(key, slot)`` matrices.  The
compiled tier runs the whole walk per key in one fused loop over the
:class:`~repro.core.nodes.NodeStorage` slabs, using the same backend
machinery as the traversal megakernel (:mod:`repro.rtx.compiled`).

Zero-copy by construction: the kernels read the live ``NodeStorage`` slab
arrays directly (keys matrix, rowIDs, sizes, maxKeys, next pointers); only
the flattened ``(order, starts)`` chain tables are packed into the index's
shard-local arena, rebuilt in place whenever the chain cache is invalidated
by an update or compaction.

The walk mirrors ``CgRXuIndex._collect`` exactly — skip rule, per-node
``searchsorted`` window, entries-touched accounting and the cross-bucket
duplicate-group continuation — so results and kernel counters stay
byte-identical to both reference engines.

**Update apply.**  :func:`apply_updates` hands a sorted, cancelled update
batch and its per-bucket slices to one C call that runs the paper's one
thread per bucket serially: touched buckets in ascending order, deletes
before inserts, writing the slab arrays in place.  It repeats the per-key
Python apply (``CgRXuIndex._apply_slices``) exactly — the delete skip rule
and its walk into the next bucket, the insert target and split-on-full, the
element shifts that leave stale slots untouched, and the allocator order
(free list popped from the end, then bump) — so the slabs stay
byte-identical.  When a split finds the linked region full, the kernel
returns a resume cursor; the slab is doubled in Python and the call resumes.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.rtx.compiled import Arena, backend_kernels


class CompiledChainTables:
    """Arena-packed flattened chain tables for the compiled walk."""

    def __init__(self, order: np.ndarray, starts: np.ndarray, arena: Arena) -> None:
        self.arena = arena
        align = Arena.aligned
        arena.begin(align(order.shape[0] * 8) + align(starts.shape[0] * 8))
        self.order = arena.alloc(order.shape[0], np.int64)
        np.copyto(self.order, order)
        self.starts = arena.alloc(starts.shape[0], np.int64)
        np.copyto(self.starts, starts)


def chain_walk_batch(
    storage,
    tables: CompiledChainTables,
    buckets: np.ndarray,
    keys: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Fused point-lookup chain walk for a whole key batch.

    Returns per-key ``(row_sum, matches, nodes_visited, entries)`` exactly as
    ``CgRXuIndex._collect_batch`` would, or ``None`` when no compiled backend
    is available (caller falls back to the vector walk).
    """
    kernels = backend_kernels()
    if kernels is None:
        return None
    chain_kernel = kernels[1]

    num_keys = int(keys.shape[0])
    key_is_64 = keys.dtype.itemsize == 8
    target64 = np.ascontiguousarray(keys.astype(np.uint64))
    start_pos = np.ascontiguousarray(tables.starts[buckets], dtype=np.int64)

    # The slabs are contiguous by construction; the kernel indexes them raw.
    keys_matrix = storage.keys_matrix
    row_ids = storage.row_ids_matrix
    sizes = storage.sizes_array
    max_keys = storage.max_keys_array
    next_node = storage.next_array

    row_sum = np.zeros(num_keys, dtype=np.int64)
    matches = np.zeros(num_keys, dtype=np.int64)
    nodes_visited = np.zeros(num_keys, dtype=np.int64)
    entries = np.zeros(num_keys, dtype=np.int64)

    chain_kernel(
        target64,
        start_pos,
        int(tables.order.shape[0]),
        tables.order,
        int(storage.node_capacity),
        key_is_64,
        keys_matrix,
        row_ids,
        sizes,
        max_keys,
        next_node,
        row_sum,
        matches,
        nodes_visited,
        entries,
    )
    return row_sum, matches, nodes_visited, entries


def apply_updates(
    storage,
    overflow_bucket: int,
    buckets: np.ndarray,
    deletes_lo: np.ndarray,
    deletes_hi: np.ndarray,
    inserts_lo: np.ndarray,
    inserts_hi: np.ndarray,
    delete_keys: np.ndarray,
    insert_keys: np.ndarray,
    insert_row_ids: np.ndarray,
) -> Optional[Tuple[int, int, np.ndarray]]:
    """Apply a sorted, cancelled update batch to ``storage`` in one C call.

    ``buckets`` lists the touched buckets in ascending order and the four
    slice arrays give each one's half-open ranges into ``delete_keys`` and
    ``insert_keys``.  Returns ``(inserted, deleted, work)`` with ``work[i]``
    the nodes visited by ``buckets[i]``'s thread, exactly as
    ``CgRXuIndex._apply_slices`` would, or ``None`` when no compiled backend
    is available.

    When a split finds the linked region full, the kernel stops before that
    insert and hands back its cursor; the slab is doubled with
    ``_grow_linked_region`` (new arrays, so the pointers are fetched again)
    and the kernel resumes where it stopped.
    """
    kernels = backend_kernels()
    if kernels is None:
        return None
    apply_kernel = kernels[2]

    slices = [
        np.ascontiguousarray(column, dtype=np.int64)
        for column in (buckets, deletes_lo, deletes_hi, inserts_lo, inserts_hi)
    ]
    delete64 = np.ascontiguousarray(delete_keys, dtype=np.uint64)
    insert64 = np.ascontiguousarray(insert_keys, dtype=np.uint64)
    insert_rows = np.ascontiguousarray(insert_row_ids, dtype=np.uint32)
    free_nodes = np.asarray(storage._free_nodes, dtype=np.int64)
    # [linked_used, free_count, bucket cursor, insert cursor, inserted, deleted]
    state = np.array([storage._linked_used, free_nodes.shape[0], 0, -1, 0, 0], dtype=np.int64)
    work = np.zeros(slices[0].shape[0], dtype=np.int64)
    key_is_64 = storage.key_dtype.itemsize == 8

    while True:
        needs_room = apply_kernel(
            slices[0].shape[0],
            *(column.ctypes.data for column in slices),
            delete64.ctypes.data,
            insert64.ctypes.data,
            insert_rows.ctypes.data,
            overflow_bucket,
            storage.node_capacity,
            key_is_64,
            storage.keys_matrix.ctypes.data,
            storage.row_ids_matrix.ctypes.data,
            storage.sizes_array.ctypes.data,
            storage.max_keys_array.ctypes.data,
            storage.next_array.ctypes.data,
            storage.num_representative_nodes,
            storage.linked_region_capacity,
            free_nodes.ctypes.data,
            state.ctypes.data,
            work.ctypes.data,
        )
        storage._linked_used = int(state[0])
        del storage._free_nodes[int(state[1]) :]
        if not needs_room:
            return int(state[4]), int(state[5]), work
        storage._grow_linked_region()
