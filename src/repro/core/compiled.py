"""Compiled node-chain kernels for cgRXu point lookups.

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
