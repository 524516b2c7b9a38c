"""The compiled cgRXu update apply matches the per-key Python apply.

``engine="compiled"`` hands each sorted, cancelled update batch to the C
``apply_updates`` kernel; ``engine="scalar"`` applies it key by key in
Python.  Both must leave byte-identical node slabs (stale slots included),
the same allocator state and the same answers and kernel counters.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CgRXuConfig
from repro.core.updatable import CgRXuIndex
from repro.rtx import compiled

requires_backend = pytest.mark.skipif(
    compiled.available_backend() is None,
    reason="no compiled backend (system C compiler) available",
)

SLABS = ("_keys", "_row_ids", "_sizes", "_max_keys", "_next")


def build_pair(keys, key_bits, node_bytes):
    row_ids = np.arange(keys.shape[0], dtype=np.uint32)
    return tuple(
        CgRXuIndex(keys, row_ids, CgRXuConfig(key_bits=key_bits, node_bytes=node_bytes, engine=engine))
        for engine in ("scalar", "compiled")
    )


def assert_same_state(scalar, comp):
    for name in SLABS:
        left, right = getattr(scalar.nodes, name), getattr(comp.nodes, name)
        assert left.dtype == right.dtype and left.shape == right.shape, name
        assert left.tobytes() == right.tobytes(), f"slab {name} diverged"
    assert scalar.nodes._free_nodes == comp.nodes._free_nodes
    assert scalar.nodes._linked_used == comp.nodes._linked_used
    assert scalar.nodes.linked_region_capacity == comp.nodes.linked_region_capacity
    assert len(scalar) == len(comp) == scalar._count_entries()


def apply_both(scalar, comp, insert_keys, insert_rows, delete_keys):
    results = [
        index.update_batch(insert_keys=insert_keys, insert_row_ids=insert_rows, delete_keys=delete_keys)
        for index in (scalar, comp)
    ]
    left, right = results
    assert (left.inserted, left.deleted, left.rebuilt) == (right.inserted, right.deleted, right.rebuilt)
    assert dataclasses.asdict(left.stats) == dataclasses.asdict(right.stats)
    assert_same_state(scalar, comp)
    return left


def draw_batch(rng, index, live_keys, count):
    """Keys mixing live duplicates, bucket boundaries, overflow-bucket keys
    above the largest bulk-loaded key, and random keys."""
    dtype = index._key_dtype
    key_max = int(np.iinfo(dtype).max)
    uppers = index._bucket_uppers[:-1]
    boundaries = np.minimum(np.concatenate([uppers, uppers + np.uint64(1)]), np.uint64(key_max))
    overflow_low = int(uppers[-1]) + 1
    pools = [
        live_keys.astype(np.uint64),
        boundaries,
        rng.integers(min(overflow_low, key_max), key_max, size=8, dtype=np.uint64, endpoint=True),
        rng.integers(0, int(uppers[-1]) + 1, size=32, dtype=np.uint64),
    ]
    choice = rng.integers(0, len(pools), size=count)
    picks = [pool[rng.integers(0, pool.shape[0])] for pool in (pools[c] for c in choice)]
    return np.asarray(picks, dtype=np.uint64).astype(dtype)


@requires_backend
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    key_bits=st.sampled_from([32, 64]),
    node_bytes=st.sampled_from([64, 128]),
    steps=st.lists(st.tuples(st.integers(1, 160), st.booleans()), min_size=2, max_size=6),
)
def test_compiled_apply_matches_scalar_over_update_sequences(seed, key_bits, node_bytes, steps):
    rng = np.random.default_rng(seed)
    dtype = np.uint32 if key_bits == 32 else np.uint64
    span = 1 << (30 if key_bits == 32 else 60)
    # Few distinct keys, so duplicate groups straddle bucket boundaries.
    keys = rng.choice(rng.integers(0, span, size=48, dtype=np.uint64), size=96).astype(dtype)
    scalar, comp = build_pair(keys, key_bits, node_bytes)
    for size, compact in steps:
        live = scalar.export_entries()[0]
        if live.size == 0:
            live = keys
        inserts = draw_batch(rng, scalar, live, size)
        deletes = draw_batch(rng, scalar, live, int(rng.integers(0, size + 1)))
        rows = rng.integers(0, 1 << 32, size=inserts.shape[0], dtype=np.uint64).astype(np.uint32)
        apply_both(scalar, comp, inserts, rows, deletes)
        if compact:
            # Fold the longest chains, as the maintenance tier picks them:
            # the next batch's splits reuse the freed nodes.
            buckets = np.argsort(-scalar.bucket_chain_lengths(), kind="stable")[:size]
            scalar.compact_buckets(buckets)
            comp.compact_buckets(buckets)
            assert_same_state(scalar, comp)
    lookups = draw_batch(rng, scalar, scalar.export_entries()[0], 64)
    left, right = scalar.point_lookup_batch(lookups), comp.point_lookup_batch(lookups)
    assert left.row_ids.tobytes() == right.row_ids.tobytes()
    assert left.match_counts.tobytes() == right.match_counts.tobytes()


@requires_backend
@pytest.mark.parametrize("key_bits", [32, 64])
def test_compiled_apply_reuses_freed_nodes_and_grows_mid_batch(key_bits):
    """Pins the two allocator paths: splits pop compaction-freed nodes from
    the end of the free list, then the slab doubles in the middle of a batch."""
    rng = np.random.default_rng(5)
    dtype = np.uint32 if key_bits == 32 else np.uint64
    keys = np.sort(rng.integers(0, 1 << 24, size=512, dtype=np.uint64)).astype(dtype)
    scalar, comp = build_pair(keys, key_bits, 128)

    # Grow every chain, then fold them back: the surplus nodes are freed.
    apply_both(scalar, comp, rng.integers(0, 1 << 24, size=1024, dtype=np.uint64).astype(dtype), None, None)
    everything = np.arange(scalar.overflow_bucket + 1)
    scalar.compact_buckets(everything)
    comp.compact_buckets(everything)
    assert_same_state(scalar, comp)
    freed = len(comp.nodes._free_nodes)
    assert freed > 1

    capacity = comp.nodes.linked_region_capacity
    burst = rng.integers(0, 1 << 24, size=4 * capacity * comp.config.node_capacity, dtype=np.uint64)
    apply_both(scalar, comp, burst.astype(dtype), None, keys[::3])
    assert comp.nodes._free_nodes == []
    assert comp.nodes.linked_region_capacity > capacity
