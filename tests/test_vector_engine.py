"""Parity suite for the vector batch execution engine.

The scalar paths are the reference oracle; every test here drives the same
workload through both engines and asserts **byte-identical results and
identical instrumentation counters** (``RayStats`` / ``KernelStats``),
including after update waves.  The wavefront traversal kernels are checked
directly against the per-ray scalar traversal as well.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.baselines.rx import RXIndex
from repro.baselines.sorted_array import SortedArrayIndex
from repro.core.config import CgRXConfig, CgRXuConfig, Representation
from repro.core.index import CgRXIndex
from repro.core.updatable import CgRXuIndex
from repro.rtx.bvh import BvhBuildConfig, build_bvh
from repro.rtx.scene import TriangleScene, VertexBuffer
from repro.rtx.traversal import RayStats, TraversalEngine
from repro.serve.router import ShardRouter
from repro.workloads.keygen import generate_keys
from repro.workloads.lookups import hit_miss_lookups, range_lookups, uniform_lookups
from repro.workloads.updates import update_waves


def assert_stats_identical(scalar, vector) -> None:
    """Every counter field (divergence and cache fractions included) matches."""
    left = dataclasses.asdict(scalar)
    right = dataclasses.asdict(vector)
    differing = {key: (left[key], right[key]) for key in left if left[key] != right[key]}
    assert not differing, f"counters diverged: {differing}"


def assert_point_identical(scalar, vector) -> None:
    assert scalar.row_ids.tobytes() == vector.row_ids.tobytes()
    assert scalar.match_counts.tobytes() == vector.match_counts.tobytes()
    assert_stats_identical(scalar.stats, vector.stats)


def assert_range_identical(scalar, vector) -> None:
    assert len(scalar.row_ids) == len(vector.row_ids)
    for left, right in zip(scalar.row_ids, vector.row_ids):
        assert left.dtype == right.dtype
        assert left.tobytes() == right.tobytes()
    assert_stats_identical(scalar.stats, vector.stats)


# --------------------------------------------------------------------------
# Wavefront traversal vs per-ray scalar traversal
# --------------------------------------------------------------------------


def build_engine(points, flipped=None, leaf_size=4):
    buffer = VertexBuffer()
    flips = flipped or [False] * len(points)
    for slot, ((x, y, z), flip) in enumerate(zip(points, flips)):
        buffer.write_key_triangle(slot, float(x), float(y), float(z), flipped=flip)
    scene = TriangleScene.from_vertex_buffer(buffer)
    return TraversalEngine(build_bvh(scene, BvhBuildConfig(max_leaf_size=leaf_size)))


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_wavefront_axis_closest_matches_scalar(axis, rng):
    points = [tuple(point) for point in rng.integers(0, 25, size=(150, 3))]
    flips = list(rng.random(len(points)) < 0.3)
    engine = build_engine(points, flips)
    origins = rng.integers(0, 25, size=(96, 3)).astype(np.float64)
    origins[:, axis] -= 0.5
    tmax = np.where(rng.random(96) < 0.5, np.inf, rng.uniform(0.0, 30.0, 96))

    scalar_stats = RayStats()
    hits = []
    for origin, limit in zip(origins, tmax):
        local = RayStats()
        hits.append(engine.trace_axis_closest(axis, tuple(origin), float(limit), stats=local))
        scalar_stats.merge(local)
    batch_stats = RayStats()
    batch = engine.trace_axis_closest_batch(axis, origins, tmax, stats=batch_stats)

    assert dataclasses.asdict(scalar_stats) == dataclasses.asdict(batch_stats)
    for position, record in enumerate(hits):
        assert bool(record) == bool(batch.hit[position])
        if record:
            assert record.primitive_index == batch.primitive_index[position]
            assert record.t == batch.t[position]
            assert record.front_face == bool(batch.front_face[position])
            assert np.array_equal(record.point, batch.point[position])


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_wavefront_axis_all_matches_scalar(axis, rng):
    points = [tuple(point) for point in rng.integers(0, 12, size=(120, 3))]
    engine = build_engine(points)
    origins = rng.integers(0, 12, size=(64, 3)).astype(np.float64)
    origins[:, axis] -= 0.5
    tmax = np.full(64, np.inf)

    scalar_stats = RayStats()
    all_hits = []
    for origin in origins:
        local = RayStats()
        all_hits.append(engine.trace_axis_all(axis, tuple(origin), stats=local))
        scalar_stats.merge(local)
    batch_stats = RayStats()
    batch = engine.trace_axis_all_batch(axis, origins, tmax, stats=batch_stats)

    assert dataclasses.asdict(scalar_stats) == dataclasses.asdict(batch_stats)
    offset = 0
    for position, hits in enumerate(all_hits):
        count = int(batch.hit_counts[position])
        assert len(hits) == count
        for index, record in enumerate(hits):
            assert record.primitive_index == batch.primitive_index[offset + index]
            assert record.t == batch.t[offset + index]
            assert record.front_face == bool(batch.front_face[offset + index])
        offset += count


def test_wavefront_empty_scene_and_empty_batch():
    engine = TraversalEngine(build_bvh(TriangleScene.from_triangles([])))
    stats = RayStats()
    batch = engine.trace_axis_closest_batch(0, np.zeros((3, 3)), stats=stats)
    assert not batch.hit.any()
    assert stats.misses == 3 and stats.rays_cast == 3
    empty = engine.trace_axis_all_batch(1, np.zeros((0, 3)))
    assert empty.hit_counts.shape == (0,)


# --------------------------------------------------------------------------
# cgRXu / cgRX: both engines answer and count identically
# --------------------------------------------------------------------------


@pytest.mark.parametrize("key_bits", [32, 64])
@pytest.mark.parametrize("representation", ["naive", "optimized"])
def test_cgrxu_engines_identical_through_update_waves(key_bits, representation):
    keyset = generate_keys(3072, uniformity=0.6, key_bits=key_bits, seed=31)
    lookups = hit_miss_lookups(
        keyset, 768, miss_fraction=0.3, out_of_range_fraction=0.4, seed=32
    )
    lows, highs = range_lookups(keyset, count=96, expected_hits=12, seed=33)

    scalar = CgRXuIndex(
        keyset.keys,
        keyset.row_ids,
        CgRXuConfig(key_bits=key_bits, representation=representation, engine="scalar"),
    )
    vector = CgRXuIndex(
        keyset.keys,
        keyset.row_ids,
        CgRXuConfig(key_bits=key_bits, representation=representation, engine="vector"),
    )

    assert_point_identical(
        scalar.point_lookup_batch(lookups), vector.point_lookup_batch(lookups)
    )
    assert_range_identical(
        scalar.range_lookup_batch(lows, highs), vector.range_lookup_batch(lows, highs)
    )

    for wave in update_waves(
        keyset, num_insert_waves=2, num_delete_waves=2, growth_factor=1.3, seed=34
    ):
        scalar_update = scalar.update_batch(
            insert_keys=wave.insert_keys if wave.insert_keys.size else None,
            insert_row_ids=wave.insert_row_ids if wave.insert_keys.size else None,
            delete_keys=wave.delete_keys if wave.delete_keys.size else None,
        )
        vector_update = vector.update_batch(
            insert_keys=wave.insert_keys if wave.insert_keys.size else None,
            insert_row_ids=wave.insert_row_ids if wave.insert_keys.size else None,
            delete_keys=wave.delete_keys if wave.delete_keys.size else None,
        )
        assert scalar_update.inserted == vector_update.inserted
        assert scalar_update.deleted == vector_update.deleted
        assert_stats_identical(scalar_update.stats, vector_update.stats)

    # Post-update state: answers, export, chain health and entry counts.
    assert_point_identical(
        scalar.point_lookup_batch(lookups), vector.point_lookup_batch(lookups)
    )
    assert_range_identical(
        scalar.range_lookup_batch(lows, highs), vector.range_lookup_batch(lows, highs)
    )
    scalar_entries = scalar.export_entries()
    vector_entries = vector.export_entries()
    assert scalar_entries[0].tobytes() == vector_entries[0].tobytes()
    assert scalar_entries[1].tobytes() == vector_entries[1].tobytes()
    assert scalar.chain_statistics() == vector.chain_statistics()
    assert len(scalar) == len(vector)


def test_cgrxu_cached_length_matches_chain_walk():
    keyset = generate_keys(1024, uniformity=0.7, key_bits=32, seed=41)
    index = CgRXuIndex(keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=32))
    assert len(index) == index._count_entries() == 1024
    for wave in update_waves(
        keyset, num_insert_waves=2, num_delete_waves=2, growth_factor=1.5, seed=42
    ):
        index.update_batch(
            insert_keys=wave.insert_keys if wave.insert_keys.size else None,
            insert_row_ids=wave.insert_row_ids if wave.insert_keys.size else None,
            delete_keys=wave.delete_keys if wave.delete_keys.size else None,
        )
        assert len(index) == index._count_entries()


def test_cgrxu_export_entries_sorted_and_complete():
    keyset = generate_keys(2048, uniformity=0.4, key_bits=32, seed=43)
    index = CgRXuIndex(keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=32))
    keys, row_ids = index.export_entries()
    assert keys.shape[0] == row_ids.shape[0] == 2048
    assert np.all(np.diff(keys.astype(np.uint64)) >= 0)
    assert np.array_equal(np.sort(keys), np.sort(keyset.keys))


@pytest.mark.parametrize("key_bits", [32, 64])
def test_cgrx_engines_identical(key_bits):
    keyset = generate_keys(4096, uniformity=0.5, key_bits=key_bits, seed=51)
    lookups = hit_miss_lookups(
        keyset, 1024, miss_fraction=0.25, out_of_range_fraction=0.3, seed=52
    )
    lows, highs = range_lookups(keyset, count=64, expected_hits=8, seed=53)
    scalar = CgRXIndex(
        keyset.keys, keyset.row_ids, CgRXConfig(key_bits=key_bits, engine="scalar")
    )
    vector = CgRXIndex(
        keyset.keys, keyset.row_ids, CgRXConfig(key_bits=key_bits, engine="vector")
    )
    assert_point_identical(
        scalar.point_lookup_batch(lookups), vector.point_lookup_batch(lookups)
    )
    assert_range_identical(
        scalar.range_lookup_batch(lows, highs), vector.range_lookup_batch(lows, highs)
    )


# --------------------------------------------------------------------------
# RX and the shard router
# --------------------------------------------------------------------------


@pytest.mark.parametrize("key_bits", [32, 64])
def test_rx_engines_identical(key_bits):
    keyset = generate_keys(2048, uniformity=0.6, key_bits=key_bits, seed=55)
    lookups = hit_miss_lookups(
        keyset, 512, miss_fraction=0.3, out_of_range_fraction=0.5, seed=56
    )
    scalar = RXIndex(keyset.keys, keyset.row_ids, key_bits=key_bits, engine="scalar")
    vector = RXIndex(keyset.keys, keyset.row_ids, key_bits=key_bits, engine="vector")
    assert_point_identical(
        scalar.point_lookup_batch(lookups), vector.point_lookup_batch(lookups)
    )


@pytest.mark.parametrize("partitioner", ["range", "hash"])
def test_shard_router_scatter_engines_identical(partitioner, rng):
    keyset = generate_keys(2048, uniformity=0.5, key_bits=32, seed=57)

    def factory(shard_keyset, device):
        return SortedArrayIndex(
            shard_keyset.keys, shard_keyset.row_ids, key_bits=32, device=device
        )

    routers = {
        engine: ShardRouter(
            keyset.keys,
            keyset.row_ids,
            factory,
            num_shards=4,
            partitioner=partitioner,
            key_bits=32,
            engine=engine,
        )
        for engine in ("scalar", "vector")
    }
    lows = rng.integers(0, 1 << 31, size=128, dtype=np.uint64).astype(np.uint32)
    spans = rng.integers(0, 1 << 22, size=128, dtype=np.uint64)
    highs = np.minimum(lows.astype(np.uint64) + spans, (1 << 32) - 1).astype(np.uint32)
    scalar = routers["scalar"].range_lookup_batch(lows, highs)
    vector = routers["vector"].range_lookup_batch(lows, highs)
    assert_range_identical(scalar, vector)
    assert [call.shard_id for call in routers["scalar"].last_calls] == [
        call.shard_id for call in routers["vector"].last_calls
    ]
    lookups = uniform_lookups(keyset, 256, seed=58)
    assert_point_identical(
        routers["scalar"].point_lookup_batch(lookups),
        routers["vector"].point_lookup_batch(lookups),
    )


def test_representation_base_fallback_matches_wavefront_routing():
    """The scalar per-key locate loop agrees with the staged wavefront
    locate on bucket ids, per-key node visits and the caller's stats, for
    both scene representations and both key widths."""
    for key_bits in (32, 64):
        keyset = generate_keys(512, uniformity=0.6, key_bits=key_bits, seed=59)
        lookups = hit_miss_lookups(
            keyset, 128, miss_fraction=0.3, out_of_range_fraction=0.5, seed=60
        )
        for representation in Representation:
            index = CgRXuIndex(
                keyset.keys,
                keyset.row_ids,
                CgRXuConfig(key_bits=key_bits, representation=representation),
            )
            located = {}
            for engine in ("scalar", "vector"):
                stats = RayStats()
                buckets, nodes = index.representation.locate_bucket_batch(
                    lookups, stats, engine
                )
                located[engine] = (buckets, nodes, dataclasses.asdict(stats))
            scalar, vector = located["scalar"], located["vector"]
            np.testing.assert_array_equal(scalar[0], vector[0])
            np.testing.assert_array_equal(scalar[1], vector[1])
            assert scalar[0].dtype == vector[0].dtype == np.int64
            assert scalar[2] == vector[2] and scalar[2]["rays_cast"] > 0


def test_engine_validation():
    with pytest.raises(ValueError):
        CgRXuConfig(engine="simd")
    with pytest.raises(ValueError):
        CgRXConfig(engine="")
    with pytest.raises(ValueError):
        RXIndex(np.arange(8, dtype=np.uint32), key_bits=32, engine="warp")
