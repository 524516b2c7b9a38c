"""Parity and behaviour suite for the compiled hot-path tier.

The scalar paths remain the reference oracle.  Everything here drives the
same workloads through ``engine="compiled"`` and asserts **byte-identical
results and identical instrumentation counters**, exactly like the vector
suite — plus the compiled-tier-specific contracts: quantized AABBs rounded
conservatively outward, shard-local arenas rebuilt in place, and graceful
degradation to the vector engine when no backend exists.

Backend handling: the suite runs against the C backend when a system C
compiler is available.  Tests that need a *specific* backend setting pin it
with ``REPRO_COMPILED_BACKEND`` and reset the module cache around
themselves.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import CgRXConfig, CgRXuConfig, resolve_engine
from repro.core.index import CgRXIndex
from repro.core.updatable import CgRXuIndex
from repro.rtx import compiled
from repro.rtx.bvh import BvhBuildConfig, build_bvh
from repro.rtx.scene import TriangleScene, VertexBuffer
from repro.rtx.traversal import RayStats, TraversalEngine
from repro.workloads.keygen import generate_keys
from repro.workloads.lookups import hit_miss_lookups, range_lookups
from repro.workloads.updates import update_waves


def assert_stats_identical(scalar, other) -> None:
    left = dataclasses.asdict(scalar)
    right = dataclasses.asdict(other)
    differing = {key: (left[key], right[key]) for key in left if left[key] != right[key]}
    assert not differing, f"counters diverged: {differing}"


def assert_point_identical(scalar, other) -> None:
    assert scalar.row_ids.tobytes() == other.row_ids.tobytes()
    assert scalar.match_counts.tobytes() == other.match_counts.tobytes()
    assert_stats_identical(scalar.stats, other.stats)


def assert_range_identical(scalar, other) -> None:
    assert len(scalar.row_ids) == len(other.row_ids)
    for left, right in zip(scalar.row_ids, other.row_ids):
        assert left.dtype == right.dtype
        assert left.tobytes() == right.tobytes()
    assert_stats_identical(scalar.stats, other.stats)


@pytest.fixture
def pinned_backend(monkeypatch):
    """Pin the backend via env var and reset the module cache around the test."""

    def pin(name: str) -> None:
        monkeypatch.setenv("REPRO_COMPILED_BACKEND", name)
        compiled.reset_backend_cache()

    yield pin
    compiled.reset_backend_cache()


requires_backend = pytest.mark.skipif(
    compiled.available_backend() is None,
    reason="no compiled backend (system C compiler) available",
)


# --------------------------------------------------------------------------
# Megakernel vs per-ray scalar traversal
# --------------------------------------------------------------------------


def scalar_locate(representation, keys):
    """Per-key scalar oracle: bucket ids, node visits, summed stats and the
    number of rays fired along each axis."""
    pipeline = representation.pipeline
    axis_rays = [0, 0, 0]
    cast = pipeline.cast_axis_closest

    def counting_cast(axis, *args, **kwargs):
        axis_rays[axis] += 1
        return cast(axis, *args, **kwargs)

    pipeline.cast_axis_closest = counting_cast
    try:
        total = RayStats()
        buckets, nodes, used_axes = [], [], []
        for key in keys:
            before = list(axis_rays)
            local = RayStats()
            buckets.append(representation.locate_bucket(int(key), local))
            nodes.append(local.nodes_visited)
            used_axes.append({a for a in range(3) if axis_rays[a] > before[a]})
            total.merge(local)
    finally:
        del pipeline.cast_axis_closest
    return np.array(buckets), np.array(nodes), total, used_axes


def fused_locate(representation, keys):
    stats = RayStats()
    buckets, nodes = representation.locate_bucket_batch(keys, stats, "compiled")
    return buckets, nodes, stats


@requires_backend
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_megakernel_axis_closest_matches_scalar(axis):
    """Per ray axis: keys whose scalar ray sequence fires a ray along ``axis``
    get identical buckets, node visits and counters from the fused call."""
    for representation, seed in (("naive", 3), ("optimized", 4)):
        # A few populated planes holding sparse rows: uniform probes then
        # miss their row (y discovery ray) or their whole plane (z ray).
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 1 << 23, 768, dtype=np.uint64)
        y = rng.integers(0, 1 << 23, 768, dtype=np.uint64)
        z = rng.choice(np.arange(0, 64, dtype=np.uint64), 768) & np.uint64(0x36)
        keys = np.unique(x | (y << np.uint64(23)) | (z << np.uint64(46)))
        index = CgRXIndex(
            keys,
            np.arange(keys.size, dtype=np.uint32),
            CgRXConfig(key_bits=64, bucket_size=4, representation=representation),
        )
        uniform = rng.integers(0, int(keys.max()), 192, dtype=np.uint64)
        probes = np.concatenate([keys[::7], keys[::5] + np.uint64(1), uniform])
        rep = index.representation
        _, _, _, used_axes = scalar_locate(rep, probes)
        along = probes[[axis in used for used in used_axes]]
        assert along.size >= 8, "the probe set must exercise this ray axis"
        buckets, nodes, stats, _ = scalar_locate(rep, along)
        fused_buckets, fused_nodes, fused_stats = fused_locate(rep, along)
        np.testing.assert_array_equal(buckets, fused_buckets)
        np.testing.assert_array_equal(nodes, fused_nodes)
        assert_stats_identical(stats, fused_stats)


@requires_backend
def test_megakernel_empty_scene_falls_back_cleanly(monkeypatch):
    """The fused call refuses trees it cannot serve: an empty scene quietly,
    an over-deep tree (here: a 1-slot stack) with a recorded fallback; the
    index then answers on the vector engine, identically."""
    engine = TraversalEngine(build_bvh(TriangleScene.from_triangles([])))
    stats = RayStats()
    assert engine.locate_buckets_batch(None, np.zeros(3, np.uint64), stats) is None
    assert stats == RayStats()

    keyset = generate_keys(512, uniformity=0.5, key_bits=32, seed=5)
    lookups = hit_miss_lookups(keyset, 128, miss_fraction=0.3, seed=6)
    vector = CgRXIndex(keyset.keys, keyset.row_ids, CgRXConfig(key_bits=32, engine="vector"))
    monkeypatch.setattr(compiled, "MAX_STACK", 1)
    monkeypatch.setattr(compiled, "last_fallback_reason", None)
    degraded = CgRXIndex(
        keyset.keys, keyset.row_ids, CgRXConfig(key_bits=32, engine="compiled")
    )
    assert_point_identical(
        vector.point_lookup_batch(lookups), degraded.point_lookup_batch(lookups)
    )
    assert compiled.last_fallback_reason == "tables_unusable"


@requires_backend
def test_cc_backend_kernels_match_scalar(pinned_backend):
    """The pinned C backend's locate and chain-walk kernels implement the
    scalar oracle: cgRXu point lookups run both."""
    pinned_backend("cc")
    assert compiled.available_backend() == "cc"
    keyset = generate_keys(1536, uniformity=0.6, key_bits=64, seed=11)
    lookups = hit_miss_lookups(
        keyset, 512, miss_fraction=0.3, out_of_range_fraction=0.3, seed=12
    )
    scalar = CgRXuIndex(keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=64, engine="scalar"))
    comp = CgRXuIndex(keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=64, engine="compiled"))
    assert_point_identical(scalar.point_lookup_batch(lookups), comp.point_lookup_batch(lookups))
    scalar_stats, comp_stats = RayStats(), RayStats()
    scalar.representation.locate_bucket_batch(lookups, scalar_stats, "scalar")
    comp.representation.locate_bucket_batch(lookups, comp_stats, "compiled")
    assert scalar_stats.rays_cast > 0
    assert_stats_identical(scalar_stats, comp_stats)


# --------------------------------------------------------------------------
# Quantized node tables: conservative by construction
# --------------------------------------------------------------------------


@requires_backend
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_quantized_tables_are_conservative(seed):
    """Dequantized bounds always contain the exact bounds (property test)."""
    rng = np.random.default_rng(seed)
    buffer = VertexBuffer()
    # Adversarial frames: huge coordinates, tiny extents, duplicates.
    scale = 10.0 ** rng.integers(-3, 6)
    points = rng.uniform(0.0, scale, size=(200, 3))
    points[::7] = points[0]
    for slot, (x, y, z) in enumerate(points):
        buffer.write_key_triangle(slot, float(x), float(y), float(z))
    bvh = build_bvh(TriangleScene.from_vertex_buffer(buffer), BvhBuildConfig(max_leaf_size=3))
    tables = compiled.CompiledBvhTables(bvh, compiled.Arena())
    assert tables.usable
    assert tables.verify_conservative(bvh)


def test_quantize_outward_degenerate_frame():
    """A single point (zero extent) quantizes without dividing by zero."""
    bounds = np.full((4, 3), 42.0)
    qlo, qhi, frame_min, scale = compiled._quantize_outward(bounds, bounds)
    lo = frame_min + qlo.astype(np.float64) * scale
    hi = frame_min + qhi.astype(np.float64) * scale
    assert np.all(lo <= bounds) and np.all(hi >= bounds)


# --------------------------------------------------------------------------
# Shard-local arenas
# --------------------------------------------------------------------------


def test_arena_rebuild_in_place():
    arena = compiled.Arena()
    arena.begin(1024)
    first = arena.alloc((16,), np.float64)
    capacity = arena.capacity_bytes
    assert capacity >= 1024 and arena.used_bytes == 128
    # Same-size epoch: no reallocation, same capacity, cursor reset.
    arena.begin(1024)
    second = arena.alloc((16,), np.float64)
    assert arena.capacity_bytes == capacity
    assert second.__array_interface__["data"][0] == first.__array_interface__["data"][0]
    # Larger epoch grows geometrically; smaller epochs never shrink.
    arena.begin(4 * capacity)
    assert arena.capacity_bytes >= 4 * capacity
    grown = arena.capacity_bytes
    arena.begin(64)
    assert arena.capacity_bytes == grown
    assert arena.rebuilds == 4


def test_arena_alloc_alignment_and_overflow():
    arena = compiled.Arena()
    arena.begin(256)
    base = arena._buffer.__array_interface__["data"][0]
    small = arena.alloc((3,), np.uint8)
    bigger = arena.alloc((4,), np.float32)
    assert (small.__array_interface__["data"][0] - base) % compiled.Arena.ALIGNMENT == 0
    assert (bigger.__array_interface__["data"][0] - base) % compiled.Arena.ALIGNMENT == 0
    with pytest.raises(ValueError):
        arena.alloc((1024,), np.float64)


@requires_backend
def test_index_arena_reused_across_update_epochs():
    keyset = generate_keys(2048, uniformity=0.6, key_bits=32, seed=61)
    index = CgRXuIndex(
        keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=32, engine="compiled")
    )
    lookups = hit_miss_lookups(keyset, 256, miss_fraction=0.3, seed=62)
    index.point_lookup_batch(lookups)
    assert index.compiled_buffers_bytes() > 0
    chain_arena = index._compiled_arena
    before = chain_arena.capacity_bytes
    for wave in update_waves(keyset, num_insert_waves=1, num_delete_waves=1, seed=63):
        index.update_batch(
            insert_keys=wave.insert_keys if wave.insert_keys.size else None,
            insert_row_ids=wave.insert_row_ids if wave.insert_keys.size else None,
            delete_keys=wave.delete_keys if wave.delete_keys.size else None,
        )
        index.point_lookup_batch(lookups)
        # Identity is stable: epochs repack the same arena object.
        assert index._compiled_arena is chain_arena
    assert chain_arena.rebuilds >= 2
    assert chain_arena.capacity_bytes >= before


# --------------------------------------------------------------------------
# cgRX / cgRXu: compiled engine answers and counts identically
# --------------------------------------------------------------------------


@requires_backend
@pytest.mark.parametrize("key_bits", [32, 64])
@pytest.mark.parametrize("representation", ["naive", "optimized"])
def test_cgrxu_compiled_identical_through_update_waves(key_bits, representation):
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
    comp = CgRXuIndex(
        keyset.keys,
        keyset.row_ids,
        CgRXuConfig(key_bits=key_bits, representation=representation, engine="compiled"),
    )

    assert_point_identical(
        scalar.point_lookup_batch(lookups), comp.point_lookup_batch(lookups)
    )
    assert_range_identical(
        scalar.range_lookup_batch(lows, highs), comp.range_lookup_batch(lows, highs)
    )

    for wave in update_waves(
        keyset, num_insert_waves=2, num_delete_waves=2, growth_factor=1.3, seed=34
    ):
        scalar_update = scalar.update_batch(
            insert_keys=wave.insert_keys if wave.insert_keys.size else None,
            insert_row_ids=wave.insert_row_ids if wave.insert_keys.size else None,
            delete_keys=wave.delete_keys if wave.delete_keys.size else None,
        )
        comp_update = comp.update_batch(
            insert_keys=wave.insert_keys if wave.insert_keys.size else None,
            insert_row_ids=wave.insert_row_ids if wave.insert_keys.size else None,
            delete_keys=wave.delete_keys if wave.delete_keys.size else None,
        )
        assert scalar_update.inserted == comp_update.inserted
        assert scalar_update.deleted == comp_update.deleted
        assert_stats_identical(scalar_update.stats, comp_update.stats)

    assert_point_identical(
        scalar.point_lookup_batch(lookups), comp.point_lookup_batch(lookups)
    )
    assert_range_identical(
        scalar.range_lookup_batch(lows, highs), comp.range_lookup_batch(lows, highs)
    )
    scalar_entries = scalar.export_entries()
    comp_entries = comp.export_entries()
    assert scalar_entries[0].tobytes() == comp_entries[0].tobytes()
    assert scalar_entries[1].tobytes() == comp_entries[1].tobytes()


@requires_backend
@pytest.mark.parametrize("key_bits", [32, 64])
def test_cgrx_compiled_identical(key_bits):
    keyset = generate_keys(4096, uniformity=0.5, key_bits=key_bits, seed=51)
    lookups = hit_miss_lookups(
        keyset, 1024, miss_fraction=0.25, out_of_range_fraction=0.3, seed=52
    )
    lows, highs = range_lookups(keyset, count=64, expected_hits=8, seed=53)
    scalar = CgRXIndex(
        keyset.keys, keyset.row_ids, CgRXConfig(key_bits=key_bits, engine="scalar")
    )
    comp = CgRXIndex(
        keyset.keys, keyset.row_ids, CgRXConfig(key_bits=key_bits, engine="compiled")
    )
    assert_point_identical(
        scalar.point_lookup_batch(lookups), comp.point_lookup_batch(lookups)
    )
    assert_range_identical(
        scalar.range_lookup_batch(lows, highs), comp.range_lookup_batch(lows, highs)
    )


# --------------------------------------------------------------------------
# Degradation and configuration plumbing
# --------------------------------------------------------------------------


def test_resolve_engine_degrades_without_backend(pinned_backend):
    pinned_backend("none")
    assert compiled.available_backend() is None
    assert resolve_engine("compiled") == "vector"
    assert compiled.last_fallback_reason == "no_backend"
    assert resolve_engine("vector") == "vector"
    assert resolve_engine("scalar") == "scalar"


def test_degraded_compiled_index_matches_vector(pinned_backend):
    """No backend at all: engine="compiled" silently serves the vector path."""
    pinned_backend("none")
    keyset = generate_keys(1024, uniformity=0.5, key_bits=32, seed=71)
    lookups = hit_miss_lookups(keyset, 256, miss_fraction=0.3, seed=72)
    vector = CgRXuIndex(
        keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=32, engine="vector")
    )
    degraded = CgRXuIndex(
        keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=32, engine="compiled")
    )
    assert_point_identical(
        vector.point_lookup_batch(lookups), degraded.point_lookup_batch(lookups)
    )
    assert degraded.compiled_buffers_bytes() == 0


def test_degraded_compiled_update_runs_python_apply(pinned_backend, monkeypatch):
    """No backend: engine="compiled" applies updates with the per-key Python
    apply, identically to vector, and records the fallback."""
    from repro.obs.profile import disable_profiling, enable_profiling

    pinned_backend("none")
    keyset = generate_keys(1024, uniformity=0.5, key_bits=32, seed=73)
    vector = CgRXuIndex(keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=32, engine="vector"))
    degraded = CgRXuIndex(
        keyset.keys, keyset.row_ids, CgRXuConfig(key_bits=32, engine="compiled")
    )
    python_applies = []
    apply_slices = CgRXuIndex._apply_slices

    def spy(index, *args):
        python_applies.append(index is degraded)
        return apply_slices(index, *args)

    monkeypatch.setattr(CgRXuIndex, "_apply_slices", spy)
    profile = enable_profiling()
    try:
        for wave in update_waves(
            keyset, num_insert_waves=2, num_delete_waves=1, growth_factor=1.5, seed=74
        ):
            batch = dict(
                insert_keys=wave.insert_keys if wave.insert_keys.size else None,
                insert_row_ids=wave.insert_row_ids if wave.insert_keys.size else None,
                delete_keys=wave.delete_keys if wave.delete_keys.size else None,
            )
            expected, actual = vector.update_batch(**batch), degraded.update_batch(**batch)
            assert (expected.inserted, expected.deleted) == (actual.inserted, actual.deleted)
            assert_stats_identical(expected.stats, actual.stats)
    finally:
        disable_profiling()
    assert python_applies.count(True) == 3
    for name in ("_keys", "_row_ids", "_sizes", "_max_keys", "_next"):
        assert getattr(vector.nodes, name).tobytes() == getattr(degraded.nodes, name).tobytes()
    assert len(vector) == len(degraded)
    gauges = profile.registry.labeled_values("compiled_engine_fallback")
    assert gauges == {'compiled_engine_fallback{reason="no_backend"}': 1.0}


def test_degradation_records_telemetry(pinned_backend):
    from repro.obs.profile import disable_profiling, enable_profiling

    pinned_backend("none")
    profile = enable_profiling()
    try:
        assert resolve_engine("compiled") == "vector"
    finally:
        disable_profiling()
    gauges = profile.registry.labeled_values("compiled_engine_fallback")
    assert gauges == {'compiled_engine_fallback{reason="no_backend"}': 1.0}
    counters = profile.registry.labeled_values("compiled_engine_fallbacks_total")
    assert counters == {'compiled_engine_fallbacks_total{reason="no_backend"}': 1}


def test_engine_validation_accepts_compiled():
    assert CgRXConfig(engine="compiled").engine == "compiled"
    assert CgRXuConfig(engine="compiled").engine == "compiled"
    from repro.serve import ServeConfig

    assert ServeConfig(engine="compiled").engine == "compiled"
    with pytest.raises(ValueError):
        CgRXuConfig(engine="jit")


@requires_backend
def test_compiled_arena_reported_in_serve_footprint():
    from repro.bench.harness import cgrxu_factory
    from repro.serve import ServeConfig, ShardedIndex

    keyset = generate_keys(2048, uniformity=0.5, key_bits=32, seed=81)
    served = ShardedIndex(
        keyset.keys,
        keyset.row_ids,
        factory=cgrxu_factory(engine="compiled"),
        config=ServeConfig(num_shards=2, key_bits=32, engine="compiled"),
    )
    lookups = hit_miss_lookups(keyset, 256, miss_fraction=0.2, seed=82)
    served.point_lookup_batch(lookups)
    footprint = served.memory_footprint()
    arena_entries = {
        name: size
        for name, size in footprint.components.items()
        if "compiled_arena" in name
    }
    assert arena_entries and all(size > 0 for size in arena_entries.values())
    snapshot = served.maintenance.snapshot()
    assert snapshot["compiled_arena_bytes"] == sum(arena_entries.values())
