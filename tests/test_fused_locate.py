"""Parity suite of the fused compiled bucket location and the range post-filter.

Under ``engine="compiled"`` a lookup batch locates every key's bucket in one
C call that runs the key's whole cgRX ray sequence.  The scalar
``locate_bucket`` stays the oracle and the staged vector engine (one
wavefront launch per ray stage) the second reference: across a grid of key
widths, scene representations, bucket sizes, key distributions and seeds,
all three must agree on bucket ids and per-key node visits, and the fused
call must feed identical totals to the caller's ``RayStats`` and the same
per-launch profiler series the staged engine reports.

The second half pins the vectorised range post-filter of
``CgRXIndex.range_lookup_batch`` against the per-range loop it replaced, and
``BucketSearchModel.range_scan_total`` against summed ``range_scan``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.bucket_search import BucketSearchModel
from repro.core.config import CgRXConfig, Representation
from repro.core.index import CgRXIndex
from repro.obs.profile import disable_profiling, enable_profiling
from repro.rtx import compiled
from repro.rtx.traversal import RayStats
from repro.workloads.keygen import generate_keys

pytestmark = pytest.mark.skipif(
    compiled.available_backend() is None,
    reason="no compiled backend (system C compiler) available",
)

#: 2 key widths x 2 representations x 3 bucket sizes x 3 key distributions
#: (dense, half uniform, uniform); with two seeds each, 72 configurations.
GRID = [
    (key_bits, representation, bucket_size, uniformity)
    for key_bits in (32, 64)
    for representation in (Representation.NAIVE, Representation.OPTIMIZED)
    for bucket_size in (4, 16, 32)
    for uniformity in (0.0, 0.5, 1.0)
]
SEEDS = (0, 1)


def build(key_bits, representation, bucket_size, uniformity, seed, num_keys=1024):
    keyset = generate_keys(num_keys, uniformity=uniformity, key_bits=key_bits, seed=seed)
    config = CgRXConfig(
        key_bits=key_bits, representation=representation, bucket_size=bucket_size
    )
    return keyset, CgRXIndex(keyset.keys, keyset.row_ids, config)


def probes_for(keyset, key_bits, seed):
    """Stored keys, their successors, uniform keys and the domain edges."""
    rng = np.random.default_rng(seed + 100)
    keys = np.sort(keyset.keys).astype(np.uint64)
    top = (1 << key_bits) - 1
    edges = np.array([0, 1, keys[0], keys[-1], keys[-1] + np.uint64(1), top], dtype=np.uint64)
    return np.concatenate(
        [
            keys[rng.integers(0, keys.size, 48)],
            keys[rng.integers(0, keys.size, 48)] + np.uint64(1),
            rng.integers(0, int(keys[-1]), 48, dtype=np.uint64, endpoint=True),
            np.minimum(edges, np.uint64(top)),
        ]
    ).astype(keyset.keys.dtype)


def run_batch(representation, keys, engine):
    """One batched locate on ``engine``: ids, nodes, caller stats and the
    profiler's wavefront series."""
    stats = RayStats()
    profile = enable_profiling()
    try:
        bucket_ids, nodes = representation.locate_bucket_batch(keys, stats, engine)
    finally:
        disable_profiling()
    return bucket_ids, nodes, stats, wavefront_series(profile)


def wavefront_series(profile) -> dict:
    """``rtx_wavefront_*`` counters and occupancy histograms, kernel label
    dropped (the fused call reports as ``compiled_axis_closest``, the staged
    vector engine as ``trace_axis_batch``)."""
    series = {}
    for metric, labels, instrument in profile.registry.instruments():
        if not metric.startswith("rtx_wavefront"):
            continue
        assert len(labels) == 1 and labels[0][0] == "kernel"
        key = (metric, labels[0][1])
        if hasattr(instrument, "percentile"):
            series[key] = (instrument.count, instrument.total, instrument.percentile(50.0))
        else:
            series[key] = instrument.value
    return series


def relabel(series: dict, kernel: str) -> dict:
    assert all(label == kernel for _, label in series), series
    return {metric: value for (metric, _), value in series.items()}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "key_bits,representation,bucket_size,uniformity",
    GRID,
    ids=lambda value: value.value if isinstance(value, Representation) else str(value),
)
def test_fused_locate_matches_scalar_and_vector(
    key_bits, representation, bucket_size, uniformity, seed
):
    keyset, index = build(key_bits, representation, bucket_size, uniformity, seed)
    rep = index.representation
    probes = probes_for(keyset, key_bits, seed)

    scalar_stats = RayStats()
    scalar_ids, scalar_nodes = [], []
    for key in probes:
        local = RayStats()
        scalar_ids.append(rep.locate_bucket(int(key), local))
        scalar_nodes.append(local.nodes_visited)
        scalar_stats.merge(local)
    scalar_totals = dataclasses.asdict(scalar_stats)

    vector = run_batch(rep, probes, "vector")
    fused = run_batch(rep, probes, "compiled")
    for ids, nodes, stats, _ in (vector, fused):
        np.testing.assert_array_equal(ids, scalar_ids)
        np.testing.assert_array_equal(nodes, scalar_nodes)
        assert ids.dtype == nodes.dtype == np.int64
        assert dataclasses.asdict(stats) == scalar_totals
    fused_series = relabel(fused[3], "compiled_axis_closest")
    assert fused_series == relabel(vector[3], "trace_axis_batch")
    assert fused_series["rtx_wavefront_rays_total"] == scalar_stats.rays_cast


@pytest.mark.parametrize("key_bits", [32, 64])
@pytest.mark.parametrize("representation", list(Representation))
def test_fused_locate_out_of_range_and_empty_batches(key_bits, representation):
    keyset, index = build(key_bits, representation, 16, 0.5, seed=7)
    rep = index.representation
    dtype = keyset.keys.dtype
    low = int(rep.min_representative)
    high = int(rep.max_representative)
    top = (1 << key_bits) - 1
    below = np.arange(0, min(low, 8), dtype=dtype)
    above = np.array([high + 1, top], dtype=dtype)
    ids, nodes, stats, series = run_batch(rep, np.concatenate([below, above]), "compiled")
    np.testing.assert_array_equal(ids, [0] * below.size + [-1, -1])
    assert not nodes.any()
    assert stats == RayStats()
    assert series == {}

    ids, nodes, stats, series = run_batch(rep, np.empty(0, dtype=dtype), "compiled")
    assert ids.shape == nodes.shape == (0,)
    assert stats == RayStats() and series == {}


def test_fused_locate_scene_shapes_are_covered():
    """The grid holds single-plane (32-bit) and multi-plane, multi-line
    (64-bit) scenes, so every discovery ray of the fused driver runs."""
    shapes = set()
    for key_bits, representation, bucket_size, uniformity in GRID:
        _, index = build(key_bits, representation, bucket_size, uniformity, seed=0)
        shapes.add((key_bits, index.representation.multi_line, index.representation.multi_plane))
    assert (32, True, False) in shapes
    assert (64, True, True) in shapes


# --------------------------------------------------------------------------
# Range post-filter
# --------------------------------------------------------------------------


def loop_scan_ranges(index, bucket_ids, lows, highs):
    """The per-range post-filter loop the vectorised one replaced."""
    sorted_keys = index.bucketed.keys
    first = np.searchsorted(sorted_keys, lows, side="left")
    stop = np.searchsorted(sorted_keys, highs, side="right")
    starts = np.where(bucket_ids >= 0, bucket_ids * index.bucketed.bucket_size, 0)
    row_ids = []
    entries_scanned = np.zeros(lows.shape[0], dtype=np.int64)
    for position in range(lows.shape[0]):
        if bucket_ids[position] < 0:
            row_ids.append(np.empty(0, dtype=index.bucketed.row_ids.dtype))
            continue
        begin = max(int(first[position]), int(starts[position]))
        end = int(stop[position])
        if end <= begin:
            row_ids.append(np.empty(0, dtype=index.bucketed.row_ids.dtype))
        else:
            row_ids.append(index.bucketed.row_ids[begin:end].copy())
        entries_scanned[position] = max(1, end - int(starts[position]) + 1)
    return row_ids, entries_scanned


@pytest.mark.parametrize("key_bits", [32, 64])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_vectorised_range_post_filter_matches_loop(key_bits, seed):
    keyset, index = build(key_bits, Representation.OPTIMIZED, 8, 0.5, seed, num_keys=512)
    rng = np.random.default_rng(seed)
    keys = np.sort(keyset.keys)
    lows = keys[rng.integers(0, keys.size, 96)]
    widths = rng.integers(0, 40, 96)
    highs = keys[np.minimum(np.searchsorted(keys, lows) + widths, keys.size - 1)]
    # Inverted, empty and out-of-range ranges ride along.
    lows = np.concatenate([lows, [keys[10], keys[-1] + 1, 0], [keys[5]]]).astype(keys.dtype)
    highs = np.concatenate([highs, [keys[3], keys[-1] + 5, keys[0]], [keys[5]]]).astype(keys.dtype)
    bucket_ids, _, _ = index._locate_buckets(lows)
    assert (bucket_ids < 0).any()

    expected_rows, expected_scanned = loop_scan_ranges(index, bucket_ids, lows, highs)
    rows, scanned = index._scan_ranges(bucket_ids, lows, highs)
    assert len(rows) == len(expected_rows)
    for got, want in zip(rows, expected_rows):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert scanned.dtype == expected_scanned.dtype
    assert scanned.tobytes() == expected_scanned.tobytes()


@pytest.mark.parametrize("group_size", [1, 16, 32])
@pytest.mark.parametrize("key_bytes", [4, 8])
def test_range_scan_total_matches_summed_range_scan(group_size, key_bytes):
    model = BucketSearchModel(key_bytes=key_bytes, group_size=group_size)
    rng = np.random.default_rng(group_size + key_bytes)
    scanned = np.concatenate(
        [rng.integers(-5, 200, 300), [0, -1, 1, group_size, group_size + 1]]
    ).astype(np.int64)
    expected_bytes = expected_ops = 0
    for entries in scanned:
        if entries <= 0:
            continue
        cost = model.range_scan(int(entries))
        expected_bytes += cost.bytes_read
        expected_ops += cost.compute_ops
    total = model.range_scan_total(scanned)
    assert (total.bytes_read, total.compute_ops) == (expected_bytes, expected_ops)
    assert type(total.bytes_read) is int and type(total.compute_ops) is int
    nothing = model.range_scan_total(np.array([0, -3, 0], dtype=np.int64))
    assert (nothing.bytes_read, nothing.compute_ops) == (0, 0)
