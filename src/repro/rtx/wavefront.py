"""Wavefront (batched) traversal of axis-aligned rays over SoA node tables.

The scalar axis-aligned fast path in :mod:`repro.rtx.traversal` processes
one ray at a time, so every node visit pays Python interpreter overhead.  The
index structures, however, fire rays in *batches* of thousands — exactly the
shape the RT hardware consumes — so this module provides the vectorized
equivalent: all rays of a batch advance through the BVH in lockstep, one step
per iteration, with an active-ray mask selecting the rays that still have
stack entries.  Per step, every active ray pops the top of its own traversal
stack and the bounding-volume tests for the whole front are evaluated as
single numpy expressions over gathered node rows.

It serves two callers: the vector engine's staged cgRX bucket location (one
closest-hit launch per ray stage) and RX's all-hits range batches.
General-direction rays only run on the scalar path.

Bit-parity contract
-------------------

The wavefront kernels are a pure re-scheduling of the scalar traversal: each
ray follows exactly the same stack discipline (near child on top), performs
the same comparisons in the same IEEE-double precision, and updates its
closest-hit bound in the same order.  Hit records, per-ray node-visit counts
and the :class:`~repro.rtx.traversal.RayStats` totals are therefore *identical*
to tracing the rays one by one — the scalar paths remain the reference oracle
and the test suite pins the equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.obs import profile as _profile
from repro.rtx.bvh import Bvh

#: For each ray axis, the two perpendicular axes checked by the fast path
#: (mirrors ``traversal._PERP_AXES``).
_PERP_AXES = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


class SoaBvh:
    """Contiguous SoA views of a BVH, built once per traversal engine.

    The scalar fast path rebuilds Python list tables per engine; the wavefront
    kernels (and the general path's slab tests) instead gather directly from
    these float64/int64 arrays.  The float64 promotion matches the scalar
    paths, which convert the float32 node bounds to Python floats (i.e.
    doubles) before comparing.
    """

    def __init__(self, bvh: Bvh) -> None:
        self.num_nodes = bvh.num_nodes
        self.node_min = np.ascontiguousarray(bvh.node_min.astype(np.float64))
        self.node_max = np.ascontiguousarray(bvh.node_max.astype(np.float64))
        self.node_left = np.ascontiguousarray(bvh.node_left.astype(np.int64))
        self.node_right = np.ascontiguousarray(bvh.node_right.astype(np.int64))
        self.node_count = np.ascontiguousarray(bvh.node_count.astype(np.int64))
        #: Stack capacity: one slot per tree level plus push slack.
        self.stack_depth = bvh.depth() + 3

        # Padded leaf table: row ``n`` holds the scene-triangle indices of
        # leaf ``n`` (``-1``-padded to the widest leaf).  Interior rows are
        # fully padded.
        width = max(1, int(bvh.node_count.max()) if self.num_nodes else 1)
        lanes = np.arange(width, dtype=np.int64)
        valid = lanes[None, :] < bvh.node_count[:, None]
        slots = np.where(valid, bvh.node_first[:, None] + lanes[None, :], 0)
        triangles = bvh.primitive_order[slots] if bvh.num_primitives else np.zeros_like(slots)
        self.leaf_triangles = np.where(valid, triangles, -1)
        self.leaf_valid = valid

        scene = bvh.scene
        self.centroids = (
            scene.centroids().astype(np.float64)
            if bvh.num_primitives
            else np.zeros((0, 3), dtype=np.float64)
        )
        self.primitive_indices = np.asarray(scene.primitive_indices, dtype=np.int64)
        self.flipped = np.asarray(scene.flipped, dtype=bool)


@dataclass
class AxisClosestBatch:
    """Closest-hit results of a batch of axis-aligned rays."""

    #: Per-ray hit flag.
    hit: np.ndarray
    #: Per-ray hit distance (meaningless where ``hit`` is False).
    t: np.ndarray
    #: Per-ray primitive index (-1 for misses).
    primitive_index: np.ndarray
    #: Per-ray front-face flag.
    front_face: np.ndarray
    #: Per-ray hit point (the triangle centre, float32 like the scalar path;
    #: zeros where the ray missed).
    point: np.ndarray
    #: Per-ray BVH nodes visited (for divergence sampling).
    nodes_visited: np.ndarray

    @property
    def num_rays(self) -> int:
        return int(self.hit.shape[0])


@dataclass
class AxisAllBatch:
    """All-hits results of a batch of axis-aligned rays (flattened, ragged).

    Hits are grouped by ray and sorted by distance within each ray — the same
    order the scalar ``trace_axis_all`` returns, including the stable
    tie-break on traversal order.
    """

    #: Ray id of every hit (grouped, ascending).
    ray: np.ndarray
    #: Hit distances aligned with ``ray``.
    t: np.ndarray
    #: Primitive indices aligned with ``ray``.
    primitive_index: np.ndarray
    #: Front-face flags aligned with ``ray``.
    front_face: np.ndarray
    #: Hit points aligned with ``ray`` (float32 triangle centres).
    point: np.ndarray
    #: Number of hits per ray.
    hit_counts: np.ndarray
    #: Per-ray BVH nodes visited.
    nodes_visited: np.ndarray

    @property
    def num_rays(self) -> int:
        return int(self.hit_counts.shape[0])


def _empty_axis_closest(num_rays: int) -> AxisClosestBatch:
    return AxisClosestBatch(
        hit=np.zeros(num_rays, dtype=bool),
        t=np.full(num_rays, np.inf, dtype=np.float64),
        primitive_index=np.full(num_rays, -1, dtype=np.int64),
        front_face=np.ones(num_rays, dtype=bool),
        point=np.zeros((num_rays, 3), dtype=np.float32),
        nodes_visited=np.zeros(num_rays, dtype=np.int64),
    )


def _empty_axis_all(num_rays: int) -> AxisAllBatch:
    return AxisAllBatch(
        ray=np.empty(0, dtype=np.int64),
        t=np.empty(0, dtype=np.float64),
        primitive_index=np.empty(0, dtype=np.int64),
        front_face=np.empty(0, dtype=bool),
        point=np.zeros((0, 3), dtype=np.float32),
        hit_counts=np.zeros(num_rays, dtype=np.int64),
        nodes_visited=np.zeros(num_rays, dtype=np.int64),
    )


def trace_axis_batch(
    soa: SoaBvh,
    axis: int,
    origins: np.ndarray,
    tmax: np.ndarray,
    tolerance: float,
    collect_all: bool,
    stats,
) -> "AxisClosestBatch | AxisAllBatch":
    """Trace a batch of +``axis`` rays through the BVH in lockstep.

    ``origins`` is ``(R, 3)`` float64, ``tmax`` is ``(R,)`` float64.  ``stats``
    is a :class:`~repro.rtx.traversal.RayStats` accumulated with the exact
    totals the scalar per-ray path would produce.
    """
    origins = np.asarray(origins, dtype=np.float64)
    num_rays = int(origins.shape[0])
    stats.rays_cast += num_rays
    if num_rays == 0:
        return _empty_axis_all(0) if collect_all else _empty_axis_closest(0)
    if soa.num_nodes == 0:
        stats.misses += num_rays
        return (
            _empty_axis_all(num_rays) if collect_all else _empty_axis_closest(num_rays)
        )

    perp_a, perp_b = _PERP_AXES[axis]
    origin_axis = origins[:, axis]
    coord_a = origins[:, perp_a]
    coord_b = origins[:, perp_b]
    slack = tolerance  # AABBs already include the triangle extent.

    best_t = np.asarray(tmax, dtype=np.float64).copy()
    has_best = np.zeros(num_rays, dtype=bool)
    best_triangle = np.zeros(num_rays, dtype=np.int64)
    nodes_visited = np.zeros(num_rays, dtype=np.int64)
    triangle_tests = 0

    stack = np.zeros((num_rays, soa.stack_depth), dtype=np.int64)
    pointer = np.ones(num_rays, dtype=np.int64)  # stack[:, 0] == root

    hit_rays: List[np.ndarray] = []
    hit_ts: List[np.ndarray] = []
    hit_triangles: List[np.ndarray] = []

    iterations = 0
    active = np.nonzero(pointer > 0)[0]
    while active.size:
        iterations += 1
        pointer[active] -= 1
        node = stack[active, pointer[active]]
        nodes_visited[active] += 1

        node_min = soa.node_min[node]
        node_max = soa.node_max[node]
        ray_a = coord_a[active]
        ray_b = coord_b[active]
        ray_o = origin_axis[active]
        passes = (
            (ray_a >= node_min[:, perp_a] - slack)
            & (ray_a <= node_max[:, perp_a] + slack)
            & (ray_b >= node_min[:, perp_b] - slack)
            & (ray_b <= node_max[:, perp_b] + slack)
            & (node_max[:, axis] >= ray_o)
            & (node_min[:, axis] <= ray_o + best_t[active])
        )
        counts = soa.node_count[node]

        leaf = np.nonzero(passes & (counts > 0))[0]
        if leaf.size:
            leaf_rays = active[leaf]
            leaf_nodes = node[leaf]
            triangle_tests += int(counts[leaf].sum())
            triangles = soa.leaf_triangles[leaf_nodes]
            valid = soa.leaf_valid[leaf_nodes]
            centres = soa.centroids[np.where(valid, triangles, 0)]
            ts = centres[:, :, axis] - origin_axis[leaf_rays][:, None]
            candidate = (
                valid
                & (np.abs(centres[:, :, perp_a] - coord_a[leaf_rays][:, None]) <= tolerance)
                & (np.abs(centres[:, :, perp_b] - coord_b[leaf_rays][:, None]) <= tolerance)
                & (ts >= 0.0)
                & (ts <= best_t[leaf_rays][:, None])
            )
            if collect_all:
                rows, lanes = np.nonzero(candidate)
                if rows.size:
                    hit_rays.append(leaf_rays[rows])
                    hit_ts.append(ts[rows, lanes])
                    hit_triangles.append(triangles[rows, lanes])
            else:
                masked = np.where(candidate, ts, np.inf)
                leaf_best = masked.min(axis=1)
                leaf_lane = np.argmin(masked, axis=1)  # first minimum: slot order
                any_candidate = candidate.any(axis=1)
                accept = any_candidate & (
                    ~has_best[leaf_rays] | (leaf_best < best_t[leaf_rays])
                )
                if accept.any():
                    rows = np.nonzero(accept)[0]
                    accepted_rays = leaf_rays[rows]
                    has_best[accepted_rays] = True
                    best_t[accepted_rays] = leaf_best[rows]
                    best_triangle[accepted_rays] = triangles[rows, leaf_lane[rows]]

        inner = np.nonzero(passes & (counts == 0))[0]
        if inner.size:
            inner_rays = active[inner]
            inner_nodes = node[inner]
            left = soa.node_left[inner_nodes]
            right = soa.node_right[inner_nodes]
            # Push the farther child first so the nearer one is visited next
            # (identical to the scalar near-first ordering).
            left_near = soa.node_min[left, axis] <= soa.node_min[right, axis]
            near = np.where(left_near, left, right)
            far = np.where(left_near, right, left)
            top = pointer[inner_rays]
            stack[inner_rays, top] = far
            stack[inner_rays, top + 1] = near
            pointer[inner_rays] = top + 2

        # A ray with an empty stack is finished for good: filter within the
        # current front instead of rescanning the whole batch.
        active = active[pointer[active] > 0]

    total_nodes = int(nodes_visited.sum())
    stats.nodes_visited += total_nodes
    stats.aabb_tests += total_nodes
    stats.triangle_tests += triangle_tests

    # Profiling hook: each active ray advances one node per iteration, so
    # total node visits double as the lane-step count and mean occupancy is
    # total_nodes / (iterations * num_rays).  One global read when disabled.
    prof = _profile.profiler()
    if prof is not None:
        prof.observe_wavefront("trace_axis_batch", iterations, num_rays, total_nodes)

    if collect_all:
        if hit_rays:
            ray_ids = np.concatenate(hit_rays)
            ts = np.concatenate(hit_ts)
            triangles = np.concatenate(hit_triangles)
            # Stable sort by (ray, t): equal-t hits keep traversal order, the
            # same tie-break Python's stable list sort gives the scalar path.
            order = np.lexsort((ts, ray_ids))
            ray_ids = ray_ids[order]
            ts = ts[order]
            triangles = triangles[order]
        else:
            ray_ids = np.empty(0, dtype=np.int64)
            ts = np.empty(0, dtype=np.float64)
            triangles = np.empty(0, dtype=np.int64)
        hit_counts = np.bincount(ray_ids, minlength=num_rays).astype(np.int64)
        rays_hit = int((hit_counts > 0).sum())
        stats.hits += rays_hit
        stats.misses += num_rays - rays_hit
        return AxisAllBatch(
            ray=ray_ids,
            t=ts,
            primitive_index=soa.primitive_indices[triangles]
            if ts.size
            else np.empty(0, dtype=np.int64),
            front_face=~soa.flipped[triangles] if ts.size else np.empty(0, dtype=bool),
            point=soa.centroids[triangles].astype(np.float32)
            if ts.size
            else np.zeros((0, 3), dtype=np.float32),
            hit_counts=hit_counts,
            nodes_visited=nodes_visited,
        )

    hits = int(has_best.sum())
    stats.hits += hits
    stats.misses += num_rays - hits
    point = np.zeros((num_rays, 3), dtype=np.float32)
    if hits:
        point[has_best] = soa.centroids[best_triangle[has_best]].astype(np.float32)
    return AxisClosestBatch(
        hit=has_best,
        t=best_t,
        primitive_index=np.where(
            has_best, soa.primitive_indices[best_triangle], -1
        ).astype(np.int64),
        front_face=np.where(has_best, ~soa.flipped[best_triangle], True),
        point=point,
        nodes_visited=nodes_visited,
    )
