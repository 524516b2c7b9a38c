"""Base class shared by the naive and optimized scene representations."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Tuple

import numpy as np

from repro.core.bucketing import BucketedKeys
from repro.core.casting import SceneCaster
from repro.core.key_mapping import KeyMapping
from repro.rtx.pipeline import RaytracingPipeline
from repro.rtx.traversal import RayStats

#: Sentinel returned by ``locate_bucket`` when the key lies outside the
#: indexed key range (Algorithm 2, line 3).
MISS = -1


class SceneRepresentation(ABC):
    """A strategy for materialising bucket representatives as triangles.

    Subclasses build the triangles into the pipeline's vertex buffer at
    construction time and implement the ray-firing sequence that maps a
    lookup key to its bucketID.
    """

    def __init__(
        self,
        bucketed: BucketedKeys,
        mapping: KeyMapping,
        pipeline: RaytracingPipeline,
    ) -> None:
        self.bucketed = bucketed
        self.mapping = mapping
        self.pipeline = pipeline
        self.num_buckets = bucketed.num_buckets

        representatives = bucketed.representatives()
        min_rep = int(representatives[0])
        max_rep = int(representatives[-1])
        #: True when representatives span more than one row (Algorithm 1, line 2).
        self.multi_line = int(mapping.yz_of(min_rep)) != int(mapping.yz_of(max_rep))
        #: True when representatives span more than one plane (line 3).
        self.multi_plane = int(mapping.z_of(min_rep)) != int(mapping.z_of(max_rep))

        self._build_scene()
        self.pipeline.build_acceleration_structure()
        self.caster = SceneCaster(pipeline, mapping)
        self._locate_params = None

    # ------------------------------------------------------------------ hooks

    @abstractmethod
    def _build_scene(self) -> None:
        """Write all representative (and marker) triangles into the vertex buffer."""

    @abstractmethod
    def locate_bucket(self, key: int, stats: Optional[RayStats] = None) -> int:
        """Return the bucketID whose representative is the first one >= ``key``.

        Returns :data:`MISS` when ``key`` is larger than the largest indexed
        key.  ``stats`` accumulates the ray-traversal work of the lookup.
        """

    def locate_bucket_batch(self, keys, stats: Optional[RayStats], engine: str):
        """Batched :meth:`locate_bucket`: ``(bucket_ids, nodes_visited)`` arrays.

        ``engine="scalar"`` loops :meth:`locate_bucket` per key;
        ``"compiled"`` runs every key's ray sequence in one fused kernel call
        when the compiled tier can serve the scene; otherwise the rays are
        staged as one wavefront launch per ray stage.  Every engine fires
        exactly the rays :meth:`locate_bucket` fires per key, so bucket ids,
        per-key node visits and the ``stats`` totals are identical.
        """
        keys = np.asarray(keys)
        if engine == "scalar":
            stats = stats if stats is not None else RayStats()
            bucket_ids = np.empty(keys.shape[0], dtype=np.int64)
            nodes = np.zeros(keys.shape[0], dtype=np.int64)
            for position, key in enumerate(keys):
                before = stats.nodes_visited
                bucket_ids[position] = self.locate_bucket(int(key), stats)
                nodes[position] = stats.nodes_visited - before
            return bucket_ids, nodes
        if engine == "compiled":
            located = self._locate_compiled(keys, stats)
            if located is not None:
                return located
        return self._locate_staged(keys, stats)

    def _locate_staged(self, keys: np.ndarray, stats: Optional[RayStats]):
        """Vector-engine :meth:`locate_bucket_batch`: the scalar ray sequence
        as stage-synchronous wavefront launches (all rays of a stage share an
        axis)."""
        column_x, plane_lane_y, flips, remap = self._locate_lanes()
        num_keys = int(keys.shape[0])
        out = np.full(num_keys, MISS, dtype=np.int64)
        nodes = np.zeros(num_keys, dtype=np.int64)
        if num_keys == 0:
            return out, nodes

        mapping = self.mapping
        caster = self.caster
        keys64 = keys.astype(np.uint64)
        below = keys64 < np.uint64(self.min_representative)
        in_range = keys64 <= np.uint64(self.max_representative)
        out[below] = 0

        kx = mapping.x_of(keys64).astype(np.int64)
        ky = mapping.y_of(keys64).astype(np.int64)
        kz = mapping.z_of(keys64).astype(np.int64)

        def answer(positions, primitive_index):
            out[positions] = self._remap_batch(primitive_index) if remap else primitive_index

        def enter_row(positions, next_row, grid_z):
            # A discovery ray found the next populated row: a back-face hit
            # (flipped row terminator) answers directly, a front-face hit
            # fires the ray to the row's leftmost representative.
            hit = next_row.hit
            if flips:
                back = hit & ~next_row.front_face
                answer(positions[back], next_row.primitive_index[back])
                hit = hit & next_row.front_face
            front = np.nonzero(hit)[0]
            if front.size:
                front_keys = positions[front]
                row_y = caster.hit_grid_y_batch(next_row.point)[front]
                leftmost = caster.x_cast_batch(
                    np.zeros(front.size, dtype=np.int64), row_y, grid_z[front], stats=stats
                )
                nodes[front_keys] += leftmost.nodes_visited
                found = leftmost.hit
                answer(front_keys[found], leftmost.primitive_index[found])

        # Ray 1: along +x in each key's own row.
        todo = np.nonzero(in_range & ~below)[0]
        if todo.size == 0:
            return out, nodes
        same_row = caster.x_cast_batch(kx[todo], ky[todo], kz[todo], stats=stats)
        nodes[todo] += same_row.nodes_visited
        resolved = same_row.hit
        answer(todo[resolved], same_row.primitive_index[resolved])
        pending = todo[~resolved]

        # Ray 2 (+ ray 3): the next populated row along the discovery column.
        if self.multi_line and pending.size:
            next_row = caster.y_cast_batch(
                np.full(pending.size, column_x), ky[pending] + 1, kz[pending], stats=stats
            )
            nodes[pending] += next_row.nodes_visited
            enter_row(pending, next_row, kz[pending])
            pending = pending[~next_row.hit]

        # Rays 3-5: the next populated plane along the discovery lane, then
        # its first populated row, then that row's leftmost representative.
        if self.multi_plane and pending.size:
            next_plane = caster.z_cast_batch(
                np.full(pending.size, column_x),
                np.full(pending.size, plane_lane_y),
                kz[pending] + 1,
                stats=stats,
            )
            nodes[pending] += next_plane.nodes_visited
            planed = np.nonzero(next_plane.hit)[0]
            if planed.size:
                plane_keys = pending[planed]
                plane_z = caster.hit_grid_z_batch(next_plane.point)[planed]
                next_row = caster.y_cast_batch(
                    np.full(planed.size, column_x),
                    np.zeros(planed.size, dtype=np.int64),
                    plane_z,
                    stats=stats,
                )
                nodes[plane_keys] += next_row.nodes_visited
                enter_row(plane_keys, next_row, plane_z)
        return out, nodes

    def _remap_batch(self, primitive_index: np.ndarray) -> np.ndarray:
        """Bucket ids of primitive indices: a marker slot marks the transition
        into the bucket after the one that produced it."""
        plane = (primitive_index >= self.plane_marker_offset) & self.multi_plane
        row = primitive_index >= self.row_marker_offset
        return np.where(
            plane,
            primitive_index - self.plane_marker_offset + 1,
            np.where(row, primitive_index - self.row_marker_offset + 1, primitive_index),
        )

    def _locate_compiled(self, keys: np.ndarray, stats: Optional[RayStats]):
        """Compiled-engine :meth:`locate_bucket_batch`: one kernel call per batch.

        Returns ``None`` when the compiled tier cannot serve the scene; the
        caller then stages the rays on the vector engine.  Results and
        counters are identical.
        """
        if self._locate_params is None:
            from repro.rtx.compiled import LocateParams

            mapping = self.mapping
            column_x, plane_lane_y, flips, remap = self._locate_lanes()
            self._locate_params = LocateParams(
                min_rep=int(self.min_representative),
                max_rep=int(self.max_representative),
                x_bits=mapping.x_bits,
                y_bits=mapping.y_bits,
                z_bits=mapping.z_bits,
                multi_line=self.multi_line,
                multi_plane=self.multi_plane,
                flips=flips,
                remap=remap,
                y_scale=mapping.y_scale,
                z_scale=mapping.z_scale,
                column_x=column_x,
                plane_lane_y=plane_lane_y,
                row_marker_offset=self.row_marker_offset,
                plane_marker_offset=self.plane_marker_offset,
            )
        return self.pipeline.locate_buckets_batch(self._locate_params, keys, stats)

    @abstractmethod
    def _locate_lanes(self) -> Tuple[float, float, bool, bool]:
        """``(column_x, plane_lane_y, flips, remap)`` of the batched locate.

        Shared by the staged and the compiled engine: the grid column of the y/z discovery rays, the grid row of the z
        discovery ray, whether a back-face row hit answers directly, and
        whether marker slots remap to the following bucket.
        """

    # ------------------------------------------------------------ maintenance

    def reanchor_representative(self, bucket_id: int, old_key: int, new_key: int) -> bool:
        """Move bucket ``bucket_id``'s representative triangle from ``old_key``
        to ``new_key``'s grid position, when that is provably safe.

        Compaction tightens a bucket whose largest entries were deleted by
        re-anchoring its representative to the bucket's current maximum key.
        The move is only legal when it cannot disturb the marker structure of
        either scene representation:

        * both keys map to the same (y, z) row — rays discover rows through
          markers/terminators whose placement depends on row membership;
        * the slot holds the *unmoved*, unflipped representative exactly at
          ``old_key``'s grid position (moved/auxiliary terminators at
          ``x = xmax`` and flipped representatives encode row-termination
          state and must stay put).

        Returns ``True`` when the triangle was rewritten; the caller is then
        responsible for refitting the acceleration structure.
        """
        mapping = self.mapping
        buffer = self.pipeline.vertex_buffer
        old_key = int(old_key)
        new_key = int(new_key)
        if not 0 <= bucket_id < self.num_buckets:
            return False
        if int(mapping.yz_of(old_key)) != int(mapping.yz_of(new_key)):
            return False
        old_x = int(mapping.x_of(old_key))
        new_x = int(mapping.x_of(new_key))
        if new_x == old_x:
            return False
        if not buffer.slot_occupied(bucket_id) or buffer.slot_flipped(bucket_id):
            return False
        scene_y = float(mapping.y_of(old_key)) * mapping.y_scale
        scene_z = float(mapping.z_of(old_key)) * mapping.z_scale
        centre = buffer.centres[bucket_id]
        if tuple(centre) != (float(old_x), scene_y, scene_z):
            return False
        buffer.write_key_triangle(bucket_id, float(new_x), scene_y, scene_z)
        return True

    # ------------------------------------------------------------- shared API

    @property
    def min_representative(self) -> int:
        return self.bucketed.min_representative

    @property
    def max_representative(self) -> int:
        return self.bucketed.max_representative

    def triangle_count(self) -> int:
        """Number of triangles materialised in the scene."""
        return self.pipeline.vertex_buffer.num_occupied

    def memory_footprint_bytes(self) -> int:
        """Device bytes of the vertex buffer plus the acceleration structure."""
        return self.pipeline.memory_footprint_bytes()
