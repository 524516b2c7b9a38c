"""Compiled hot-path tier: fused bucket location over quantized tables.

The vector engine (:mod:`repro.rtx.wavefront`) advances every ray of a batch
in lockstep, paying ~25 numpy dispatches per BVH level plus float64-promoted
copies of every node table, and the scene representations stage cgRX's ray
sequence (paper §III-B) as one wavefront launch per ray *stage*.  This module
removes both costs for point routing — the path the indexes run for every
lookup — the way the GPU does it: one thread per key runs its key's whole
ray sequence inside one kernel.

* **One call per lookup batch.**  :func:`locate_buckets` runs, for every key,
  the key→grid bit split, the same up-to-five axis rays ``locate_bucket``
  fires (row ray, next-row and next-plane discovery rays, leftmost-
  representative rays), the back-face early exit and the marker remap, and
  returns bucket ids, per-key node visits and per-stage ray totals.  It is
  parametrised by representation (:class:`LocateParams`), so the naive and
  the optimized scene share it.
* **Megakernel.**  Each ray is one compiled loop running traversal-pop, slab
  test, leaf intersection and stack-push back to back (no per-step numpy
  dispatch, no masked re-gathers).  The ray loop is written once, as a
  ``static inline`` helper the driver calls per stage.
* **Quantized cache-blocked node tables.**  Per node, a 12-byte record of
  uint16 AABB bounds quantized against a per-tree frame, rounded *outward* so
  a quantized reject implies the exact reject.  The kernel tests the 12-byte
  record first and only touches the float32 bounds (promoted to double
  in-register, exactly like the scalar oracle's ``astype(float)``) when the
  cheap test passes — traversal may *consider* a superset of nodes at the
  prefilter but visits, counters and hit results stay bit-identical to the
  scalar path.
* **Shard-local arenas.**  All node tables live in one reusable byte buffer
  that is rebuilt in place across build/refit epochs instead of reallocated.

The same C source holds cgRXu's node-chain kernels (the point-lookup walk
and the update apply), whose wrappers live in :mod:`repro.core.compiled`.
The kernels are C, compiled at first use with the system C compiler into a
cached shared library and bound through :mod:`ctypes`; no Python dependency
beyond the standard library.  ``REPRO_COMPILED_BACKEND=none`` disables the
tier (``cc`` pins it).  When no C compiler is available, callers degrade to
the vector engine and a telemetry gauge records the fallback (see
:func:`repro.core.config.resolve_engine`).

Bit-parity contract
-------------------

Every ray follows the scalar ``_trace_axis`` stack discipline exactly (root
first, far child pushed before near, visit counted at pop *before* any test),
performs every accepted comparison in IEEE double precision with the same
operand expressions, and applies the same first-minimum tie-break.  Ray
origins use the same double expressions as
:class:`~repro.core.casting.SceneCaster`, hit rows and planes the same
round-half-even snap of the float32 hit point.  Bucket ids, per-key node
visits, :class:`~repro.rtx.traversal.RayStats` totals and the per-stage
``rtx_wavefront_*{kernel="compiled_axis_closest"}`` profiler series are
therefore identical to the scalar oracle and to the staged vector engine —
pinned by the test suite together with a conservativeness property test for
the quantized bounds.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Optional, Tuple

import numpy as np

from repro.obs import profile as _profile
from repro.rtx.bvh import Bvh

#: Fixed traversal stack capacity of the compiled kernels.  Trees deeper than
#: this fall back to the vector engine (never hit in practice: the stack need
#: is ``depth + 3`` and the builder produces balanced trees).
MAX_STACK = 512

#: Quantization grid: bounds map onto ``[0, 65534]`` with one step of slack so
#: the outward fixup never runs out of headroom at the top of the range.
_QUANT_STEPS = 65534

#: Ray stages of the fused locate kernel, in the order the staged engines
#: launch them: the key's own row, the next-row discovery ray and its
#: leftmost-representative ray, then the next-plane ray, that plane's first
#: row and its leftmost representative.
LOCATE_STAGES = 6

# --------------------------------------------------------------------------
# Backend resolution
# --------------------------------------------------------------------------

#: Resolved backend name (``"cc"``) or ``None`` when the compiled tier is
#: unavailable.  ``"unresolved"`` until first probe.
_BACKEND: Optional[str] = "unresolved"
_KERNELS: Optional[Tuple] = None

#: Reason recorded by the most recent :func:`record_fallback` call (tests and
#: diagnostics; the telemetry gauge is the observable surface).
last_fallback_reason: Optional[str] = None


def reset_backend_cache() -> None:
    """Forget the resolved backend so the next probe re-reads the environment."""
    global _BACKEND, _KERNELS
    _BACKEND = "unresolved"
    _KERNELS = None


def available_backend() -> Optional[str]:
    """The active kernel backend, resolving (and caching) it on first call.

    ``REPRO_COMPILED_BACKEND=none`` disables the compiled tier; otherwise the
    C kernels are built with the system compiler (``"cc"``).
    """
    global _BACKEND, _KERNELS
    if _BACKEND != "unresolved":
        return _BACKEND
    _BACKEND = None
    if os.environ.get("REPRO_COMPILED_BACKEND", "").strip().lower() == "none":
        return None
    library = _load_cc_library()
    if library is not None:
        _BACKEND = "cc"
        _KERNELS = (_bind_locate(library), _make_cc_chain(library), _bind_apply(library))
    return _BACKEND


def backend_kernels() -> Optional[Tuple]:
    """``(locate_kernel, chain_kernel, apply_kernel)`` of the active backend,
    or ``None``."""
    if available_backend() is None:
        return None
    return _KERNELS


def record_fallback(reason: str) -> None:
    """Note a compiled→vector degradation on the telemetry surface."""
    global last_fallback_reason
    last_fallback_reason = reason
    prof = _profile.profiler()
    if prof is not None:
        prof.observe_compiled_fallback(reason)


# --------------------------------------------------------------------------
# C kernels
# --------------------------------------------------------------------------

_CC_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

#define MAX_STACK 512
/* locate_buckets reports, per ray stage, one row of STAGE_COLUMNS totals:
   rays, hits, the deepest ray's node visits, node visits, triangle tests. */
#define LOCATE_STAGES 6
#define STAGE_COLUMNS 5

typedef struct {
    const uint16_t* qbounds;
    const double* frame_min;
    const double* frame_scale;
    const float* node_min;
    const float* node_max;
    const int32_t* node_left;
    const int32_t* node_right;
    const int32_t* node_first;
    const int32_t* node_count;
    const int32_t* order;
    const double* centroids;
    const int64_t* primitive_index;
    const uint8_t* flipped;
} BvhTables;

typedef struct {
    uint64_t min_rep, max_rep;
    int32_t x_bits, y_bits, z_bits;
    int32_t multi_line, multi_plane;
    int32_t flips, remap;
    double y_scale, z_scale;
    double column_x;
    double plane_lane_y;
    int64_t row_marker_offset, plane_marker_offset;
} LocateParams;

/* Closest hit of one +axis ray: the scalar _trace_axis loop.  Returns 1 on a
   hit (scene triangle in *tri_out), adds the ray's work to *visits_out and
   *tests_out. */
static inline int trace_ray(
    const BvhTables* t, int32_t axis, int32_t perp_a, int32_t perp_b,
    double o, double ca, double cb, double tolerance,
    int64_t* tri_out, int64_t* visits_out, int64_t* tests_out)
{
    const double fa = t->frame_min[perp_a], sa = t->frame_scale[perp_a];
    const double fb = t->frame_min[perp_b], sb = t->frame_scale[perp_b];
    const double fx = t->frame_min[axis],  sx = t->frame_scale[axis];
    int32_t stack[MAX_STACK];
    int32_t sp = 0;
    stack[sp++] = 0;
    double bt = INFINITY;
    int64_t visits = 0, tests = 0, tri_best = 0;
    int has = 0;
    while (sp > 0) {
        const int32_t n = stack[--sp];
        visits++;
        const uint16_t* q = t->qbounds + 6 * (int64_t)n;
        /* Quantized bounds are rounded outward: a reject here implies the
           exact float32 test below rejects, so counters are unchanged. */
        if (ca < fa + (double)q[perp_a] * sa - tolerance ||
            ca > fa + (double)q[3 + perp_a] * sa + tolerance)
            continue;
        if (cb < fb + (double)q[perp_b] * sb - tolerance ||
            cb > fb + (double)q[3 + perp_b] * sb + tolerance)
            continue;
        if (fx + (double)q[3 + axis] * sx < o ||
            fx + (double)q[axis] * sx > o + bt)
            continue;
        const float* mn = t->node_min + 3 * (int64_t)n;
        const float* mx = t->node_max + 3 * (int64_t)n;
        if (ca < (double)mn[perp_a] - tolerance || ca > (double)mx[perp_a] + tolerance)
            continue;
        if (cb < (double)mn[perp_b] - tolerance || cb > (double)mx[perp_b] + tolerance)
            continue;
        if ((double)mx[axis] < o || (double)mn[axis] > o + bt)
            continue;
        const int32_t count = t->node_count[n];
        if (count > 0) {
            const int32_t first = t->node_first[n];
            tests += count;
            for (int32_t s = first; s < first + count; s++) {
                const int64_t tri = (int64_t)t->order[s];
                const double* c = t->centroids + 3 * tri;
                if (fabs(c[perp_a] - ca) > tolerance) continue;
                if (fabs(c[perp_b] - cb) > tolerance) continue;
                const double dist = c[axis] - o;
                if (dist < 0.0 || dist > bt) continue;
                if (!has || dist < bt) { has = 1; bt = dist; tri_best = tri; }
            }
        } else {
            const int32_t left = t->node_left[n];
            const int32_t right = t->node_right[n];
            if ((double)t->node_min[3 * (int64_t)left + axis] <=
                (double)t->node_min[3 * (int64_t)right + axis]) {
                stack[sp++] = right;
                stack[sp++] = left;
            } else {
                stack[sp++] = left;
                stack[sp++] = right;
            }
        }
    }
    *tri_out = tri_best;
    *visits_out += visits;
    *tests_out += tests;
    return has;
}

/* One ray of stage `stage` from scene origin (x, y, z), with its totals. */
static inline int stage_ray(
    const BvhTables* t, int32_t axis, double x, double y, double z,
    double tolerance, int stage, int64_t* stages, int64_t* key_nodes,
    int64_t* tri_out)
{
    int64_t visits = 0;
    int64_t* row = stages + STAGE_COLUMNS * stage;
    int has;
    if (axis == 0)
        has = trace_ray(t, 0, 1, 2, x, y, z, tolerance, tri_out, &visits, &row[4]);
    else if (axis == 1)
        has = trace_ray(t, 1, 0, 2, y, x, z, tolerance, tri_out, &visits, &row[4]);
    else
        has = trace_ray(t, 2, 0, 1, z, x, y, tolerance, tri_out, &visits, &row[4]);
    row[0] += 1;
    row[1] += has;
    if (visits > row[2]) row[2] = visits;
    row[3] += visits;
    *key_nodes += visits;
    return has;
}

static inline int64_t remap(const LocateParams* p, const BvhTables* t, int64_t tri)
{
    const int64_t prim = t->primitive_index[tri];
    if (!p->remap) return prim;
    if (prim >= p->plane_marker_offset && p->multi_plane)
        return prim - p->plane_marker_offset + 1;
    if (prim >= p->row_marker_offset)
        return prim - p->row_marker_offset + 1;
    return prim;
}

static inline int64_t snap(double coordinate, double scale)
{
    return (int64_t)nearbyint((double)(float)coordinate / scale);
}

static inline uint64_t bit_mask(int32_t bits)
{
    return bits >= 64 ? ~(uint64_t)0 : (((uint64_t)1 << bits) - 1);
}

/* A row found by a discovery ray: the back-face early exit, else the
   leftmost representative of that row (stage `stage`).  -1 is MISS. */
static inline int64_t resolve_row(
    const LocateParams* p, const BvhTables* t, double tolerance,
    int64_t row_tri, int64_t plane, int stage, int64_t* stages, int64_t* key_nodes)
{
    if (p->flips && t->flipped[row_tri]) return remap(p, t, row_tri);
    const int64_t row_y = snap(t->centroids[3 * row_tri + 1], p->y_scale);
    int64_t tri;
    if (stage_ray(t, 0, 0.0 - 0.5, (double)row_y * p->y_scale,
                  (double)plane * p->z_scale, tolerance, stage, stages, key_nodes, &tri))
        return remap(p, t, tri);
    return -1;
}

void locate_buckets(
    const BvhTables* t, const LocateParams* p, double tolerance,
    int64_t num_keys, const void* keys, int32_t key_is_64,
    int64_t* bucket_ids, int64_t* nodes, int64_t* stages)
{
    const uint64_t* keys64 = (const uint64_t*)keys;
    const uint32_t* keys32 = (const uint32_t*)keys;
    const uint64_t x_mask = bit_mask(p->x_bits);
    const uint64_t y_mask = bit_mask(p->y_bits);
    const uint64_t z_mask = bit_mask(p->z_bits);
    for (int s = 0; s < LOCATE_STAGES * STAGE_COLUMNS; s++) stages[s] = 0;
    for (int64_t k = 0; k < num_keys; k++) {
        const uint64_t key = key_is_64 ? keys64[k] : (uint64_t)keys32[k];
        int64_t key_nodes = 0;
        int64_t out = -1;
        int64_t tri;
        if (key > p->max_rep) {
            out = -1;
        } else if (key < p->min_rep) {
            out = 0;
        } else {
            const int64_t kx = (int64_t)(key & x_mask);
            const int64_t ky = p->y_bits ? (int64_t)((key >> p->x_bits) & y_mask) : 0;
            const int64_t kz =
                p->z_bits ? (int64_t)((key >> (p->x_bits + p->y_bits)) & z_mask) : 0;
            const double scene_z = (double)kz * p->z_scale;
            int done = 0;
            /* Ray 1: along +x in the key's own row. */
            if (stage_ray(t, 0, (double)kx - 0.5, (double)ky * p->y_scale, scene_z,
                          tolerance, 0, stages, &key_nodes, &tri)) {
                out = remap(p, t, tri);
                done = 1;
            }
            /* Ray 2 (+ its leftmost ray): next populated row on the plane. */
            if (!done && p->multi_line &&
                stage_ray(t, 1, p->column_x, ((double)(ky + 1) - 0.5) * p->y_scale,
                          scene_z, tolerance, 1, stages, &key_nodes, &tri)) {
                out = resolve_row(p, t, tolerance, tri, kz, 2, stages, &key_nodes);
                done = 1;
            }
            /* Rays 3-5: next populated plane, its first row, its leftmost
               representative. */
            if (!done && p->multi_plane &&
                stage_ray(t, 2, p->column_x, p->plane_lane_y * p->y_scale,
                          ((double)(kz + 1) - 0.5) * p->z_scale,
                          tolerance, 3, stages, &key_nodes, &tri)) {
                const int64_t plane_z = snap(t->centroids[3 * tri + 2], p->z_scale);
                if (stage_ray(t, 1, p->column_x, (0.0 - 0.5) * p->y_scale,
                              (double)plane_z * p->z_scale,
                              tolerance, 4, stages, &key_nodes, &tri))
                    out = resolve_row(p, t, tolerance, tri, plane_z, 5, stages, &key_nodes);
            }
        }
        bucket_ids[k] = out;
        nodes[k] = key_nodes;
    }
}

void chain_walk(
    int64_t num_keys,
    const uint64_t* target64,
    const int64_t* start_pos,
    int64_t order_len,
    const int64_t* order,
    int32_t capacity,
    int32_t key_is_64,
    const void* keys_slab,
    const uint32_t* row_ids,
    const int32_t* sizes,
    const uint64_t* max_keys,
    const int64_t* next_node,
    int64_t* row_sum, int64_t* matches,
    int64_t* nodes_visited, int64_t* entries)
{
    const uint64_t* keys64 = (const uint64_t*)keys_slab;
    const uint32_t* keys32 = (const uint32_t*)keys_slab;
    for (int64_t k = 0; k < num_keys; k++) {
        const uint64_t target = target64[k];
        const uint32_t target32 = (uint32_t)target;
        int64_t pos = start_pos[k];
        int64_t visits = 0, touched = 0, matched = 0, rsum = 0;
        while (pos < order_len) {
            const int64_t node = order[pos];
            visits++;
            const int32_t size = sizes[node];
            if (max_keys[node] < target && next_node[node] != -1) { pos++; continue; }
            int64_t left = 0, right = 0;
            const int64_t base = node * (int64_t)capacity;
            if (key_is_64) {
                const uint64_t* node_keys = keys64 + base;
                for (int32_t i = 0; i < size; i++) {
                    const uint64_t value = node_keys[i];
                    left += value < target;
                    right += value <= target;
                }
            } else {
                const uint32_t* node_keys = keys32 + base;
                for (int32_t i = 0; i < size; i++) {
                    const uint32_t value = node_keys[i];
                    left += value < target32;
                    right += value <= target32;
                }
            }
            const int64_t span = right - left;
            touched += span > 1 ? span : 1;
            if (span > 0) {
                const uint32_t* node_rows = row_ids + base;
                for (int64_t i = left; i < right; i++) rsum += (int64_t)node_rows[i];
                matched += span;
            }
            if (right < (int64_t)size) break;
            pos++;
        }
        row_sum[k] = rsum;
        matches[k] = matched;
        nodes_visited[k] = visits;
        entries[k] = touched;
    }
}

/* The NodeStorage slab arrays and allocator state apply_updates mutates. */
typedef struct {
    void* keys;                 /* (total, capacity) uint32 or uint64 */
    uint32_t* row_ids;
    int32_t* sizes;
    uint64_t* max_keys;
    int64_t* next;
    int64_t capacity;
    size_t key_width;
    int64_t num_representative;
    int64_t linked_capacity;
    int64_t linked_used;
    const int64_t* free_nodes;
    int64_t free_count;
} Slab;

static inline uint64_t slab_key(const Slab* s, int64_t node, int64_t slot)
{
    const int64_t at = node * s->capacity + slot;
    return s->key_width == 8 ? ((const uint64_t*)s->keys)[at]
                             : (uint64_t)((const uint32_t*)s->keys)[at];
}

static inline void set_entry(Slab* s, int64_t node, int64_t slot, uint64_t key, uint32_t row)
{
    const int64_t at = node * s->capacity + slot;
    if (s->key_width == 8) ((uint64_t*)s->keys)[at] = key;
    else ((uint32_t*)s->keys)[at] = (uint32_t)key;
    s->row_ids[at] = row;
}

/* Copy `count` (key, rowID) slots from (src_node, src) to (dst_node, dst);
   overlapping ranges of one node shift like numpy's slice assignment. */
static inline void move_entries(Slab* s, int64_t dst_node, int64_t dst,
                                int64_t src_node, int64_t src, int64_t count)
{
    if (count <= 0) return;
    char* keys = (char*)s->keys;
    const size_t w = s->key_width;
    memmove(keys + (size_t)(dst_node * s->capacity + dst) * w,
            keys + (size_t)(src_node * s->capacity + src) * w, (size_t)count * w);
    memmove(s->row_ids + dst_node * s->capacity + dst,
            s->row_ids + src_node * s->capacity + src, (size_t)count * sizeof(uint32_t));
}

/* np.searchsorted(node_keys[:size], key, side="left") */
static inline int64_t lower_bound(const Slab* s, int64_t node, int64_t size, uint64_t key)
{
    int64_t lo = 0, hi = size;
    while (lo < hi) {
        const int64_t mid = (lo + hi) >> 1;
        if (slab_key(s, node, mid) < key) lo = mid + 1;
        else hi = mid;
    }
    return lo;
}

/* CgRXuIndex._delete_one: remove one occurrence of `key`, continuing into
   the next bucket while a chain ends without a larger key. */
static int delete_one(Slab* s, int64_t bucket, int64_t overflow_bucket,
                      uint64_t key, int64_t* visits)
{
    for (int64_t current = bucket; current <= overflow_bucket; current++) {
        for (int64_t node = current; node != -1; node = s->next[node]) {
            (*visits)++;
            const int64_t size = s->sizes[node];
            if (s->max_keys[node] < key && s->next[node] != -1) continue;
            const int64_t pos = lower_bound(s, node, size, key);
            if (pos < size && slab_key(s, node, pos) == key) {
                move_entries(s, node, pos, node, pos + 1, size - pos - 1);
                s->sizes[node] = (int32_t)(size - 1);
                return 1;
            }
            if (pos < size) return 0;   /* a larger key ends the search */
        }
    }
    return 0;
}

/* CgRXuIndex._insert_one.  Returns 0 without mutating anything when the
   target node is full and the linked region has no node left to split into. */
static int insert_one(Slab* s, int64_t bucket, uint64_t key, uint32_t row, int64_t* visits)
{
    int64_t walked = 0, target = bucket;
    for (int64_t node = bucket; node != -1; node = s->next[node]) {
        walked++;
        target = node;
        if (s->max_keys[node] >= key) break;
    }
    if (s->sizes[target] >= s->capacity) {
        /* NodeStorage.split_node: the fresh node takes the upper half, the
           old maxKey and the old next pointer. */
        int64_t fresh;
        if (s->free_count > 0) fresh = s->free_nodes[--s->free_count];
        else if (s->linked_used < s->linked_capacity)
            fresh = s->num_representative + s->linked_used++;
        else return 0;
        const int64_t size = s->sizes[target];
        const int64_t half = size / 2;
        move_entries(s, fresh, 0, target, half, size - half);
        s->sizes[fresh] = (int32_t)(size - half);
        s->max_keys[fresh] = s->max_keys[target];
        s->sizes[target] = (int32_t)half;
        s->max_keys[target] = slab_key(s, target, half - 1);
        s->next[fresh] = s->next[target];
        s->next[target] = fresh;
        walked++;
        if (key > s->max_keys[target]) target = fresh;
    }
    const int64_t size = s->sizes[target];
    const int64_t pos = lower_bound(s, target, size, key);
    move_entries(s, target, pos + 1, target, pos, size - pos);
    set_entry(s, target, pos, key, row);
    s->sizes[target] = (int32_t)(size + 1);
    *visits += walked;
    return 1;
}

/* One update batch, one "thread" per touched bucket in ascending order,
   deletes before inserts (CgRXuIndex.update_batch's apply loop).
   state = [linked_used, free_count, bucket cursor, insert cursor (-1: the
   bucket's deletes are still pending), inserted, deleted]; work[b] adds
   touched bucket b's node visits.  Returns 1 when a split needs a node the
   slab does not have: state then holds the resume cursor, and the caller
   grows the slab and calls again.  Returns 0 when the batch is applied. */
int32_t apply_updates(
    int64_t num_buckets,
    const int64_t* buckets,
    const int64_t* delete_lo, const int64_t* delete_hi,
    const int64_t* insert_lo, const int64_t* insert_hi,
    const uint64_t* delete_keys,
    const uint64_t* insert_keys,
    const uint32_t* insert_rows,
    int64_t overflow_bucket,
    int32_t capacity,
    int32_t key_is_64,
    void* keys_slab, uint32_t* row_ids, int32_t* sizes,
    uint64_t* max_keys, int64_t* next_node,
    int64_t num_representative,
    int64_t linked_capacity,
    const int64_t* free_nodes,
    int64_t* state,
    int64_t* work)
{
    Slab s = {keys_slab, row_ids, sizes, max_keys, next_node, capacity,
              key_is_64 ? 8 : 4, num_representative, linked_capacity,
              state[0], free_nodes, state[1]};
    int64_t resume_insert = state[3];
    int32_t status = 0;
    int64_t b = state[2];
    for (; b < num_buckets; b++) {
        const int64_t bucket = buckets[b];
        int64_t first_insert = insert_lo[b];
        if (resume_insert >= 0) {
            first_insert = resume_insert;
            resume_insert = -1;
        } else {
            for (int64_t d = delete_lo[b]; d < delete_hi[b]; d++)
                state[5] += delete_one(&s, bucket, overflow_bucket, delete_keys[d], &work[b]);
        }
        for (int64_t i = first_insert; i < insert_hi[b]; i++) {
            if (!insert_one(&s, bucket, insert_keys[i], insert_rows[i], &work[b])) {
                state[3] = i;
                status = 1;
                break;
            }
            state[4]++;
        }
        if (status) break;
    }
    state[0] = s.linked_used;
    state[1] = s.free_count;
    state[2] = b;
    return status;
}
"""


def _cc_cache_dir() -> str:
    configured = os.environ.get("REPRO_CC_CACHE_DIR")
    if configured:
        return configured
    return os.path.join(
        tempfile.gettempdir(), f"repro-cgrx-cc-{os.getuid() if hasattr(os, 'getuid') else 0}"
    )


def _load_cc_library() -> Optional[ctypes.CDLL]:
    """Compile (once, cached by source digest) and load the C kernels."""
    compiler = (
        os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    )
    if compiler is None:
        return None
    digest = hashlib.sha256(_CC_SOURCE.encode()).hexdigest()[:16]
    directory = _cc_cache_dir()
    library_path = os.path.join(directory, f"kernels-{digest}.so")
    if not os.path.exists(library_path):
        try:
            os.makedirs(directory, exist_ok=True)
            source_path = os.path.join(directory, f"kernels-{digest}.c")
            with open(source_path, "w") as handle:
                handle.write(_CC_SOURCE)
            scratch = library_path + f".tmp{os.getpid()}"
            # No FMA contraction: every double expression must round exactly
            # like the numpy/Python reference engines on every target.
            subprocess.run(
                [
                    compiler,
                    "-O3",
                    "-ffp-contract=off",
                    "-fPIC",
                    "-shared",
                    "-o",
                    scratch,
                    source_path,
                    "-lm",
                ],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(scratch, library_path)
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        return ctypes.CDLL(library_path)
    except OSError:
        return None


def _pointer(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


#: ``BvhTables`` fields, in C declaration order: each names the
#: :class:`CompiledBvhTables` array it points into.
_TABLE_FIELDS = (
    "qbounds",
    "frame_min",
    "frame_scale",
    "node_min",
    "node_max",
    "node_left",
    "node_right",
    "node_first",
    "node_count",
    "order",
    "centroids",
    "primitive_index",
    "flipped",
)


class _BvhTablesStruct(ctypes.Structure):
    """Mirror of the kernels' ``BvhTables`` (node-table pointers)."""

    _fields_ = [(name, ctypes.c_void_p) for name in _TABLE_FIELDS]


class LocateParams(ctypes.Structure):
    """Representation parameters of :func:`locate_buckets` (``LocateParams``).

    ``column_x`` is the grid column of the y/z discovery rays (``x_max`` for
    the optimized scene, the ``-1`` marker lane for the naive one) and
    ``plane_lane_y`` the grid row of the z discovery ray; ``flips`` enables
    the back-face early exit and ``remap`` the marker-slot → bucket remap.
    """

    _fields_ = [
        ("min_rep", ctypes.c_uint64),
        ("max_rep", ctypes.c_uint64),
        ("x_bits", ctypes.c_int32),
        ("y_bits", ctypes.c_int32),
        ("z_bits", ctypes.c_int32),
        ("multi_line", ctypes.c_int32),
        ("multi_plane", ctypes.c_int32),
        ("flips", ctypes.c_int32),
        ("remap", ctypes.c_int32),
        ("y_scale", ctypes.c_double),
        ("z_scale", ctypes.c_double),
        ("column_x", ctypes.c_double),
        ("plane_lane_y", ctypes.c_double),
        ("row_marker_offset", ctypes.c_int64),
        ("plane_marker_offset", ctypes.c_int64),
    ]


def _bind_locate(library: ctypes.CDLL):
    fn = library.locate_buckets
    fn.restype = None
    fn.argtypes = [
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_double,
        ctypes.c_int64,
        ctypes.c_void_p,
        ctypes.c_int32,
        ctypes.c_void_p,
        ctypes.c_void_p,
        ctypes.c_void_p,
    ]
    return fn


def _make_cc_chain(library: ctypes.CDLL):
    fn = library.chain_walk
    fn.restype = None

    def chain_kernel(
        target64,
        start_pos,
        order_len,
        order,
        capacity,
        key_is_64,
        keys_slab,
        row_ids,
        sizes,
        max_keys,
        next_node,
        row_sum,
        matches,
        nodes_visited,
        entries,
    ):
        fn(
            ctypes.c_int64(target64.shape[0]),
            _pointer(target64),
            _pointer(start_pos),
            ctypes.c_int64(order_len),
            _pointer(order),
            ctypes.c_int32(capacity),
            ctypes.c_int32(1 if key_is_64 else 0),
            _pointer(keys_slab),
            _pointer(row_ids),
            _pointer(sizes),
            _pointer(max_keys),
            _pointer(next_node),
            _pointer(row_sum),
            _pointer(matches),
            _pointer(nodes_visited),
            _pointer(entries),
        )

    return chain_kernel


def _bind_apply(library: ctypes.CDLL):
    fn = library.apply_updates
    fn.restype = ctypes.c_int32
    fn.argtypes = (
        [ctypes.c_int64]
        + [ctypes.c_void_p] * 8
        + [ctypes.c_int64, ctypes.c_int32, ctypes.c_int32]
        + [ctypes.c_void_p] * 5
        + [ctypes.c_int64, ctypes.c_int64]
        + [ctypes.c_void_p] * 3
    )
    return fn


# --------------------------------------------------------------------------
# Shard-local arena
# --------------------------------------------------------------------------


class Arena:
    """One reusable byte buffer holding a shard's compiled-tier tables.

    ``begin(total)`` opens a packing epoch: the cursor resets and the backing
    buffer grows geometrically only when the new tables need more room, so
    steady-state rebuilds (refits, compactions) write in place with zero
    allocation.  ``alloc`` carves 64-byte-aligned typed views out of the
    buffer; views from the previous epoch are invalidated by design (the
    tables they belong to are rebuilt in the same pass).
    """

    ALIGNMENT = 64

    def __init__(self) -> None:
        self._buffer = np.empty(0, dtype=np.uint8)
        self._cursor = 0
        #: Number of packing epochs (diagnostics; in-place rebuilds keep the
        #: buffer identity while this climbs).
        self.rebuilds = 0

    @classmethod
    def aligned(cls, nbytes: int) -> int:
        """``nbytes`` rounded up to the arena alignment."""
        return (int(nbytes) + cls.ALIGNMENT - 1) // cls.ALIGNMENT * cls.ALIGNMENT

    @property
    def capacity_bytes(self) -> int:
        """Bytes reserved by the backing buffer."""
        return int(self._buffer.nbytes)

    @property
    def used_bytes(self) -> int:
        """Bytes consumed by the current epoch's tables."""
        return int(self._cursor)

    def begin(self, total_bytes: int) -> None:
        """Open a packing epoch with room for ``total_bytes`` of tables."""
        total_bytes = int(total_bytes)
        if total_bytes > self._buffer.nbytes:
            new_capacity = max(total_bytes, 2 * int(self._buffer.nbytes))
            self._buffer = np.empty(new_capacity, dtype=np.uint8)
        self._cursor = 0
        self.rebuilds += 1

    def alloc(self, shape, dtype) -> np.ndarray:
        """Carve an aligned, contiguous ``(shape, dtype)`` view off the buffer."""
        dtype = np.dtype(dtype)
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        nbytes = count * dtype.itemsize
        start = self.aligned(self._cursor)
        end = start + nbytes
        if end > self._buffer.nbytes:
            raise ValueError(
                f"arena overflow: need {end} bytes, capacity {self._buffer.nbytes} "
                "(begin() was opened with too small a total)"
            )
        view = self._buffer[start:end].view(dtype).reshape(shape)
        self._cursor = end
        return view


# --------------------------------------------------------------------------
# Quantized cache-blocked node tables
# --------------------------------------------------------------------------


def _quantize_outward(
    node_min64: np.ndarray, node_max64: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quantize AABBs to uint16 against the tree frame, rounding outward.

    Returns ``(qlo, qhi, frame_min, frame_scale)`` satisfying, in the exact
    double arithmetic the kernels use,

        ``frame_min + qlo * scale  <=  node_min64``  and
        ``frame_min + qhi * scale  >=  node_max64``

    element-wise — the property that makes the quantized prefilter
    conservative.  The fixup loops run the kernel's own dequantization
    expression, so no rounding-mode reasoning is left to chance; both loops
    terminate because the clip boundaries (0 and 65535) satisfy the
    inequality by construction of the frame.
    """
    frame_min = node_min64.min(axis=0)
    frame_max = node_max64.max(axis=0)
    extent = frame_max - frame_min
    scale = extent / float(_QUANT_STEPS)
    scale = np.where(np.isfinite(scale) & (scale > 0.0), scale, 1.0)

    qlo = np.clip(np.floor((node_min64 - frame_min) / scale), 0, 65535).astype(np.int64)
    while True:
        bad = (frame_min + qlo.astype(np.float64) * scale > node_min64) & (qlo > 0)
        if not bad.any():
            break
        qlo[bad] -= 1

    qhi = np.clip(np.ceil((node_max64 - frame_min) / scale), 0, 65535).astype(np.int64)
    while True:
        bad = (frame_min + qhi.astype(np.float64) * scale < node_max64) & (qhi < 65535)
        if not bad.any():
            break
        qhi[bad] += 1

    return qlo.astype(np.uint16), qhi.astype(np.uint16), frame_min, scale


class CompiledBvhTables:
    """Arena-packed SoA node tables consumed by the traversal megakernel.

    Layout per node: a 12-byte quantized record (``uint16[6]``: lo.xyz,
    hi.xyz) scanned first, the exact ``float32`` bounds touched only on
    prefilter pass, and ``int32`` topology.  Centroids stay ``float64`` —
    the scalar oracle compares exact double centres, so narrowing them would
    break parity.
    """

    def __init__(self, bvh: Bvh, arena: Arena) -> None:
        self.arena = arena
        self.stack_depth = (bvh.depth() + 3) if bvh.num_nodes else 0
        self.usable = 0 < bvh.num_nodes and self.stack_depth <= MAX_STACK
        if not self.usable:
            return

        num_nodes = bvh.num_nodes
        num_slots = int(bvh.primitive_order.shape[0])
        align = Arena.aligned
        total = (
            align(num_nodes * 6 * 2)  # qbounds
            + 2 * align(num_nodes * 3 * 4)  # node_min / node_max
            + 4 * align(num_nodes * 4)  # left / right / first / count
            + align(num_slots * 4)  # primitive order
            + align(bvh.scene.centres.shape[0] * 3 * 8)  # centroids
        )
        arena.begin(total)

        node_min64 = bvh.node_min.astype(np.float64)
        node_max64 = bvh.node_max.astype(np.float64)
        qlo, qhi, self.frame_min, self.frame_scale = _quantize_outward(node_min64, node_max64)

        self.qbounds = arena.alloc((num_nodes, 6), np.uint16)
        self.qbounds[:, :3] = qlo
        self.qbounds[:, 3:] = qhi
        self.node_min = arena.alloc((num_nodes, 3), np.float32)
        np.copyto(self.node_min, bvh.node_min)
        self.node_max = arena.alloc((num_nodes, 3), np.float32)
        np.copyto(self.node_max, bvh.node_max)
        self.node_left = arena.alloc(num_nodes, np.int32)
        np.copyto(self.node_left, bvh.node_left)
        self.node_right = arena.alloc(num_nodes, np.int32)
        np.copyto(self.node_right, bvh.node_right)
        self.node_first = arena.alloc(num_nodes, np.int32)
        np.copyto(self.node_first, bvh.node_first)
        self.node_count = arena.alloc(num_nodes, np.int32)
        np.copyto(self.node_count, bvh.node_count)
        self.order = arena.alloc(num_slots, np.int32)
        np.copyto(self.order, bvh.primitive_order)
        self.centroids = arena.alloc((bvh.scene.centres.shape[0], 3), np.float64)
        np.copyto(self.centroids, bvh.scene.centres)
        # Per-triangle hit attributes, read only on hits (outside the arena,
        # which holds the traversal tables).
        self.primitive_index = np.ascontiguousarray(bvh.scene.primitive_indices, dtype=np.int64)
        self.flipped = np.ascontiguousarray(bvh.scene.flipped, dtype=np.uint8)
        #: The kernels' ``BvhTables`` struct, built once: the arrays it points
        #: into are assigned only here and live as long as the tables.
        self.struct = _BvhTablesStruct(*(array.ctypes.data for array in self.table_arrays()))
        self.address = ctypes.addressof(self.struct)

    def table_arrays(self) -> Tuple[np.ndarray, ...]:
        """The arrays behind :attr:`struct`, in ``BvhTables`` field order."""
        return tuple(getattr(self, name) for name in _TABLE_FIELDS)

    def verify_conservative(self, bvh: Bvh) -> bool:
        """Check the outward-rounding invariant (used by the property test)."""
        lo = self.frame_min + self.qbounds[:, :3].astype(np.float64) * self.frame_scale
        hi = self.frame_min + self.qbounds[:, 3:].astype(np.float64) * self.frame_scale
        return bool(
            np.all(lo <= bvh.node_min.astype(np.float64))
            and np.all(hi >= bvh.node_max.astype(np.float64))
        )


# --------------------------------------------------------------------------
# Fused bucket location
# --------------------------------------------------------------------------


def locate_buckets(
    tables: CompiledBvhTables,
    params: LocateParams,
    keys: np.ndarray,
    tolerance: float,
    stats,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Bucket ids of a whole key batch in one kernel call.

    ``tables`` must be :attr:`~CompiledBvhTables.usable`.  Returns
    ``(bucket_ids, nodes_visited)`` — ``-1`` (MISS) above the largest
    representative, ``0`` below the smallest — or ``None`` (caller falls back
    to the vector engine) when no backend is available.  ``stats``
    accumulates the ray totals, and the profiler sees one
    ``compiled_axis_closest`` launch per non-empty ray stage, exactly as the
    staged engines report them.
    """
    kernels = backend_kernels()
    if kernels is None:
        return None
    if keys.dtype != np.uint32 and keys.dtype != np.uint64:
        keys = keys.astype(np.uint64)
    keys = np.ascontiguousarray(keys)
    num_keys = int(keys.shape[0])
    bucket_ids = np.empty(num_keys, dtype=np.int64)
    nodes = np.empty(num_keys, dtype=np.int64)
    stages = np.empty((LOCATE_STAGES, 5), dtype=np.int64)
    kernels[0](
        tables.address,
        ctypes.addressof(params),
        tolerance,
        num_keys,
        keys.ctypes.data,
        keys.dtype.itemsize == 8,
        bucket_ids.ctypes.data,
        nodes.ctypes.data,
        stages.ctypes.data,
    )

    # Per-stage columns: rays, hits, deepest ray's visits, visits, tri tests.
    rays, hits, _, total_nodes, tri_tests = stages.sum(axis=0).tolist()
    stats.rays_cast += rays
    stats.nodes_visited += total_nodes
    stats.aabb_tests += total_nodes
    stats.triangle_tests += tri_tests
    stats.hits += hits
    stats.misses += rays - hits

    # Same occupancy/node-visit series the staged engines feed, one launch per
    # stage: a megakernel "iteration" is the deepest per-ray visit count (the
    # lockstep step count the vector engine would have needed).
    prof = _profile.profiler()
    if prof is not None:
        for stage_rays, _, max_visits, stage_nodes, _ in stages.tolist():
            if stage_rays:
                prof.observe_wavefront(
                    "compiled_axis_closest", max_visits, stage_rays, stage_nodes
                )
    return bucket_ids, nodes
