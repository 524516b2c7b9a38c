"""Compiled hot-path tier: fused traversal megakernel over quantized tables.

The vector engine (:mod:`repro.rtx.wavefront`) advances every ray of a batch
in lockstep, paying ~25 numpy dispatches per BVH level plus float64-promoted
copies of every node table.  This module removes both costs for the
axis-aligned closest-hit path — the one the indexes fire millions of times:

* **Megakernel.**  One compiled loop per ray runs traversal-pop, slab test,
  leaf intersection and stack-push back to back (no per-step numpy dispatch,
  no masked re-gathers).
* **Quantized cache-blocked node tables.**  Per node, a 12-byte record of
  uint16 AABB bounds quantized against a per-tree frame, rounded *outward* so
  a quantized reject implies the exact reject.  The kernel tests the 12-byte
  record first and only touches the float32 bounds (promoted to double
  in-register, exactly like the scalar oracle's ``astype(float)``) when the
  cheap test passes — traversal may *consider* a superset of nodes at the
  prefilter but visits, counters and hit results stay bit-identical to the
  scalar path.
* **Shard-local arenas.**  All tables live in one reusable byte buffer that
  is rebuilt in place across build/refit epochs instead of reallocated.

Three interchangeable backends provide the kernels, resolved lazily:

``numba``
    ``@njit`` versions of the reference kernels (installed via the
    ``[compiled]`` extra).
``cc``
    The same kernels as C, compiled at first use with the system C compiler
    into a cached shared library and bound through :mod:`ctypes`.  No Python
    dependency beyond the standard library.
``python``
    The un-jitted reference kernels (selectable only through
    ``REPRO_COMPILED_BACKEND`` — slow, used to test kernel logic).

When no backend is available, callers degrade to the vector engine and a
telemetry gauge records the fallback (see
:func:`repro.core.config.resolve_engine`).

Bit-parity contract
-------------------

The megakernel follows the scalar ``_trace_axis`` stack discipline exactly
(root first, far child pushed before near, visit counted at pop *before* any
test), performs every accepted comparison in IEEE double precision with the
same operand expressions, and applies the same first-minimum tie-break.  Hit
records, per-ray node-visit counts and :class:`~repro.rtx.traversal.RayStats`
totals are therefore identical to the scalar oracle — pinned by the test
suite together with a conservativeness property test for the quantized
bounds.
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
from repro.rtx.wavefront import AxisClosestBatch, SoaBvh, _PERP_AXES

#: Fixed traversal stack capacity of the compiled kernels.  Trees deeper than
#: this fall back to the vector engine (never hit in practice: the stack need
#: is ``depth + 3`` and the builder produces balanced trees).
MAX_STACK = 512

#: Quantization grid: bounds map onto ``[0, 65534]`` with one step of slack so
#: the outward fixup never runs out of headroom at the top of the range.
_QUANT_STEPS = 65534

# --------------------------------------------------------------------------
# Backend resolution
# --------------------------------------------------------------------------

#: Resolved backend name (``"numba"`` / ``"cc"`` / ``"python"``) or ``None``
#: when the compiled tier is unavailable.  ``"unresolved"`` until first probe.
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

    Honours ``REPRO_COMPILED_BACKEND`` (``numba`` / ``cc`` / ``python`` /
    ``none``); otherwise prefers numba, then the system C compiler.
    """
    global _BACKEND, _KERNELS
    if _BACKEND != "unresolved":
        return _BACKEND

    forced = os.environ.get("REPRO_COMPILED_BACKEND", "").strip().lower()
    if forced == "none":
        _BACKEND = None
        return None
    candidates = [forced] if forced in ("numba", "cc", "python") else ["numba", "cc"]

    for name in candidates:
        kernels = _load_backend(name)
        if kernels is not None:
            _BACKEND = name
            _KERNELS = kernels
            return name
    _BACKEND = None
    return None


def backend_kernels() -> Optional[Tuple]:
    """``(axis_kernel, chain_kernel)`` for the active backend, or ``None``."""
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


def _load_backend(name: str) -> Optional[Tuple]:
    if name == "python":
        return (_axis_kernel_py, _chain_kernel_py)
    if name == "numba":
        try:
            import numba
        except ImportError:
            return None
        # Serial by design: rays are independent, so ``parallel=True`` would
        # also be deterministic, but serial keeps the first-call compile cheap
        # and the profiling counters trivially comparable.
        jit = numba.njit(cache=False, fastmath=False)
        return (jit(_axis_kernel_py), jit(_chain_kernel_py))
    if name == "cc":
        library = _load_cc_library()
        if library is None:
            return None
        return (_make_cc_axis(library), _make_cc_chain(library))
    return None


# --------------------------------------------------------------------------
# Reference kernels (numba source + pure-Python backend)
# --------------------------------------------------------------------------


def _axis_kernel_py(
    axis,
    perp_a,
    perp_b,
    origin_axis,
    coord_a,
    coord_b,
    best_t,
    tolerance,
    qbounds,
    frame_min,
    frame_scale,
    node_min,
    node_max,
    node_left,
    node_right,
    node_first,
    node_count,
    order,
    centroids,
    hit,
    best_tri,
    nodes_visited,
    tri_tests,
):
    """Fused axis-aligned closest-hit traversal (reference implementation).

    Mirrors ``TraversalEngine._trace_axis`` statement for statement; the
    quantized prefilter in front of each exact test only rejects nodes the
    exact test would reject (bounds are dequantized outward), so counters and
    results are unchanged.
    """
    num_rays = origin_axis.shape[0]
    fa = frame_min[perp_a]
    sa = frame_scale[perp_a]
    fb = frame_min[perp_b]
    sb = frame_scale[perp_b]
    fx = frame_min[axis]
    sx = frame_scale[axis]
    stack = np.empty(MAX_STACK, dtype=np.int32)
    for r in range(num_rays):
        o = origin_axis[r]
        ca = coord_a[r]
        cb = coord_b[r]
        bt = best_t[r]
        pointer = 0
        stack[pointer] = 0
        pointer += 1
        visits = np.int64(0)
        tests = np.int64(0)
        tri_best = np.int64(0)
        has = False
        while pointer > 0:
            pointer -= 1
            n = stack[pointer]
            visits += 1
            q = qbounds[n]
            if ca < fa + q[perp_a] * sa - tolerance or ca > fa + q[3 + perp_a] * sa + tolerance:
                continue
            if cb < fb + q[perp_b] * sb - tolerance or cb > fb + q[3 + perp_b] * sb + tolerance:
                continue
            if fx + q[3 + axis] * sx < o or fx + q[axis] * sx > o + bt:
                continue
            mn = node_min[n]
            mx = node_max[n]
            if ca < mn[perp_a] - tolerance or ca > mx[perp_a] + tolerance:
                continue
            if cb < mn[perp_b] - tolerance or cb > mx[perp_b] + tolerance:
                continue
            if mx[axis] < o or mn[axis] > o + bt:
                continue
            count = node_count[n]
            if count > 0:
                first = node_first[n]
                tests += count
                for slot in range(first, first + count):
                    tri = order[slot]
                    centre = centroids[tri]
                    if abs(centre[perp_a] - ca) > tolerance:
                        continue
                    if abs(centre[perp_b] - cb) > tolerance:
                        continue
                    t = centre[axis] - o
                    if t < 0.0 or t > bt:
                        continue
                    if not has or t < bt:
                        has = True
                        bt = t
                        tri_best = np.int64(tri)
            else:
                left = node_left[n]
                right = node_right[n]
                if node_min[left, axis] <= node_min[right, axis]:
                    stack[pointer] = right
                    stack[pointer + 1] = left
                else:
                    stack[pointer] = left
                    stack[pointer + 1] = right
                pointer += 2
        hit[r] = 1 if has else 0
        best_t[r] = bt
        best_tri[r] = tri_best
        nodes_visited[r] = visits
        tri_tests[r] = tests


def _chain_kernel_py(
    target64,
    start_pos,
    order_len,
    order,
    capacity,
    key_is_64,
    keys64,
    keys32,
    row_ids,
    sizes,
    max_keys,
    next_node,
    row_sum,
    matches,
    nodes_visited,
    entries,
):
    """Fused node-chain point-lookup walk (reference implementation).

    Mirrors ``CgRXuIndex._collect`` over the flattened ``(order, starts)``
    tables: the cross-bucket continuation is the same ``position += 1`` step.
    ``keys64`` / ``keys32`` alias the same node-key slab; ``key_is_64``
    selects which typed view the comparisons use.
    """
    num_keys = target64.shape[0]
    for k in range(num_keys):
        target = target64[k]
        target32 = np.uint32(target)
        pos = start_pos[k]
        visits = np.int64(0)
        touched = np.int64(0)
        matched = np.int64(0)
        rsum = np.int64(0)
        while pos < order_len:
            node = order[pos]
            visits += 1
            size = sizes[node]
            if max_keys[node] < target and next_node[node] != -1:
                pos += 1
                continue
            left = np.int64(0)
            right = np.int64(0)
            if key_is_64:
                for i in range(size):
                    value = keys64[node, i]
                    if value < target:
                        left += 1
                    if value <= target:
                        right += 1
            else:
                for i in range(size):
                    value32 = keys32[node, i]
                    if value32 < target32:
                        left += 1
                    if value32 <= target32:
                        right += 1
            span = right - left
            touched += span if span > 1 else 1
            if span > 0:
                for i in range(left, right):
                    rsum += row_ids[node, i]
                matched += span
            if right < size:
                break
            pos += 1
        row_sum[k] = rsum
        matches[k] = matched
        nodes_visited[k] = visits
        entries[k] = touched


# --------------------------------------------------------------------------
# C backend
# --------------------------------------------------------------------------

_CC_SOURCE = r"""
#include <math.h>
#include <stdint.h>

#define MAX_STACK 512

void trace_axis_closest(
    int32_t axis, int32_t perp_a, int32_t perp_b,
    int64_t num_rays,
    const double* origin_axis, const double* coord_a, const double* coord_b,
    double* best_t,
    double tolerance,
    const uint16_t* qbounds,
    const double* frame_min, const double* frame_scale,
    const float* node_min, const float* node_max,
    const int32_t* node_left, const int32_t* node_right,
    const int32_t* node_first, const int32_t* node_count,
    const int32_t* order,
    const double* centroids,
    uint8_t* hit, int64_t* best_tri,
    int64_t* nodes_visited, int64_t* tri_tests)
{
    const double fa = frame_min[perp_a], sa = frame_scale[perp_a];
    const double fb = frame_min[perp_b], sb = frame_scale[perp_b];
    const double fx = frame_min[axis],  sx = frame_scale[axis];
    for (int64_t r = 0; r < num_rays; r++) {
        int32_t stack[MAX_STACK];
        int32_t sp = 0;
        stack[sp++] = 0;
        const double o = origin_axis[r];
        const double ca = coord_a[r];
        const double cb = coord_b[r];
        double bt = best_t[r];
        int64_t visits = 0, tests = 0, tri_best = 0;
        int has = 0;
        while (sp > 0) {
            const int32_t n = stack[--sp];
            visits++;
            const uint16_t* q = qbounds + 6 * (int64_t)n;
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
            const float* mn = node_min + 3 * (int64_t)n;
            const float* mx = node_max + 3 * (int64_t)n;
            if (ca < (double)mn[perp_a] - tolerance || ca > (double)mx[perp_a] + tolerance)
                continue;
            if (cb < (double)mn[perp_b] - tolerance || cb > (double)mx[perp_b] + tolerance)
                continue;
            if ((double)mx[axis] < o || (double)mn[axis] > o + bt)
                continue;
            const int32_t count = node_count[n];
            if (count > 0) {
                const int32_t first = node_first[n];
                tests += count;
                for (int32_t s = first; s < first + count; s++) {
                    const int64_t tri = (int64_t)order[s];
                    const double* c = centroids + 3 * tri;
                    if (fabs(c[perp_a] - ca) > tolerance) continue;
                    if (fabs(c[perp_b] - cb) > tolerance) continue;
                    const double t = c[axis] - o;
                    if (t < 0.0 || t > bt) continue;
                    if (!has || t < bt) { has = 1; bt = t; tri_best = tri; }
                }
            } else {
                const int32_t left = node_left[n];
                const int32_t right = node_right[n];
                if ((double)node_min[3 * (int64_t)left + axis] <=
                    (double)node_min[3 * (int64_t)right + axis]) {
                    stack[sp++] = right;
                    stack[sp++] = left;
                } else {
                    stack[sp++] = left;
                    stack[sp++] = right;
                }
            }
        }
        hit[r] = (uint8_t)has;
        best_t[r] = bt;
        best_tri[r] = tri_best;
        nodes_visited[r] = visits;
        tri_tests[r] = tests;
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
            subprocess.run(
                [compiler, "-O3", "-fPIC", "-shared", "-o", scratch, source_path, "-lm"],
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


def _make_cc_axis(library: ctypes.CDLL):
    """The C axis kernel; its 11 node-table arguments arrive as ready-made
    pointers (:meth:`CompiledBvhTables.kernel_args`)."""
    fn = library.trace_axis_closest
    fn.restype = None

    def axis_kernel(
        axis,
        perp_a,
        perp_b,
        origin_axis,
        coord_a,
        coord_b,
        best_t,
        tolerance,
        qbounds,
        frame_min,
        frame_scale,
        node_min,
        node_max,
        node_left,
        node_right,
        node_first,
        node_count,
        order,
        centroids,
        hit,
        best_tri,
        nodes_visited,
        tri_tests,
    ):
        fn(
            ctypes.c_int32(axis),
            ctypes.c_int32(perp_a),
            ctypes.c_int32(perp_b),
            ctypes.c_int64(origin_axis.shape[0]),
            _pointer(origin_axis),
            _pointer(coord_a),
            _pointer(coord_b),
            _pointer(best_t),
            ctypes.c_double(tolerance),
            qbounds,
            frame_min,
            frame_scale,
            node_min,
            node_max,
            node_left,
            node_right,
            node_first,
            node_count,
            order,
            centroids,
            _pointer(hit),
            _pointer(best_tri),
            _pointer(nodes_visited),
            _pointer(tri_tests),
        )

    return axis_kernel


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
        keys64,
        keys32,
        row_ids,
        sizes,
        max_keys,
        next_node,
        row_sum,
        matches,
        nodes_visited,
        entries,
    ):
        keys_slab = keys64 if key_is_64 else keys32
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
        self._pointers: Optional[Tuple[ctypes.c_void_p, ...]] = None
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

    def kernel_args(self, pointers: bool) -> Tuple:
        """The 11 node-table arguments of the axis kernel, in kernel order.

        With ``pointers`` (the C backend) they are ctypes pointers, built on
        the first launch and reused: the arrays are assigned only in
        ``__init__`` and live as long as the tables.
        """
        arrays = (
            self.qbounds,
            self.frame_min,
            self.frame_scale,
            self.node_min,
            self.node_max,
            self.node_left,
            self.node_right,
            self.node_first,
            self.node_count,
            self.order,
            self.centroids,
        )
        if not pointers:
            return arrays
        if self._pointers is None:
            self._pointers = tuple(_pointer(array) for array in arrays)
        return self._pointers

    def verify_conservative(self, bvh: Bvh) -> bool:
        """Check the outward-rounding invariant (used by the property test)."""
        lo = self.frame_min + self.qbounds[:, :3].astype(np.float64) * self.frame_scale
        hi = self.frame_min + self.qbounds[:, 3:].astype(np.float64) * self.frame_scale
        return bool(
            np.all(lo <= bvh.node_min.astype(np.float64))
            and np.all(hi >= bvh.node_max.astype(np.float64))
        )


# --------------------------------------------------------------------------
# Megakernel entry
# --------------------------------------------------------------------------


def trace_axis_closest_batch(
    soa: SoaBvh,
    tables: CompiledBvhTables,
    axis: int,
    origins: np.ndarray,
    tmax: np.ndarray,
    tolerance: float,
    stats,
) -> Optional[AxisClosestBatch]:
    """Closest hits of a +``axis`` ray batch through the compiled megakernel.

    Returns ``None`` (caller falls back to the vector engine) when no backend
    is available or the tables are unusable.  Results, per-ray node visits
    and ``stats`` totals are bit-identical to the scalar oracle.
    """
    kernels = backend_kernels()
    if kernels is None or not tables.usable:
        return None
    axis_kernel = kernels[0]

    origins = np.asarray(origins, dtype=np.float64)
    num_rays = int(origins.shape[0])
    perp_a, perp_b = _PERP_AXES[axis]
    origin_axis = np.ascontiguousarray(origins[:, axis])
    coord_a = np.ascontiguousarray(origins[:, perp_a])
    coord_b = np.ascontiguousarray(origins[:, perp_b])
    best_t = np.ascontiguousarray(tmax, dtype=np.float64).copy()

    hit = np.zeros(num_rays, dtype=np.uint8)
    best_tri = np.zeros(num_rays, dtype=np.int64)
    nodes_visited = np.zeros(num_rays, dtype=np.int64)
    tri_tests = np.zeros(num_rays, dtype=np.int64)

    axis_kernel(
        axis,
        perp_a,
        perp_b,
        origin_axis,
        coord_a,
        coord_b,
        best_t,
        float(tolerance),
        *tables.kernel_args(pointers=available_backend() == "cc"),
        hit,
        best_tri,
        nodes_visited,
        tri_tests,
    )

    has_best = hit.astype(bool)
    stats.rays_cast += num_rays
    total_nodes = int(nodes_visited.sum())
    stats.nodes_visited += total_nodes
    stats.aabb_tests += total_nodes
    stats.triangle_tests += int(tri_tests.sum())
    hits = int(has_best.sum())
    stats.hits += hits
    stats.misses += num_rays - hits

    # Same occupancy/node-visit series the wavefront kernels feed: a
    # megakernel "iteration" is the deepest per-ray visit count (the lockstep
    # step count the vector engine would have needed).
    prof = _profile.profiler()
    if prof is not None:
        iterations = int(nodes_visited.max()) if num_rays else 0
        prof.observe_wavefront("compiled_axis_closest", iterations, num_rays, total_nodes)

    point = np.zeros((num_rays, 3), dtype=np.float32)
    if hits:
        point[has_best] = soa.centroids[best_tri[has_best]].astype(np.float32)
    return AxisClosestBatch(
        hit=has_best,
        t=best_t,
        primitive_index=np.where(has_best, soa.primitive_indices[best_tri], -1).astype(np.int64),
        front_face=np.where(has_best, ~soa.flipped[best_tri], True),
        point=point,
        nodes_visited=nodes_visited,
    )
