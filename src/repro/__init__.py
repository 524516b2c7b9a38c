"""repro: a software reproduction of cgRX (ICDE 2025).

"More Bang For Your Buck(et): Fast and Space-efficient Hardware-accelerated
Coarse-granular Indexing on GPUs" builds a GPU-resident database index on top
of NVIDIA's raytracing cores.  This package reproduces the system - and every
substrate it depends on - in pure Python/numpy:

* :mod:`repro.rtx` - a software OptiX: triangle scenes, BVH construction,
  closest-hit traversal, refit-based updates,
* :mod:`repro.gpu` - a GPU execution and cost model (devices, memory
  footprints, SIMT batching, radix sort),
* :mod:`repro.core` - the paper's contribution: the coarse-granular index
  cgRX (naive and optimized representations) and its updatable variant cgRXu,
* :mod:`repro.baselines` - the evaluation baselines RX, SA, B+, HT, RTScan
  and FullScan,
* :mod:`repro.workloads` - key-set, lookup and update-batch generators, and
* :mod:`repro.bench` - the experiment harness regenerating the paper's
  figures and tables.

Quickstart::

    import numpy as np
    from repro import CgRXIndex, CgRXConfig

    keys = np.random.default_rng(0).choice(2**32, size=1 << 14, replace=False)
    index = CgRXIndex(keys, config=CgRXConfig(bucket_size=32, key_bits=64))
    result = index.point_lookup_batch(keys[:1024])
    print(result.hits, "hits out of", result.num_lookups)
"""

from repro.core import CgRXConfig, CgRXIndex, CgRXuConfig, CgRXuIndex
from repro.baselines import (
    BPlusTreeIndex,
    FullScanIndex,
    GpuIndex,
    HashTableIndex,
    RTScanIndex,
    RXIndex,
    SortedArrayIndex,
)
from repro.gpu import RTX_4090, RTX_A6000, CostModel, GpuDevice

__version__ = "1.8.0"

__all__ = [
    "CgRXConfig",
    "CgRXIndex",
    "CgRXuConfig",
    "CgRXuIndex",
    "GpuIndex",
    "RXIndex",
    "SortedArrayIndex",
    "BPlusTreeIndex",
    "HashTableIndex",
    "RTScanIndex",
    "FullScanIndex",
    "GpuDevice",
    "RTX_4090",
    "RTX_A6000",
    "CostModel",
    "__version__",
]
