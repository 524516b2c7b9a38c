"""The paper's figures are independent of the batch engine.

Every figure is a cost-model output over the indexes' answers and kernel
counters, and those must be byte-identical under ``scalar``, ``vector`` and
``compiled``.  The full-size figures are pinned as ``BENCH_figure_*.json``
(regenerated by ``python -m repro.bench.experiments <name> --json``); here
shrunken runs of the fast figures, and of Figure 18's update waves, are
regenerated under every engine and compared document for document.
"""

from __future__ import annotations

import pytest

from repro.bench import experiments
from repro.bench.harness import cgrx_factory, cgrxu_factory, engine_override, rx_factory
from repro.workloads.keygen import generate_keys

ENGINES = ("scalar", "vector", "compiled")

#: Figure -> (experiment function, shrunken parameters).
FIGURES = {
    "figure_9": (
        experiments.figure_09_key_mapping_scaling,
        dict(num_keys=1 << 12, num_lookups=1 << 9),
    ),
    "figure_15": (
        experiments.figure_15_batch_size,
        dict(num_keys=1 << 12, batch_sizes=(1 << 6, 1 << 8, 1 << 10), saturation_threads=1 << 8),
    ),
    "figure_16": (experiments.figure_16_hit_ratio, dict(num_keys=1 << 12, num_lookups=1 << 9)),
    "figure_17": (experiments.figure_17_lookup_skew, dict(num_keys=1 << 12, num_lookups=1 << 9)),
    # Three insert waves grow cgRXu's linked slab in the middle of a batch;
    # the delete waves then drain chains across bucket boundaries.
    "figure_18": (
        experiments.figure_18_updates,
        dict(num_keys=1 << 11, num_lookups=1 << 8, num_insert_waves=3, num_delete_waves=3),
    ),
}


@pytest.mark.parametrize("name", sorted(FIGURES))
def test_figure_rows_identical_under_every_engine(name):
    function, parameters = FIGURES[name]
    documents = {}
    for engine in ENGINES:
        with engine_override(engine):
            documents[engine] = function(**parameters).to_json()
    assert documents["vector"] == documents["scalar"]
    assert documents["compiled"] == documents["scalar"]


def test_engine_override_reaches_every_engine_aware_factory():
    keyset = generate_keys(256, uniformity=0.5, key_bits=32, seed=3)
    with engine_override("scalar"):
        assert cgrx_factory()(keyset).config.engine == "scalar"
        assert cgrxu_factory()(keyset).config.engine == "scalar"
        assert rx_factory()(keyset).engine == "scalar"
        # An explicit engine keyword keeps precedence over the override.
        assert cgrxu_factory(engine="vector")(keyset).config.engine == "vector"
    assert cgrxu_factory()(keyset).config.engine == "vector"
