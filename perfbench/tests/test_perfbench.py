"""Tests of the benchmark's own machinery: ledger arithmetic, oracle, seeded inputs.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH, BENCH.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from ledger import ROOT, Ledger  # noqa: E402
from oracle import Checks, SortedOracle  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def read(self):
        return self.now

    def advance(self, ns):
        self.now += ns


CLOCK = FakeClock()


class Inner:
    def work(self):
        CLOCK.advance(4)
        self.helper()
        return "inner"

    def helper(self):
        CLOCK.advance(1)


class Outer:
    def run(self):
        CLOCK.advance(3)
        Inner().work()
        CLOCK.advance(2)
        return "outer"


SYNTHETIC_LAYERS = {
    "outer": [(__name__, ("Outer",), None)],
    "inner": [(__name__, ("Inner",), None)],
}


def test_ledger_self_time_of_nested_calls():
    ledger = Ledger(clock=CLOCK.read)
    original = Inner.work
    ledger.install(SYNTHETIC_LAYERS)
    try:
        # Outside a root span nothing is traced.
        Outer().run()
        assert ledger.total_ns == 0 and not ledger.calls
        assert ledger.root(Outer().run) == "outer"
        CLOCK.advance(7)  # between root spans: not part of the total
        assert ledger.root(Inner().work) == "inner"
    finally:
        ledger.restore()
    assert Inner.work is original

    # Outer: 3 + 2 of its own; Inner: work 4 + helper 1 (same layer, one span).
    assert ledger.self_ns["outer"] == 5
    assert ledger.self_ns["inner"] == 5 + 5
    assert ledger.inclusive_ns["outer"] == 10
    assert ledger.calls == {ROOT: 2, "outer": 1, "inner": 2}
    assert ledger.total_ns == 15
    assert ledger.self_ns[ROOT] == 0
    assert sum(ledger.self_ns.values()) == ledger.total_ns
    assert ledger.edge_calls("outer", "inner") == 1
    assert ledger.edge_calls(ROOT, "inner", ("work",)) == 1

    report = ledger.layer_report(("outer", "inner"), ops=5)
    assert report["outer.self_us_per_op"] == pytest.approx(5 / 1e3 / 5)
    assert report["inner.calls_per_op"] == pytest.approx(2 / 5)
    assert report["ledger.other_frac"] == 0.0


def test_ledger_observer_sees_arguments_and_result():
    ledger = Ledger(clock=CLOCK.read)
    seen = []
    ledger.observers[("inner", "work")] = lambda led, args, result: seen.append(
        (type(args[0]).__name__, result)
    )
    ledger.install(SYNTHETIC_LAYERS)
    try:
        ledger.root(Outer().run)
    finally:
        ledger.restore()
    assert seen == [("Inner", "inner")]


def _oracle():
    keys = np.array([50, 10, 40, 20, 30], dtype=np.uint64)
    rows = np.array([4, 0, 3, 1, 2], dtype=np.uint32)
    return SortedOracle(keys, rows)


def test_oracle_catches_a_corrupted_point_answer():
    oracle = _oracle()
    probe = np.array([10, 11, 50, 30, 99], dtype=np.uint64)
    rows, counts = oracle.point(probe)
    assert rows.tolist() == [0, -1, 4, 2, -1]
    assert counts.tolist() == [1, 0, 1, 1, 0]

    checks = Checks()
    checks.point_answers("point_answers", oracle, probe, (rows, counts))
    assert checks.correct and checks.attempted == 5

    corrupted = rows.copy()
    corrupted[2] = 3
    checks.point_answers("point_answers", oracle, probe, (corrupted, counts))
    assert not checks.correct
    assert checks.failures == {"point_answers": 1}

    masked = Checks()
    shed = np.zeros(5, dtype=bool)
    shed[0] = True
    masked.point_answers("point_answers", oracle, probe, (rows, counts), masks=(shed, None))
    assert masked.failed == 1


def test_oracle_catches_a_corrupted_range_answer():
    oracle = _oracle()
    lows = np.array([10, 25, 60], dtype=np.uint64)
    highs = np.array([30, 50, 70], dtype=np.uint64)
    answer = [np.array([1, 0, 2]), np.array([2, 3, 4]), np.array([], dtype=np.int64)]
    checks = Checks()
    checks.range_answers("range_answers", oracle, lows, highs, answer)
    assert checks.correct, checks.summary()

    answer[1] = np.array([2, 3, 0])
    checks.range_answers("range_answers", oracle, lows, highs, answer)
    assert checks.failures == {"range_answers": 1}


def test_oracle_tracks_updates_and_catches_a_lost_write():
    oracle = _oracle()
    oracle.apply(
        insert_keys=np.array([25], dtype=np.uint64),
        insert_row_ids=np.array([7], dtype=np.uint32),
        delete_keys=np.array([40], dtype=np.uint64),
    )
    keys, rows = oracle.entries()
    assert keys.tolist() == [10, 20, 25, 30, 50]
    assert rows.tolist() == [0, 1, 7, 2, 4]

    checks = Checks()
    checks.entries("export_entries", oracle, keys[::-1], rows[::-1], attempted=2)
    assert checks.correct
    checks.entries("export_entries", oracle, keys[:-1], rows[:-1], attempted=2)
    assert checks.failures == {"export_entries": 1}


@pytest.mark.parametrize("name", ["point_zipf", "range_scan", "mixed_durable"])
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    first = workload(3, str(tmp_path)).inputs_digest()
    assert workload(3, str(tmp_path)).inputs_digest() == first
    assert workload(4, str(tmp_path)).inputs_digest() != first
