"""Sorted-array oracle and the benchmark's correctness ledger.

The oracle is deliberately independent of the program: a sorted numpy key
array with the row ids riding along, updated by plain set operations.  The
workloads only ever hold unique keys, so a point answer is the row id of the
key (``-1`` and count 0 for a miss) and a range answer is the set of row ids
whose keys fall into ``[low, high]``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


class SortedOracle:
    """The expected state of the index: sorted unique keys plus row ids."""

    def __init__(self, keys: np.ndarray, row_ids: np.ndarray) -> None:
        order = np.argsort(keys, kind="stable")
        self.keys = np.asarray(keys)[order]
        self.row_ids = np.asarray(row_ids, dtype=np.int64)[order]
        if self.keys.size and np.any(self.keys[1:] == self.keys[:-1]):
            raise ValueError("the oracle holds unique keys only")

    def __len__(self) -> int:
        return int(self.keys.shape[0])

    def apply(
        self,
        insert_keys: Optional[np.ndarray] = None,
        insert_row_ids: Optional[np.ndarray] = None,
        delete_keys: Optional[np.ndarray] = None,
    ) -> None:
        """Delete, then insert (keys stay unique)."""
        keys, rows = self.keys, self.row_ids
        if delete_keys is not None and len(delete_keys):
            keep = ~np.isin(keys, np.asarray(delete_keys, dtype=keys.dtype))
            keys, rows = keys[keep], rows[keep]
        if insert_keys is not None and len(insert_keys):
            keys = np.concatenate([keys, np.asarray(insert_keys, dtype=keys.dtype)])
            rows = np.concatenate([rows, np.asarray(insert_row_ids, dtype=np.int64)])
            order = np.argsort(keys, kind="stable")
            keys, rows = keys[order], rows[order]
        self.keys, self.row_ids = keys, rows

    def point(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(row_agg, match_counts)`` as ``ShardedIndex`` answers point lookups."""
        keys = np.asarray(keys, dtype=self.keys.dtype)
        if not len(self):
            misses = np.full(keys.shape[0], -1, dtype=np.int64)
            return misses, np.zeros(keys.shape[0], dtype=np.int64)
        clipped = np.minimum(np.searchsorted(self.keys, keys), len(self) - 1)
        hit = self.keys[clipped] == keys
        row_agg = np.where(hit, self.row_ids[clipped], -1)
        return row_agg.astype(np.int64), hit.astype(np.int64)

    def ranges(self, lows: np.ndarray, highs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-range hit counts and the row ids of every range, concatenated."""
        first = np.searchsorted(self.keys, np.asarray(lows, dtype=self.keys.dtype), side="left")
        stop = np.searchsorted(self.keys, np.asarray(highs, dtype=self.keys.dtype), side="right")
        counts = np.maximum(stop - first, 0)
        rows = [self.row_ids[a:b] for a, b in zip(first.tolist(), stop.tolist()) if b > a]
        flat = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        return counts.astype(np.int64), flat

    def entries(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.keys, self.row_ids

    def keyset(self, key_bits: int):
        """The current state as a :class:`repro.workloads.KeySet` (stream input)."""
        from repro.workloads.keygen import KeySet

        return KeySet(
            keys=self.keys.copy(),
            row_ids=self.row_ids.astype(np.uint32),
            key_bits=key_bits,
            description=f"oracle state, n={len(self)}",
        )


def _sorted_within(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sort each consecutive group of ``values`` (group sizes ``counts``)."""
    groups = np.repeat(np.arange(counts.shape[0]), counts)
    return values[np.lexsort((values, groups))]


class Checks:
    """Attempted/failed operation counts, with the name of every failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: Dict[str, int] = {}

    def record(self, check: str, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        failed = int(failed)
        self.failed += failed
        if failed:
            self.failures[check] = self.failures.get(check, 0) + failed

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def point_answers(self, check: str, oracle: SortedOracle, keys, answers, masks=()) -> None:
        """Compare served ``(row_agg, match_counts)`` with the oracle.

        ``masks`` are the boolean masks of answers the program withheld
        (shed, unavailable, deadline-exceeded, stale); each masked request
        is a failed operation, mismatching or not.
        """
        row_agg, counts = answers
        expect_rows, expect_counts = oracle.point(keys)
        bad = (np.asarray(row_agg) != expect_rows) | (np.asarray(counts) != expect_counts)
        for mask in masks:
            if mask is not None:
                bad |= np.asarray(mask, dtype=bool)
        self.record(check, len(keys), int(bad.sum()))

    def range_answers(
        self, check: str, oracle: SortedOracle, lows, highs, row_ids: Sequence[np.ndarray]
    ) -> None:
        """Compare served per-range row-id sets with the oracle's."""
        expect_counts, expect_rows = oracle.ranges(lows, highs)
        got_counts = np.fromiter((len(r) for r in row_ids), dtype=np.int64, count=len(row_ids))
        bad = got_counts != expect_counts
        if not bad.any():
            got = (
                np.concatenate(row_ids).astype(np.int64)
                if len(row_ids)
                else np.empty(0, dtype=np.int64)
            )
            got = _sorted_within(got, got_counts)
            expect = _sorted_within(expect_rows, expect_counts)
            mismatch = got != expect
            if mismatch.any():
                groups = np.repeat(np.arange(len(row_ids)), got_counts)
                bad[np.unique(groups[mismatch])] = True
        self.record(check, len(row_ids), int(bad.sum()))

    def entries(self, check: str, oracle: SortedOracle, keys, row_ids, attempted: int) -> None:
        """Compare a full ``(keys, row_ids)`` export with the oracle state.

        Every entry present on one side only, or present with another row
        id, is one failed operation.
        """
        order = np.argsort(keys, kind="stable")
        keys = np.asarray(keys)[order]
        rows = np.asarray(row_ids, dtype=np.int64)[order]
        expect_keys, expect_rows = oracle.entries()
        if keys.shape == expect_keys.shape and np.array_equal(keys, expect_keys):
            failed = int((rows != expect_rows).sum())
        else:
            ours = set(zip(keys.tolist(), rows.tolist()))
            theirs = set(zip(expect_keys.tolist(), expect_rows.tolist()))
            failed = len(ours ^ theirs)
        self.record(check, attempted, failed)

    def summary(self) -> List[str]:
        return [f"{name}: {count} failed" for name, count in sorted(self.failures.items())]
