"""Tests for the replication layer: balancing, quorum, failover, resync."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import ground_truth_point, ground_truth_range
from repro.bench.experiments import availability
from repro.bench.harness import cgrxu_factory, sorted_array_factory
from repro.serve import (
    DOWN,
    HEALTHY,
    RECOVERING,
    FailureEvent,
    FailureInjector,
    MaintenanceWorker,
    ReplicaGroup,
    ReplicatedShardRouter,
    ReplicationConfig,
    ServeConfig,
    ShardRouter,
    ShardedIndex,
    SimulatedClock,
)
from repro.workloads.failures import failure_schedule
from repro.workloads.keygen import generate_keys
from repro.workloads.lookups import uniform_lookups
from repro.workloads.requests import zipf_request_stream


@pytest.fixture(scope="module")
def keyset():
    return generate_keys(num_keys=2048, uniformity=0.5, key_bits=32, seed=61)


def make_group(keyset, factory=None, **config_kwargs):
    config = ReplicationConfig(**{"replication_factor": 3, **config_kwargs})
    return ReplicaGroup(
        shard_id=0,
        keys=keyset.keys,
        row_ids=keyset.row_ids,
        factory=factory or sorted_array_factory(),
        config=config,
        key_bits=32,
    )


# --------------------------------------------------------------------------
# Read balancing
# --------------------------------------------------------------------------


def test_round_robin_cycles_replicas(keyset):
    group = make_group(keyset, read_policy="round_robin")
    lookups = keyset.keys[:16]
    for _ in range(6):
        group.read_point(lookups)
    loads = group.replica_loads()
    assert loads.tolist() == [2 * 16, 2 * 16, 2 * 16]


def test_least_loaded_avoids_the_busy_replica(keyset):
    group = make_group(keyset, read_policy="least_loaded")
    group.replicas[0].busy_ms = 100.0  # pretend replica 0 already did work
    for _ in range(4):
        group.read_point(keyset.keys[:8])
    assert group.replicas[0].reads_served == 0
    assert group.replicas[1].reads_served > 0 and group.replicas[2].reads_served > 0


def test_least_loaded_penalises_slow_replicas(keyset):
    group = make_group(keyset, read_policy="least_loaded")
    for _ in range(3):  # everyone serves once, accumulating equal busy time
        group.read_point(keyset.keys[:8])
    group.set_slow(0, 100.0)
    before = group.replicas[0].reads_served
    for _ in range(6):
        group.read_point(keyset.keys[:8])
    assert group.replicas[0].reads_served == before


def test_reads_answer_like_ground_truth_regardless_of_replica(keyset):
    group = make_group(keyset)
    lookups = uniform_lookups(keyset, 64, seed=3)
    agg, counts = ground_truth_point(keyset.keys, keyset.row_ids, lookups)
    for _ in range(3):  # each call hits a different replica
        result = group.read_point(lookups).result
        np.testing.assert_array_equal(result.row_ids, agg)
        np.testing.assert_array_equal(result.match_counts, counts)


def test_range_reads_are_balanced_too(keyset):
    group = make_group(keyset)
    sorted_keys = np.sort(keyset.keys)
    low, high = int(sorted_keys[10]), int(sorted_keys[50])
    result = group.read_range(np.asarray([low]), np.asarray([high])).result
    expected = ground_truth_range(keyset.keys, keyset.row_ids, low, high)
    np.testing.assert_array_equal(np.sort(result.row_ids[0]), np.sort(expected))
    assert sum(group.replica_loads()) == 1


# --------------------------------------------------------------------------
# Write fan-out, quorum and the apply log
# --------------------------------------------------------------------------


def test_write_fans_out_and_acknowledges_quorum(keyset):
    group = make_group(keyset)
    new_key = np.asarray([1 << 30], dtype=np.uint32)
    update = group.update_batch(insert_keys=new_key, insert_row_ids=np.asarray([7], dtype=np.uint32))
    assert update.inserted == 1
    assert group.counters["writes"] == 1
    assert group.counters["write_acks"] == 3  # every up replica applied
    assert "quorum_failures" not in group.counters
    assert all(replica.applied_lsn == group.lsn for replica in group.replicas)
    # Every replica answers the new key.
    for _ in range(3):
        result = group.read_point(new_key).result
        np.testing.assert_array_equal(result.row_ids, [7])


def test_write_below_quorum_is_counted(keyset):
    group = make_group(keyset)
    group.crash(0, now_ms=0.0)
    group.crash(1, now_ms=0.0)
    group.update_batch(insert_keys=np.asarray([5], dtype=np.uint32))
    assert group.counters["quorum_failures"] == 1
    assert group.counters["write_acks"] == 1


def test_down_replica_misses_writes_and_lags(keyset):
    group = make_group(keyset, factory=cgrxu_factory(128))
    group.crash(2, now_ms=1.0)
    group.update_batch(insert_keys=np.asarray([11], dtype=np.uint32))
    lagging = group.replica(2)
    assert lagging.applied_lsn == 0 and group.lsn == 1
    assert not lagging.available  # barred from reads until resync


@pytest.mark.parametrize("factory_name", ["cgrxu", "sorted_array"])
def test_resync_catches_up_and_answers_match(keyset, factory_name):
    """Log replay (native updates) and snapshot resync (rebuild fallback)
    both restore a lagging replica to byte-identical answers."""
    factory = cgrxu_factory(128) if factory_name == "cgrxu" else sorted_array_factory()
    group = make_group(keyset, factory=factory)
    group.crash(0, now_ms=1.0)
    base = 1 << 30  # clear of the keyset's dense prefix
    inserts = np.asarray([base + 77, base + 78, base + 79], dtype=np.uint32)
    rows = np.asarray([7001, 7002, 7003], dtype=np.uint32)
    group.update_batch(insert_keys=inserts, insert_row_ids=rows)
    group.update_batch(delete_keys=np.asarray([base + 78], dtype=np.uint32))
    group.end_outage(0, now_ms=2.0)
    assert group.replica(0).state == RECOVERING

    group.resync(group.replica(0), now_ms=3.0)
    assert group.replica(0).state == HEALTHY
    assert group.replica(0).applied_lsn == group.lsn
    expected_counter = (
        "resyncs_log_replay" if factory_name == "cgrxu" else "resyncs_snapshot"
    )
    assert group.counters[expected_counter] == 1

    probe = inserts
    answers = [group.read_point(probe).result for _ in range(3)]
    for result in answers[1:]:
        np.testing.assert_array_equal(result.row_ids, answers[0].row_ids)
        np.testing.assert_array_equal(result.match_counts, answers[0].match_counts)
    np.testing.assert_array_equal(answers[0].row_ids, [7001, -1, 7003])


def test_trimmed_log_forces_snapshot_resync(keyset):
    group = make_group(keyset, factory=cgrxu_factory(128), log_capacity=2)
    group.crash(0, now_ms=0.0)
    base = 1 << 30  # clear of the keyset's dense prefix
    for wave in range(4):  # more writes than the log retains
        group.update_batch(insert_keys=np.asarray([base + wave], dtype=np.uint32))
    group.end_outage(0, now_ms=1.0)
    group.resync(group.replica(0), now_ms=2.0)
    assert group.counters.get("resyncs_snapshot", 0) == 1
    assert "resyncs_log_replay" not in group.counters
    result = group.read_point(np.asarray([base, base + 3], dtype=np.uint32)).result
    assert (result.match_counts == [1, 1]).all()


# --------------------------------------------------------------------------
# Failover and unavailability
# --------------------------------------------------------------------------


def test_transient_error_fails_over_to_another_replica(keyset):
    group = make_group(keyset)
    group.inject_transient(0, count=2)
    lookups = keyset.keys[:8]
    agg, counts = ground_truth_point(keyset.keys, keyset.row_ids, lookups)
    for _ in range(4):  # round-robin would hit replica 0 twice
        result = group.read_point(lookups).result
        np.testing.assert_array_equal(result.row_ids, agg)
    assert group.counters["failovers"] == 2
    assert group.replica(0).pending_transient == 0


def test_failover_overhead_lands_in_lookup_time(keyset):
    group = make_group(keyset, failover_penalty_ms=0.5)
    baseline = group.read_point(keyset.keys[:8]).time_ms
    group.inject_transient(int(group.replicas[group._rr_cursor % 3].replica_id), count=1)
    read = group.read_point(keyset.keys[:8])
    assert read.overhead_ms == pytest.approx(0.5)
    assert read.time_ms >= baseline + 0.5


def test_slow_replica_scales_lookup_time(keyset):
    group = make_group(keyset, read_policy="round_robin")
    fast_ms = group.read_point(keyset.keys[:64]).time_ms
    for replica in group.replicas:
        group.set_slow(replica.replica_id, 8.0)
    slow = group.read_point(keyset.keys[:64])
    assert slow.slow_factor == 8.0
    assert slow.time_ms == pytest.approx(8.0 * fast_ms)


def test_total_outage_triggers_emergency_restart_and_window(keyset):
    group = make_group(keyset, restart_penalty_ms=2.0)
    clock = group.clock
    clock.advance(10.0)
    for replica in group.replicas:
        group.crash(replica.replica_id, now_ms=10.0)
    clock.advance(14.0)
    lookups = keyset.keys[:8]
    agg, counts = ground_truth_point(keyset.keys, keyset.row_ids, lookups)
    result = group.read_point(lookups).result  # must still answer correctly
    np.testing.assert_array_equal(result.row_ids, agg)
    np.testing.assert_array_equal(result.match_counts, counts)
    assert group.counters["emergency_restarts"] == 1
    assert len(group.unavailability_windows) == 1
    start, end = group.unavailability_windows[0]
    assert start == pytest.approx(10.0) and end >= 14.0
    assert group.unavailable_ms() >= 4.0


# --------------------------------------------------------------------------
# Membership: join / leave / rebalance
# --------------------------------------------------------------------------


def test_added_replica_serves_immediately(keyset):
    group = make_group(keyset, replication_factor=2)
    group.update_batch(insert_keys=np.asarray([123456], dtype=np.uint32))
    joined = group.add_replica()
    assert joined.available and joined.applied_lsn == group.lsn
    for _ in range(3):
        result = group.read_point(np.asarray([123456], dtype=np.uint32)).result
        assert result.match_counts[0] == 1
    assert group.replica(joined.replica_id).reads_served > 0


def test_remove_replica_refuses_last_available(keyset):
    group = make_group(keyset, replication_factor=2)
    group.crash(0, now_ms=0.0)
    with pytest.raises(ValueError):
        group.remove_replica(1)
    group.remove_replica(0)  # removing the *down* replica is fine
    assert len(group.replicas) == 1


def test_router_rebalance_replicas(keyset):
    router = ReplicatedShardRouter(
        keyset.keys,
        keyset.row_ids,
        factory=sorted_array_factory(),
        num_shards=2,
        partitioner="range",
        key_bits=32,
        replication=ReplicationConfig(replication_factor=2),
    )
    router.rebalance_replicas(4)
    assert all(len(group.replicas) == 4 for group in router.groups.values())
    router.rebalance_replicas(2)
    assert all(len(group.replicas) == 2 for group in router.groups.values())
    lookups = uniform_lookups(keyset, 64, seed=5)
    agg, counts = ground_truth_point(keyset.keys, keyset.row_ids, lookups)
    result = router.point_lookup_batch(lookups)
    np.testing.assert_array_equal(result.row_ids, agg)
    np.testing.assert_array_equal(result.match_counts, counts)


# --------------------------------------------------------------------------
# Replicated router behind the full deployment
# --------------------------------------------------------------------------


def test_replicated_router_matches_plain_router(keyset):
    plain = ShardRouter(
        keyset.keys,
        keyset.row_ids,
        factory=sorted_array_factory(),
        num_shards=4,
        partitioner="range",
        key_bits=32,
    )
    replicated = ReplicatedShardRouter(
        keyset.keys,
        keyset.row_ids,
        factory=sorted_array_factory(),
        num_shards=4,
        partitioner="range",
        key_bits=32,
        replication=ReplicationConfig(replication_factor=3),
    )
    lookups = uniform_lookups(keyset, 128, seed=7)
    np.testing.assert_array_equal(
        plain.point_lookup_batch(lookups).row_ids,
        replicated.point_lookup_batch(lookups).row_ids,
    )
    update_keys = np.asarray([3, 99, 1 << 29], dtype=np.uint32)
    update_rows = np.asarray([1, 2, 3], dtype=np.uint32)
    plain.update_batch(insert_keys=update_keys, insert_row_ids=update_rows)
    replicated.update_batch(insert_keys=update_keys, insert_row_ids=update_rows)
    probe = np.concatenate([update_keys, lookups[:32]])
    plain_result = plain.point_lookup_batch(probe)
    replicated_result = replicated.point_lookup_batch(probe)
    np.testing.assert_array_equal(plain_result.row_ids, replicated_result.row_ids)
    np.testing.assert_array_equal(plain_result.match_counts, replicated_result.match_counts)


def test_maintenance_heals_degraded_replicated_shards(keyset):
    router = ReplicatedShardRouter(
        keyset.keys,
        keyset.row_ids,
        factory=cgrxu_factory(128),
        num_shards=2,
        partitioner="range",
        key_bits=32,
        replication=ReplicationConfig(replication_factor=2),
    )
    rng = np.random.default_rng(9)
    inserts = rng.integers(0, (1 << 32) - 1, size=4096, dtype=np.uint64).astype(np.uint32)
    router.update_batch(insert_keys=inserts)
    from repro.serve import MaintenancePolicy

    worker = MaintenanceWorker(router, policy=MaintenancePolicy(rebuild_threshold=0.25))
    assert max(worker.degradation_of(s) for s in range(2)) >= 0.25
    worker.run_cycle(now_ms=1.0)
    assert worker.rebuilds_performed >= 1
    assert max(worker.degradation_of(s) for s in range(2)) < 0.25
    # The reload kept the groups (and their replicas) in place.
    assert all(len(group.replicas) == 2 for group in router.groups.values())


def test_maintenance_resyncs_recovering_replicas(keyset):
    config = ServeConfig(
        num_shards=2, partitioner="range", key_bits=32, cache_capacity=0,
        replication_factor=2,
    )
    index = ShardedIndex(keyset.keys, keyset.row_ids, factory=cgrxu_factory(128), config=config)
    group = index.router.groups[0]
    group.crash(0, now_ms=0.0)
    index.update_batch(insert_keys=np.asarray([42], dtype=np.uint32))
    group.end_outage(0, now_ms=1.0)
    assert group.replica(0).state == RECOVERING
    executed = index.maintenance.run_cycle(now_ms=2.0)
    assert any(task.name == "resync_replicas" and task.status == "done" for task in executed)
    assert group.replica(0).state == HEALTHY
    assert index.maintenance.snapshot()["resyncs_performed"] >= 1


def test_failure_injector_replays_schedule_in_order(keyset):
    router = ReplicatedShardRouter(
        keyset.keys,
        keyset.row_ids,
        factory=sorted_array_factory(),
        num_shards=1,
        partitioner="range",
        key_bits=32,
        replication=ReplicationConfig(replication_factor=2),
    )
    events = [
        FailureEvent(at_ms=5.0, kind="crash", shard_id=0, replica_id=0, duration_ms=3.0),
        FailureEvent(at_ms=6.0, kind="slow", shard_id=0, replica_id=1, duration_ms=2.0),
        FailureEvent(at_ms=9.0, kind="transient", shard_id=0, replica_id=1, error_count=2),
    ]
    injector = FailureInjector(router, events)
    group = router.groups[0]
    assert injector.poll(4.9) == []
    injector.poll(5.5)
    assert group.replica(0).state == DOWN
    injector.poll(7.0)
    assert group.replica(1).slow_factor == 4.0
    transitions = injector.poll(10.0)
    assert group.replica(0).state == RECOVERING  # outage ended at 8.0
    assert group.replica(1).slow_factor == 1.0  # slowdown ended at 8.0
    assert group.replica(1).pending_transient == 2
    assert [t for t in transitions if "outage over" in t[1]]
    assert injector.pending == 0


def test_overlapping_outages_do_not_revive_early(keyset):
    """A second crash during an outage must not let the first crash's end
    transition the replica to RECOVERING before the longer outage is over."""
    router = ReplicatedShardRouter(
        keyset.keys,
        keyset.row_ids,
        factory=sorted_array_factory(),
        num_shards=1,
        partitioner="range",
        key_bits=32,
        replication=ReplicationConfig(replication_factor=2),
    )
    injector = FailureInjector(
        router,
        [
            FailureEvent(at_ms=0.0, kind="crash", shard_id=0, replica_id=0, duration_ms=10.0),
            FailureEvent(at_ms=5.0, kind="crash", shard_id=0, replica_id=0, duration_ms=2.0),
        ],
    )
    group = router.groups[0]
    injector.poll(8.0)  # the short crash ended at 7.0, the long one has not
    assert group.replica(0).state == DOWN
    injector.poll(10.0)
    assert group.replica(0).state == RECOVERING


def test_caller_provided_registry_receives_replication_telemetry(keyset):
    """serve_stream(metrics=...) must route failover/availability records to
    the passed registry, not split them off to the deployment's own."""
    from repro.serve import MetricsRegistry

    config = ServeConfig(
        num_shards=2, partitioner="range", key_bits=32, cache_capacity=0,
        max_batch_size=64, max_wait_ms=0.5, replication_factor=2,
    )
    index = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
    stream = zipf_request_stream(keyset, 256, zipf_coefficient=1.0, seed=23)
    index.inject_failures(
        [FailureEvent(at_ms=1.0, kind="transient", shard_id=0, replica_id=0, error_count=2)]
    )
    custom = MetricsRegistry(num_shards=2)
    returned = index.serve_stream(stream, metrics=custom)
    assert returned is custom
    assert custom.counters.get("failovers", 0) >= 1
    assert custom.replica_requests  # per-replica load landed here too
    assert index.metrics.counters.get("failovers", 0) == 0


def test_rebalance_updates_quorum_and_reported_factor(keyset):
    router = ReplicatedShardRouter(
        keyset.keys,
        keyset.row_ids,
        factory=sorted_array_factory(),
        num_shards=2,
        partitioner="range",
        key_bits=32,
        replication=ReplicationConfig(replication_factor=3),
    )
    router.rebalance_replicas(5)
    snapshot = router.replication_snapshot()
    assert snapshot["replication_factor"] == 5
    assert snapshot["write_quorum"] == 3  # majority of 5, not of the old 3
    assert all(group.config.quorum == 3 for group in router.groups.values())


def test_open_unavailability_window_is_flushed_without_double_count(keyset):
    """Flushing an in-progress outage reports it to the registry incrementally
    and never double-counts once the window finally closes."""
    from repro.serve import MetricsRegistry

    group = make_group(keyset, replication_factor=2)
    registry = MetricsRegistry()
    group.metrics = registry
    group.clock.advance(10.0)
    group.crash(0, now_ms=10.0)
    group.crash(1, now_ms=10.0)

    group.clock.advance(15.0)
    group.flush_unavailability(15.0)  # end of a served stream, outage ongoing
    assert registry.unavailable_ms == pytest.approx(5.0)
    group.flush_unavailability(15.0)  # flushing twice adds nothing
    assert registry.unavailable_ms == pytest.approx(5.0)
    assert group.unavailable_ms() == pytest.approx(5.0)

    group.clock.advance(20.0)
    group.end_outage(0, now_ms=20.0)
    group.resync(group.replica(0), now_ms=20.0)  # closes the remainder
    assert registry.unavailable_ms == pytest.approx(10.0)
    assert group.unavailable_ms() == pytest.approx(10.0)


def test_stale_outage_end_after_restart_is_ignored(keyset):
    """An emergency restart during outage A supersedes it; A's scheduled end
    must not cut a later outage B short."""
    router = ReplicatedShardRouter(
        keyset.keys,
        keyset.row_ids,
        factory=sorted_array_factory(),
        num_shards=1,
        partitioner="range",
        key_bits=32,
        replication=ReplicationConfig(replication_factor=1, restart_penalty_ms=0.5),
    )
    group = router.groups[0]
    injector = FailureInjector(
        router,
        [
            FailureEvent(at_ms=0.0, kind="crash", shard_id=0, replica_id=0, duration_ms=10.0),
            FailureEvent(at_ms=5.0, kind="crash", shard_id=0, replica_id=0, duration_ms=20.0),
        ],
    )
    injector.poll(1.0)
    # Reading the single-replica shard at t=2 forces an emergency restart,
    # superseding outage A (its end at t=10 is now stale).
    group.read_point(keyset.keys[:4])
    assert group.replica(0).state == HEALTHY
    injector.poll(12.0)  # outage B started at 5; stale end of A fires at 10
    assert group.replica(0).state == DOWN  # B runs until t=25
    injector.poll(26.0)
    assert group.replica(0).state == RECOVERING


def test_overlapping_shard_outages_are_union_merged():
    from repro.serve import MetricsRegistry

    registry = MetricsRegistry()
    registry.record_request(1.0, 0.0, 100.0)  # span 100ms
    registry.record_unavailability(10.0, 20.0)  # shard 0
    registry.record_unavailability(15.0, 25.0)  # shard 1, overlapping
    registry.record_unavailability(50.0, 55.0)
    assert registry.unavailable_ms == pytest.approx(20.0)  # union, not 25
    assert registry.availability == pytest.approx(0.8)


def test_empty_replica_group_is_a_benign_no_op():
    group = ReplicaGroup(
        0,
        np.empty(0, dtype=np.uint32),
        np.empty(0, dtype=np.uint32),
        factory=sorted_array_factory(),
        config=ReplicationConfig(replication_factor=2),
        key_bits=32,
    )
    assert group.build_stats == [] and len(group) == 0
    read = group.read_point(np.asarray([1, 2], dtype=np.uint32))
    np.testing.assert_array_equal(read.result.match_counts, [0, 0])
    # No replica served it: no failover overhead, no slowdown charged.
    assert read.overhead_ms == 0.0 and read.slow_factor == 1.0
    assert read.time_ms == pytest.approx(
        group.cost_model.kernel_time_ms(read.result.stats)
    )


def test_empty_group_reads_do_not_recharge_stale_overhead(keyset):
    group = make_group(keyset, restart_penalty_ms=5.0)
    for replica in group.replicas:
        group.crash(replica.replica_id, now_ms=1.0)
    restarted = group.read_point(keyset.keys[:2])  # emergency restart: 5ms charged
    assert restarted.overhead_ms == pytest.approx(5.0)
    # Wipe the group empty; the short-circuit read must not charge it again.
    group.update_batch(delete_keys=group.keys.copy())
    read = group.read_point(np.asarray([1], dtype=np.uint32))
    assert read.overhead_ms == 0.0
    assert read.time_ms == pytest.approx(
        group.cost_model.kernel_time_ms(read.result.stats)
    )
    assert restarted.overhead_ms == pytest.approx(5.0)


def test_shard_reads_keep_their_own_outcomes(keyset):
    """Each read's outcome travels in the ShardRead it returned: a later read
    cannot overwrite an earlier one's unavailability or overhead."""
    from repro.serve import ReliabilityConfig, ReliabilityState

    group = make_group(keyset, replication_factor=2)
    group.reliability = ReliabilityState(ReliabilityConfig(), group.clock)
    group.inject_transient(0, 50)
    group.inject_transient(1, 50)
    first = group.read_point(keyset.keys[:8], start_ms=0.0, deadline_ms=0.01)
    first_time_ms = first.time_ms
    assert first.unavailable and first.overhead_ms > 0.0
    for replica in group.replicas:
        replica.pending_transient = 0
    second = group.read_point(keyset.keys[:8])
    assert not second.unavailable and second.overhead_ms == 0.0
    assert second.result.match_counts.sum() > 0
    assert first.unavailable and first.overhead_ms > 0.0
    assert first.time_ms == first_time_ms
    assert np.all(first.result.row_ids == -1)

    # A plain shard's read time is exactly the index's own lookup time.
    router = ShardRouter(
        keyset.keys, keyset.row_ids, factory=sorted_array_factory(), num_shards=2,
        key_bits=32,
    )
    index = router.shards[0].index
    point = router.read_point(0, keyset.keys[:64])
    assert point.time_ms == index.lookup_time_ms(point.result)
    lows = np.sort(keyset.keys)[:4]
    ranged = router.read_range(0, lows, lows + 1000)
    assert ranged.time_ms == index.lookup_time_ms(ranged.result)
    assert not point.unavailable and point.overhead_ms == 0.0


def test_overlapping_slowdowns_hold_the_worst_active_factor(keyset):
    group = make_group(keyset)
    group.set_slow(0, 4.0)
    group.set_slow(0, 8.0)  # overlapping, worse
    assert group.replica(0).slow_factor == 8.0
    group.clear_slow(0, 4.0)  # the weaker one expires first
    assert group.replica(0).slow_factor == 8.0
    group.clear_slow(0, 8.0)
    assert group.replica(0).slow_factor == 1.0
    # And the other way round: the worse one expiring reveals the weaker.
    group.set_slow(0, 8.0)
    group.set_slow(0, 2.0)
    group.clear_slow(0, 8.0)
    assert group.replica(0).slow_factor == 2.0
    group.clear_slow(0, 2.0)
    assert group.replica(0).slow_factor == 1.0


def test_restart_clears_faults_injected_against_the_old_process(keyset):
    """A resynced replica is a fresh process: stale slowdowns and queued
    transient errors from before the restart must not fire against it."""
    group = make_group(keyset)
    group.set_slow(1, 16.0)
    group.inject_transient(1, count=5)
    group.crash(1, now_ms=1.0)
    group.end_outage(1, now_ms=2.0)
    group.resync(group.replica(1), now_ms=3.0)
    replica = group.replica(1)
    assert replica.slow_factor == 1.0 and not replica.active_slowdowns
    assert replica.pending_transient == 0
    before = group.counters.get("failovers", 0)
    for _ in range(3):
        group.read_point(keyset.keys[:4])
    assert group.counters.get("failovers", 0) == before


def test_rearming_failures_keeps_pending_outage_ends(keyset):
    """Replacing the failure schedule must not orphan the end of an outage
    the old schedule already applied — the replica would stay down forever."""
    config = ServeConfig(
        num_shards=1, partitioner="range", key_bits=32, cache_capacity=0,
        replication_factor=2,
    )
    index = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
    index.inject_failures(
        [FailureEvent(at_ms=1.0, kind="crash", shard_id=0, replica_id=0, duration_ms=5.0)]
    )
    index.failures.poll(2.0)  # replica 0 is now DOWN, end pending at t=6
    group = index.router.groups[0]
    assert group.replica(0).state == DOWN
    index.inject_failures([])  # re-arm with a fresh (empty) schedule
    index.failures.poll(7.0)
    assert group.replica(0).state == RECOVERING


def test_direct_calls_after_custom_registry_stream_report_to_own_metrics(keyset):
    """serve_stream(metrics=...) binds the caller's registry for the stream
    only; later direct calls report to the deployment's registry again."""
    from repro.serve import MetricsRegistry

    config = ServeConfig(
        num_shards=1, partitioner="range", key_bits=32, cache_capacity=0,
        max_batch_size=64, max_wait_ms=0.5, replication_factor=2,
    )
    index = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
    stream = zipf_request_stream(keyset, 64, zipf_coefficient=0.5, seed=31)
    temp = MetricsRegistry(num_shards=1)
    index.serve_stream(stream, metrics=temp)
    group = index.router.groups[0]
    group.inject_transient(0, count=1)
    index.point_lookup_batch(keyset.keys[:4])  # direct call fails over
    assert index.metrics.counters.get("failovers", 0) >= 1
    assert temp.counters.get("failovers", 0) == 0


def test_failure_schedule_is_seeded_and_bounded():
    events = failure_schedule(4, 3, duration_ms=50.0, seed=11)
    again = failure_schedule(4, 3, duration_ms=50.0, seed=11)
    assert events == again
    assert all(0.0 <= event.at_ms <= 50.0 for event in events)
    assert all(event.shard_id < 4 and event.replica_id < 3 for event in events)
    spared = failure_schedule(4, 3, duration_ms=50.0, spare_replica=0, seed=11)
    assert all(event.replica_id != 0 for event in spared if event.kind == "crash")


def test_served_stream_under_failures_matches_oracle(keyset):
    """The acceptance check in miniature: a replicated deployment under
    failure weather serves byte-identical answers to a single instance."""
    from repro.baselines.sorted_array import SortedArrayIndex

    config = ServeConfig(
        num_shards=4, partitioner="range", key_bits=32, cache_capacity=128,
        max_batch_size=64, max_wait_ms=0.5, replication_factor=3,
    )
    index = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
    stream = zipf_request_stream(
        keyset, 768, zipf_coefficient=1.1, requests_per_ms=48.0, miss_fraction=0.1, seed=17
    )
    index.inject_failures(
        failure_schedule(4, 3, duration_ms=stream.duration_ms, crashes_per_s=120.0,
                         transients_per_s=240.0, seed=19)
    )
    metrics = index.serve_stream(stream, record_answers=True)
    oracle = SortedArrayIndex(keyset.keys, keyset.row_ids, key_bits=32)
    expected = oracle.point_lookup_batch(stream.keys.astype(np.uint32))
    row_agg, match_counts = index.last_answers
    assert row_agg.tobytes() == expected.row_ids.tobytes()
    assert match_counts.tobytes() == expected.match_counts.tobytes()
    snapshot = metrics.snapshot()
    assert snapshot["requests"] == 768
    assert snapshot.get("failovers", 0) >= 1
    assert "replica_skew" in snapshot


def test_unreplicated_deployment_rejects_failure_injection(keyset):
    config = ServeConfig(num_shards=2, partitioner="range", key_bits=32)
    index = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
    with pytest.raises(ValueError):
        index.inject_failures([])


def test_availability_experiment_produces_consistent_rows():
    result = availability(
        num_keys=1 << 10,
        num_requests=1 << 8,
        num_shards=2,
        replication_factors=(1, 2),
        read_policies=("round_robin",),
        num_update_waves=2,
    )
    assert result.name == "replication"
    panels = {row["panel"] for row in result.rows}
    assert panels == {"a_read_policies", "b_failover", "c_quorum_resync"}
    assert all(row["answers_identical"] for row in result.rows)
    failover_rows = [row for row in result.rows if row["panel"] == "b_failover"]
    assert all(row["availability"] <= 1.0 for row in failover_rows)
    assert result.to_json()  # serialisable for the BENCH snapshot
