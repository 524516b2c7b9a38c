"""Tests for the tail-tolerance layer: deadlines, budgets, hedging, breakers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.experiments import ALL_EXPERIMENTS, list_experiments
from repro.bench.harness import sorted_array_factory
from repro.serve import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    FailureEvent,
    ReliabilityConfig,
    ReliabilityState,
    ReplicaGroup,
    ReplicationConfig,
    ServeConfig,
    ShardedIndex,
    SimulatedClock,
)
from repro.serve.qos import TokenBucket
from repro.workloads.failures import failure_schedule
from repro.workloads.keygen import generate_keys
from repro.workloads.requests import zipf_request_stream


@pytest.fixture(scope="module")
def keyset():
    return generate_keys(num_keys=2048, uniformity=0.5, key_bits=32, seed=61)


def make_group(keyset, reliability=None, **config_kwargs):
    config = ReplicationConfig(**{"replication_factor": 2, **config_kwargs})
    group = ReplicaGroup(
        shard_id=0,
        keys=keyset.keys,
        row_ids=keyset.row_ids,
        factory=sorted_array_factory(),
        config=config,
        key_bits=32,
    )
    if reliability is not None:
        group.reliability = ReliabilityState(reliability, group.clock)
    return group


def warm(state: ReliabilityState, value_ms: float = 0.1, count: int = 64) -> None:
    for _ in range(count):
        state.observe_read(value_ms)


# --------------------------------------------------------------------------
# Config validation and shared plumbing
# --------------------------------------------------------------------------


def test_config_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        ReliabilityConfig(deadline_ms=-1.0)
    with pytest.raises(ValueError):
        ReliabilityConfig(retry_budget=0.5)
    with pytest.raises(ValueError):
        ReliabilityConfig(hedge_quantile=1.0)
    with pytest.raises(ValueError):
        ReliabilityConfig(breaker_failure_threshold=0.0)
    with pytest.raises(ValueError):
        ReliabilityConfig(breaker_probe_reads=0)
    with pytest.raises(ValueError):
        ReplicationConfig(max_failover_rounds=0)


def test_token_bucket_refills_on_simulated_clock():
    bucket = TokenBucket(rate=1.0, burst=2.0)
    assert bucket.take(0.0) and bucket.take(0.0)
    assert not bucket.take(0.0)  # burst spent
    assert bucket.take(1.0)  # one ms refills one token
    assert not bucket.take(1.0)


def test_backoff_jitter_is_seeded_and_per_shard():
    config = ReliabilityConfig(retry_backoff_base_ms=0.1, retry_jitter=0.5)
    first = ReliabilityState(config, SimulatedClock())
    second = ReliabilityState(config, SimulatedClock())
    sequence = [first.backoff_ms(0, i) for i in range(1, 5)]
    assert sequence == [second.backoff_ms(0, i) for i in range(1, 5)]
    assert sequence != [second.backoff_ms(1, i) for i in range(1, 5)]
    # Exponential growth underneath the jitter.
    assert sequence[3] > sequence[0] * 4


def test_hedge_threshold_stays_cold_until_min_samples():
    state = ReliabilityState(
        ReliabilityConfig(hedge_quantile=0.9, hedge_min_samples=8), SimulatedClock()
    )
    warm(state, count=7)
    assert state.hedge_threshold_ms() == float("inf")
    warm(state, count=1)
    assert np.isfinite(state.hedge_threshold_ms())


def test_snapshot_is_json_safe_while_cold():
    import json

    state = ReliabilityState(ReliabilityConfig(hedge_quantile=0.9), SimulatedClock())
    report = state.snapshot()
    assert report["hedge_threshold_ms"] is None
    json.dumps(report)


# --------------------------------------------------------------------------
# Circuit breakers
# --------------------------------------------------------------------------


def breaker(**overrides) -> CircuitBreaker:
    return CircuitBreaker(
        ReliabilityConfig(
            breaker_window=4,
            breaker_min_samples=2,
            breaker_failure_threshold=0.5,
            breaker_open_ms=2.0,
            breaker_probe_reads=2,
            **overrides,
        )
    )


def test_breaker_trips_at_failure_threshold():
    cb = breaker()
    cb.record(0.0, ok=False)
    assert cb.state == BREAKER_CLOSED  # below min samples
    cb.record(0.0, ok=False)
    assert cb.state == BREAKER_OPEN
    assert cb.opens == 1
    assert not cb.allow(0.5)


def test_breaker_half_opens_after_open_window():
    cb = breaker()
    cb.trip(0.0)
    assert not cb.allow(1.9)
    assert cb.allow(2.0)  # probe admitted
    assert cb.state == BREAKER_HALF_OPEN
    assert cb.half_opens == 1


def test_breaker_closes_after_probe_successes():
    cb = breaker()
    cb.trip(0.0)
    assert cb.allow(2.0)
    cb.record(2.0, ok=True)
    assert cb.state == BREAKER_HALF_OPEN
    cb.record(2.1, ok=True)
    assert cb.state == BREAKER_CLOSED
    assert cb.closes == 1


def test_breaker_reopens_on_probe_failure():
    cb = breaker()
    cb.trip(0.0)
    assert cb.allow(2.0)
    cb.record(2.0, ok=False)
    assert cb.state == BREAKER_OPEN
    assert cb.opens == 2
    assert not cb.allow(2.5)


def test_breaker_ignores_outcomes_while_open():
    cb = breaker()
    cb.trip(0.0)
    cb.record(0.5, ok=True)  # fail-open read while tripped
    assert cb.state == BREAKER_OPEN


def test_breaker_filters_read_candidates(keyset):
    group = make_group(keyset, reliability=ReliabilityConfig())
    rel = group.reliability
    rel.breaker(0, 0).trip(group.clock.now_ms)
    for _ in range(4):
        group.read_point(keyset.keys[:8])
    assert group.replicas[0].reads_served == 0
    assert group.replicas[1].reads_served == 4 * 8
    assert group.counters["breaker_skips"] >= 4


def test_breaker_fail_open_when_every_breaker_is_open(keyset):
    group = make_group(keyset, reliability=ReliabilityConfig())
    rel = group.reliability
    now = group.clock.now_ms
    rel.breaker(0, 0).trip(now)
    rel.breaker(0, 1).trip(now)
    read = group.read_point(keyset.keys[:8])
    assert read.result.match_counts.sum() > 0  # served despite both breakers
    assert group.counters["breaker_fail_open"] >= 1
    assert not read.unavailable


def test_transient_errors_trip_the_replica_breaker(keyset):
    group = make_group(
        keyset,
        reliability=ReliabilityConfig(
            breaker_window=4, breaker_min_samples=2, breaker_failure_threshold=0.5
        ),
    )
    group.inject_transient(0, 10)
    for _ in range(4):
        group.read_point(keyset.keys[:8])
    assert group.reliability.breaker(0, 0).opens >= 1
    # While the breaker holds replica 0 out, its error supply stays put.
    assert group.replicas[0].pending_transient > 0


# --------------------------------------------------------------------------
# Bounded failover rounds (satellite bug fix)
# --------------------------------------------------------------------------


def test_all_replicas_erroring_read_is_bounded(keyset):
    # Pre-fix, the failover loop span round after round until the error
    # supply drained: 10k injected errors meant ~10k failover attempts
    # inside ONE read.  Bounded rounds force-restart a replica instead.
    group = make_group(keyset, max_failover_rounds=4)
    group.inject_transient(0, 10_000)
    group.inject_transient(1, 10_000)
    result = group.read_point(keyset.keys[:8]).result
    assert result.match_counts.sum() > 0  # the read still answers
    assert group.counters["forced_restarts"] >= 1
    assert group.counters["failovers"] <= 4 * 2 + 2
    assert group.counters["read_unavailable"] >= 1


def test_forced_restart_clears_the_wedged_replica(keyset):
    group = make_group(keyset, max_failover_rounds=2)
    group.inject_transient(0, 1_000)
    group.inject_transient(1, 1_000)
    group.read_point(keyset.keys[:8])
    # The restarted (lowest-id available) replica came back clean.
    assert group.replicas[0].pending_transient == 0


# --------------------------------------------------------------------------
# Retry budgets and deadlines at the replica layer
# --------------------------------------------------------------------------


def test_retry_budget_exhaustion_returns_explicit_unavailable(keyset):
    group = make_group(
        keyset,
        reliability=ReliabilityConfig(retry_budget=2.0, retry_refill_per_ms=0.0),
    )
    group.inject_transient(0, 100)
    group.inject_transient(1, 100)
    read = group.read_point(keyset.keys[:8])
    assert read.unavailable
    assert np.all(read.result.row_ids == -1)
    assert np.all(read.result.match_counts == 0)
    assert group.reliability.counters["retry_budget_exhausted"] >= 1
    assert group.counters["read_unavailable_retry_budget"] == 1


def test_retries_spend_budget_and_pay_backoff(keyset):
    config = ReliabilityConfig(retry_backoff_base_ms=0.2, retry_jitter=0.0)
    group = make_group(keyset, reliability=config)
    group.inject_transient(0, 1)
    group.inject_transient(1, 1)
    read = group.read_point(keyset.keys[:8])
    assert read.result.match_counts.sum() > 0
    assert group.reliability.counters["retries"] == 2
    # Overhead = 2 failover penalties + 0.2 + 0.4 backoff.
    assert read.overhead_ms == pytest.approx(2 * 0.05 + 0.2 + 0.4)


def test_deadline_abandons_retries_past_the_budget(keyset):
    group = make_group(keyset, reliability=ReliabilityConfig(deadline_ms=5.0))
    group.inject_transient(0, 50)
    group.inject_transient(1, 50)
    read = group.read_point(keyset.keys[:8], start_ms=0.0, deadline_ms=0.01)
    assert read.unavailable
    assert np.all(read.result.row_ids == -1)
    assert group.counters["read_unavailable_deadline"] == 1
    # The deadline bounds that read alone: the next read has none and
    # retries past the same error supply until it is served.
    for replica in group.replicas:
        replica.pending_transient = 1
    again = group.read_point(keyset.keys[:8])
    assert not again.unavailable
    assert again.result.match_counts.sum() > 0
    assert group.counters["read_unavailable_deadline"] == 1


def test_unarmed_reads_keep_classic_semantics(keyset):
    group = make_group(keyset)  # no reliability state
    group.inject_transient(0, 3)
    read = group.read_point(keyset.keys[:8])
    assert read.result.match_counts.sum() > 0
    assert not read.unavailable
    assert read.time_ms > 0.0


# --------------------------------------------------------------------------
# Hedged reads
# --------------------------------------------------------------------------


def hedged_config(**overrides) -> ReliabilityConfig:
    return ReliabilityConfig(
        **{"hedge_quantile": 0.9, "hedge_min_samples": 4, **overrides}
    )


def test_hedge_fires_and_wins_against_a_slow_primary(keyset):
    group = make_group(keyset, reliability=hedged_config())
    warm(group.reliability, value_ms=0.01, count=8)
    group.set_slow(0, 500.0)
    slow_service = None
    for _ in range(2):  # round robin: one of the two reads lands on replica 0
        read = group.read_point(keyset.keys[:8])
        if read.hedged_ms is not None:
            slow_service = group.cost_model.kernel_time_ms(read.result.stats) * 500.0
            assert read.time_ms < slow_service
    rel = group.reliability
    assert rel.counters["hedges"] >= 1
    assert rel.counters["hedge_wins"] >= 1
    assert slow_service is not None
    assert rel.hedge_waste_ms > 0.0  # the loser's device time is accounted


def test_hedge_loses_when_the_peer_is_slow_too(keyset):
    group = make_group(keyset, reliability=hedged_config())
    warm(group.reliability, value_ms=0.01, count=8)
    group.set_slow(0, 50.0)
    group.set_slow(1, 50.0)
    group.read_point(keyset.keys[:8])
    rel = group.reliability
    assert rel.counters["hedges"] == 1
    assert rel.counters.get("hedge_losses", 0) == 1
    assert rel.hedge_waste_ms > 0.0


def test_hedge_needs_a_healthy_peer(keyset):
    group = make_group(keyset, replication_factor=1, reliability=hedged_config())
    warm(group.reliability, value_ms=0.01, count=8)
    group.set_slow(0, 500.0)
    group.read_point(keyset.keys[:8])
    assert "hedges" not in group.reliability.counters


def test_hedge_emits_trace_span(keyset):
    from repro.obs.trace import Tracer

    group = make_group(keyset, reliability=hedged_config())
    group.tracer = Tracer(clock=group.clock, enabled=True)
    warm(group.reliability, value_ms=0.01, count=8)
    group.set_slow(0, 500.0)
    for _ in range(2):
        group.read_point(keyset.keys[:8])
    names = {span.name for span in group.tracer.spans}
    assert "replica.hedge" in names
    hedge = next(s for s in group.tracer.spans if s.name == "replica.hedge")
    assert hedge.attributes["won"] is True
    assert hedge.attributes["replica"] != hedge.attributes["primary"]


def test_hedge_accounting_flows_into_metrics(keyset):
    from repro.serve.metrics import MetricsRegistry

    group = make_group(keyset, reliability=hedged_config())
    group.metrics = MetricsRegistry(num_shards=1)
    warm(group.reliability, value_ms=0.01, count=8)
    group.set_slow(0, 500.0)
    for _ in range(2):
        group.read_point(keyset.keys[:8])
    snapshot = group.metrics.snapshot()
    assert snapshot.get("hedges", 0) >= 1
    assert snapshot.get("hedge_wins", 0) >= 1


# --------------------------------------------------------------------------
# Serving-layer integration: deadlines, partial results, stale reads
# --------------------------------------------------------------------------


def oracle_answers(keyset, stream):
    from repro.baselines.sorted_array import SortedArrayIndex

    oracle = SortedArrayIndex(keyset.keys, keyset.row_ids, key_bits=32)
    return oracle.point_lookup_batch(stream.keys.astype(np.uint32))


def serve(keyset, stream, config, events=None):
    deployment = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
    if events is not None:
        deployment.inject_failures(events)
    deployment.serve_stream(stream, record_answers=True)
    return deployment


def test_deadline_exceeded_requests_are_capped_and_masked(keyset):
    stream = zipf_request_stream(
        keyset, 256, requests_per_ms=64.0, miss_fraction=0.0, seed=5
    )
    config = ServeConfig(
        num_shards=2,
        key_bits=32,
        cache_capacity=0,
        max_wait_ms=0.5,
        reliability=ReliabilityConfig(deadline_ms=0.2),
    )
    deployment = serve(keyset, stream, config)
    metrics = deployment.metrics
    assert deployment.last_deadline_exceeded.sum() > 0
    assert max(metrics.request_latencies) <= 0.2 + 1e-9
    # Complete (unmasked) answers stay byte-identical to the oracle.
    expected = oracle_answers(keyset, stream)
    mask = ~deployment.last_deadline_exceeded
    row_agg, counts = deployment.last_answers
    assert row_agg[mask].tobytes() == expected.row_ids[mask].tobytes()
    assert counts[mask].tobytes() == expected.match_counts[mask].tobytes()


def test_no_deadline_means_no_mask(keyset):
    stream = zipf_request_stream(keyset, 64, requests_per_ms=16.0, seed=6)
    config = ServeConfig(
        num_shards=2, key_bits=32, cache_capacity=0, reliability=ReliabilityConfig()
    )
    deployment = serve(keyset, stream, config)
    assert deployment.last_deadline_exceeded.sum() == 0
    assert deployment.last_unavailable.sum() == 0


def whole_fleet_outage(num_shards, factor, duration_ms):
    return [
        FailureEvent(
            at_ms=0.0,
            kind="crash",
            shard_id=shard,
            replica_id=replica,
            duration_ms=duration_ms,
        )
        for shard in range(num_shards)
        for replica in range(factor)
    ]


def test_whole_group_outage_yields_explicit_partial_results(keyset):
    stream = zipf_request_stream(
        keyset, 128, requests_per_ms=32.0, miss_fraction=0.0, seed=7
    )
    config = ServeConfig(
        num_shards=2,
        key_bits=32,
        cache_capacity=0,
        replication_factor=2,
        reliability=ReliabilityConfig(),
    )
    deployment = serve(
        keyset, stream, config, events=whole_fleet_outage(2, 2, duration_ms=1e6)
    )
    assert deployment.last_unavailable.sum() == len(stream)
    row_agg, counts = deployment.last_answers
    assert np.all(row_agg[deployment.last_unavailable] == -1)
    assert np.all(counts[deployment.last_unavailable] == 0)
    snapshot = deployment.metrics.snapshot()
    assert snapshot.get("requests_unavailable", 0) == len(stream)
    # The classic contract would have emergency-restarted instead.
    assert deployment.replication_snapshot().get("emergency_restarts", 0) == 0


def test_stale_reads_answer_from_the_durable_store(keyset, tmp_path):
    stream = zipf_request_stream(
        keyset, 128, requests_per_ms=32.0, miss_fraction=0.05, seed=8
    )
    config = ServeConfig(
        num_shards=2,
        key_bits=32,
        cache_capacity=0,
        replication_factor=2,
        store_dir=str(tmp_path / "store"),
        store_fsync=False,
        reliability=ReliabilityConfig(stale_reads=True),
    )
    deployment = serve(
        keyset, stream, config, events=whole_fleet_outage(2, 2, duration_ms=1e6)
    )
    assert deployment.last_stale.sum() == len(stream)
    assert deployment.last_unavailable.sum() == 0
    # Nothing was written after the checkpoint: stale bytes == fresh bytes.
    expected = oracle_answers(keyset, stream)
    row_agg, counts = deployment.last_answers
    assert row_agg.tobytes() == expected.row_ids.tobytes()
    assert counts.tobytes() == expected.match_counts.tobytes()
    assert deployment.metrics.snapshot().get("stale_reads_served", 0) == len(stream)


def test_unavailable_answers_never_poison_the_cache(keyset):
    stream = zipf_request_stream(
        keyset, 96, requests_per_ms=32.0, miss_fraction=0.0, seed=9
    )
    config = ServeConfig(
        num_shards=2,
        key_bits=32,
        cache_capacity=512,
        replication_factor=2,
        reliability=ReliabilityConfig(),
    )
    deployment = serve(
        keyset, stream, config, events=whole_fleet_outage(2, 2, duration_ms=50.0)
    )
    # The outage is over; every stored key must answer correctly now — a
    # cache poisoned with unavailable miss answers would fail this.
    deployment._poll_failures(1e6)
    deployment.maintenance.run_cycle(1e6)
    probe = keyset.keys[:256]
    from repro.baselines.sorted_array import SortedArrayIndex

    oracle = SortedArrayIndex(keyset.keys, keyset.row_ids, key_bits=32)
    expected = oracle.point_lookup_batch(probe)
    answered = deployment.point_lookup_batch(probe)
    np.testing.assert_array_equal(answered.row_ids, expected.row_ids)
    np.testing.assert_array_equal(answered.match_counts, expected.match_counts)


def test_describe_marks_reliability():
    config = ServeConfig(reliability=ReliabilityConfig())
    assert config.describe().endswith("+rel")
    assert "+rel" not in ServeConfig().describe()


# --------------------------------------------------------------------------
# Fault-activity gauges (satellite)
# --------------------------------------------------------------------------


def test_fault_active_gauges_track_injected_windows(keyset):
    config = ServeConfig(
        num_shards=2, key_bits=32, cache_capacity=0, replication_factor=2
    )
    deployment = ShardedIndex(keyset.keys, keyset.row_ids, config=config)
    injector = deployment.inject_failures(
        [
            FailureEvent(at_ms=1.0, kind="crash", shard_id=0, replica_id=0, duration_ms=5.0),
            FailureEvent(at_ms=1.0, kind="slow", shard_id=1, replica_id=1, duration_ms=5.0, slow_factor=4.0),
            FailureEvent(at_ms=1.0, kind="transient", shard_id=0, replica_id=1, error_count=3),
        ]
    )
    telemetry = deployment.metrics.telemetry
    injector.poll(2.0)
    assert telemetry.gauge("fault_active_crash").value == 1.0
    assert telemetry.gauge("fault_active_slow").value == 1.0
    assert telemetry.gauge("fault_active_transient").value == 3.0
    injector.poll(10.0)  # both windows expired
    assert telemetry.gauge("fault_active_crash").value == 0.0
    assert telemetry.gauge("fault_active_slow").value == 0.0


# --------------------------------------------------------------------------
# Gray-failure weather (satellite: seed stability + semantics)
# --------------------------------------------------------------------------

BASE_WEATHER = dict(
    num_shards=4,
    replication_factor=3,
    duration_ms=100.0,
    crashes_per_s=30.0,
    slowdowns_per_s=30.0,
    transients_per_s=60.0,
    process_kills_per_s=10.0,
    seed=17,
)


def event_key(event):
    return (
        event.kind,
        event.at_ms,
        event.shard_id,
        event.replica_id,
        event.duration_ms,
        event.slow_factor,
        event.error_count,
    )


def test_gray_weather_does_not_shift_known_seed_schedules():
    base = failure_schedule(**BASE_WEATHER)
    with_gray = failure_schedule(
        **BASE_WEATHER,
        latency_storms_per_s=40.0,
        correlated_outages_per_s=20.0,
        flapping_per_s=20.0,
    )
    base_keys = [event_key(e) for e in base]
    gray_keys = [event_key(e) for e in with_gray]
    assert len(gray_keys) > len(base_keys)
    # Every classic-class event survives byte-for-byte: gray draws happen
    # strictly after the existing classes.
    for key in base_keys:
        assert key in gray_keys


def test_weather_is_deterministic_per_seed():
    kwargs = dict(BASE_WEATHER, latency_storms_per_s=40.0, flapping_per_s=10.0)
    first = [event_key(e) for e in failure_schedule(**kwargs)]
    second = [event_key(e) for e in failure_schedule(**kwargs)]
    assert first == second


def test_latency_storm_spares_at_least_one_replica():
    events = failure_schedule(
        num_shards=2,
        replication_factor=3,
        duration_ms=200.0,
        crashes_per_s=0.0,
        slowdowns_per_s=0.0,
        transients_per_s=0.0,
        latency_storms_per_s=40.0,
        storm_slow_factor=8.0,
        seed=3,
    )
    assert events and all(e.kind == "slow" for e in events)
    assert all(e.slow_factor == 8.0 for e in events)
    # Storm victims cluster within their 0.5 ms onset jitter; each cluster
    # hits at most replication_factor - 1 replicas of its shard.
    events = sorted(events, key=lambda e: e.at_ms)
    cluster, start = [], None
    clusters = []
    for event in events:
        if start is None or event.at_ms - start > 0.5:
            if cluster:
                clusters.append(cluster)
            cluster, start = [event], event.at_ms
        else:
            cluster.append(event)
    clusters.append(cluster)
    for cluster in clusters:
        assert len({e.replica_id for e in cluster}) <= 2


def test_correlated_outage_crashes_the_whole_group_at_once():
    events = failure_schedule(
        num_shards=3,
        replication_factor=3,
        duration_ms=200.0,
        crashes_per_s=0.0,
        slowdowns_per_s=0.0,
        transients_per_s=0.0,
        correlated_outages_per_s=20.0,
        seed=4,
    )
    assert events and all(e.kind == "crash" for e in events)
    by_onset = {}
    for event in events:
        by_onset.setdefault((event.at_ms, event.shard_id), []).append(event)
    for (_, _), group in by_onset.items():
        assert sorted(e.replica_id for e in group) == [0, 1, 2]
        assert len({e.duration_ms for e in group}) == 1  # one shared outage


def test_flapping_generates_bounce_cycles_on_one_replica():
    events = failure_schedule(
        num_shards=2,
        replication_factor=2,
        duration_ms=200.0,
        crashes_per_s=0.0,
        slowdowns_per_s=0.0,
        transients_per_s=0.0,
        flapping_per_s=10.0,
        flap_cycles=3,
        seed=5,
    )
    assert events and all(e.kind == "crash" for e in events)
    assert len(events) % 3 == 0  # flap_cycles crashes per flap


def test_spare_replica_is_exempt_from_correlated_outages():
    events = failure_schedule(
        num_shards=2,
        replication_factor=3,
        duration_ms=200.0,
        crashes_per_s=0.0,
        slowdowns_per_s=0.0,
        transients_per_s=0.0,
        correlated_outages_per_s=30.0,
        flapping_per_s=20.0,
        spare_replica=1,
        seed=6,
    )
    assert events
    assert all(e.replica_id != 1 for e in events)


# --------------------------------------------------------------------------
# Bench registration (satellites)
# --------------------------------------------------------------------------


def test_reliability_experiment_is_registered():
    import inspect

    assert "reliability" in ALL_EXPERIMENTS
    assert "quick" in inspect.signature(ALL_EXPERIMENTS["reliability"]).parameters


def test_bench_list_prints_one_line_descriptions():
    lines = list_experiments()
    by_name = {line.split()[0]: line for line in lines}
    assert "reliability" in by_name
    # Each line carries a human summary beyond the bare name.
    for name, line in by_name.items():
        assert len(line.split(None, 1)) == 2, f"{name} has no description"
    assert "gray" in by_name["reliability"].lower() or "tail" in by_name["reliability"].lower()
