"""Tests for repro.attacks: naive, mimicry, primitives, Storm, botnet, injection."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.attacks.base import AttackTrace, FeatureInjection, VictimBatch, uniform_injection
from repro.attacks.botnet import Botnet, CommandAndControl
from repro.attacks.injection import inject_attack, inject_population, overlay_attack_matrix
from repro.attacks.mimicry import (
    MimicryAttacker,
    batch_hidden_traffic,
    hidden_traffic_by_host,
    mimicry_batch_attack,
)
from repro.attacks.naive import NaiveAttacker, attack_size_sweep, constant_rate_attack
from repro.attacks.primitives import DDoSFloodModel, PortScanModel, SpamCampaignModel
from repro.attacks.storm import generate_storm_trace, storm_batch_attack
from repro.features.definitions import Feature
from repro.features.timeseries import FeatureMatrix, TimeSeries
from repro.utils.timeutils import BinSpec, MINUTE, WEEK
from repro.utils.validation import ValidationError


def _matrix(values, host_id=1):
    spec = BinSpec(width=15 * MINUTE)
    series = {
        Feature.TCP_CONNECTIONS: TimeSeries(values, spec),
        Feature.DISTINCT_CONNECTIONS: TimeSeries(values, spec),
    }
    return FeatureMatrix(host_id=host_id, series=series)


class TestAttackTrace:
    def test_uniform_injection(self):
        trace = uniform_injection(Feature.TCP_CONNECTIONS, 10.0, 5, BinSpec(width=900.0))
        assert trace.num_bins == 5
        assert trace.injection(Feature.TCP_CONNECTIONS).total == 50.0
        assert np.all(trace.attack_bins(Feature.TCP_CONNECTIONS))

    def test_amounts_for_untouched_feature_are_zero(self):
        trace = uniform_injection(Feature.TCP_CONNECTIONS, 10.0, 5, BinSpec(width=900.0))
        assert np.all(trace.amounts(Feature.UDP_CONNECTIONS) == 0)

    def test_negative_amounts_rejected(self):
        with pytest.raises(ValidationError):
            FeatureInjection(feature=Feature.TCP_CONNECTIONS, amounts=np.array([-1.0]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            AttackTrace(
                name="x",
                injections={
                    Feature.TCP_CONNECTIONS: FeatureInjection(
                        Feature.TCP_CONNECTIONS, np.ones(3)
                    ),
                    Feature.UDP_CONNECTIONS: FeatureInjection(
                        Feature.UDP_CONNECTIONS, np.ones(4)
                    ),
                },
                bin_spec=BinSpec(width=900.0),
            )


class TestNaiveAttacker:
    def test_always_on_injection(self, rng):
        victim = _matrix([5.0] * 10)
        trace = NaiveAttacker(Feature.TCP_CONNECTIONS, attack_size=50.0).build(victim, rng)
        assert np.all(trace.amounts(Feature.TCP_CONNECTIONS) == 50.0)

    def test_partial_activity(self, rng):
        victim = _matrix([5.0] * 500)
        trace = NaiveAttacker(
            Feature.TCP_CONNECTIONS, attack_size=50.0, active_fraction=0.3
        ).build(victim, rng)
        fraction = trace.attack_bins(Feature.TCP_CONNECTIONS).mean()
        assert 0.15 < fraction < 0.45

    def test_constant_rate_helper(self):
        victim = _matrix([1.0] * 4)
        trace = constant_rate_attack(victim, Feature.TCP_CONNECTIONS, 7.0)
        assert trace.injection(Feature.TCP_CONNECTIONS).total == 28.0

    def test_attack_size_sweep_monotone(self):
        sweep = attack_size_sweep(1000.0, 20)
        assert sweep[0] == 1.0
        assert sweep[-1] == 1000.0
        assert np.all(np.diff(sweep) > 0)


class TestMimicryAttacker:
    def test_plan_respects_evasion_probability(self):
        values = list(range(100))
        victim = _matrix(values)
        threshold = 150.0
        attacker = MimicryAttacker(Feature.TCP_CONNECTIONS, threshold, evasion_probability=0.9)
        plan = attacker.plan(victim)
        assert plan.hidden_traffic > 0
        assert plan.expected_evasion >= 0.9 - 1e-9

    def test_zero_hidden_traffic_when_threshold_low(self):
        victim = _matrix([100.0] * 20)
        attacker = MimicryAttacker(Feature.TCP_CONNECTIONS, threshold=10.0)
        assert attacker.plan(victim).hidden_traffic == 0.0

    def test_lower_threshold_means_less_hidden_traffic(self):
        victim = _matrix(list(range(100)))
        high = MimicryAttacker(Feature.TCP_CONNECTIONS, 500.0).plan(victim).hidden_traffic
        low = MimicryAttacker(Feature.TCP_CONNECTIONS, 120.0).plan(victim).hidden_traffic
        assert low < high

    def test_hidden_traffic_by_host(self):
        matrices = {1: _matrix(list(range(50))), 2: _matrix([1.0] * 50)}
        thresholds = {1: 100.0, 2: 100.0}
        hidden = hidden_traffic_by_host(matrices, thresholds, Feature.TCP_CONNECTIONS)
        assert hidden[2] > hidden[1]  # the lighter host leaves more room

    def test_build_injects_constant_plan(self, rng):
        victim = _matrix(list(range(50)))
        attacker = MimicryAttacker(Feature.TCP_CONNECTIONS, 100.0)
        trace = attacker.build(victim, rng)
        amounts = trace.amounts(Feature.TCP_CONNECTIONS)
        assert np.all(amounts == amounts[0])


class TestPrimitives:
    def test_port_scan_counts(self, rng):
        counts = PortScanModel(activity_probability=1.0).per_bin_counts(50, rng)
        assert np.all(counts[Feature.TCP_SYN] >= counts[Feature.TCP_CONNECTIONS] * 0.99)
        assert np.all(counts[Feature.DISTINCT_CONNECTIONS] > 0)

    def test_ddos_single_victim_distinct(self, rng):
        counts = DDoSFloodModel(activity_probability=1.0).per_bin_counts(20, rng)
        assert np.all(counts[Feature.DISTINCT_CONNECTIONS] <= 1.0)
        assert counts[Feature.TCP_CONNECTIONS].sum() > 0

    def test_ddos_udp_fraction(self, rng):
        counts = DDoSFloodModel(udp_fraction=1.0, activity_probability=1.0).per_bin_counts(20, rng)
        assert counts[Feature.TCP_CONNECTIONS].sum() == 0
        assert counts[Feature.UDP_CONNECTIONS].sum() > 0

    def test_spam_generates_dns(self, rng):
        counts = SpamCampaignModel(activity_probability=1.0).per_bin_counts(20, rng)
        assert counts[Feature.DNS_CONNECTIONS].sum() > 0


class TestStorm:
    def test_storm_trace_dimensions(self):
        trace = generate_storm_trace(duration=WEEK, bin_width=15 * MINUTE, seed=1)
        assert trace.num_bins == 672
        assert Feature.DISTINCT_CONNECTIONS in trace.features

    def test_storm_distinct_dominates(self):
        trace = generate_storm_trace(seed=2)
        distinct_total = trace.injection(Feature.DISTINCT_CONNECTIONS).total
        dns_total = trace.amounts(Feature.DNS_CONNECTIONS).sum()
        assert distinct_total > dns_total

    def test_storm_deterministic_by_seed(self):
        a = generate_storm_trace(seed=3)
        b = generate_storm_trace(seed=3)
        assert np.array_equal(
            a.amounts(Feature.DISTINCT_CONNECTIONS), b.amounts(Feature.DISTINCT_CONNECTIONS)
        )

    def test_storm_has_quiet_and_bursty_bins(self):
        amounts = generate_storm_trace(seed=4).amounts(Feature.DISTINCT_CONNECTIONS)
        assert np.percentile(amounts, 20) < 150
        assert np.max(amounts) > 800


class TestBotnet:
    def test_recruitment_probability(self):
        botnet = Botnet(compromise_probability=1.0)
        assert botnet.recruit(list(range(10))) == list(range(10))
        none_botnet = Botnet(compromise_probability=0.0)
        assert none_botnet.recruit(list(range(10))) == []

    def test_naive_campaign_volume(self):
        matrices = {i: _matrix([1.0] * 10) for i in range(4)}
        campaign = Botnet().naive_campaign(matrices, Feature.TCP_CONNECTIONS, attack_size=5.0)
        assert campaign.total_volume() == pytest.approx(4 * 10 * 5.0)
        assert campaign.per_bin_volume().shape == (10,)

    def test_resourceful_campaign_bounded_by_thresholds(self):
        matrices = {i: _matrix(list(range(20))) for i in range(3)}
        low = Botnet().resourceful_campaign(
            matrices, {i: 30.0 for i in range(3)}, Feature.TCP_CONNECTIONS
        )
        high = Botnet().resourceful_campaign(
            matrices, {i: 300.0 for i in range(3)}, Feature.TCP_CONNECTIONS
        )
        assert low.total_volume() < high.total_volume()

    def test_control_feature_mapping(self):
        assert CommandAndControl.HTTP.control_feature == Feature.HTTP_CONNECTIONS
        assert CommandAndControl.P2P.control_feature == Feature.UDP_CONNECTIONS


class TestInjection:
    def test_inject_attack_additive(self):
        benign = TimeSeries([1.0, 2.0, 3.0], BinSpec(width=900.0))
        attack = uniform_injection(Feature.TCP_CONNECTIONS, 10.0, 3, BinSpec(width=900.0))
        injected = inject_attack(benign, attack, Feature.TCP_CONNECTIONS)
        assert list(injected.observed.values) == [11.0, 12.0, 13.0]
        assert injected.num_attack_bins == 3

    def test_inject_attack_shorter_than_benign(self):
        benign = TimeSeries([1.0] * 5, BinSpec(width=900.0))
        attack = uniform_injection(Feature.TCP_CONNECTIONS, 10.0, 2, BinSpec(width=900.0))
        injected = inject_attack(benign, attack, Feature.TCP_CONNECTIONS)
        assert list(injected.observed.values) == [11.0, 11.0, 1.0, 1.0, 1.0]

    def test_bin_width_mismatch_rejected(self):
        benign = TimeSeries([1.0], BinSpec(width=300.0))
        attack = uniform_injection(Feature.TCP_CONNECTIONS, 10.0, 1, BinSpec(width=900.0))
        with pytest.raises(ValidationError):
            inject_attack(benign, attack, Feature.TCP_CONNECTIONS)

    def test_overlay_attack_matrix(self):
        matrix = _matrix([1.0] * 4)
        attack = uniform_injection(Feature.TCP_CONNECTIONS, 5.0, 4, BinSpec(width=15 * MINUTE))
        overlaid = overlay_attack_matrix(matrix, attack)
        assert overlaid[Feature.TCP_CONNECTIONS].total() == 24.0
        assert overlaid[Feature.DISTINCT_CONNECTIONS].total() == matrix[Feature.DISTINCT_CONNECTIONS].total()

    def test_inject_population(self):
        matrices = {1: _matrix([1.0] * 4), 2: _matrix([2.0] * 4)}
        attack = uniform_injection(Feature.TCP_CONNECTIONS, 5.0, 4, BinSpec(width=15 * MINUTE))
        injected = inject_population(matrices, attack, Feature.TCP_CONNECTIONS)
        assert set(injected) == {1, 2}

    @given(st.lists(st.floats(min_value=0, max_value=1e4), min_size=1, max_size=50),
           st.floats(min_value=0, max_value=1e4))
    @settings(max_examples=30)
    def test_injection_preserves_benign_plus_attack(self, benign_values, size):
        benign = TimeSeries(benign_values, BinSpec(width=900.0))
        attack = uniform_injection(
            Feature.TCP_CONNECTIONS, size, len(benign_values), BinSpec(width=900.0)
        )
        injected = inject_attack(benign, attack, Feature.TCP_CONNECTIONS)
        assert np.allclose(
            np.asarray(injected.observed.values),
            np.asarray(benign.values) + size,
        )


def _victim_batch(matrices, thresholds=None, bin_width=15 * MINUTE):
    """The victims of ``matrices`` as measurement hands them to an attack."""
    host_ids = list(matrices)
    first = matrices[host_ids[0]]
    return VictimBatch(
        host_ids=host_ids,
        bin_spec=BinSpec(width=bin_width),
        num_bins=first.num_bins,
        thresholds={
            feature: np.asarray(values, dtype=float)
            for feature, values in (thresholds or {}).items()
        },
        values_provider=lambda feature: np.stack(
            [np.asarray(matrices[host_id].series(feature).values) for host_id in host_ids]
        ),
    )


class TestVictimBatch:
    def test_values_are_stacked_once_per_feature(self):
        calls = []

        def provider(feature):
            calls.append(feature)
            return np.ones((2, 3))

        batch = VictimBatch((4, 9), BinSpec(width=900.0), 3, {}, provider)
        assert batch.num_hosts == 2
        assert batch.host_ids == (4, 9)
        first = batch.values(Feature.TCP_CONNECTIONS)
        assert batch.values(Feature.TCP_CONNECTIONS) is first
        batch.values(Feature.UDP_CONNECTIONS)
        assert calls == [Feature.TCP_CONNECTIONS, Feature.UDP_CONNECTIONS]

    def test_attacks_that_need_no_values_never_stack_them(self):
        def provider(feature):
            raise AssertionError("naive and storm attacks must not stack benign values")

        batch = VictimBatch((1, 2), BinSpec(width=15 * MINUTE), 672, {}, provider)
        NaiveAttacker(Feature.TCP_CONNECTIONS, attack_size=3.0).host_builder()(batch)
        storm_batch_attack(generate_storm_trace(seed=1))(batch)


class TestNaiveBatchForm:
    def test_always_on_fills_every_bin_of_every_host(self):
        batch = _victim_batch({1: _matrix([5.0] * 10), 2: _matrix([6.0] * 10, host_id=2)})
        amounts = NaiveAttacker(Feature.TCP_CONNECTIONS, attack_size=50.0).host_builder()(batch)
        assert list(amounts) == [Feature.TCP_CONNECTIONS]
        np.testing.assert_array_equal(amounts[Feature.TCP_CONNECTIONS], np.full((2, 10), 50.0))

    def test_intermittent_rows_match_build_with_each_hosts_generator(self):
        matrices = {host_id: _matrix([5.0] * 200, host_id=host_id) for host_id in (3, 8, 11)}
        attacker = NaiveAttacker(Feature.TCP_CONNECTIONS, attack_size=20.0, active_fraction=0.4)
        rows = attacker.host_builder()(_victim_batch(matrices))[Feature.TCP_CONNECTIONS]
        for index, (host_id, victim) in enumerate(matrices.items()):
            trace = attacker.build(victim, np.random.default_rng(host_id))
            np.testing.assert_array_equal(rows[index], trace.amounts(Feature.TCP_CONNECTIONS))


class TestMimicryBatchForm:
    def test_batch_hidden_traffic_matches_the_per_host_plan(self):
        matrices = {
            1: _matrix(list(range(100))),
            2: _matrix([float(v % 7) for v in range(100)], host_id=2),
            3: _matrix([40.0] * 100, host_id=3),
        }
        thresholds = np.array([150.0, 12.0, 30.0])
        stacked = np.stack(
            [np.asarray(m.series(Feature.TCP_CONNECTIONS).values) for m in matrices.values()]
        )
        hidden = batch_hidden_traffic(stacked, thresholds, 0.9)
        for index, victim in enumerate(matrices.values()):
            plan = MimicryAttacker(Feature.TCP_CONNECTIONS, thresholds[index], 0.9).plan(victim)
            assert hidden[index] == plan.hidden_traffic
        assert hidden[2] == 0.0  # benign traffic alone already sits above 30

    def test_attack_injects_each_hosts_hidden_traffic_in_every_bin(self):
        matrices = {1: _matrix(list(range(50))), 2: _matrix([1.0] * 50, host_id=2)}
        batch = _victim_batch(matrices, {Feature.TCP_CONNECTIONS: [100.0, 100.0]})
        amounts = mimicry_batch_attack(Feature.TCP_CONNECTIONS, 0.9)(batch)
        rows = amounts[Feature.TCP_CONNECTIONS]
        assert rows.shape == (2, 50)
        expected = hidden_traffic_by_host(matrices, {1: 100.0, 2: 100.0}, Feature.TCP_CONNECTIONS)
        np.testing.assert_array_equal(rows[0], np.full(50, expected[1]))
        np.testing.assert_array_equal(rows[1], np.full(50, expected[2]))

    def test_attack_follows_the_thresholds_it_is_handed(self):
        matrices = {1: _matrix(list(range(50)))}
        attack = mimicry_batch_attack(Feature.TCP_CONNECTIONS)
        low = attack(_victim_batch(matrices, {Feature.TCP_CONNECTIONS: [60.0]}))
        high = attack(_victim_batch(matrices, {Feature.TCP_CONNECTIONS: [90.0]}))
        assert low[Feature.TCP_CONNECTIONS][0, 0] < high[Feature.TCP_CONNECTIONS][0, 0]

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValidationError):
            mimicry_batch_attack(Feature.TCP_CONNECTIONS, evasion_probability=1.5)
        with pytest.raises(ValidationError, match="num_hosts, num_bins"):
            batch_hidden_traffic(np.ones(5), np.ones(1))

    def test_hidden_traffic_of_no_hosts_is_empty(self):
        assert hidden_traffic_by_host({}, {}, Feature.TCP_CONNECTIONS) == {}


class TestStormBatchForm:
    def test_trace_is_replayed_on_every_host(self):
        trace = generate_storm_trace(seed=5)
        matrices = {h: _matrix([1.0] * trace.num_bins, host_id=h) for h in (1, 2, 3)}
        amounts = storm_batch_attack(trace)(_victim_batch(matrices))
        assert set(amounts) == set(trace.features)
        for feature, rows in amounts.items():
            assert rows.shape == (3, trace.num_bins)
            for row in rows:
                np.testing.assert_array_equal(row, trace.amounts(feature))

    def test_trace_is_padded_or_truncated_to_the_test_week(self):
        trace = generate_storm_trace(duration=WEEK / 7, seed=6)
        victims = _victim_batch({1: _matrix([1.0] * (trace.num_bins + 4))})
        row = storm_batch_attack(trace)(victims)[Feature.DISTINCT_CONNECTIONS][0]
        np.testing.assert_array_equal(
            row[: trace.num_bins], trace.amounts(Feature.DISTINCT_CONNECTIONS)
        )
        np.testing.assert_array_equal(row[trace.num_bins :], np.zeros(4))
        shorter = storm_batch_attack(trace)(_victim_batch({1: _matrix([1.0] * 5)}))
        np.testing.assert_array_equal(
            shorter[Feature.DISTINCT_CONNECTIONS][0],
            trace.amounts(Feature.DISTINCT_CONNECTIONS)[:5],
        )

    def test_trace_at_another_bin_width_raises(self):
        trace = generate_storm_trace(duration=WEEK, bin_width=5 * MINUTE, seed=7)
        with pytest.raises(ValidationError, match="same bin width"):
            storm_batch_attack(trace)(_victim_batch({1: _matrix([1.0] * 10)}))
