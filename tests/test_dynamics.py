"""Tests for repro.dynamics.traffic (the traffic evolution model)."""

from __future__ import annotations

import pytest

from repro.dynamics import TrafficModel
from repro.graph import road_network


class TestTrafficModel:
    def test_update_count_matches_alpha(self):
        graph = road_network(8, 8, seed=1)
        model = TrafficModel(graph, alpha=0.25, tau=0.3, seed=1)
        updates = model.generate_updates()
        expected = int(graph.num_edges * 0.25)
        assert abs(len(updates) - expected) <= 1

    def test_updates_within_tau_of_initial_weight(self):
        graph = road_network(8, 8, seed=1)
        tau = 0.3
        model = TrafficModel(graph, alpha=0.5, tau=tau, seed=2)
        for update in model.generate_updates():
            base = graph.initial_weight(update.u, update.v)
            assert base * (1 - tau) - 1e-9 <= update.new_weight <= base * (1 + tau) + 1e-9

    def test_weights_stay_positive_even_for_large_tau(self):
        graph = road_network(6, 6, seed=1)
        model = TrafficModel(graph, alpha=1.0, tau=0.999, seed=3)
        for _ in range(5):
            for update in model.advance():
                assert update.new_weight > 0

    def test_advance_applies_updates_to_graph(self):
        graph = road_network(6, 6, seed=1)
        before = list(graph.edges())
        model = TrafficModel(graph, alpha=0.5, tau=0.5, seed=4)
        model.advance()
        assert list(graph.edges()) != before
        assert graph.version == 1

    def test_correlated_mode_moves_all_edges_same_direction(self):
        graph = road_network(6, 6, seed=1)
        model = TrafficModel(graph, alpha=0.5, tau=0.5, seed=5, correlated=True)
        updates = model.generate_updates()
        signs = set()
        for update in updates:
            base = graph.initial_weight(update.u, update.v)
            if update.new_weight > base:
                signs.add(1)
            elif update.new_weight < base:
                signs.add(-1)
        assert len(signs) <= 1

    def test_uncorrelated_mode_moves_edges_both_directions(self):
        graph = road_network(8, 8, seed=1)
        model = TrafficModel(graph, alpha=0.9, tau=0.5, seed=5, correlated=False)
        updates = model.generate_updates()
        signs = set()
        for update in updates:
            base = graph.initial_weight(update.u, update.v)
            if update.new_weight > base:
                signs.add(1)
            elif update.new_weight < base:
                signs.add(-1)
        assert signs == {1, -1}

    def test_correlated_is_default(self):
        graph = road_network(4, 4, seed=1)
        assert TrafficModel(graph).correlated is True

    def test_increase_direction_never_drops_below_initial(self):
        graph = road_network(6, 6, seed=1)
        model = TrafficModel(graph, alpha=0.8, tau=0.9, seed=4, direction="increase")
        for _ in range(3):
            for update in model.advance():
                assert update.new_weight >= graph.initial_weight(update.u, update.v) - 1e-9

    def test_decrease_direction_never_rises_above_initial(self):
        graph = road_network(6, 6, seed=1)
        model = TrafficModel(graph, alpha=0.8, tau=0.5, seed=4, direction="decrease")
        for update in model.generate_updates():
            assert update.new_weight <= graph.initial_weight(update.u, update.v) + 1e-9

    def test_invalid_direction_rejected(self):
        graph = road_network(4, 4, seed=1)
        with pytest.raises(ValueError):
            TrafficModel(graph, direction="sideways")

    def test_reproducible_with_seed(self):
        first_graph = road_network(5, 5, seed=1)
        second_graph = road_network(5, 5, seed=1)
        first = TrafficModel(first_graph, alpha=0.3, tau=0.3, seed=7).generate_updates()
        second = TrafficModel(second_graph, alpha=0.3, tau=0.3, seed=7).generate_updates()
        assert [(u.u, u.v, u.new_weight) for u in first] == [
            (u.u, u.v, u.new_weight) for u in second
        ]

    def test_invalid_parameters_rejected(self):
        graph = road_network(4, 4, seed=1)
        with pytest.raises(ValueError):
            TrafficModel(graph, alpha=0.0)
        with pytest.raises(ValueError):
            TrafficModel(graph, alpha=1.5)
        with pytest.raises(ValueError):
            TrafficModel(graph, tau=-0.1)

    def test_timestamps_increment(self):
        graph = road_network(4, 4, seed=1)
        model = TrafficModel(graph, alpha=0.5, tau=0.3, seed=8)
        first = model.generate_updates()
        second = model.generate_updates()
        assert all(update.timestamp == 1 for update in first)
        assert all(update.timestamp == 2 for update in second)
