"""Synthetic data generators, the worked weight constructions, and Monte
Carlo cross-validation of the exact losses."""

import numpy as np
import pytest

from cclab.bounds import random_distribution, turning_point
from cclab.data import (
    ScenarioSpec,
    example_weights,
    make_blob_sequence,
    monte_carlo_contrastive,
    scenario_train_losses,
    scenario_weights,
)
from cclab.losses import population_contrastive
from tests.helpers import random_embedding


class TestBlobSequence:
    def test_structure(self):
        tasks = make_blob_sequence(3, classes_per_task=2, points_per_class=10)
        assert len(tasks) == 3
        for t, task in enumerate(tasks):
            expect = {2 * t, 2 * t + 1}
            assert set(task.train.labels) == expect
            assert set(task.test.labels) == expect
            # 80/20 split of 10 points per class
            assert task.train.size == 16
            assert task.test.size == 4
            assert task.train.mass.sum() == pytest.approx(1.0)

    def test_seed_reproducible(self):
        a = make_blob_sequence(2, seed=5)
        b = make_blob_sequence(2, seed=5)
        np.testing.assert_array_equal(a[0].train.points, b[0].train.points)
        c = make_blob_sequence(2, seed=6)
        assert not np.array_equal(a[0].train.points, c[0].train.points)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            make_blob_sequence(0)
        with pytest.raises(ValueError):
            make_blob_sequence(2, points_per_class=1)


class TestExampleWeights:
    def test_first_scenario(self):
        spec = ScenarioSpec(T=4, weight_rule="example1")
        w3 = example_weights(spec, 3)
        np.testing.assert_allclose(w3.weights, [2 / 3, 1 / 3])
        w4 = example_weights(spec, 4)
        np.testing.assert_allclose(w4.weights, [0.5, 0.25, 0.25])
        assert turning_point(scenario_weights(spec)) == pytest.approx(1.0)

    def test_second_scenario_turning_point_tracks_rho(self):
        for rho in (0.95, 1.05):
            spec = ScenarioSpec(T=5, weight_rule="example2", rho=rho)
            w = example_weights(spec, 4)
            np.testing.assert_allclose(w.weights[1:], 1 / (rho * 4))
            assert w.weights.sum() == pytest.approx(1.0)
            assert turning_point(scenario_weights(spec)) == pytest.approx(
                rho, abs=1e-12
            )

    def test_third_scenario(self):
        spec = ScenarioSpec(T=4, weight_rule="example3")
        np.testing.assert_allclose(example_weights(spec, 2).weights, [1.0])
        w4 = example_weights(spec, 4)
        np.testing.assert_allclose(w4.weights, [2.9 / 4, 0.1 / 4, 1 / 4])
        assert turning_point(scenario_weights(spec)) == pytest.approx(10.0)

    def test_range_checked(self):
        spec = ScenarioSpec(T=3)
        with pytest.raises(ValueError):
            example_weights(spec, 1)
        with pytest.raises(ValueError):
            example_weights(spec, 4)

    def test_loss_rules(self):
        spec = ScenarioSpec(T=3, base_loss=2.0)
        assert scenario_train_losses(spec) == [2.0, 2.0, 2.0]
        geo = ScenarioSpec(T=3, rho=0.5, loss_rule="geometric", base_loss=2.0)
        assert scenario_train_losses(geo) == [2.0, 1.0, 0.5]
        with pytest.raises(ValueError):
            scenario_train_losses(ScenarioSpec(T=3, loss_rule="measured"))


class TestMonteCarlo:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_estimate_within_five_standard_errors(self, seed):
        rng = np.random.default_rng(100 + seed)
        dist = random_distribution(rng, 5, 3)
        emb = random_embedding(dist, 4, rng)
        exact = population_contrastive(emb, dist, k=1)
        est, se = monte_carlo_contrastive(emb, dist, k=1, draws=40_000, seed=seed)
        assert abs(est - exact) < 5 * max(se, 1e-12)

    def test_two_negatives(self):
        rng = np.random.default_rng(200)
        dist = random_distribution(rng, 4, 3)
        emb = random_embedding(dist, 4, rng)
        exact = population_contrastive(emb, dist, k=2)
        est, se = monte_carlo_contrastive(emb, dist, k=2, draws=40_000, seed=0)
        assert abs(est - exact) < 5 * max(se, 1e-12)

    def test_zero_draws_rejected(self):
        dist = random_distribution(np.random.default_rng(0), 4, 3)
        emb = random_embedding(dist, 4, np.random.default_rng(1))
        with pytest.raises(ValueError):
            monte_carlo_contrastive(emb, dist, draws=0)

    @pytest.mark.parametrize("chunk", [0, -3])
    def test_empty_chunks_rejected(self, chunk):
        # a chunk below one draw never lowers the draws left: refused up front
        dist = random_distribution(np.random.default_rng(0), 4, 3)
        emb = random_embedding(dist, 4, np.random.default_rng(1))
        with pytest.raises(ValueError, match="per chunk"):
            monte_carlo_contrastive(emb, dist, draws=10, chunk=chunk)
        assert np.isfinite(monte_carlo_contrastive(emb, dist, draws=10, chunk=1)[0])

    def test_needs_a_row_per_point(self):
        dist = random_distribution(np.random.default_rng(0), 4, 3)
        emb = random_embedding(dist, 4, np.random.default_rng(1))
        for bad in (emb[:3], np.vstack([emb, emb[:1]]), emb[0]):
            with pytest.raises(ValueError, match="one embedding row per support point"):
                monte_carlo_contrastive(bad, dist, draws=10)
