"""Value objects and the (pair, negative multiset) outcome space."""

import itertools
import math
import time
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclab import core
from cclab.core import (
    MAX_K,
    MixtureWeights,
    TaskDistribution,
    mixture,
    multiset_counts,
    multiset_weights,
    negative_multisets,
    normalize_rows,
    stacked_positive_pairs,
)
from tests.helpers import (
    dense_counts_reference,
    dense_negative_weights_reference,
    negative_multisets_reference,
    positive_pairs_reference,
)


def two_class_dist():
    """Two classes, one point each, uniform mass."""
    return TaskDistribution(
        points=np.array([[1.0, 0.0], [0.0, 1.0]]),
        labels=np.array([0, 1]),
        mass=np.array([0.5, 0.5]),
    )


def four_point_dist():
    return TaskDistribution(
        points=np.arange(8.0).reshape(4, 2),
        labels=np.array([0, 0, 1, 1]),
        mass=np.array([0.1, 0.2, 0.3, 0.4]),
    )


class TestNormalize:
    def test_unit_norm(self):
        v = normalize_rows(np.array([[3.0, 4.0]]))
        np.testing.assert_allclose(v, [[0.6, 0.8]])

    def test_zero_vector_maps_to_first_basis_vector(self):
        np.testing.assert_array_equal(normalize_rows(np.zeros((1, 3))), [[1.0, 0.0, 0.0]])

    def test_rows(self):
        m = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 2.0]])
        out = normalize_rows(m)
        np.testing.assert_allclose(
            out, [[0.6, 0.8], [1.0, 0.0], [0.0, 1.0]]
        )

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, vals):
        v = normalize_rows(np.array([vals]))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        np.testing.assert_allclose(normalize_rows(v), v, atol=1e-12)


class TestTaskDistribution:
    def test_mass_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TaskDistribution(
                points=np.ones((2, 2)),
                labels=np.array([0, 1]),
                mass=np.array([0.5, 0.6]),
            )

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            TaskDistribution(
                points=np.ones((2, 2)),
                labels=np.array([0, 1]),
                mass=np.array([1.5, -0.5]),
            )

    @pytest.mark.parametrize("mass", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]])
    def test_non_finite_mass_rejected(self, mass):
        with pytest.raises(ValueError, match="finite and sum to 1"):
            TaskDistribution(np.eye(2), [0, 1], mass)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        with pytest.raises(ValueError, match="points must be finite"):
            TaskDistribution(np.array([[0.0, bad], [1.0, 0.0]]), [0, 1], [0.5, 0.5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TaskDistribution(
                points=np.ones((3, 2)),
                labels=np.array([0, 1]),
                mass=np.array([0.5, 0.5]),
            )

    def test_class_prob_and_conditionals(self):
        d = four_point_dist()
        assert d.class_prob(0) == pytest.approx(0.3)
        assert d.class_prob(1) == pytest.approx(0.7)
        idx, cond = d.within_class(1)
        np.testing.assert_array_equal(idx, [2, 3])
        np.testing.assert_allclose(cond, [3 / 7, 4 / 7])

    def test_within_class_missing(self):
        with pytest.raises(KeyError):
            four_point_dist().within_class(9)


class TestMixture:
    def test_weights_validated(self):
        with pytest.raises(ValueError):
            MixtureWeights(task_index=3, weights=np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            MixtureWeights(task_index=3, weights=np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            MixtureWeights(task_index=1, weights=np.array([]))

    def test_weights_are_a_read_only_copy(self):
        given = np.array([0.25, 0.75])
        w = MixtureWeights(task_index=3, weights=given)
        assert not w.weights.flags.writeable
        with pytest.raises(ValueError):
            w.weights[0] = 0.5
        assert given.flags.writeable
        np.testing.assert_array_equal(given, [0.25, 0.75])
        given[0] = 0.5
        np.testing.assert_array_equal(w.weights, [0.25, 0.75])
        assert (w.lo, w.hi) == (0.25, 0.75)

    def test_mixture_masses(self):
        d1, d2 = two_class_dist(), four_point_dist()
        w = MixtureWeights(task_index=3, weights=np.array([0.25, 0.75]))
        mix = mixture([d1, d2], w)
        assert mix.size == d1.size + d2.size
        np.testing.assert_allclose(
            mix.mass, np.concatenate([0.25 * d1.mass, 0.75 * d2.mass])
        )
        assert mix.mass.sum() == pytest.approx(1.0)

    def test_mixture_count_mismatch(self):
        w = MixtureWeights(task_index=3, weights=np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            mixture([two_class_dist()], w)


class TestOutcomeSpace:
    def test_negative_multisets_shape(self):
        for n, k in [(3, 2), (4, 1), (4, 5), (6, 10)]:
            rows, runs, multiplicity = negative_multisets(n, k)
            assert rows.shape == runs.shape == (math.comb(n + k - 1, k), k)
            assert rows.dtype == runs.dtype == np.uint8
            np.testing.assert_array_equal(runs.sum(axis=1), k)
            np.testing.assert_array_equal(multiset_counts(rows, n).sum(axis=0), k)
            assert multiplicity.sum() == n**k  # every ordered tuple once
        for a in negative_multisets(3, 2):
            with pytest.raises(ValueError):
                a[0, ...] = 5  # cached tables are read-only
        assert negative_multisets(256, 1)[0].dtype == np.uint16  # the smallest dtype holding n

    @pytest.mark.parametrize("k", range(1, 19))
    def test_numpy_build_matches_itertools_oracle(self, k):
        # up to k = 18 every factorial is exact in float64, so the oracle's
        # quotients are exact integers and both builds share every bit
        n = 1
        while n * math.comb(n + k - 1, k) <= 1 << 20:
            rows, runs, multiplicity = negative_multisets(n, k)
            ref_rows, ref_runs, ref_multiplicity = negative_multisets_reference(n, k)
            assert rows.tobytes() == ref_rows.astype(rows.dtype).tobytes(), (n, k)
            assert runs.tobytes() == ref_runs.astype(runs.dtype).tobytes(), (n, k)
            assert multiplicity.tobytes() == ref_multiplicity.tobytes(), (n, k)
            n += 1

    @pytest.mark.parametrize("n, k", [(1, 7), (4, 5), (8, 3), (16, 2), (64, 2), (12, 4)])
    def test_count_blocks_match_dense_counts(self, n, k):
        rows, _, _ = negative_multisets(n, k)
        dense = dense_counts_reference(rows.astype(np.int64), n)
        out = np.full(n * 100, np.nan)
        for j0 in range(0, len(rows), 100):
            block = rows[j0 : j0 + 100]
            got = multiset_counts(block, n, out[: n * len(block)].reshape(n, len(block)))
            assert got.flags.c_contiguous
            assert got.tobytes() == np.ascontiguousarray(dense[j0 : j0 + 100].T).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12])
    def test_weights_match_dense_power_product(self, k):
        # a factor per run, multiplied in ascending index order, has the bits
        # of prod_j mass_j ** counts_j, whose other factors are exact 1.0s
        rng = np.random.default_rng(k)
        for n in (1, 2, 3, 5, 8, 13):
            if n * math.comb(n + k - 1, k) > 1 << 18:
                break
            mass = rng.dirichlet(np.full(n, 0.5), size=3)
            rows, runs, multiplicity = negative_multisets(n, k)
            got = multiset_weights(mass, rows, runs, multiplicity)
            assert got.flags.c_contiguous
            assert got.tobytes() == dense_negative_weights_reference(mass, k)[1].tobytes(), n

    def test_positive_pairs_weights_sum_to_one(self):
        d = four_point_dist()
        w = stacked_positive_pairs(d.labels[None], d.mass[None])[4]
        assert w.sum() == pytest.approx(1.0)

    def test_positive_pairs_match_cumsum_reference(self):
        # class masses of many uneven points, where the order of the sum shows
        rng = np.random.default_rng(12)
        for n, n_classes in [(1, 1), (7, 3), (40, 2), (64, 8)]:
            labels = rng.integers(0, n_classes, n) * 7 - 5
            d = TaskDistribution(np.eye(n), labels, rng.dirichlet(np.full(n, 0.3)))
            order, _, rows, positives, w = stacked_positive_pairs(d.labels[None], d.mass[None])
            ref = positive_pairs_reference(d)
            assert all(g.tobytes() == r.tobytes() for g, r in zip((order[rows], positives, w), ref))

    def test_two_class_one_point_each_counts(self):
        # with one point per class the only positive pair in a class is
        # (x, x); negatives range over the multisets of both points
        d = two_class_dist()
        pair_w = stacked_positive_pairs(d.labels[None], d.mass[None])[4]
        for k, n_multisets in [(1, 2), (2, 3)]:
            neg_w = multiset_weights(d.mass, *negative_multisets(d.size, k))
            grid = np.outer(pair_w, neg_w)
            assert grid.size == 2 * n_multisets
            assert grid.sum() == pytest.approx(1.0)

    def test_weights_sum_to_one_generic(self):
        d = four_point_dist()
        for k in (1, 2, 3, 7):
            neg_w = multiset_weights(d.mass, *negative_multisets(d.size, k))
            assert neg_w.sum() == pytest.approx(1.0, abs=1e-14)

    def test_weights_aggregate_ordered_tuples(self):
        # an ordered k-tuple of i.i.d. negatives has probability
        # prod_i mass_i; summing those by sorted tuple gives the multiset weight
        rng = np.random.default_rng(3)
        for n in range(1, 5):
            mass = rng.dirichlet(np.ones(n))
            for k in range(1, 4):
                ordered = defaultdict(float)
                for combo in itertools.product(range(n), repeat=k):
                    ordered[tuple(sorted(combo))] += math.prod(mass[i] for i in combo)
                rows, runs, multiplicity = negative_multisets(n, k)
                neg_w = multiset_weights(mass, rows, runs, multiplicity)
                got = {tuple(row.tolist()): w for row, w in zip(rows, neg_w)}
                assert got.keys() == ordered.keys()
                for key, w in ordered.items():
                    assert got[key] == pytest.approx(w, rel=1e-13, abs=1e-16)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            negative_multisets(2, 0)

    def test_k_above_max_rejected_before_any_work(self):
        # 171! overflows float64; the check comes before any table or factorial
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"at most {MAX_K} negative samples, got 171"):
            negative_multisets(1, MAX_K + 1)
        assert time.perf_counter() - start < 0.5
        rows, runs, multiplicity = negative_multisets(1, MAX_K)  # one multiset, once
        assert rows.tolist() == [[0] * MAX_K] and multiplicity.tolist() == [1.0]
        assert runs.tolist() == [[0] * (MAX_K - 1) + [MAX_K]]

    def test_table_above_the_cap_rejected_before_any_allocation(self, monkeypatch):
        # a 64-point mixture at k = 5: 64 * C(68, 5) ~ 6.7e8 table entries
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="table entries"):
                negative_multisets(64, 5)  # the exact pass's entry
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16
        monkeypatch.setattr(core, "MAX_TABLE_ENTRIES", 4 * 10)  # 4 points, C(5, 2) multisets
        assert negative_multisets(4, 2)[0].shape == (10, 2)
        monkeypatch.setattr(core, "MAX_TABLE_ENTRIES", 4 * 10 - 1)
        with pytest.raises(ValueError, match="table entries"):
            negative_multisets(4, 2)
