"""Loss functionals checked against slow, from-scratch oracle
implementations that share no code with the library versions."""

import math
import tracemalloc

import numpy as np
import pytest

from cclab import core, losses
from cclab.bounds import random_distribution
from cclab.core import (
    MixtureWeights,
    TaskDistribution,
    mixture,
    multiset_counts,
    negative_multisets,
    normalize_rows,
    stacked_positive_pairs,
)
from cclab.data import make_blob_sequence
from cclab.losses import (
    Temperatures,
    _anchor_tables,
    _batch_step,
    _population_terms,
    decomposition_residual,
    logistic_link,
    population_contrastive,
    population_distillation,
    population_test_loss,
)
from tests.helpers import (
    DictTableModel,
    batch_terms_reference,
    masked_softmax_reference,
    stacked_softmax_reference,
    oracle_ird,
    oracle_population_contrastive,
    oracle_population_distillation,
    oracle_supcon,
    population_terms_reference,
    random_embedding,
    stacked_terms_reference,
    two_point_antipodal,
)


def table(dist, emb):
    """The loop oracles' table model of ``dist``'s points and rows ``emb``."""
    return DictTableModel(dist.points, emb)


def constant(dist, direction):
    """Every point of ``dist`` embedded at the same unit vector."""
    return np.tile(direction, (dist.size, 1))


class TestLogisticLink:
    def test_zero_margin(self):
        assert logistic_link(np.array([0.0])) == pytest.approx(math.log(2.0))

    def test_three_zero_margins(self):
        assert logistic_link(np.zeros(3)) == pytest.approx(math.log(4.0))

    def test_extreme_margins_stable(self):
        assert np.isfinite(logistic_link(np.array([-800.0])))
        assert logistic_link(np.array([800.0])) == pytest.approx(0.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            logistic_link(np.array([]))


class TestPopulationContrastive:
    def test_constant_model_single_negative(self):
        # all margins are zero, so the loss is log 2 regardless of data
        dist = random_distribution(np.random.default_rng(0), 5, 3)
        emb = constant(dist, [1.0, 0.0])
        assert population_contrastive(emb, dist, k=1) == pytest.approx(math.log(2))

    def test_constant_model_three_negatives(self):
        dist = random_distribution(np.random.default_rng(0), 5, 3)
        emb = constant(dist, [1.0, 0.0])
        assert population_contrastive(emb, dist, k=3) == pytest.approx(math.log(4))

    def test_antipodal_two_point_value(self):
        # half the outcomes see margin 0 (negative equals anchor), half see
        # margin 2 (negative is the antipode): 0.5*log2 + 0.5*log(1+e^-2)
        dist, emb = two_point_antipodal()
        expect = 0.5 * math.log(2.0) + 0.5 * math.log1p(math.exp(-2.0))
        got = population_contrastive(emb, dist, k=1)
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(0.4100375958014589, abs=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_oracle(self, k):
        rng = np.random.default_rng(42)
        for _ in range(5):
            dist = random_distribution(rng, 4, 3)
            emb = random_embedding(dist, 4, rng)
            assert population_contrastive(emb, dist, k) == pytest.approx(
                oracle_population_contrastive(table(dist, emb), dist, k), abs=1e-12
            )

    def test_margin_range_bounds_loss(self):
        # unit vectors force v in [-2, 2], so the loss lies between
        # log(1 + k e^-2) and log(1 + k e^2)
        rng = np.random.default_rng(7)
        for k in (1, 2):
            dist = random_distribution(rng, 5, 3)
            emb = random_embedding(dist, 3, rng)
            val = population_contrastive(emb, dist, k)
            assert math.log1p(k * math.exp(-2)) <= val <= math.log1p(k * math.exp(2))


class TestPopulationDistillation:
    def test_identical_models_is_entropy(self):
        # CE of a distribution against itself equals its entropy, which for
        # the constant model's uniform softmax over k+1 entries is log(k+1)
        dist = random_distribution(np.random.default_rng(1), 4, 3)
        emb = constant(dist, [0.0, 1.0])
        assert population_distillation(emb, emb, dist, k=1) == pytest.approx(math.log(2))
        assert population_distillation(emb, emb, dist, k=3) == pytest.approx(math.log(4))

    @pytest.mark.parametrize("k", [1, 2])
    def test_matches_oracle(self, k):
        rng = np.random.default_rng(3)
        for _ in range(5):
            dist = random_distribution(rng, 4, 3)
            f_t = random_embedding(dist, 4, rng)
            f_p = random_embedding(dist, 4, rng)
            assert population_distillation(f_t, f_p, dist, k) == pytest.approx(
                oracle_population_distillation(table(dist, f_t), table(dist, f_p), dist, k),
                abs=1e-12,
            )

    def test_gibbs_inequality(self):
        # CE(q -> p) >= CE(q -> q) with equality only at p = q
        rng = np.random.default_rng(11)
        dist = random_distribution(rng, 4, 3)
        f_t = random_embedding(dist, 4, rng)
        f_p = random_embedding(dist, 4, rng)
        assert population_distillation(f_t, f_p, dist) >= population_distillation(
            f_p, f_p, dist
        ) - 1e-12


class TestAnchorTables:
    def test_sums_to_one_positive_first(self):
        # the similarity softmax over (positive, negatives of multiset J)
        # is a distribution whose positive entry the factored table gives
        dist = random_distribution(np.random.default_rng(5), 4, 3)
        emb = random_embedding(dist, 4, np.random.default_rng(6))
        rows = negative_multisets(dist.size, 2)[0]
        ex = np.empty((dist.size, dist.size))
        _anchor_tables(emb[None], np.arange(dist.size), ex)  # rows in index order
        sums = ex @ multiset_counts(rows, dist.size)
        order, _, anchors, positives, _ = stacked_positive_pairs(dist.labels[None], dist.mass[None])
        for a, b in zip(order[anchors], positives):
            for J, negs in enumerate(rows):
                logits = emb[a] @ emb[np.concatenate([[b], negs])].T
                p = np.exp(logits - logits.max())
                p /= p.sum()
                assert p.shape == (3,)
                assert p.sum() == pytest.approx(1.0)
                assert np.all(p > 0)
                positive = ex[a, b] / (ex[a, b] + sums[a, J])
                assert positive == pytest.approx(p[0], abs=1e-14)


class TestMultisetEvaluator:
    def test_matches_oracles_at_four_negatives(self):
        rng = np.random.default_rng(17)
        for _ in range(3):
            dist = random_distribution(rng, 3, 3)
            f_t = random_embedding(dist, 4, rng)
            f_p = random_embedding(dist, 4, rng)
            assert population_contrastive(f_t, dist, 4) == pytest.approx(
                oracle_population_contrastive(table(dist, f_t), dist, 4), abs=1e-12
            )
            assert population_distillation(f_t, f_p, dist, 4) == pytest.approx(
                oracle_population_distillation(table(dist, f_t), table(dist, f_p), dist, 4),
                abs=1e-12,
            )
            assert abs(decomposition_residual(f_t, f_p, dist, 4)) < 1e-12

    def test_k_zero_rejected(self):
        dist, emb = two_point_antipodal()
        with pytest.raises(ValueError):
            population_contrastive(emb, dist, 0)


def grid_size(dist, k):
    """(P, M): same-class pairs and negative multisets of ``dist``."""
    pairs = stacked_positive_pairs(dist.labels[None], dist.mass[None])[2]
    return pairs.size, negative_multisets(dist.size, k)[0].shape[0]


def assert_same_bits(got, ref):
    assert np.array(got).tobytes() == np.array(ref).tobytes()


def assert_terms_close(got, ref):
    """The losses within 1e-12 relative; the residual, a difference of
    losses at float-error level, within 1e-12 of their scale."""
    np.testing.assert_allclose(got[:3], ref[:3], rtol=1e-12, atol=0)
    if not np.isnan(ref[3]):
        assert abs(got[3] - ref[3]) <= 1e-12 * abs(ref[2])


class TestBlockedEvaluator:
    """The blocked (pair, multiset) walk against the whole-grid pass."""

    @staticmethod
    def triple(dist, seed):
        rng = np.random.default_rng(seed)
        return random_embedding(dist, 4, rng), random_embedding(dist, 4, rng)

    def test_multi_block_mixture_matches_whole_grid(self):
        tasks = make_blob_sequence(4, 2, 12, seed=3)  # 10 train points per class
        dist = mixture([t.train for t in tasks], MixtureWeights(5, np.full(4, 0.25)))
        assert dist.size == 80 and dist.classes.size == 8
        P, M = grid_size(dist, 2)
        assert P * M > 50 * losses._BLOCK
        f_t, f_p = self.triple(dist, 1)
        for prev in (None, f_p):
            assert_terms_close(_population_terms(f_t, dist, 2, prev),
                               population_terms_reference(f_t, dist, 2, prev))

    def test_exactly_one_block_is_bit_identical(self):
        # one class of 32 points at k = 1 fills the block exactly
        rng = np.random.default_rng(4)
        dist = TaskDistribution(points=rng.standard_normal((32, 3)),
                                labels=np.zeros(32), mass=np.full(32, 1 / 32))
        P, M = grid_size(dist, 1)
        assert P * M == losses._BLOCK
        f_t, f_p = self.triple(dist, 2)
        for prev in (None, f_p):
            assert_same_bits(_population_terms(f_t, dist, 1, prev),
                             population_terms_reference(f_t, dist, 1, prev))

    def test_block_boundaries(self, monkeypatch):
        # the block resized around a 6-point grid: exactly one block, one
        # block plus one row, and M above the block (one row per block)
        dist = random_distribution(np.random.default_rng(8), 6, 3)
        P, M = grid_size(dist, 2)
        f_t, f_p = self.triple(dist, 3)
        refs = [population_terms_reference(f_t, dist, 2, prev) for prev in (None, f_p)]
        for block, exact in ((P * M, True), ((P - 1) * M, False), (M - 1, False)):
            monkeypatch.setattr(losses, "_BLOCK", block)
            for prev, ref in zip((None, f_p), refs):
                got = _population_terms(f_t, dist, 2, prev)
                (assert_same_bits if exact else assert_terms_close)(got, ref)

    @pytest.mark.parametrize("n, k", [(4, 1), (4, 2), (4, 5), (8, 3)])
    def test_single_block_shapes_bit_identical(self, n, k):
        # the exact-sandwich (n, k) cells fit one block
        rng = np.random.default_rng(10 * n + k)
        for _ in range(5):
            dist = random_distribution(rng, n, 3)
            P, M = grid_size(dist, k)
            assert P * M <= losses._BLOCK
            f_t, f_p = random_embedding(dist, 4, rng), random_embedding(dist, 4, rng)
            for prev in (None, f_p):
                assert_same_bits(_population_terms(f_t, dist, k, prev),
                                 population_terms_reference(f_t, dist, k, prev))


class TestChunkedTables:
    """The anchor tables are built a chunk of anchors at a time."""

    @staticmethod
    def stacked(rng, B, n, k):
        dists = [random_distribution(rng, n, 3, n_classes=2) for _ in range(B)]
        emb = [np.stack([random_embedding(d, 4, rng) for d in dists]) for _ in range(2)]
        labels, mass = (np.stack([getattr(d, a) for d in dists]) for a in ("labels", "mass"))
        return dists, emb, labels, mass

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_trial_spanning_chunks(self, monkeypatch, k):
        # 5 pairs a block and 5 anchors a chunk: each 12-point trial spans
        # three chunks and many blocks, alone and stacked
        rng = np.random.default_rng(30 + k)
        dists, emb, labels, mass = self.stacked(rng, 3, 12, k)
        M = math.comb(12 + k - 1, k)
        monkeypatch.setattr(losses, "_BLOCK", 5 * M)
        same = assert_same_bits if k <= 2 else assert_terms_close
        for prev in (None, emb[1]):
            got = losses._stacked_terms(emb[0], labels, mass, k, prev)
            ref = stacked_terms_reference(emb[0], labels, mass, k, prev)
            for b in range(3):
                same(got[b], ref[b])
                alone = losses._stacked_terms(emb[0][b:b + 1], labels[b:b + 1], mass[b:b + 1],
                                              k, None if prev is None else prev[b:b + 1])
                assert_same_bits(alone[0], got[b])
                whole = population_terms_reference(
                    emb[0][b], dists[b], k, None if prev is None else prev[b])
                assert_terms_close(got[b], whole)

    @pytest.mark.parametrize("rows", [1, 3, 5, 7, 11, 40])
    def test_chunks_of_whole_and_split_trials(self, monkeypatch, rows):
        # 6-point trials of 36, 6, 18, 12 and 18 pairs: below 6 rows every
        # trial is split into chunks; from 6 on chunks hold whole trials, and
        # a block can take a split trial's tail with whole trials after it
        labels = np.array([[0] * 6, [0, 1, 2, 3, 4, 5], [0, 0, 0, 1, 1, 1],
                           [2, 2, 0, 0, 1, 1], [1, 0, 1, 0, 1, 0]])
        rng = np.random.default_rng(rows)
        mass = rng.dirichlet(np.ones(6), size=5)
        emb = rng.standard_normal((2, 5, 6, 3))
        emb /= np.linalg.norm(emb, axis=-1, keepdims=True)
        monkeypatch.setattr(losses, "_BLOCK", rows * 21)  # M = 21 at (6, 2)
        for prev in (None, emb[1]):
            got = losses._stacked_terms(emb[0], labels, mass, 2, prev)
            assert_same_bits(got, stacked_terms_reference(emb[0], labels, mass, 2, prev))

    def test_working_set(self):
        # the 64-point, 8-class seen-data mixture of a certify-trained check
        tasks = make_blob_sequence(4, 2, 10, seed=3)
        dist = mixture([t.train for t in tasks], MixtureWeights(5, np.full(4, 0.25)))
        assert dist.size == 64 and dist.classes.size == 8
        rng = np.random.default_rng(1)
        f_t, f_p = random_embedding(dist, 4, rng), random_embedding(dist, 4, rng)
        M = math.comb(64 + 1, 2)
        core._multiset_rows.cache_clear()
        tracemalloc.start()
        try:
            population_distillation(f_t, f_p, dist, 2)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the pass's (n, M) counts take 1 MiB and its tables and block of CE
        # lines 0.7 and 0.5 MiB; dense counts and a power temporary took 2.8
        # MiB in all, whole tables 4.7
        assert peak <= 2.6 * 2**20
        # what stays is the cache: the (M, 2) uint8 index rows and runs and M multiplicities
        assert retained <= 12 * M + 16 * 2**10

    @pytest.mark.parametrize("n, k, bound_mib", [(16, 8, 64), (64, 3, 8)])
    def test_large_k_pass_memory(self, n, k, bound_mib):
        # no (M, n) array: the cache and one block of counts, tables and
        # lines; dense counts and their power temporary peaked at 157 and
        # 46.4 MiB. Two points a class keep the grid, not the buffers, small
        rng = np.random.default_rng(n + k)
        dist = random_distribution(rng, n, 3, n_classes=n // 2)
        f_t, f_p = random_embedding(dist, 4, rng), random_embedding(dist, 4, rng)
        for run in (lambda: population_contrastive(f_t, dist, k),
                    lambda: population_distillation(f_t, f_p, dist, k),
                    lambda: _population_terms(f_t, dist, k, f_p)):
            core._multiset_rows.cache_clear()
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound_mib * 2**20

    @pytest.mark.parametrize("k", [2, 3])
    def test_several_multiset_blocks(self, monkeypatch, k):
        # 7 multisets a block: every trial is walked against each block in
        # turn, and sums as alone and as the whole-grid pass
        rng = np.random.default_rng(50 + k)
        dists, emb, labels, mass = self.stacked(rng, 3, 6, k)
        monkeypatch.setattr(losses, "_MULTISETS", 7)
        for prev in (None, emb[1]):
            got = losses._stacked_terms(emb[0], labels, mass, k, prev)
            for b in range(3):
                alone = losses._stacked_terms(emb[0][b:b + 1], labels[b:b + 1], mass[b:b + 1],
                                              k, None if prev is None else prev[b:b + 1])
                assert_same_bits(alone[0], got[b])
                assert_terms_close(got[b], population_terms_reference(
                    emb[0][b], dists[b], k, None if prev is None else prev[b]))


class TestTermSelectivePass:
    """``dis_only`` folds the CE alone and leaves its column's bits."""

    @staticmethod
    def random_mixtures(rng, B, parts, n):
        """B mixtures of ``parts`` random n-point distributions, stacked."""
        mixes = []
        for _ in range(B):
            dists = [random_distribution(rng, n, 3, n_classes=3) for _ in range(parts)]
            mixes.append(mixture(dists, MixtureWeights(parts + 1, rng.dirichlet(np.ones(parts)))))
        emb = [np.stack([random_embedding(d, 4, rng) for d in mixes]) for _ in range(2)]
        stack = [np.stack([getattr(d, a) for d in mixes]) for a in ("labels", "mass")]
        return mixes, emb, stack

    @pytest.mark.parametrize("block", [7, 300, 1 << 12, 1 << 15])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_dis_column_matches_full_pass(self, monkeypatch, block, k):
        monkeypatch.setattr(losses, "_BLOCK", block)
        rng = np.random.default_rng(100 * k + block % 97)
        for parts, n in ((1, 5), (2, 4), (3, 6)):
            mixes, emb, (labels, mass) = self.random_mixtures(rng, 3, parts, n)
            full = losses._stacked_terms(emb[0], labels, mass, k, emb[1])
            part = losses._stacked_terms(emb[0], labels, mass, k, emb[1], dis_only=True)
            assert part[:, 2].tobytes() == full[:, 2].tobytes()
            assert np.isnan(part[:, [0, 1, 3]]).all()
            for b, dist in enumerate(mixes):
                got = population_distillation(emb[0][b], emb[1][b], dist, k)
                assert got.hex() == float(full[b, 2]).hex()

    def test_without_previous_model_only_link_is_computed(self):
        rng = np.random.default_rng(3)
        _, emb, (labels, mass) = self.random_mixtures(rng, 2, 2, 4)
        full = losses._stacked_terms(emb[0], labels, mass, 2)
        part = losses._stacked_terms(emb[0], labels, mass, 2, dis_only=True)
        assert part.tobytes() == full.tobytes()


class TestDecomposition:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_residual_vanishes(self, k):
        rng = np.random.default_rng(9)
        for _ in range(10):
            dist = random_distribution(rng, 4, 3)
            f_t = random_embedding(dist, 4, rng)
            f_p = random_embedding(dist, 4, rng)
            assert abs(decomposition_residual(f_t, f_p, dist, k)) < 1e-12


class TestAggregates:
    def test_test_loss_sums_tasks(self):
        rng = np.random.default_rng(4)
        dists = [random_distribution(rng, 3, 2) for _ in range(3)]
        emb = normalize_rows(rng.standard_normal((9, 4)))
        assert population_test_loss(emb, dists) == pytest.approx(
            sum(population_contrastive(emb[3 * i : 3 * i + 3], d) for i, d in enumerate(dists))
        )
        with pytest.raises(ValueError):
            population_test_loss(emb, [])

    def test_test_loss_needs_a_row_per_point(self):
        rng = np.random.default_rng(5)
        dists = [random_distribution(rng, 3, 2) for _ in range(2)]
        for rows in (5, 7):  # the tasks hold 6 points
            with pytest.raises(ValueError, match="one embedding row per support point"):
                population_test_loss(normalize_rows(np.ones((rows, 4))), dists)


class TestEmbeddingShape:
    """A population loss takes one embedding row per support point."""

    @pytest.mark.parametrize("shape", [(3, 4), (5, 4), (4,), (1, 4, 4)])
    def test_wrong_rows_rejected(self, shape):
        dist = random_distribution(np.random.default_rng(0), 4, 3)
        good = random_embedding(dist, 4, np.random.default_rng(1))
        bad = normalize_rows(np.ones((int(np.prod(shape)) // 4, 4))).reshape(shape)
        for args in ((bad, dist, 1), (good, dist, 1, bad), (bad, dist, 1, good)):
            with pytest.raises(ValueError, match="one embedding row per support point"):
                _population_terms(*args)
        with pytest.raises(ValueError, match="one embedding row per support point"):
            population_distillation(good, bad, dist)
def random_batch(rng, n_pairs=4, d=5):
    z = rng.standard_normal((2 * n_pairs, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    labels = np.repeat(rng.integers(0, 3, size=n_pairs), 2)
    return z, labels


TEMPS = Temperatures(contrastive=0.5, distill_current=0.2, distill_past=0.01)


class TestEmpiricalContrastive:
    """The batch SupCon loss of :func:`_batch_step`."""

    def test_matches_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            z, labels = random_batch(rng)
            assert _batch_step(z[None], labels, TEMPS)[0] == pytest.approx(
                oracle_supcon(z, labels, 0.5), abs=1e-10
            )

    def test_single_pair_is_zero(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert _batch_step(z[None], np.array([0, 0]), TEMPS)[0] == 0.0

    def test_anchor_without_positive_rejected(self):
        with pytest.raises(ValueError):
            _batch_step(np.eye(2)[None], np.array([0, 1]), TEMPS)

    def test_bad_temperature_rejected(self):
        with pytest.raises(ValueError):
            Temperatures(contrastive=0.0)


class TestEmpiricalDistillation:
    """The batch IRD loss of :func:`_batch_step`."""

    def test_matches_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            z, labels = random_batch(rng)
            zp, _ = random_batch(rng)
            l_con, l_dis, _, _ = _batch_step(np.stack((z, zp)), labels, TEMPS)
            assert l_dis == pytest.approx(oracle_ird(z, zp, 0.2, 0.01), abs=1e-10)
            assert l_con == _batch_step(z[None], labels, TEMPS)[0]

    def test_single_pair_is_zero(self):
        z = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert _batch_step(np.stack((z, z[::-1])), np.array([0, 0]), TEMPS)[1] == 0.0

    def test_without_past_rows_has_no_distillation(self):
        rng = np.random.default_rng(23)
        z, labels = random_batch(rng)
        _, l_dis, _, p = _batch_step(z[None], labels, TEMPS)
        assert l_dis == 0.0 and len(p) == 1  # SupCon's softmax alone


class TestMaskedSoftmax:
    """The one masked softmax of a training step: the stacked SupCon,
    current-IRD and past-IRD softmax that :func:`_batch_step` returns."""

    def test_rows_normalized_with_zero_diagonal(self):
        rng = np.random.default_rng(19)
        z, labels = random_batch(rng)
        logits = (z @ z.T) / 0.3
        p = _batch_step(z[None], labels, Temperatures(contrastive=0.3))[3][0]
        assert p.shape == (8, 8)
        np.testing.assert_array_equal(np.diag(p), 0.0)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        lse, _ = masked_softmax_reference(logits)
        off = ~np.eye(8, dtype=bool)
        np.testing.assert_allclose(np.exp(logits - lse[:, None])[off], p[off], atol=1e-12)

    def test_stack_equals_slices_bit_for_bit_and_reference(self):
        rng = np.random.default_rng(29)
        for n in (2, 3, 8, 17, 64):
            z = rng.standard_normal((n, 4))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            zp = rng.standard_normal((n, 4))
            zp /= np.linalg.norm(zp, axis=1, keepdims=True)
            labels = np.zeros(n, dtype=np.int64)
            l_con, _, _, p = _batch_step(np.stack([z, zp]), labels, TEMPS)
            alone = _batch_step(z[None], labels, TEMPS)
            past = _batch_step(zp[None], labels, Temperatures(contrastive=0.01))
            assert alone[0] == l_con
            assert alone[3][0].tobytes() == p[0].tobytes()
            assert past[3][0].tobytes() == p[2].tobytes()
            stack = np.stack([(z @ z.T) / 0.5, (z @ z.T) / 0.2, (zp @ zp.T) / 0.01])
            for i in range(3):
                for _, want in (masked_softmax_reference(stack[i]),
                                stacked_softmax_reference(stack[i])):
                    np.testing.assert_allclose(p[i], want, rtol=1e-12, atol=1e-300)


def _rel(got, want, scale=0.0):
    """Largest deviation over the larger of the largest entry and ``scale``."""
    return np.max(np.abs(got - want)) / max(np.max(np.abs(want)), scale, 1e-300)


class TestBatchStep:
    """:func:`_batch_step` against the per-anchor step it replaced,
    ``helpers.batch_terms_reference``."""

    @pytest.mark.parametrize("n", [2, 4, 16, 64])
    @pytest.mark.parametrize("tau_past", [0.01, 1e-3])
    def test_losses_and_symmetrised_gradient_match_reference(self, n, tau_past):
        rng = np.random.default_rng(n)
        temps = Temperatures(distill_past=tau_past)
        for _ in range(5):
            z, labels = random_batch(rng, n_pairs=n // 2, d=4)
            zp, _ = random_batch(rng, n_pairs=n // 2, d=4)
            for past, lam in ((None, 0.0), (zp, 0.0), (zp, 0.7)):
                want_con, g_con, want_dis, g_dis = batch_terms_reference(z, labels, temps, past)
                want = g_con if past is None or lam == 0 else g_con + lam * g_dis
                zs = z[None] if past is None else np.stack([z, past])
                l_con, l_dis, g, _ = _batch_step(zs, labels, temps, lam)
                assert l_con == pytest.approx(want_con, rel=1e-12, abs=1e-300)
                assert l_dis == pytest.approx(want_dis, rel=1e-12, abs=1e-300)
                # each entry sums softmax probabilities (at most 1) with these
                # weights, which bounds it and scales its rounding error
                weights = 1 / temps.contrastive + 2 * lam / temps.distill_current
                assert _rel(g + g.T, want + want.T, weights) <= 1e-12

    def test_stacked_call_is_bit_identical_to_its_slices(self):
        rng = np.random.default_rng(31)
        for n_pairs in (1, 2, 8, 32):
            z, labels = random_batch(rng, n_pairs=n_pairs, d=4)
            zp, _ = random_batch(rng, n_pairs=n_pairs, d=4)
            alone = _batch_step(z[None], labels, TEMPS, 0.7)
            stacked = _batch_step(np.stack([z, zp]), labels, TEMPS, 0.0)
            assert stacked[0] == alone[0]
            assert stacked[2].tobytes() == alone[2].tobytes()

    def test_public_terms_split_the_gradient(self):
        rng = np.random.default_rng(37)
        z, labels = random_batch(rng)
        zp, _ = random_batch(rng)
        l_con, l_dis, g_con, p = _batch_step(np.stack([z, zp]), labels, TEMPS)
        g_dis = (p[1] - p[2]) / TEMPS.distill_current  # the IRD gradient in zz'
        _, _, g, _ = _batch_step(np.stack([z, zp]), labels, TEMPS, 0.7)
        assert _rel(g_con + 0.7 * g_dis, g) <= 1e-12
        ref = batch_terms_reference(z, labels, TEMPS, zp)
        assert _rel(g_dis, ref[3]) <= 1e-12
        assert (l_con, l_dis) == pytest.approx((ref[0], ref[2]), rel=1e-12)
