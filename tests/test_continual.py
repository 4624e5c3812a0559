"""Replay buffer statistics, the adaptive-coefficient rules, the task
loop, and linear probing."""

import json

import numpy as np
import pytest

from cclab.continual import (
    LambdaSchedule,
    ReplayBuffer,
    RunConfig,
    adaptive_lambda,
    augment,
    class_balanced_batches,
    linear_probe,
    probe_run,
    run_sequence,
)
from cclab import continual, losses
from cclab.bounds import population_bound_check
from cclab.core import MixtureWeights, TaskDistribution, normalize_rows
from cclab.data import make_blob_sequence
from cclab.losses import population_test_loss
from cclab.trainer import SgdConfig
from tests.helpers import (
    DictTableModel,
    augment_reference,
    class_balanced_reference,
    linear_probe_reference,
    population_bound_check_reference,
    run_sequence_reference,
)


class TestReplayBuffer:
    def test_fills_to_capacity(self):
        buf = ReplayBuffer(capacity=5, seed=0)
        for i in range(3):
            buf.insert(np.array([float(i), 0.0]), i, 1)
        assert len(buf) == 3
        for i in range(10):
            buf.insert(np.array([float(i), 1.0]), i, 2)
        assert len(buf) == 5
        assert buf.stream_count == 13

    def test_zero_capacity(self):
        buf = ReplayBuffer(capacity=0)
        buf.insert(np.zeros(2), 0, 1)
        assert len(buf) == 0
        with pytest.raises(ValueError):
            ReplayBuffer(capacity=-1)

    def test_uniform_retention_probability(self):
        # after streaming 100 items through a 10-slot reservoir, each item
        # is retained with probability 1/10; estimate the first item's
        # retention rate over many independent reservoirs
        hits = 0
        trials = 10_000
        for s in range(trials):
            buf = ReplayBuffer(capacity=10, seed=s)
            for i in range(100):
                buf.insert(np.array([float(i)]), i, 1)
            hits += any(lab == 0 for lab in buf.labels)
        assert hits / trials == pytest.approx(0.1, abs=0.01)

    def test_composition_and_shares(self):
        buf = ReplayBuffer(capacity=100, seed=0)
        for i in range(30):
            buf.insert(np.zeros(2), 0, 1)
        for i in range(10):
            buf.insert(np.zeros(2), 0, 2)
        assert buf.composition() == {1: 30, 2: 10}
        shares = buf.task_shares(upto_task=3)
        assert shares.task_index == 3
        np.testing.assert_allclose(shares.weights, [0.75, 0.25])
        # tasks missing from the buffer get a strictly positive floor
        shares4 = buf.task_shares(upto_task=4)
        assert shares4.weights[2] > 0
        assert shares4.weights.sum() == pytest.approx(1.0)


class TestLambdaSchedule:
    def test_fixed(self):
        s = LambdaSchedule(mode="fixed", lam0=0.7)
        assert adaptive_lambda(s, 2) == 0.7
        s.record_task(1.0, 5.0)
        assert adaptive_lambda(s, 3) == 0.7

    def test_second_task_uses_base(self):
        for mode in ("pure", "min", "max"):
            s = LambdaSchedule(mode=mode, lam0=0.3)
            assert adaptive_lambda(s, 2) == 0.3

    def test_ratio_modes(self):
        s = LambdaSchedule(mode="pure", lam0=1.0, kappa=2.0)
        s.record_task(l_con=4.0, l_dis=1.0)
        s.record_task(l_con=4.0, l_dis=1.0)
        # r = kappa * (sum dis)/(sum con) = 2 * 2/8 = 0.5
        assert adaptive_lambda(s, 3) == pytest.approx(0.5)
        s_min = LambdaSchedule(mode="min", lam0=1.0, kappa=2.0,
                               sum_con=8.0, sum_dis=2.0)
        assert adaptive_lambda(s_min, 3) == pytest.approx(0.5)
        s_min.sum_dis = 20.0  # r = 5 clips at 1
        assert adaptive_lambda(s_min, 3) == 1.0
        s_max = LambdaSchedule(mode="max", lam0=1.0, kappa=2.0,
                               sum_con=8.0, sum_dis=2.0)
        assert adaptive_lambda(s_max, 3) == 1.0  # r = 0.5 floors at lam0
        s_max.sum_dis = 20.0
        assert adaptive_lambda(s_max, 3) == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            LambdaSchedule(mode="bogus")
        with pytest.raises(ValueError):
            LambdaSchedule(kappa=0.0)
        s = LambdaSchedule(mode="pure")
        with pytest.raises(ValueError):
            adaptive_lambda(s, 1)
        with pytest.raises(ValueError):
            adaptive_lambda(s, 3)  # empty sums
        # the Theorem 2 settings fail when the run is configured, not after
        # the second task has trained
        with pytest.raises(ValueError):
            RunConfig(mode="theorem2", u_t=0)
        with pytest.raises(ValueError):
            RunConfig(mode="theorem2", delta_t=-1)
        # U_t divides by gamma_2 = min(1/2, lam k_21), which is 0 at lam = 0
        with pytest.raises(ValueError):
            RunConfig(mode="theorem2", lam0=0.0)
        for mode in ("fixed", "pure", "min", "max"):
            RunConfig(mode=mode, lam0=0.0)


class TestRunConfig:
    @pytest.mark.parametrize("field, value", [
        ("hidden", 0), ("embed_dim", 0), ("buffer_size", -1), ("probe_epochs", -1),
    ])
    def test_size_below_least_rejected(self, field, value):
        with pytest.raises(ValueError):
            RunConfig(**{field: value})
        RunConfig(**{field: value + 1})  # the least accepted value


class TestAugment:
    def test_shape_preserved_and_perturbation_small(self):
        rng = np.random.default_rng(0)
        pts = rng.standard_normal((10, 2))
        out = augment(pts, rng)
        assert out.shape == pts.shape
        assert np.max(np.abs(out - pts)) < 1.0

    def test_higher_dimensions_jitter_only(self):
        rng = np.random.default_rng(0)
        pts = np.zeros((5, 4))
        out = augment(pts, rng, jitter=0.01)
        assert np.max(np.abs(out)) < 0.1

    @pytest.mark.parametrize("n, d", [(1, 2), (6, 2), (32, 2), (7, 3), (5, 1)])
    def test_stack_draws_as_one_call_per_view(self, n, d):
        pts = np.random.default_rng(n).standard_normal((n, d))
        for views in (1, 2, 3):
            fast, slow = np.random.default_rng(7), np.random.default_rng(7)
            got = augment(np.stack([pts] * views), fast)
            for v in range(views):
                np.testing.assert_array_max_ulp(got[v], augment_reference(pts, slow), maxulp=1)
            assert fast.bit_generator.state == slow.bit_generator.state
        one, ref = np.random.default_rng(3), np.random.default_rng(3)
        np.testing.assert_array_max_ulp(augment(pts, one), augment_reference(pts, ref), maxulp=1)

    @pytest.mark.parametrize("n, d", [(66, 2), (66, 5), (10, 2), (10, 5)])
    def test_task_stream_matches_per_batch_reference_calls(self, monkeypatch, n, d):
        # each epoch's rows are its batches' two augment_reference views,
        # interleaved, whether the chunk holds one epoch or all of them;
        # 66 points at batch 32 end in a ragged batch, 10 fit in one
        pts = np.random.default_rng(n + d).standard_normal((n, d))
        labs = np.arange(n) % 3
        for budget in (1, continual.VIEW_ENTRIES):
            monkeypatch.setattr(continual, "VIEW_ENTRIES", budget)
            rngs = {"batching": np.random.default_rng(1), "augment": np.random.default_rng(2)}
            batch_rng, aug_rng = np.random.default_rng(1), np.random.default_rng(2)
            stream = list(continual.epoch_views(pts, labs, 3, 32, rngs))
            assert len(stream) == 3
            for rows, vlabs in stream:
                order = batch_rng.permutation(n)
                want = []
                for start in range(0, n, 32):
                    idx = order[start : start + 32]
                    views = [augment_reference(pts[idx], aug_rng) for _ in range(2)]
                    want.append(np.stack(views, axis=1).reshape(-1, d))
                np.testing.assert_array_equal(rows, np.concatenate(want))
                np.testing.assert_array_equal(vlabs, labs[order].repeat(2))
            assert rngs["batching"].bit_generator.state == batch_rng.bit_generator.state
            assert rngs["augment"].bit_generator.state == aug_rng.bit_generator.state

    @pytest.mark.parametrize("n, chunks", [(6000, [1, 1, 1, 1, 1]), (2000, [2, 2, 1])])
    def test_task_stream_chunks_hold_whole_epochs_within_the_budget(self, monkeypatch, n, chunks):
        # at 2-D, an epoch holds 2 n (2 + 1) views and angles: 36000 entries
        # at n = 6000 exceed the 2**15 budget alone, 12000 at n = 2000 fit twice
        shapes = []

        def recording(points, *args):
            shapes.append(points.shape)
            return augment(points, *args)

        monkeypatch.setattr(continual, "augment", recording)
        rngs = {"batching": np.random.default_rng(0), "augment": np.random.default_rng(0)}
        pts = np.zeros((n, 2))
        stream = continual.epoch_views(pts, np.zeros(n, dtype=np.int64), 5, 32, rngs)
        assert sum(1 for _ in stream) == 5
        assert shapes == [(e, 2, n, 2) for e in chunks]


def tiny_config(mode="max", epochs=4, seed=0, **kw):
    return RunConfig(
        hidden=8,
        embed_dim=4,
        sgd=SgdConfig(lr=0.05, epochs=epochs, batch_size=16, seed=seed),
        mode=mode,
        buffer_size=20,
        seed=seed,
        probe_epochs=20,
        **kw,
    )


MODES = ["fixed", "pure", "min", "max", "theorem2"]


class TestRunSequence:
    def test_structure_and_lambda_trace(self):
        tasks = make_blob_sequence(3, points_per_class=8, seed=0)
        res = run_sequence(tasks, tiny_config())
        assert len(res.task_models) == 3
        assert len(res.trace.records) == 3
        assert res.trace.records[0].lam is None
        assert res.trace.records[1].lam == pytest.approx(1.0)  # lam0 at t=2
        assert res.trace.records[2].lam >= 1.0  # max mode floors at lam0
        assert len(res.buffer) <= 20

    def test_bit_identical_reruns(self):
        tasks = make_blob_sequence(3, points_per_class=8, seed=1)
        a = run_sequence(tasks, tiny_config(seed=3))
        b = run_sequence(tasks, tiny_config(seed=3))
        assert a.trace.to_json() == b.trace.to_json()
        np.testing.assert_array_equal(
            a.encoder.get_params(), b.encoder.get_params()
        )
        c = run_sequence(tasks, tiny_config(seed=4))
        assert a.trace.to_json() != c.trace.to_json()

    @pytest.mark.parametrize("d_in", [2, 5])
    def test_stream_chunking_leaves_the_run_unchanged(self, monkeypatch, d_in):
        # one epoch per augment call or all of a task's epochs in one: the
        # same traces, epoch rows and parameters, byte for byte
        tasks = make_blob_sequence(3, points_per_class=8, d_in=d_in, seed=4)
        cfg = tiny_config(mode="theorem2", epochs=5, seed=1, u_t=0.5, delta_t=0.25)
        calls = []

        def counting(points, *args):
            calls.append(points.shape[0])
            return augment(points, *args)

        monkeypatch.setattr(continual, "augment", counting)
        runs = []
        for budget, chunks in ((1, [1] * 15), (1 << 40, [5] * 3)):
            monkeypatch.setattr(continual, "VIEW_ENTRIES", budget)
            calls.clear()
            runs.append(run_sequence(tasks, cfg))
            assert calls == chunks
        a, b = runs
        assert a.trace.to_json() == b.trace.to_json()
        assert a.trace.epoch_csv() == b.trace.epoch_csv()
        for enc_a, enc_b in zip([*a.task_models, a.encoder], [*b.task_models, b.encoder]):
            assert enc_a.params.tobytes() == enc_b.params.tobytes()

    def test_theorem2_mode_runs(self):
        tasks = make_blob_sequence(3, points_per_class=8, seed=0)
        res = run_sequence(tasks, tiny_config(mode="theorem2", u_t=0.5, delta_t=0.25))
        lams = [r.lam for r in res.trace.records[1:]]
        assert all(l >= 1.0 for l in lams)
        # the trace carries the settings that explain its coefficients
        config = json.loads(res.trace.to_json())["config"]
        assert (config["u_t"], config["delta_t"]) == (0.5, 0.25)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            run_sequence([], tiny_config())

    @pytest.mark.parametrize("mode, d_in", [
        *(pytest.param(m, 2, id=m) for m in MODES),
        *(pytest.param(m, 5, id=f"{m}-d_in5") for m in MODES),  # augment's jitter-only path
    ])
    def test_matches_the_reference_step(self, mode, d_in):
        # the fused step against a loop of the step it replaced: two
        # augment calls, one forward per encoder, per-anchor batch losses
        tasks = make_blob_sequence(3, points_per_class=8, d_in=d_in, seed=5)
        cfg = tiny_config(mode=mode, seed=2, u_t=0.5, delta_t=0.25)
        res = run_sequence(tasks, cfg)
        trace, enc, buffer = run_sequence_reference(tasks, cfg)
        got = np.array([row[2:4] for row in res.trace.epoch_rows])
        want = np.array([row[2:4] for row in trace.epoch_rows])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        lams = [r.lam for r in res.trace.records[1:]]
        want_lams = [r.lam for r in trace.records[1:]]
        np.testing.assert_allclose(lams, want_lams, rtol=1e-12, atol=0)
        # the same branch: min's clip at 1, max's floor at lam0, theorem2's step
        assert [(x == 1.0, x == cfg.lam0) for x in lams] == [
            (x == 1.0, x == cfg.lam0) for x in want_lams]
        assert list(np.diff(lams) != 0) == list(np.diff(want_lams) != 0)
        assert res.buffer.labels == buffer.labels
        test = [t.test for t in tasks]
        pts = np.concatenate([tasks[-1].train.points, np.asarray(buffer.points)])
        labs = np.concatenate([tasks[-1].train.labels, np.asarray(buffer.labels)])
        probe = linear_probe(res.encoder.forward, pts, labs, test, n_classes=6, epochs=20)
        assert probe.per_task_accuracy == linear_probe_reference(
            enc.forward, pts, labs, test, n_classes=6, epochs=20)


class TestPopulationBoundCheck:
    def test_sandwich_on_trained_sequence(self):
        tasks = make_blob_sequence(3, points_per_class=6, seed=0)
        res = run_sequence(tasks, tiny_config(mode="fixed", epochs=6))
        dists = [t.train for t in tasks]
        embeddings = [
            enc.snapshot(np.concatenate([d.points for d in dists]))
            for enc in res.task_models
        ]
        lambdas = [r.lam for r in res.trace.records[1:]]
        upper, lower, realized = population_bound_check(embeddings, dists, lambdas)
        assert lower.value - 1e-9 <= realized <= upper.value + 1e-9
        assert upper.realized_test_loss == realized

    @pytest.fixture(scope="class")
    def trained(self):
        """A 4-task max-mode run: its task models, distributions and coefficients."""
        tasks = make_blob_sequence(4, points_per_class=7, seed=2)
        res = run_sequence(tasks, tiny_config(mode="max", epochs=5, seed=2))
        return res.task_models, [t.train for t in tasks], [r.lam for r in res.trace.records[1:]]

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("shape", ["uniform", "weighted", "unequal sizes"])
    def test_matches_per_pass_reference(self, trained, k, shape):
        encoders, dists, lambdas = trained
        weights = None
        if shape == "weighted":
            rng = np.random.default_rng(k)
            weights = [MixtureWeights(t, rng.dirichlet(np.ones(t - 1))) for t in range(2, 5)]
        if shape == "unequal sizes":  # sizes n, n-1, n-2, n: two stacked, two alone
            dists = [
                TaskDistribution(d.points[: d.size - i % 3], d.labels[: d.size - i % 3],
                                 d.mass[: d.size - i % 3] / d.mass[: d.size - i % 3].sum())
                for i, d in enumerate(dists)
            ]
            assert len({d.size for d in dists}) == 3
        # snapshots on the joint support against table models of the same rows
        support = np.concatenate([d.points for d in dists])
        embeddings = [enc.snapshot(support) for enc in encoders]
        tables = [DictTableModel(support, enc.forward(support)) for enc in encoders]
        got = population_bound_check(embeddings, dists, lambdas, k, weights)
        want = population_bound_check_reference(tables, dists, lambdas, k, weights)
        assert [r.to_json() for r in got[:2]] == [r.to_json() for r in want[:2]]
        assert got[2].hex() == want[2].hex()
        assert population_test_loss(embeddings[-1], dists, k).hex() == want[2].hex()

    def test_one_contrastive_pass_per_check(self, monkeypatch):
        # T = 5 equal-size tasks: one stacked pass for the 2T - 1 distinct
        # contrastive terms, then one distillation pass per task 2..T
        tasks = make_blob_sequence(5, points_per_class=3, seed=4)
        dists = [t.train for t in tasks]
        support = np.concatenate([d.points for d in dists])
        rng = np.random.default_rng(4)
        embeddings = [normalize_rows(rng.standard_normal((len(support), 3))) for _ in tasks]
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape[0])
            return stacked_terms(*args, **kwargs)

        stacked_terms = losses._stacked_terms
        monkeypatch.setattr(losses, "_stacked_terms", counted)
        population_bound_check(embeddings, dists, [1.0] * 4)
        assert calls == [9, 1, 1, 1, 1]

    def test_input_validation(self):
        d = make_blob_sequence(1, points_per_class=6)[0].train
        with pytest.raises(ValueError):
            population_bound_check([None], [d], [])

    def test_needs_a_row_per_point_of_the_joint_support(self):
        dists = [t.train for t in make_blob_sequence(3, points_per_class=3, seed=1)]
        n = sum(d.size for d in dists)
        rng = np.random.default_rng(0)
        good = [normalize_rows(rng.standard_normal((n, 3))) for _ in dists]
        population_bound_check(good, dists, [1.0, 1.0])
        for bad in (good[0][:-1], good[0][: dists[0].size], np.vstack([good[0], good[0][:1]])):
            for t in range(3):
                embeddings = good[:t] + [bad] + good[t + 1 :]
                with pytest.raises(ValueError, match="one embedding row per support point"):
                    population_bound_check(embeddings, dists, [1.0, 1.0])


class TestClassBalancedBatches:
    def test_marginal_class_frequency(self):
        # 90/10 imbalanced data; the two-step rule should still pick each
        # class half the time
        labels = np.array([0] * 90 + [1] * 10)
        rng = np.random.default_rng(0)
        batches = class_balanced_batches(labels, batch_size=50, n_batches=200, rng=rng)
        drawn = np.concatenate([labels[idx] for idx in batches])
        assert np.mean(drawn == 1) == pytest.approx(0.5, abs=0.02)

    def test_batch_shapes(self):
        labels = np.array([0, 0, 1, 1, 2])
        rng = np.random.default_rng(1)
        batches = class_balanced_batches(labels, 8, 3, rng)
        assert len(batches) == 3
        assert all(b.shape == (8,) for b in batches)

    @pytest.mark.parametrize("labels", [
        np.array([0] * 90 + [1] * 10),
        np.array([3, 3, 1, 7, 7, 7, 3, 1, 9]),
        np.repeat([5, 2, 0, 4], [1, 6, 2, 13])[::-1],
        np.array([4]),
    ])
    def test_matches_scalar_reference(self, labels):
        for seed in range(8):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            got = class_balanced_batches(labels, 32, 12, fast)
            want = class_balanced_reference(labels, 32, 12, slow)
            for a, b in zip(got, want, strict=True):
                np.testing.assert_array_equal(a, b)
                assert a.dtype == b.dtype
            # the generators are left in the same state
            assert fast.integers(0, 2**62) == slow.integers(0, 2**62)

    def test_one_call_equals_consecutive_calls(self):
        labels = np.array([0, 0, 1, 2, 2, 2, 2])
        one, two = np.random.default_rng(3), np.random.default_rng(3)
        joined = class_balanced_batches(labels, 5, 11, one)
        split = (class_balanced_batches(labels, 5, 4, two)
                 + class_balanced_batches(labels, 5, 7, two))
        for a, b in zip(joined, split, strict=True):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("mode", MODES)
    def test_probe_rebuilds_the_final_buffer(self, monkeypatch, mode):
        # probe_run streams the tasks into a fresh reservoir, which must end
        # as the run's buffer ended, generator state included
        tasks = make_blob_sequence(5, points_per_class=8, seed=5)
        cfg = tiny_config(mode=mode, seed=2, u_t=0.5, delta_t=0.25)
        res = run_sequence(tasks, cfg)
        seeded, rebuilt = continual._seeded_state, []
        monkeypatch.setattr(continual, "_seeded_state",
                            lambda c: rebuilt.append(seeded(c)) or rebuilt[-1])
        probe = probe_run(tasks, cfg, res.encoder)
        (_, buf), want = rebuilt[0], res.buffer
        assert buf.stream_count == want.stream_count > cfg.buffer_size
        assert (buf.labels, buf.tasks) == (want.labels, want.tasks)
        np.testing.assert_array_equal(buf.points, want.points)
        assert buf._rng.bit_generator.state == want._rng.bit_generator.state
        # the probe itself: last task plus the run's buffer, every class seen
        pts = np.concatenate([tasks[-1].train.points, np.asarray(want.points)])
        labs = np.concatenate([tasks[-1].train.labels, np.asarray(want.labels)])
        assert probe == linear_probe(res.encoder.forward, pts, labs, [t.test for t in tasks],
                                     n_classes=10, epochs=cfg.probe_epochs, seed=cfg.seed)


class TestLinearProbe:
    def test_separable_embeddings_reach_full_accuracy(self):
        # identity-like embedding of two well-separated blobs
        rng = np.random.default_rng(0)
        pts = np.concatenate([
            rng.normal([2.0, 0.0], 0.1, size=(20, 2)),
            rng.normal([-2.0, 0.0], 0.1, size=(20, 2)),
        ])
        labels = np.repeat([0, 1], 20)
        dist = TaskDistribution(
            points=pts, labels=labels, mass=np.full(40, 1 / 40)
        )

        def embed(x):
            return x / np.linalg.norm(x, axis=1, keepdims=True)

        probe = linear_probe(embed, pts, labels, [dist], n_classes=2, epochs=50)
        assert probe.average_accuracy == 1.0
        assert probe.missing_classes == []

    def test_constant_embeddings_are_chance_level(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((40, 2))
        labels = np.repeat([0, 1], 20)
        dist = TaskDistribution(
            points=pts, labels=labels, mass=np.full(40, 1 / 40)
        )
        def embed(x):
            return np.tile([1.0, 0.0], (len(x), 1))

        probe = linear_probe(embed, pts, labels, [dist], n_classes=2, epochs=20)
        assert probe.average_accuracy == pytest.approx(0.5, abs=1e-12)

    def test_matches_per_batch_reference(self):
        # trained on all batches' gathered embeddings and one-hot targets,
        # with the softmax in place: the same classifier, bit for bit
        rng = np.random.default_rng(3)
        for n, n_classes, batch in ((40, 4, 32), (70, 10, 32), (9, 3, 4)):
            z = rng.standard_normal((n, 4))
            z /= np.linalg.norm(z, axis=1, keepdims=True)
            labels = rng.integers(0, n_classes, size=n)
            dist = TaskDistribution(points=z, labels=labels, mass=np.full(n, 1 / n))
            for seed, epochs in ((0, 30), (1, 30), (2, 30), (3, 0)):
                got = linear_probe(lambda x: x, z, labels, [dist], n_classes, epochs=epochs,
                                   batch_size=batch, seed=seed)
                assert got.per_task_accuracy == linear_probe_reference(
                    lambda x: x, z, labels, [dist], n_classes, epochs=epochs,
                    batch_size=batch, seed=seed)

    def test_missing_classes_flagged(self):
        pts = np.random.default_rng(2).standard_normal((10, 2))
        labels = np.zeros(10, dtype=int)
        dist = TaskDistribution(
            points=pts, labels=labels, mass=np.full(10, 0.1)
        )

        def embed(x):
            return x / np.linalg.norm(x, axis=1, keepdims=True)

        probe = linear_probe(embed, pts, labels, [dist], n_classes=3, epochs=5)
        assert probe.missing_classes == [1, 2]
