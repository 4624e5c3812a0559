"""End-to-end acceptance suite. Each test is one criterion; the conftest
prints a per-criterion pass/fail summary after the run. Runtime budgets
are asserted alongside the numerical tolerances."""

import inspect
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from cclab.bounds import (
    compute_U,
    constants,
    decomposition_check_trials,
    lemma1_trials,
    population_bound_check,
    ScheduleState,
    theorem1_upper,
    theorem2_step,
    turning_point,
)
from cclab.continual import (
    RunConfig,
    linear_probe,
    probe_run,
    run_sequence,
)
from cclab.core import MixtureWeights, TaskDistribution
from cclab.data import (
    ScenarioSpec,
    make_blob_sequence,
    scenario_train_losses,
    scenario_weights,
)
from cclab.losses import _batch_step
from cclab.trainer import Encoder, SgdConfig, Temperatures, finite_diff_check, save_checkpoint
from tests.helpers import oracle_ird, oracle_supcon, single_negative_beta_prime

REPORTS = Path(__file__).resolve().parent.parent / "reports"


def test_criterion_01_loss_sandwich_property():
    start = time.perf_counter()
    for k in (1, 2, 5):
        worst_up, worst_lo = lemma1_trials(trials=1000, k=k, seed=k)
        assert worst_up >= -1e-10, f"upper sandwich violated at k={k}: {worst_up}"
        assert worst_lo >= -1e-10, f"lower sandwich violated at k={k}: {worst_lo}"
    assert time.perf_counter() - start < 30.0


def test_criterion_02_decomposition_identity():
    start = time.perf_counter()
    worst = decomposition_check_trials(trials=200, k=1, seed=7)
    assert worst < 1e-10
    assert time.perf_counter() - start < 10.0


def test_criterion_03_closed_form_constants():
    mpmath.mp.dps = 50
    e2 = mpmath.exp(2)
    alpha = 2 * e2 / (1 + e2)
    beta = 2 - alpha + alpha * mpmath.log(alpha / 2)
    beta_prime = -alpha * mpmath.log(1 + e2) - 2 * e2 / (1 + e2)
    c = constants(1)
    assert abs(c.alpha - float(alpha)) < 1e-6
    assert abs(c.beta - float(beta)) < 1e-6
    assert abs(c.beta_prime - float(beta_prime)) < 1e-6
    # six-decimal sanity on alpha; high-precision values for all three
    assert c.alpha == pytest.approx(1.761594, abs=1e-6)
    assert c.beta == pytest.approx(0.0148102015638460, abs=1e-12)
    assert c.beta_prime == pytest.approx(-5.5083781103476838, abs=1e-12)
    # the general k-negative form at k=1 agrees with the single-negative form
    assert abs(constants(1).beta_prime - single_negative_beta_prime()) < 1e-12


def test_criterion_04_trained_sequence_sandwich():
    start = time.perf_counter()
    tasks = make_blob_sequence(3, classes_per_task=2, points_per_class=8, seed=0)
    cfg = RunConfig(
        hidden=16,
        embed_dim=4,
        sgd=SgdConfig(lr=0.05, epochs=20, batch_size=32, seed=0),
        mode="fixed",
        lam0=1.0,
        buffer_size=50,
        seed=0,
    )
    res = run_sequence(tasks, cfg)
    dists = [t.train for t in tasks]
    support = np.concatenate([d.points for d in dists])
    embeddings = [enc.snapshot(support) for enc in res.task_models]
    lambdas = [r.lam for r in res.trace.records[1:]]
    assert lambdas == [1.0, 1.0]
    upper, lower, realized = population_bound_check(embeddings, dists, lambdas, k=1)
    assert lower.value - 1e-9 <= realized <= upper.value + 1e-9
    assert time.perf_counter() - start < 120.0


def test_criterion_05_turning_points_and_grid_shape():
    spec1 = ScenarioSpec(T=5, weight_rule="example1")
    assert turning_point(scenario_weights(spec1)) == 1.0
    spec3 = ScenarioSpec(T=5, weight_rule="example3")
    assert turning_point(scenario_weights(spec3)) == 10.0
    for rho in (0.95, 1.05):
        spec2 = ScenarioSpec(T=5, weight_rule="example2", rho=rho)
        assert abs(turning_point(scenario_weights(spec2)) - rho) < 1e-12

    weights = scenario_weights(spec1)
    losses = scenario_train_losses(spec1)
    lam_star = turning_point(weights)
    grid = np.linspace(0.05, 20.0, 400)
    values = np.array(
        [theorem1_upper(losses, weights, lam).value for lam in grid]
    )
    assert np.all(np.diff(values) <= 1e-9), "upper bound increased in lambda"
    at_star = theorem1_upper(losses, weights, lam_star).value
    beyond = values[grid >= lam_star]
    np.testing.assert_allclose(beyond, at_star, atol=1e-9)


def random_trace(rng):
    t = int(rng.integers(2, 6))
    weights = []
    for j in range(2, t + 1):
        w = rng.dirichlet(np.ones(j - 1)) + 0.02
        weights.append(MixtureWeights(task_index=j, weights=w / w.sum()))
    losses = list(rng.uniform(0.1, 3.0, size=t))
    return t, weights, losses


def test_criterion_06_scheduler_monotonicity():
    rng = np.random.default_rng(0)
    for _ in range(100):
        _, weights, losses = random_trace(rng)
        lam = float(rng.uniform(0.05, 3.0))
        delta = float(rng.uniform(0.0, 3.0))
        assert compute_U(losses[1:], weights, lam + delta) <= compute_U(
            losses[1:], weights, lam
        ) + 1e-12
        # one scheduler step never raises the recomputed upper bound
        state = ScheduleState(
            t=weights[-1].task_index,
            lam=lam,
            u_t=float(rng.uniform(0.5, 5.0)),
            delta_t=delta,
        )
        new_lam = theorem2_step(state, compute_U(losses[1:], weights, lam)).lam
        before = theorem1_upper(losses, weights, lam).value
        after = theorem1_upper(losses, weights, new_lam).value
        assert after <= before + 1e-9


def test_criterion_07_gradient_check():
    rng = np.random.default_rng(0)
    worst = 0.0
    for seed in range(20):
        enc = Encoder((2, 12, 6), seed=seed)
        prev = Encoder((2, 12, 6), seed=seed + 500)
        points = rng.standard_normal((8, 2))
        labels = np.repeat(rng.integers(0, 2, size=4), 2)
        err = finite_diff_check(enc, prev, points, labels, 1.0, Temperatures())
        worst = max(worst, err)
    assert worst < 1e-4, f"worst relative gradient error {worst}"


def test_criterion_08_batch_loss_oracles():
    rng = np.random.default_rng(0)
    temps = Temperatures(contrastive=0.5, distill_current=0.2, distill_past=0.01)
    for _ in range(50):
        n_pairs = int(rng.integers(2, 6))
        z = rng.standard_normal((2 * n_pairs, 5))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        zp = rng.standard_normal((2 * n_pairs, 5))
        zp /= np.linalg.norm(zp, axis=1, keepdims=True)
        labels = np.repeat(rng.integers(0, 3, size=n_pairs), 2)
        got_con, got_dis, _, _ = _batch_step(np.stack((z, zp)), labels, temps)
        assert abs(got_con - oracle_supcon(z, labels, 0.5)) < 1e-10
        assert abs(got_dis - oracle_ird(z, zp, 0.2, 0.01)) < 1e-10
    # a single augmented pair has no negatives and a one-point softmax
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 0])
    got_con, got_dis, _, _ = _batch_step(np.stack((z, z[::-1])), labels, temps)
    assert got_con == 0.0
    assert got_dis == 0.0


def ablation_run(mode, seed):
    tasks = make_blob_sequence(5, classes_per_task=2, points_per_class=10, seed=0)
    cfg = RunConfig(
        hidden=16,
        embed_dim=4,
        sgd=SgdConfig(lr=0.05, epochs=40, batch_size=32, seed=seed),
        mode=mode,
        lam0=1.0,
        buffer_size=50,
        seed=seed,
        probe_epochs=100,
    )
    res = run_sequence(tasks, cfg)
    lams = [r.lam for r in res.trace.records[1:]]
    return probe_run(tasks, cfg, res.encoder).average_accuracy, lams


def test_criterion_09_adaptive_coefficient_ablation():
    start = time.perf_counter()
    rows = ["mode,seed,accuracy,lambdas"]
    means = {}
    for mode in ("fixed", "pure", "min", "max"):
        accs = []
        for seed in range(10):
            acc, lams = ablation_run(mode, seed)
            accs.append(acc)
            rows.append(f"{mode},{seed},{acc!r},{'|'.join(f'{l:g}' for l in lams)}")
            if mode == "max":
                assert all(l >= 1.0 for l in lams), (
                    f"max-mode coefficient fell below its floor (seed {seed})"
                )
        means[mode] = float(np.mean(accs))
    REPORTS.mkdir(exist_ok=True)
    (REPORTS / "ablation.csv").write_text("\n".join(rows) + "\n")
    assert means["max"] >= means["fixed"] - 0.01, means
    assert time.perf_counter() - start < 900.0


def test_criterion_10_probe_protocol_structure():
    # pre-train -> freeze -> 100-epoch class-balanced probe on the last
    # task plus the buffer: defaults encode the 100-epoch protocol
    assert inspect.signature(linear_probe).parameters["epochs"].default == 100
    assert RunConfig().probe_epochs == 100
    # a probe on linearly separable embeddings is perfect ...
    rng = np.random.default_rng(0)
    pts = np.concatenate([
        rng.normal([2.0, 0.0], 0.1, size=(20, 2)),
        rng.normal([-2.0, 0.0], 0.1, size=(20, 2)),
    ])
    labels = np.repeat([0, 1], 20)
    dist = TaskDistribution(points=pts, labels=labels, mass=np.full(40, 1 / 40))

    def embed(x):
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    assert linear_probe(embed, pts, labels, [dist], 2).average_accuracy == 1.0
    # ... and one on uninformative embeddings is chance level
    def constant(x):
        return np.tile([1.0, 0.0], (len(x), 1))

    chance = linear_probe(constant, pts, labels, [dist], 2).average_accuracy
    assert chance == pytest.approx(0.5, abs=1e-12)


def test_criterion_11_bit_identical_reruns(tmp_path):
    tasks = make_blob_sequence(3, classes_per_task=2, points_per_class=8, seed=2)
    cfg = RunConfig(
        hidden=16,
        embed_dim=4,
        sgd=SgdConfig(lr=0.05, epochs=10, batch_size=32, seed=5),
        mode="max",
        buffer_size=30,
        seed=5,
    )
    a = run_sequence(tasks, cfg)
    b = run_sequence(tasks, cfg)
    assert a.trace.to_json() == b.trace.to_json()
    assert a.trace.epoch_csv() == b.trace.epoch_csv()
    save_checkpoint(a.encoder, tmp_path / "a.ckpt", seed=5)
    save_checkpoint(b.encoder, tmp_path / "b.ckpt", seed=5)
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    assert (tmp_path / "a.ckpt.json").read_text() == (
        tmp_path / "b.ckpt.json"
    ).read_text()
