"""Synthetic blob task sequences, the worked weight constructions for the
bound analysis, and Monte Carlo population-loss estimation.

All randomness flows from one experiment seed through named sub-streams so
components stay independently reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MAX_TABLE_ENTRIES, MixtureWeights, TaskDistribution
from .losses import _rows


@dataclass(frozen=True)
class TaskData:
    """One task's train/test split; both halves share the global class ids."""

    train: TaskDistribution
    test: TaskDistribution


def _split_indices(n: int, rng: np.random.Generator, test_frac: float = 0.2):
    order = rng.permutation(n)
    n_test = max(1, int(round(test_frac * n)))
    return order[n_test:], order[:n_test]


def _uniform_dist(points: np.ndarray, labels: np.ndarray) -> TaskDistribution:
    n = points.shape[0]
    return TaskDistribution(points=points, labels=labels, mass=np.full(n, 1.0 / n))


def make_blob_sequence(
    T: int,
    classes_per_task: int = 2,
    points_per_class: int = 20,
    d_in: int = 2,
    seed: int = 0,
    spread: float = 0.15,
    radius: float = 1.0,
) -> list[TaskData]:
    """Gaussian blobs around distinct directions, disjoint class ids per task.

    Class centers are spaced evenly on the circle (first two coordinates
    for d_in > 2), so centers are pairwise separated by a fixed angular
    margin. Supports carry uniform mass; each class is split 80/20 into
    train/test at generation time.
    """
    if T < 1 or classes_per_task < 1 or points_per_class < 2 or d_in < 2:
        raise ValueError("sizes must be positive (and >= 2 points per class)")
    if T * classes_per_task * points_per_class * d_in > MAX_TABLE_ENTRIES:
        raise ValueError(f"a blob sequence of more than {MAX_TABLE_ENTRIES} coordinates")
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    n_classes = T * classes_per_task
    angles = 2 * np.pi * np.arange(n_classes) / n_classes
    tasks = []
    for t in range(T):
        pts_tr, lab_tr, pts_te, lab_te = [], [], [], []
        for j in range(classes_per_task):
            cid = t * classes_per_task + j
            center = np.zeros(d_in)
            center[0] = radius * np.cos(angles[cid])
            center[1] = radius * np.sin(angles[cid])
            pts = center + rng.normal(scale=spread, size=(points_per_class, d_in))
            tr, te = _split_indices(points_per_class, rng)
            pts_tr.append(pts[tr])
            lab_tr.append(np.full(tr.size, cid))
            pts_te.append(pts[te])
            lab_te.append(np.full(te.size, cid))
        tasks.append(
            TaskData(
                train=_uniform_dist(np.concatenate(pts_tr), np.concatenate(lab_tr)),
                test=_uniform_dist(np.concatenate(pts_te), np.concatenate(lab_te)),
            )
        )
    return tasks


@dataclass(frozen=True)
class ScenarioSpec:
    """A declared bound-analysis scenario: weight rule plus loss rule.

    weight_rule: "example1" | "example2" | "example3".
    loss_rule: "equal" | "geometric"; each declares training-loss values
    directly.
    """

    T: int
    weight_rule: str = "example1"
    rho: float = 1.0
    loss_rule: str = "equal"
    base_loss: float = 1.0

    def __post_init__(self):
        if self.T < 2:
            raise ValueError("scenarios need at least two tasks")
        if self.T * (self.T - 1) // 2 > MAX_TABLE_ENTRIES:  # the weights of tasks 2..T
            raise ValueError(f"T = {self.T} needs more than {MAX_TABLE_ENTRIES} mixture weights")
        if self.rho <= 0:
            raise ValueError("loss ratio must be positive")


def example_weights(spec: ScenarioSpec, t: int) -> MixtureWeights:
    """The published weight constructions for the three worked scenarios.

    example1: first task gets 2/t, the rest 1/t each.
    example2: first task gets 1 - (t-2)/(rho t), the rest 1/(rho t).
    example3: 2.9/t, 0.1/t, then 1/t; the second task uses weight 1 on
    the first.
    """
    if not 2 <= t <= spec.T:
        raise ValueError(f"task index {t} outside scenario range")
    if spec.weight_rule == "example1":
        w = np.full(t - 1, 1.0 / t)
        w[0] = 2.0 / t
    elif spec.weight_rule == "example2":
        w = np.full(t - 1, 1.0 / (spec.rho * t))
        w[0] = 1.0 - (t - 2) / (spec.rho * t)
    elif spec.weight_rule == "example3":
        if t == 2:
            w = np.array([1.0])
        else:
            w = np.full(t - 1, 1.0 / t)
            w[0] = 2.9 / t
            w[1] = 0.1 / t
    else:
        raise ValueError(f"unknown weight rule {spec.weight_rule!r}")
    return MixtureWeights(task_index=t, weights=w)


def scenario_weights(spec: ScenarioSpec) -> list[MixtureWeights]:
    return [example_weights(spec, t) for t in range(2, spec.T + 1)]


def scenario_train_losses(spec: ScenarioSpec) -> list[float]:
    """Declared per-task training-loss values for tasks 1..T."""
    if spec.loss_rule == "equal":
        return [spec.base_loss] * spec.T
    if spec.loss_rule == "geometric":
        return [spec.base_loss * spec.rho**t for t in range(spec.T)]
    raise ValueError(f"unknown loss rule {spec.loss_rule!r}")


def monte_carlo_contrastive(
    emb: np.ndarray,
    dist: TaskDistribution,
    k: int = 1,
    draws: int = 100_000,
    seed: int = 0,
    chunk: int = 50_000,
) -> tuple[float, float]:
    """Unbiased sample estimate of the population contrastive loss.

    Samples the generative process directly (class, i.i.d. positive pair,
    k marginal negatives) on the (n, e) unit rows ``emb``, one per point of
    ``dist``, and returns (estimate, standard error).
    """
    if draws < 1:
        raise ValueError("need at least one draw")
    if chunk < 1:
        raise ValueError(f"need at least one draw per chunk, got {chunk}")
    emb = _rows(emb, dist.size)
    rng = np.random.default_rng(seed)
    sims = emb @ emb.T
    classes = dist.classes
    mu = np.array([dist.class_prob(int(c)) for c in classes])
    cond = {int(c): dist.within_class(int(c)) for c in classes}
    total = 0.0
    total_sq = 0.0
    left = draws
    while left > 0:
        m = min(chunk, left)
        left -= m
        c_idx = rng.choice(classes.size, size=m, p=mu)
        anchors = np.empty(m, dtype=np.int64)
        positives = np.empty(m, dtype=np.int64)
        for ci in np.unique(c_idx):
            sel = c_idx == ci
            idx, p = cond[int(classes[ci])]
            anchors[sel] = rng.choice(idx, size=sel.sum(), p=p)
            positives[sel] = rng.choice(idx, size=sel.sum(), p=p)
        negs = rng.choice(dist.size, size=(m, k), p=dist.mass)
        v = sims[anchors, positives][:, None] - sims[anchors[:, None], negs]
        t = -v
        shift = np.maximum(0.0, t.max(axis=1))
        vals = shift + np.log(
            np.exp(-shift) + np.exp(t - shift[:, None]).sum(axis=1)
        )
        total += vals.sum()
        total_sq += (vals**2).sum()
    mean = total / draws
    var = max(0.0, total_sq / draws - mean**2)
    se = np.sqrt(var / draws)
    return float(mean), float(se)
