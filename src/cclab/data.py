"""Synthetic task-sequence generators, the worked weight constructions for
the bound analysis, Monte Carlo population-loss estimation, and IDX-format
image ingestion for a miniature real-data track.

All randomness flows from one experiment seed through named sub-streams so
components stay independently reproducible.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import EmbeddingModel, MixtureWeights, TaskDistribution
from .losses import logistic_link


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


def make_rotated_sequence(T: int, base: TaskData, seed: int = 0) -> list[TaskData]:
    """Domain-shift sequence: each task applies a seeded random rotation in
    [0, pi) to the 2-D base task. Classes are re-mapped per task so the
    same base class in different tasks counts as distinct."""
    if base.train.dimension != 2:
        raise ValueError("rotated sequences are defined for 2-D data")
    rng = np.random.default_rng(seed)
    base_classes = np.unique(
        np.concatenate([base.train.labels, base.test.labels])
    )
    n_cls = base_classes.size
    remap = {c: i for i, c in enumerate(base_classes)}
    tasks = []
    for t in range(T):
        theta = rng.uniform(0.0, np.pi)
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )

        def relabel(dist: TaskDistribution) -> TaskDistribution:
            labels = np.array(
                [t * n_cls + remap[c] for c in dist.labels], dtype=np.int64
            )
            return TaskDistribution(
                points=dist.points @ rot.T, labels=labels, mass=dist.mass
            )

        tasks.append(TaskData(train=relabel(base.train), test=relabel(base.test)))
    return tasks


@dataclass(frozen=True)
class ScenarioSpec:
    """A declared bound-analysis scenario: weight rule plus loss rule.

    weight_rule: "example1" | "example2" | "example3" | "custom".
    loss_rule: "equal" | "geometric" | "measured"; the first two declare
    training-loss values directly, "measured" expects real trace values.
    """

    T: int
    weight_rule: str = "example1"
    rho: float = 1.0
    custom_weights: tuple = ()
    loss_rule: str = "equal"
    base_loss: float = 1.0

    def __post_init__(self):
        if self.T < 2:
            raise ValueError("scenarios need at least two tasks")
        if self.rho <= 0:
            raise ValueError("loss ratio must be positive")
        if self.weight_rule == "custom" and len(self.custom_weights) != self.T - 1:
            raise ValueError(f"custom scenarios need weights for tasks 2..{self.T}")


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
    elif spec.weight_rule == "custom":
        w = np.asarray(spec.custom_weights[t - 2], dtype=np.float64)
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
    raise ValueError(
        "measured scenarios take loss values from a trace, not the scenario"
    )


def monte_carlo_contrastive(
    f: EmbeddingModel,
    dist: TaskDistribution,
    k: int = 1,
    draws: int = 100_000,
    seed: int = 0,
    chunk: int = 50_000,
) -> tuple[float, float]:
    """Unbiased sample estimate of the population contrastive loss.

    Samples the generative process directly (class, i.i.d. positive pair,
    k marginal negatives) and returns (estimate, standard error).
    """
    if draws < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(seed)
    emb = f.embed(dist.points)
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


# -- IDX binary format -----------------------------------------------------

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass(frozen=True)
class IdxImageSet:
    """Parsed IDX image/label pair; pixels scaled to [0, 1]."""

    images: np.ndarray  # (n, rows, cols) float64
    labels: np.ndarray  # (n,) int64


class IdxFormatError(ValueError):
    pass


def idx_read(images_path: str | Path, labels_path: str | Path,
             per_class: int | None = None) -> IdxImageSet:
    """Read a big-endian IDX image file plus its companion label file.

    ``per_class`` optionally subsets to the first so-many images of each
    class, keeping desk-scale experiments fast.
    """
    img_blob = Path(images_path).read_bytes()
    lab_blob = Path(labels_path).read_bytes()
    if len(img_blob) < 16:
        raise IdxFormatError("truncated image header")
    magic, n, rows, cols = struct.unpack_from(">IIII", img_blob, 0)
    if magic != IDX_IMAGE_MAGIC:
        raise IdxFormatError(f"bad image magic {magic:#010x}")
    if len(img_blob) != 16 + n * rows * cols:
        raise IdxFormatError("truncated image pixel stream")
    if len(lab_blob) < 8:
        raise IdxFormatError("truncated label header")
    lmagic, ln = struct.unpack_from(">II", lab_blob, 0)
    if lmagic != IDX_LABEL_MAGIC:
        raise IdxFormatError(f"bad label magic {lmagic:#010x}")
    if ln != n:
        raise IdxFormatError(f"image/label count mismatch ({n} vs {ln})")
    if len(lab_blob) != 8 + ln:
        raise IdxFormatError("truncated label stream")
    images = (
        np.frombuffer(img_blob, dtype=np.uint8, offset=16)
        .reshape(n, rows, cols)
        .astype(np.float64)
        / 255.0
    )
    labels = np.frombuffer(lab_blob, dtype=np.uint8, offset=8).astype(np.int64)
    if per_class is not None:
        keep = []
        for c in np.unique(labels):
            keep.extend(np.flatnonzero(labels == c)[:per_class])
        keep = np.sort(np.asarray(keep))
        images, labels = images[keep], labels[keep]
    return IdxImageSet(images=images, labels=labels)


def idx_write(
    images: np.ndarray, labels: np.ndarray,
    images_path: str | Path, labels_path: str | Path,
) -> None:
    """Write an IDX pair (inverse of :func:`idx_read`, bit-exact)."""
    images = np.asarray(images)
    if images.dtype != np.uint8:
        images = np.clip(np.round(images * 255.0), 0, 255).astype(np.uint8)
    n, rows, cols = images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, rows, cols))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, n))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


def idx_task_sequence(
    data: IdxImageSet, classes_per_task: int = 2, seed: int = 0,
    test_frac: float = 0.2,
) -> list[TaskData]:
    """Split an image set into a class-incremental task sequence.

    Images are flattened to vectors; consecutive class blocks form tasks.
    """
    rng = np.random.default_rng(seed)
    flat = data.images.reshape(data.images.shape[0], -1)
    classes = np.unique(data.labels)
    if classes.size % classes_per_task:
        raise ValueError("class count must divide evenly into tasks")
    tasks = []
    for start in range(0, classes.size, classes_per_task):
        block = classes[start : start + classes_per_task]
        idx = np.flatnonzero(np.isin(data.labels, block))
        tr, te = _split_indices(idx.size, rng, test_frac)
        tasks.append(
            TaskData(
                train=_uniform_dist(flat[idx[tr]], data.labels[idx[tr]]),
                test=_uniform_dist(flat[idx[te]], data.labels[idx[te]]),
            )
        )
    return tasks
