"""The adaptive-coefficient continual-learning driver: task loop over a
sequence of finite tasks, reservoir replay buffer, the adaptive
distillation-coefficient rule with its pure/min/max ablation variants, the
threshold-scheduler hook, and linear-probe evaluation on frozen
representations.

A run owns all of its state; with a fixed seed the whole sequence is
bit-reproducible (training is sequential). Each task's stream, every epoch's
batch order and both augmented views of every batch, is drawn before its
first step, in chunks of whole epochs (one ``augment`` call per task at
small shapes); a step is then one ``grad_total`` and one ``sgd_step``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import ScheduleState, compute_U, theorem2_step
from .core import MixtureWeights, TaskDistribution
from .data import TaskData
from .trainer import Encoder, SgdConfig, Temperatures, grad_total, sgd_step

LAMBDA_MODES = ("fixed", "pure", "min", "max", "theorem2")


@dataclass
class ReplayBuffer:
    """Fixed-capacity reservoir over the sample stream.

    The classic reservoir rule keeps each streamed item with probability
    capacity/stream_length once the stream is longer than the capacity.
    """

    capacity: int
    seed: int = 0
    points: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    tasks: list = field(default_factory=list)
    stream_count: int = 0

    def __post_init__(self):
        if self.capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._rng = np.random.default_rng(self.seed)

    def __len__(self) -> int:
        return len(self.points)

    def insert(self, point: np.ndarray, label: int, source_task: int) -> None:
        self.stream_count += 1
        if self.capacity == 0:
            return
        if len(self.points) < self.capacity:
            self.points.append(np.asarray(point, dtype=np.float64))
            self.labels.append(int(label))
            self.tasks.append(int(source_task))
            return
        r = int(self._rng.integers(0, self.stream_count))
        if r < self.capacity:
            self.points[r] = np.asarray(point, dtype=np.float64)
            self.labels[r] = int(label)
            self.tasks[r] = int(source_task)

    def add_task(self, task: TaskData, t: int) -> None:
        """Stream task ``t``'s training points into the reservoir, in order."""
        for p, c in zip(task.train.points, task.train.labels):
            self.insert(p, int(c), t)

    def composition(self) -> dict[int, int]:
        """Stored sample count per source task."""
        out: dict[int, int] = {}
        for t in self.tasks:
            out[t] = out.get(t, 0) + 1
        return out

    def task_shares(self, upto_task: int, floor: float = 1e-6) -> MixtureWeights:
        """Each past task's share of buffer samples, as estimated mixture
        weights for task ``upto_task``. Absent tasks get a small floor so
        the weights stay strictly positive."""
        comp = self.composition()
        raw = np.array(
            [max(float(comp.get(j, 0)), floor) for j in range(1, upto_task)]
        )
        return MixtureWeights(task_index=upto_task, weights=raw / raw.sum())


@dataclass
class LambdaSchedule:
    """Distillation-coefficient state across tasks.

    The ratio rule divides accumulated distillation losses by accumulated
    contrastive losses over completed tasks that had a distillation phase
    (j >= 2); the mode then shapes kappa * ratio. The theorem2 mode instead
    follows the threshold scheduler's state, whose ``t`` is the task the
    state's coefficient applies to; ``train_losses`` holds the training
    losses of tasks 2..t-1 that its U_t sums.
    """

    mode: str = "max"
    lam0: float = 1.0
    kappa: float = 1.0
    sum_dis: float = 0.0
    sum_con: float = 0.0
    theorem2: ScheduleState | None = None
    train_losses: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.mode not in LAMBDA_MODES:
            raise ValueError(f"unknown schedule mode {self.mode!r}")
        if self.lam0 < 0 or self.kappa <= 0:
            raise ValueError("lam0 must be >= 0 and kappa > 0")
        if self.mode == "theorem2" and self.theorem2 is None:
            raise ValueError("the theorem2 mode needs a threshold-scheduler state")
        if self.mode == "theorem2" and self.lam0 == 0:  # gamma = 0 leaves U_t undefined
            raise ValueError("the theorem2 mode needs lam0 > 0: U_t has no value at lambda = 0")

    @classmethod
    def from_config(cls, cfg: RunConfig) -> LambdaSchedule:
        """A fresh schedule for a run; the scheduler state checks u_t and
        delta_t whatever the mode."""
        state = ScheduleState(t=2, lam=cfg.lam0, u_t=cfg.u_t, delta_t=cfg.delta_t)
        return cls(mode=cfg.mode, lam0=cfg.lam0, kappa=cfg.kappa, theorem2=state)

    def record_task(
        self, l_con: float, l_dis: float, buffer: ReplayBuffer | None = None
    ) -> None:
        """Accumulate a completed distillation-phase task's final losses.

        In the theorem2 mode, also take the Theorem 2 step: U_t sums the
        training losses of tasks 2..t, weighted by the buffer's task shares.
        """
        self.sum_con += l_con
        self.sum_dis += l_dis
        if self.mode == "theorem2":
            state = self.theorem2
            self.train_losses.append(l_con + state.lam * l_dis)
            weights = [buffer.task_shares(j) for j in range(2, state.t + 1)]
            self.theorem2 = theorem2_step(
                state, compute_U(self.train_losses, weights, state.lam)
            )


class DegenerateTraining(ValueError):
    """A run whose data and batches left no contrastive loss to weigh against."""


def adaptive_lambda(schedule: LambdaSchedule, t: int) -> float:
    """Coefficient for task ``t`` under the schedule's mode.

    The second task always uses the base coefficient (the ratio's sums are
    empty there); later tasks use the accumulated loss ratio.
    """
    if t < 2:
        raise ValueError("the first task has no distillation coefficient")
    if schedule.mode == "fixed":
        return schedule.lam0
    if schedule.mode == "theorem2":
        return schedule.theorem2.lam
    if t == 2:
        return schedule.lam0
    if schedule.sum_con <= 0:
        raise DegenerateTraining("degenerate training: accumulated contrastive loss is zero")
    r = schedule.kappa * schedule.sum_dis / schedule.sum_con
    if schedule.mode == "pure":
        return r
    if schedule.mode == "min":
        return min(1.0, r)
    return max(schedule.lam0, r)  # max


def augment(points: np.ndarray, rng: np.random.Generator, batch_size: int | None = None,
            jitter: float = 0.05, max_angle_deg: float = 15.0) -> np.ndarray:
    """Label-preserving stochastic views: Gaussian jitter, plus a small
    random rotation for 2-D inputs.

    ``points`` is (n, d), a (V, n, d) stack of V views of n points, or an
    (E, V, n, d) stack of E such blocks. The draws run block by block, then
    batch of ``batch_size`` rows by batch (one batch by default), then view
    by view, so every view is bit for bit what one call per batch on its
    (V, b, d) slice draws, and the generator ends in the same state.
    """
    points = np.atleast_2d(points)
    n, d = points.shape[-2:]
    shape = points.shape if points.ndim > 2 else (1, n, d)
    rotate = d == 2
    out = np.empty(shape)
    theta = np.empty(shape[:-1])
    step = batch_size or max(n, 1)
    for block, angles in zip(out.reshape(-1, *shape[-3:]), theta.reshape(-1, *shape[-3:-1])):
        for start in range(0, n, step):
            for noise, angle in zip(block[:, start : start + step], angles[:, start : start + step]):
                rng.standard_normal(out=noise)  # normal(scale=jitter) is jitter times this
                if rotate:
                    rng.random(out=angle)  # uniform(-1, 1) is 2 u - 1 of this
    out *= jitter
    out += points
    if rotate:  # (x, y) -> (c x - s y, c y + s x), as (c x, c y) + (-s y, s x)
        np.multiply(theta * 2.0 - 1.0, np.deg2rad(max_angle_deg), out=theta)
        turned = out[..., ::-1] * np.sin(theta)[..., None]
        turned[..., 0] *= -1.0
        out *= np.cos(theta)[..., None]
        out += turned
    return out.reshape(points.shape)


# the views and rotation angles a task's training stream holds at once
VIEW_ENTRIES = 1 << 15


def epoch_views(pts: np.ndarray, labs: np.ndarray, epochs: int, batch_size: int,
                rngs: dict[str, np.random.Generator]):
    """A task's training stream: per epoch, its (2n, d) rows, each point of
    the epoch's batch order as two augmented views in adjacent rows, and
    their (2n,) labels. Drawn in chunks of whole epochs of at most about
    ``VIEW_ENTRIES`` views and angles (one epoch if it alone is larger), each
    chunk one permutation per epoch and one ``augment`` call."""
    n, d = pts.shape
    per_chunk = max(1, VIEW_ENTRIES // (2 * n * (d + 1)))
    for first in range(0, epochs, per_chunk):
        orders = np.array([rngs["batching"].permutation(n)
                           for _ in range(min(per_chunk, epochs - first))])
        twice = np.broadcast_to(pts[orders][:, None], (len(orders), 2, n, d))
        views = augment(twice, rngs["augment"], batch_size)
        yield from zip(views.swapaxes(1, 2).reshape(len(orders), 2 * n, d),
                       labs[orders].repeat(2, axis=1))


@dataclass
class RunConfig:
    """Everything a training run needs; recorded whole in its trace."""

    hidden: int = 32
    embed_dim: int = 8
    sgd: SgdConfig = field(default_factory=SgdConfig)
    temps: Temperatures = field(default_factory=Temperatures)
    mode: str = "max"
    lam0: float = 1.0
    kappa: float = 1.0
    buffer_size: int = 50
    seed: int = 0
    u_t: float = 1.0
    delta_t: float = 0.1
    probe_epochs: int = 100

    def __post_init__(self):
        if self.seed < 0:  # np.random.SeedSequence takes no negative seed
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if min(self.hidden, self.embed_dim) < 1 or min(self.buffer_size, self.probe_epochs) < 0:
            raise ValueError("need hidden, embed_dim >= 1 and buffer_size, probe_epochs >= 0, got "
                             f"{self.hidden}, {self.embed_dim}, {self.buffer_size}, {self.probe_epochs}")
        # the schedule's own checks, so a bad schedule setting fails here
        LambdaSchedule.from_config(self)


@dataclass
class TaskRecord:
    task: int
    lam: float | None
    l_con: float
    l_dis: float
    buffer_composition: dict[int, int]


@dataclass
class ExperimentTrace:
    """Per-task records plus the per-epoch loss stream of a full run."""

    config: dict
    records: list[TaskRecord] = field(default_factory=list)
    epoch_rows: list[tuple] = field(default_factory=list)  # (task, epoch, l_con, l_dis, lam)
    probe: dict | None = None

    def to_json(self) -> str:
        doc = {
            "config": self.config,
            "records": [
                {
                    "task": r.task,
                    "lambda": r.lam,
                    "l_con": r.l_con,
                    "l_dis": r.l_dis,
                    "buffer_composition": {
                        str(k): v for k, v in sorted(r.buffer_composition.items())
                    },
                }
                for r in self.records
            ],
            "probe": self.probe,
        }
        return json.dumps(doc, sort_keys=True)

    def epoch_csv(self) -> str:
        lines = ["task,epoch,l_con,l_dis,lambda"]
        for task, epoch, l_con, l_dis, lam in self.epoch_rows:
            lines.append(f"{task},{epoch},{l_con!r},{l_dis!r},{lam!r}")
        return "\n".join(lines) + "\n"


def run_task(
    enc_prev: Encoder | None,
    task: TaskData,
    t: int,
    buffer: ReplayBuffer,
    schedule: LambdaSchedule,
    cfg: RunConfig,
    rngs: dict[str, np.random.Generator],
    trace: ExperimentTrace,
) -> Encoder:
    """Train on one task over the combined current + buffered data.

    The new model starts from the previous one; distillation targets come
    from the frozen previous model. The final-epoch average batch losses
    are what feed future coefficient ratios, and the buffer is refreshed
    from the current task's stream afterwards.
    """
    train = task.train
    if train.size == 0:
        raise ValueError("empty task data")
    pts = list(train.points)
    labs = list(train.labels)
    if t >= 2:
        pts += buffer.points
        labs += buffer.labels
    pts = np.asarray(pts)
    labs = np.asarray(labs, dtype=np.int64)

    if enc_prev is None:
        enc = Encoder(
            (train.dimension, cfg.hidden, cfg.embed_dim), seed=cfg.seed
        )
        lam = None
    else:
        enc = enc_prev.copy()
        lam = adaptive_lambda(schedule, t)

    velocity = np.zeros(enc.n_params)
    batch = cfg.sgd.batch_size
    spans = [slice(2 * start, 2 * (start + batch)) for start in range(0, len(pts), batch)]
    stream = epoch_views(pts, labs, cfg.sgd.epochs, batch, rngs)
    for epoch, (rows, vlabs) in enumerate(stream):
        con_sum = dis_sum = 0.0
        for span in spans:
            l_con, l_dis, grad = grad_total(
                enc, enc_prev, rows[span], vlabs[span], lam or 0.0, cfg.temps
            )
            velocity = sgd_step(enc, grad, velocity, cfg.sgd)
            con_sum += l_con
            dis_sum += l_dis
        final_con = con_sum / len(spans)
        final_dis = dis_sum / len(spans)
        trace.epoch_rows.append((t, epoch, final_con, final_dis, lam))

    buffer.add_task(task, t)
    if t >= 2:
        schedule.record_task(final_con, final_dis, buffer)
    trace.records.append(
        TaskRecord(
            task=t,
            lam=lam,
            l_con=final_con,
            l_dis=final_dis,
            buffer_composition=buffer.composition(),
        )
    )
    return enc


@dataclass
class RunResult:
    """Outcome of a full run: final model, per-task model snapshots,
    trace, and the buffer as it stood at the end."""

    encoder: Encoder
    task_models: list[Encoder]
    trace: ExperimentTrace
    buffer: ReplayBuffer


def _seeded_state(cfg: RunConfig) -> tuple[dict[str, np.random.Generator], ReplayBuffer]:
    """The run seed's batching and augmentation generators and its empty replay buffer."""
    batching, augmenting, buffering = np.random.SeedSequence(cfg.seed).spawn(3)
    rngs = {"batching": np.random.default_rng(batching), "augment": np.random.default_rng(augmenting)}
    return rngs, ReplayBuffer(cfg.buffer_size, seed=int(buffering.generate_state(1)[0]))


def run_sequence(tasks: list[TaskData], cfg: RunConfig) -> RunResult:
    """Execute the full task loop, threading model, buffer and schedule."""
    if not tasks:
        raise ValueError("need at least one task")
    rngs, buffer = _seeded_state(cfg)
    schedule = LambdaSchedule.from_config(cfg)
    trace = ExperimentTrace(config=asdict(cfg))
    enc = None
    task_models: list[Encoder] = []
    for t, task in enumerate(tasks, start=1):
        enc = run_task(enc, task, t, buffer, schedule, cfg, rngs, trace)
        task_models.append(enc.copy())
    return RunResult(encoder=enc, task_models=task_models, trace=trace, buffer=buffer)


def population_bound_check(
    task_embeddings: list[np.ndarray],
    task_dists: list[TaskDistribution],
    lambdas: list[float],
    k: int = 1,
    weights: list[MixtureWeights] | None = None,
):
    """Exact-population bound sandwich for a trained model sequence.

    ``task_embeddings[t - 1]`` is task t's model's unit rows on the tasks'
    supports concatenated in order, e.g. ``enc.snapshot`` of them: D_t is
    its own block, and the seen-data mixture of tasks before t the leading
    rows, as ``core.mixture`` concatenates. Computes each task's population
    training loss (contrastive on the task, distillation on the seen-data
    mixture), the realized test loss of the final model, and both bounds.
    ``lambdas`` covers tasks 2..T; ``weights`` defaults to uniform.

    Returns (upper report, lower report, realized test loss).
    """
    from .bounds import theorem1_lower, theorem1_upper
    from .core import mixture
    from .losses import _rows, _stacked_contrastive, _task_rows, population_distillation

    T = len(task_embeddings)
    if T != len(task_dists) or T < 2:
        raise ValueError("need matching model/distribution sequences, T >= 2")
    if len(lambdas) != T - 1:
        raise ValueError("need one distillation coefficient per task 2..T")
    if weights is None:
        weights = [
            MixtureWeights(task_index=t, weights=np.full(t - 1, 1.0 / (t - 1)))
            for t in range(2, T + 1)
        ]
    embs = [_rows(emb, sum(d.size for d in task_dists)) for emb in task_embeddings]
    blocks = [_task_rows(emb, task_dists) for emb in embs]
    # one pass over (f_t, D_t) for every t and (f_T, D_t) for t < T
    con = _stacked_contrastive([*(b[t] for t, b in enumerate(blocks)), *blocks[-1][:-1]],
                               [*task_dists, *task_dists[:-1]], k)
    train_losses, realized = con[:T], float(sum(con[T:] + con[T - 1 : T]))
    for i, t in enumerate(range(2, T + 1)):
        past = mixture(task_dists[: t - 1], weights[i])
        seen = past.size  # the leading rows: tasks 1..t-1
        l_dis = population_distillation(embs[t - 1][:seen], embs[t - 2][:seen], past, k)
        train_losses[t - 1] += lambdas[i] * l_dis
    upper = theorem1_upper(train_losses, weights, lambdas, k=k)
    lower = theorem1_lower(train_losses, weights, lambdas, k=k)
    upper.realized_test_loss = realized
    lower.realized_test_loss = realized
    return upper, lower, realized


def class_balanced_batches(
    labels: np.ndarray, batch_size: int, n_batches: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Minibatch indices drawn by the two-step rule: a uniform class first,
    then a uniform instance within it. One bounded draw with per-element
    ranges takes a batch's within-class offsets; it consumes the generator
    exactly as one scalar draw per instance does."""
    _, sizes = np.unique(labels, return_counts=True)
    by_class = np.argsort(labels, kind="stable")  # class by class, in index order
    starts = np.cumsum(sizes) - sizes
    batches = []
    for _ in range(n_batches):
        cs = rng.integers(0, sizes.size, size=batch_size)
        batches.append(by_class[starts[cs] + rng.integers(0, sizes[cs])])
    return batches


@dataclass
class ProbeResult:
    per_task_accuracy: list[float]
    average_accuracy: float
    missing_classes: list[int]


def linear_probe(
    embed_fn,
    probe_points: np.ndarray,
    probe_labels: np.ndarray,
    test_tasks: list[TaskDistribution],
    n_classes: int,
    epochs: int = 100,
    batch_size: int = 32,
    lr: float = 0.5,
    seed: int = 0,
) -> ProbeResult:
    """Train a linear softmax classifier on frozen embeddings.

    Probe training data is whatever the caller passes (by convention the
    last task plus the buffer); minibatches are class-balanced; training
    runs for exactly ``epochs`` epochs. Classes absent from the probe data
    are flagged and simply never predicted well by the classifier as-is.
    """
    rng = np.random.default_rng(seed)
    z = embed_fn(np.atleast_2d(probe_points))
    labels = np.asarray(probe_labels, dtype=np.int64)
    d = z.shape[1]
    w = np.zeros((d, n_classes))
    b = np.zeros(n_classes)
    present = np.unique(labels)
    missing = sorted(set(range(n_classes)) - set(int(c) for c in present))
    steps_per_epoch = max(1, int(np.ceil(z.shape[0] / batch_size)))
    # every epoch's batches in one draw (the stream of one draw per epoch), gathered at once
    batches = class_balanced_batches(labels, batch_size, epochs * steps_per_epoch, rng)
    idx = np.array(batches, dtype=np.intp).reshape(-1, batch_size)
    rows = np.arange(batch_size)
    for zb, target in zip(z[idx], labels[idx]):
        p = zb @ w
        p += b
        p -= np.maximum.reduce(p, axis=1, keepdims=True)
        np.exp(p, out=p)
        p /= np.add.reduce(p, axis=1, keepdims=True)
        p[rows, target] -= 1.0
        p /= batch_size
        w -= lr * (zb.T @ p)
        b -= lr * np.add.reduce(p, axis=0)
    accs = []
    for dist in test_tasks:
        zt = embed_fn(dist.points)
        pred = np.argmax(zt @ w + b, axis=1)
        accs.append(float(np.mean(pred == dist.labels)))
    return ProbeResult(
        per_task_accuracy=accs,
        average_accuracy=float(np.mean(accs)),
        missing_classes=missing,
    )


def probe_run(tasks: list[TaskData], cfg: RunConfig, encoder: Encoder) -> ProbeResult:
    """``linear_probe`` of the encoder on the last task plus the run's final
    replay buffer, over every class seen, for ``cfg.probe_epochs`` epochs
    from the run seed. The buffer is rebuilt from the task stream alone:
    reservoir insertion never reads the encoder."""
    _, buffer = _seeded_state(cfg)
    for t, task in enumerate(tasks, start=1):
        buffer.add_task(task, t)
    last = tasks[-1].train
    return linear_probe(
        encoder.forward, np.asarray([*last.points, *buffer.points]),
        np.asarray([*last.labels, *buffer.labels]), [t.test for t in tasks],
        int(max(np.max(t.train.labels) for t in tasks)) + 1,
        epochs=cfg.probe_epochs, seed=cfg.seed,
    )
