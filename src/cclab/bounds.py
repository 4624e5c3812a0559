"""Executable performance bounds: the per-step loss sandwich between
consecutive models, the test-loss upper/lower bounds built from training
losses, the threshold scheduler quantities for adaptive distillation
coefficients, and the turning-point analysis of the upper bound in the
distillation coefficient.

All closed-form constants generalize to k negative samples; k = 1
recovers the single-negative forms. This module holds the whole Theorem 1
chain: the coefficients alpha^(T - t)/gamma_t of the upper bound (walked
once per call, each gamma formed inline), the lower bound, the scheduler's
U_t as the upper bound's coefficients times the losses, and the exact
certificate of a trained sequence.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .core import MASS_TOL, MixtureWeights, TaskDistribution, mixture, normalize_rows
from .losses import (
    _BLOCK,
    _population_terms,
    _rows,
    _stacked_contrastive,
    _stacked_terms,
    _task_rows,
    population_distillation,
)

E2 = math.exp(2.0)


@dataclass(frozen=True)
class BoundConstants:
    """Closed-form constants of the per-step loss sandwich."""

    k: int
    alpha: float
    beta: float
    beta_prime: float

    def slacks(self, l_t, l_prev, l_dis, alpha_shift: float = 0.0):
        """(upper, lower) sandwich slacks of floats or arrays; alpha_shift moves alpha."""
        a = self.alpha + alpha_shift
        return a * l_prev + l_dis + self.beta - l_t, l_t - a * l_prev - l_dis - self.beta_prime


@functools.lru_cache(maxsize=64)
def constants(k: int = 1) -> BoundConstants:
    """alpha = 2e^2/(k+e^2), beta = 2 - alpha + alpha*log(alpha/2),
    beta' = -alpha*log(1+k e^2) - 2k e^2/(1+k e^2). Cached per k."""
    if k < 1:
        raise ValueError("need at least one negative sample")
    alpha = 2.0 * E2 / (k + E2)
    beta = 2.0 - alpha + alpha * math.log(alpha / 2.0)
    beta_prime = -alpha * math.log1p(k * E2) - 2.0 * k * E2 / (1.0 + k * E2)
    return BoundConstants(k=k, alpha=alpha, beta=beta, beta_prime=beta_prime)


def lemma1_slack(
    emb_t: np.ndarray, emb_prev: np.ndarray, dist: TaskDistribution, k: int = 1,
    *, alpha_corruption: float = 0.0,
) -> tuple[float, float]:
    """Slack of both sides of the consecutive-model loss sandwich.

    upper_slack = alpha*L_con(f_prev) + L_dis + beta - L_con(f_t),
    lower_slack = L_con(f_t) - alpha*L_con(f_prev) - L_dis - beta'.
    Both are non-negative up to float error for unit rows ``emb_t`` and
    ``emb_prev`` on the points of ``dist``. All three losses come from one
    exact pass. ``alpha_corruption`` shifts alpha; nonzero values exist
    only to prove the checks can fail.
    """
    l_t, l_prev, l_dis, _ = _population_terms(emb_t, dist, k, emb_prev)
    return constants(k).slacks(l_t, l_prev, l_dis, alpha_corruption)


def analytic_min_contrastive(k: int = 1) -> float:
    """log(1 + k e^-2): a lower bound on any population contrastive loss,
    since every margin of unit-norm embeddings is at most 2."""
    return math.log1p(k * math.exp(-2.0))


@functools.lru_cache(maxsize=64)
def _theorem1_constants(k: int, T: int) -> tuple[BoundConstants, tuple[float, ...], float]:
    """constants(k), alpha**(T - t) for t = 1..T and the eta factor
    (T - 1 - T*alpha + alpha^T) / (1 - alpha)^2, cached per (k, T)."""
    c = constants(k)
    alpha = c.alpha
    try:
        eta_factor = (T - 1 - T * alpha + alpha**T) / (1.0 - alpha) ** 2
    except OverflowError:
        raise ValueError(f"alpha^T overflows float64 at k = {k}, T = {T}") from None
    return c, tuple(alpha ** (T - t) for t in range(1, T + 1)), eta_factor


def _theorem1_inputs(train_losses, weights: list[MixtureWeights], lam, k: int):
    """The checked inputs of both Theorem 1 evaluators: (training losses,
    a coefficient per task 2..T, constants, alpha powers, eta factor)."""
    losses = [float(x) for x in train_losses]
    T = len(losses)
    if T < 2:
        raise ValueError("bounds need at least two tasks")
    if len(weights) != T - 1:
        raise ValueError(f"need mixture weights for tasks 2..{T}")
    lams = [float(lam)] * (T - 1) if np.isscalar(lam) else [float(x) for x in lam]
    if len(lams) != T - 1:
        raise ValueError(f"need one coefficient per task 2..{T}, got {len(lams)}")
    return losses, lams, *_theorem1_constants(k, T)


def _task_fault(t: int, w: MixtureWeights):
    """Raise the fault of task t's inputs: weights of another task before a
    coefficient that is negative or NaN."""
    if t != w.task_index:
        raise ValueError("weights belong to a different task index")
    raise ValueError("distillation coefficient must be non-negative")


@dataclass
class BoundReport:
    """One evaluated test-loss bound with everything needed to rebuild it."""

    kind: str  # "upper" | "lower"
    T: int
    k: int
    lambdas: list[float]  # per task t = 2..T
    alpha: float
    gammas: list[float]  # denominator per task t = 2..T
    coefficients: list[float]  # training-loss weight per task t = 1..T
    train_losses: list[float]
    eta: float
    value: float
    minf_mode: str | None = None
    minf_values: list[float] = field(default_factory=list)
    realized_test_loss: float | None = None

    def to_json(self) -> str:
        return json.dumps(self.__dict__, sort_keys=True)


def theorem1_upper(
    train_losses,
    weights: list[MixtureWeights],
    lam,
    k: int = 1,
    minf=None,
    minf_mode: str = "analytic",
) -> BoundReport:
    """Upper bound on the final model's test loss from the training losses.

    ``train_losses`` covers tasks 1..T, ``weights`` tasks 2..T. ``lam``
    may be a scalar or one coefficient per task t = 2..T (the adaptive
    variant substitutes the per-task coefficient in each denominator).
    ``minf`` optionally supplies per-task best-achievable-loss values for
    tasks 2..T; by default each is analytic_min_contrastive(k). Their
    weight p * (1 - 1/gamma) is non-positive, so a value below the true
    minimum keeps the bound valid and one above it does not.
    """
    losses, lams, c, powers, eta_factor = _theorem1_inputs(train_losses, weights, lam, k)
    T = len(losses)
    minf = [analytic_min_contrastive(k)] * (T - 1) if minf is None else [float(x) for x in minf]
    gammas, coeffs = [], [powers[0]]
    eta = c.beta * eta_factor
    value = powers[0] * losses[0]
    for i, w in enumerate(weights):
        t, lam_t, p = i + 2, lams[i], powers[i + 1]
        if t != w.task_index or not lam_t >= 0:
            _task_fault(t, w)
        g = lam_t * w.lo  # gamma_t = min(1/t, lam*lo), which keeps 1/t unless lam*lo < 1/t
        if not g < 1.0 / t:
            g = 1.0 / t
        if g <= 0:
            raise ValueError(f"task {t}: coefficient {lam_t} gives a zero denominator")
        gammas.append(g)
        coeffs.append(p / g)
        value += coeffs[-1] * losses[i + 1]
        eta += p * (1.0 - 1.0 / g) * minf[i]
    value += eta
    return BoundReport(
        "upper", T, k, lams, c.alpha, gammas, coeffs, losses, eta, value, minf_mode, minf
    )


def theorem1_lower(
    train_losses,
    weights: list[MixtureWeights],
    lam,
    k: int = 1,
) -> BoundReport:
    """Lower bound counterpart, using the max-form denominators and the
    k-negative eta' constant."""
    losses, lams, c, powers, eta_factor = _theorem1_inputs(train_losses, weights, lam, k)
    T = len(losses)
    gammas, coeffs = [], [powers[0]]
    eta = c.beta_prime * eta_factor
    value = powers[0] * losses[0]
    for i, w in enumerate(weights):
        t, lam_t, p = i + 2, lams[i], powers[i + 1]
        if t != w.task_index or not lam_t >= 0:
            _task_fault(t, w)
        gp = lam_t * w.hi  # gamma'_t = max(1, lam*hi)
        if not gp > 1.0:
            gp = 1.0
        gammas.append(gp)
        coeffs.append(p / gp)
        value += coeffs[-1] * losses[i + 1]
    value += eta
    return BoundReport("lower", T, k, lams, c.alpha, gammas, coeffs, losses, eta, value)


def compute_U(
    train_losses,
    weights: list[MixtureWeights],
    lam_t: float,
    k: int = 1,
) -> float:
    """Weighted partial sum of training losses for the threshold scheduler.

    ``train_losses`` covers tasks 2..t, ``weights`` likewise; the current
    coefficient ``lam_t`` enters every denominator. The weights are the
    upper bound's coefficients alpha^(t - j)/gamma_j over tasks j = 2..t.
    """
    losses = [float(x) for x in train_losses]
    if len(losses) != len(weights) or not losses:
        raise ValueError("need one training loss per task 2..t")
    coeffs = theorem1_upper([0.0, *losses], weights, lam_t, k).coefficients[1:]
    total = 0.0
    for coeff, loss in zip(coeffs, losses):
        total += coeff * loss
    return total


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


@dataclass(frozen=True)
class ScheduleState:
    """Threshold-scheduler state: current coefficient plus its update rule."""

    t: int
    lam: float
    u_t: float  # threshold, > 0
    delta_t: float  # momentum, >= 0

    def __post_init__(self):
        if self.u_t <= 0:
            raise ValueError("threshold must be positive")
        if self.delta_t < 0:
            raise ValueError("momentum must be non-negative")


def theorem2_step(state: ScheduleState, U_t: float) -> ScheduleState:
    """Increase the coefficient by the momentum when the weighted loss sum
    exceeds the threshold; leave it unchanged otherwise."""
    lam = state.lam + state.delta_t if U_t > state.u_t else state.lam
    return ScheduleState(
        t=state.t + 1, lam=lam, u_t=state.u_t, delta_t=state.delta_t
    )


def _draw(rng: np.random.Generator, B: int, n: int, d: int, e: int = 0, n_classes: int = 2):
    """(B, n) labels and masses, checked as TaskDistribution checks them, and
    (B, n*(d + 2e)) normals: points then two (n, e) embeddings per
    distribution, the stream of random_distribution and two (n, e) draws."""
    n_classes = min(n_classes, n)
    labels = np.tile(np.arange(n), (B, 1))  # the first n_classes stay
    mass, normals = np.empty((B, n)), np.empty((B, n * (d + 2 * e)))
    for b in range(B):
        labels[b, n_classes:] = rng.integers(0, n_classes, size=n - n_classes)
        rng.standard_exponential(out=mass[b])  # then as rng.dirichlet(ones(n))
        rng.standard_normal(out=normals[b])
    mass = np.maximum(mass * (1 / np.cumsum(mass, axis=1)[:, -1:]), 1e-3)
    mass /= mass.sum(axis=1, keepdims=True)
    covered = ((labels[:, :, None] == np.arange(n_classes)) & (mass[:, :, None] > 0)).any(1)
    if (mass < 0).any() or (abs(mass.sum(1) - 1.0) > MASS_TOL).any() or not covered.all():
        raise ValueError("masses must be non-negative, sum to 1 and cover every class")
    return labels, mass, normals


def random_distribution(
    rng: np.random.Generator,
    support_size: int = 4,
    dimension: int = 3,
    n_classes: int = 2,
) -> TaskDistribution:
    """Random finite-support distribution with Dirichlet point masses."""
    labels, mass, points = _draw(rng, 1, support_size, dimension, n_classes=n_classes)
    return TaskDistribution(points.reshape(support_size, dimension), labels[0], mass[0])


def _worst_trials(trials, k, seed, n, d, e, alpha_corruption=0.0):
    """Worst (upper slack, lower slack, |residual|) over random triples on n
    points, B of at most ``_BLOCK`` table entries at a time."""
    rng = np.random.default_rng(seed)
    per_block = max(1, _BLOCK // (n * math.comb(n + k - 1, k)))
    worst = [np.inf, np.inf, 0.0]
    for start in range(0, trials, per_block):
        B = min(per_block, trials - start)
        labels, mass, normals = _draw(rng, B, n, d, e)
        emb = normalize_rows(normals[:, n * d :].reshape(-1, e)).reshape(B, 2, n, e)
        terms = _stacked_terms(emb[:, 0], labels, mass, k, emb[:, 1])
        up, lo, res = *constants(k).slacks(*terms.T[:3], alpha_corruption), abs(terms[:, 3])
        worst = [min(worst[0], up.min()), min(worst[1], lo.min()), max(worst[2], res.max())]
    return tuple(float(w) for w in worst)


def lemma1_trials(
    trials: int,
    k: int = 1,
    seed: int = 0,
    support_size: int = 4,
    dimension: int = 3,
    embed_dim: int = 4,
    alpha_corruption: float = 0.0,
) -> tuple[float, float]:
    """Worst sandwich slacks over random (model, model, distribution) triples.

    ``alpha_corruption`` shifts the alpha constant; nonzero values exist
    only to prove the suite can fail (sabotage hook).
    """
    args = trials, k, seed, support_size, dimension, embed_dim, alpha_corruption
    return _worst_trials(*args)[:2]


def decomposition_check_trials(
    trials: int,
    k: int = 1,
    seed: int = 0,
    support_size: int = 4,
    dimension: int = 3,
    embed_dim: int = 4,
) -> float:
    """Worst absolute cross-entropy decomposition residual over random triples."""
    return _worst_trials(trials, k, seed, support_size, dimension, embed_dim)[2]


def turning_point(weights: list[MixtureWeights]) -> float:
    """Smallest coefficient at which the upper bound stops decreasing.

    Each denominator saturates at 1/t once lam * k_tj >= 1/t for every j,
    i.e. lam >= 1/(t * min_j k_tj); the bound is constant beyond the max
    of these over tasks.
    """
    if not weights:
        raise ValueError("need weights for at least one task")
    return max(
        1.0 / (w.task_index * w.lo) for w in weights
    )
