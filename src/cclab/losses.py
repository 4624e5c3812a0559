"""All loss functionals: exact population contrastive/distillation losses
for finite supports (any number of negatives), the training and test
aggregates, the batch-level SupCon and IRD losses used during training,
and the cross-entropy decomposition identity behind the bound proofs.

The batch losses and their gradients with respect to the similarity
matrix all come from one masked softmax over the off-diagonal of a
(2N, 2N) logit matrix, so a training step computes each softmax once.

Population expectations are computed by exact enumeration over the
support. Both losses are symmetric in the k negatives, which depend only
on the anchor, so the negatives are enumerated as the M = C(n+k-1, k)
multisets of :func:`core.negative_weights` and folded into per-anchor
tables; every loss is then evaluated on the (pair, multiset) grid. Cost
is O(n^2 * M + P * M) per pass, where P is the number of same-class
ordered pairs, against O(P * n^k) for enumerating ordered tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    EmbeddingModel,
    TaskDistribution,
    negative_weights,
    positive_pairs,
)


def logistic_link(v: np.ndarray) -> float:
    """log(1 + sum_i exp(-v_i)), max-shifted for stability."""
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if v.size < 1:
        raise ValueError("need at least one margin component")
    m = max(0.0, float(np.max(-v)))
    return m + np.log(np.exp(-m) + np.sum(np.exp(-v - m)))


class _AnchorTables(NamedTuple):
    """One model's similarities on the support, with the negatives folded in.

    ``ex[a, j] = exp(s_aj - shift_a)`` is max-shifted per anchor row and
    ``sums[a, J] = sum_{j in J} ex[a, j]`` (with multiplicity) is the
    shifted negative sum of anchor a against multiset J.
    """

    sims: np.ndarray  # (n, n) s_aj = f(x_a)'f(x_j)
    shift: np.ndarray  # (n, 1) row max of sims
    ex: np.ndarray  # (n, n)
    sums: np.ndarray  # (n, M)


def _anchor_tables(f: EmbeddingModel, points: np.ndarray, counts: np.ndarray) -> _AnchorTables:
    emb = f.embed(points)
    sims = emb @ emb.T
    shift = sims.max(axis=1, keepdims=True)
    ex = np.exp(sims - shift)
    return _AnchorTables(sims, shift, ex, ex @ counts.T)


class _PopulationTerms(NamedTuple):
    """Every exact population quantity of one (f_t, f_prev, dist, k)."""

    con_t: float  # L_con(f_t)
    con_prev: float  # L_con(f_prev)
    dis: float  # L_dis(f_t; f_prev)
    residual: float  # L_dis - L_con(f_t) - E[sum_i q_i(f_prev) v_i(f_t)]


def _population_terms(
    f_t: EmbeddingModel,
    dist: TaskDistribution,
    k: int,
    f_prev: EmbeddingModel | None = None,
) -> _PopulationTerms:
    """The single exact pass behind every population loss.

    Each model is embedded once. For pair (a, b) and negative multiset J,
    with S = sum_{j in J} exp(s_aj), S' and e'_ab the same for f_prev, and
    R = sum_{j in J} exp(s'_aj) s_aj:
      link  = log(exp(s_ab) + S) - s_ab
      CE    = log(exp(s_ab) + S) - (e'_ab s_ab + R) / (e'_ab + S')
      cross = (s_ab S' - R) / (e'_ab + S').
    Expectations weight pair p by its probability and J by its
    multiplicity times prod_j mass_j^count_j. Without ``f_prev`` only
    ``con_t`` is computed; the other fields are NaN.
    """
    counts, neg_w = negative_weights(dist, k)
    anchors, positives, pair_w = positive_pairs(dist)

    def expect(values: np.ndarray) -> float:
        return float(pair_w @ values @ neg_w)

    def on_grid(tab: _AnchorTables):
        """s_ab, shifted exp(s_ab) and S on the (P, M) grid, and
        log(exp(s_ab) + S) there."""
        s_ab = tab.sims[anchors, positives][:, None]
        e_ab = tab.ex[anchors, positives][:, None]
        sums = tab.sums[anchors]
        return s_ab, e_ab, sums, np.log(e_ab + sums) + tab.shift[anchors]

    t = _anchor_tables(f_t, dist.points, counts)
    s_ab, _, _, lse = on_grid(t)
    con_t = expect(lse - s_ab)
    if f_prev is None:
        return _PopulationTerms(con_t, np.nan, np.nan, np.nan)
    p = _anchor_tables(f_prev, dist.points, counts)
    s_prev, e_ab, sums_prev, lse_prev = on_grid(p)
    con_prev = expect(lse_prev - s_prev)
    cross_sums = ((p.ex * t.sims) @ counts.T)[anchors]  # R on the (P, M) grid
    denom = e_ab + sums_prev
    dis = expect(lse - (e_ab * s_ab + cross_sums) / denom)
    cross = expect((s_ab * sums_prev - cross_sums) / denom)
    return _PopulationTerms(con_t, con_prev, dis, dis - con_t - cross)


def population_contrastive(f: EmbeddingModel, dist: TaskDistribution, k: int = 1) -> float:
    """Exact expected contrastive loss of ``f`` on ``dist`` with k negatives."""
    return _population_terms(f, dist, k).con_t


def population_distillation(
    f_t: EmbeddingModel,
    f_prev: EmbeddingModel,
    dist: TaskDistribution,
    k: int = 1,
) -> float:
    """Exact expected cross-entropy from f_prev's similarity softmax to f_t's."""
    return _population_terms(f_t, dist, k, f_prev).dis


def decomposition_residual(
    f_t: EmbeddingModel,
    f_prev: EmbeddingModel,
    dist: TaskDistribution,
    k: int = 1,
) -> float:
    """Residual of the identity
    -p(f_prev) . log p(f_t) = l(v(f_t)) + sum_i q_i(f_prev) v_i(f_t),
    in expectation. Zero (within float error) by construction.
    """
    return _population_terms(f_t, dist, k, f_prev).residual


def population_train_loss(
    f_t: EmbeddingModel,
    dist: TaskDistribution,
    lam: float = 0.0,
    k: int = 1,
    f_prev: EmbeddingModel | None = None,
    past: TaskDistribution | None = None,
) -> float:
    """L_con(f_t; D_t) + lam * L_dis(f_t; f_prev, D_past).

    The first task has no distillation term: omit ``f_prev``/``past``.
    """
    if lam < 0:
        raise ValueError("distillation coefficient must be non-negative")
    total = population_contrastive(f_t, dist, k)
    if f_prev is not None and past is not None and lam > 0:
        total += lam * population_distillation(f_t, f_prev, past, k)
    return total


def population_test_loss(
    f_final: EmbeddingModel, tasks: list[TaskDistribution], k: int = 1
) -> float:
    """Total performance of the final model: sum of per-task contrastive losses."""
    if not tasks:
        raise ValueError("need at least one task")
    return float(sum(population_contrastive(f_final, d, k) for d in tasks))


@dataclass(frozen=True)
class BatchEmbeddings:
    """Unit embeddings of an augmented batch: 2N rows, paired views share labels."""

    z: np.ndarray  # (2N, d), unit rows
    labels: np.ndarray  # (2N,)
    tau: float

    def __post_init__(self):
        z = np.atleast_2d(np.asarray(self.z, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "labels", labels)
        if self.tau <= 0:
            raise ValueError("temperature must be positive")
        if z.shape[0] != labels.shape[0]:
            raise ValueError("one label per embedding row required")


def _masked_softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row log-sum-exp and softmax of (n, n) logits over the off-diagonal.

    The softmax has a zero diagonal; both are max-shifted per row.
    """
    off = ~np.eye(logits.shape[0], dtype=bool)
    m = np.where(off, logits, -np.inf).max(axis=1)
    ex = np.exp(logits - m[:, None], where=off, out=np.zeros_like(logits))
    sums = ex.sum(axis=1)
    return m + np.log(sums), ex / sums[:, None]


def supcon_terms(
    z: np.ndarray, labels: np.ndarray, tau: float
) -> tuple[float, np.ndarray]:
    """SupCon loss of unit rows ``z``, summed over anchors (no 1/2N factor),
    and its gradient with respect to the similarity matrix zz'.

    Every anchor must have at least one positive, which paired views
    guarantee; an anchor without positives is an error.
    """
    n = z.shape[0]
    if n < 2:
        raise ValueError("need at least two embeddings")
    pos = (labels[:, None] == labels[None, :]) & ~np.eye(n, dtype=bool)
    counts = pos.sum(axis=1)
    if np.any(counts == 0):
        raise ValueError("anchor with empty positive set")
    logits = (z @ z.T) / tau
    lse, p = _masked_softmax(logits)
    per_anchor = -(np.where(pos, logits - lse[:, None], 0.0).sum(axis=1)) / counts
    return float(per_anchor.sum()), (p - pos / counts[:, None]) / tau


def ird_terms(
    z: np.ndarray, z_past: np.ndarray, tau: float, tau_past: float
) -> tuple[float, np.ndarray]:
    """IRD loss, the cross-entropy from the past rows' instance-similarity
    softmax at ``tau_past`` to the current rows' at ``tau``, summed over
    anchors; and its gradient with respect to zz' with the past fixed.
    Both arrays must index the same 2N samples in order.
    """
    if z.shape[0] != z_past.shape[0]:
        raise ValueError("batch sizes must match")
    if z.shape[0] < 2:
        raise ValueError("need at least two embeddings")
    logits = (z @ z.T) / tau
    lse, p = _masked_softmax(logits)
    _, q = _masked_softmax((z_past @ z_past.T) / tau_past)
    # q's zero diagonal drops each anchor's self-similarity from the loss
    return float(-(q * (logits - lse[:, None])).sum()), (p - q) / tau


def empirical_contrastive(batch: BatchEmbeddings) -> float:
    """SupCon loss of the batch, summed over anchors: the loss of
    :func:`supcon_terms`."""
    return supcon_terms(batch.z, batch.labels, batch.tau)[0]


def empirical_distillation(current: BatchEmbeddings, past: BatchEmbeddings) -> float:
    """IRD loss between two batches at their own temperatures, summed over
    anchors: the loss of :func:`ird_terms`."""
    return ird_terms(current.z, past.z, current.tau, past.tau)[0]
