"""All loss functionals: exact population contrastive/distillation losses
for finite supports (any number of negatives), the training and test
aggregates, the batch-level SupCon and IRD losses used during training,
and the cross-entropy decomposition identity behind the bound proofs.

A training step's batch losses and the gradient of SupCon + lam * IRD in
the similarity matrix come from one kernel of about 45 numpy operations:
one masked softmax over the stacked (3, 2N, 2N) SupCon, current-IRD and
past-IRD logits, with both losses read off its row log-normalisers.

Population expectations are computed by exact enumeration over the
support. Both losses are symmetric in the k negatives, which depend only
on the anchor, so the negatives are enumerated as the M = C(n+k-1, k)
multisets of :func:`core.negative_multisets` and folded into per-anchor
tables; every loss is then evaluated on the (pair, multiset) grid, which
is walked in blocks of consecutive pairs against a block of multisets at
a time. Time is O(n^2 * M + P * M) per pass, where P is the number of
same-class ordered pairs, against O(P * n^k) for enumerating ordered
tuples. Working memory is the cached (M, k) index rows and runs, O(k * M)
bytes, plus one block of at most 6553 multisets' (n, J) counts and
weights, the tables of one chunk of anchors and one block of about 2^15
grid entries; no (M, n) array is formed. A k = 2 distillation pass on a
64-point mixture peaks at 2.55 MiB (tracemalloc), against 2.8 MiB with
dense (M, n) counts, and a pass at (n, k) = (16, 8) at 25 MiB, against
157 MiB. A pass takes a stack of same-size trials,
each bit-identical to a pass on it alone: bounds.lemma1_trials evaluates
its random trials in stacked blocks, and population_bound_check its
2T - 1 contrastive (embedding, distribution) pairs in one pass per support
size, with population_distillation asking for the CE alone (``dis_only``).
Every population loss takes a model as its (n, e) unit rows on the
support, one row per point in order.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    TaskDistribution,
    multiset_counts,
    multiset_weights,
    negative_multisets,
    stacked_positive_pairs,
)


def logistic_link(v: np.ndarray) -> float:
    """log(1 + sum_i exp(-v_i)), max-shifted for stability."""
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    if v.size < 1:
        raise ValueError("need at least one margin component")
    m = max(0.0, float(np.max(-v)))
    return m + np.log(np.exp(-m) + np.sum(np.exp(-v - m)))


def _anchor_tables(emb: np.ndarray, order: np.ndarray, ex: np.ndarray):
    """(sims, shift) of (B, n, e) embeddings, (B*n, n) and (B*n, 1), with one
    row per anchor in class-ranked order (the rows of stacked_positive_pairs)
    and one column per point: sims[r, j] = f(x_a)'f(x_j) for the anchor a of
    row r, shifted by its row max into ``ex[r, j] = exp(s_rj - shift_r)``."""
    sims = (emb @ emb.swapaxes(-1, -2)).reshape(-1, emb.shape[-2]).take(order, 0)
    shift = sims.max(axis=1, keepdims=True)
    np.exp(np.subtract(sims, shift, out=ex), out=ex)
    return sims, shift


class _PopulationTerms(NamedTuple):
    """Every exact population quantity of one (f_t, f_prev, dist, k)."""

    con_t: float  # L_con(f_t)
    con_prev: float  # L_con(f_prev)
    dis: float  # L_dis(f_t; f_prev)
    residual: float  # L_dis - L_con(f_t) - E[sum_i q_i(f_prev) v_i(f_t)]


# Entries of the (pair, multiset) grid per block: 256 KiB per f8 array,
# so a block's handful of temporaries stays in L2.
_BLOCK = 1 << 15
# Multisets per block of the grid's columns, five pairs' worth of a block:
# a pass forms the (n, J) counts and weights of one such block at a time and
# walks every pair against it. M up to 6553 is one block (k = 2 up to
# n = 113). From 5000 to 8192 multisets passes at k >= 3 ran alike; at 4096
# and 12288 they were a third slower (2-core x86-64 VM, numpy 2.4, OpenBLAS).
_MULTISETS = _BLOCK // 5


def _rows(emb, n: int) -> np.ndarray:
    """``emb`` as (n, e) float rows, one per point of an n-point support."""
    emb = np.asarray(emb, dtype=np.float64)
    if emb.ndim != 2 or emb.shape[0] != n:
        raise ValueError(f"need one embedding row per support point: {n} rows, got {emb.shape}")
    return emb


def _population_terms(
    emb_t: np.ndarray,
    dist: TaskDistribution,
    k: int,
    emb_prev: np.ndarray | None = None,
    *,
    dis_only: bool = False,
) -> _PopulationTerms:
    """The one-trial case of :func:`_stacked_terms`, on the (n, e) unit rows
    of f_t and optionally f_prev on the points of ``dist``."""
    emb = [e if e is None else _rows(e, dist.size)[None] for e in (emb_t, emb_prev)]
    terms = _stacked_terms(emb[0], dist.labels[None], dist.mass[None], k, emb[1],
                           dis_only=dis_only)
    return _PopulationTerms(*terms[0].tolist())


def _stacked_contrastive(embs, dists: list[TaskDistribution], k: int) -> list[float]:
    """population_contrastive of each (rows, dist) pair, in order, with
    the pairs of one support size stacked into one pass."""
    out = {}
    for n in dict.fromkeys(d.size for d in dists):
        idx = [i for i, d in enumerate(dists) if d.size == n]
        emb = np.stack([_rows(embs[i], n) for i in idx])
        labels = np.stack([dists[i].labels for i in idx])
        mass = np.stack([dists[i].mass for i in idx])
        out.update(zip(idx, _stacked_terms(emb, labels, mass, k)[:, 0].tolist()))
    return [out[i] for i in range(len(dists))]


def _stacked_terms(
    emb_t, labels, mass, k: int, emb_prev=None, *, dis_only: bool = False
) -> np.ndarray:
    """The single exact pass behind every population loss, on B trials:
    (B, n, e) unit embeddings of f_t and optionally f_prev and (B, n) labels
    and masses in, each trial's _PopulationTerms out as a (B, 4) row (NaN
    but con_t without ``emb_prev``; ``dis_only`` folds the CE alone, so
    every column but dis comes back NaN). For pair (a, b) and multiset J,
    with S = sum_{j in J} exp(s_aj), S' and e'_ab the same for f_prev, and
    R = sum_{j in J} exp(s'_aj) s_aj:
      link  = log(exp(s_ab) + S) - s_ab
      CE    = log(exp(s_ab) + S) - (e'_ab s_ab + R) / (e'_ab + S')
      cross = (s_ab S' - R) / (e'_ab + S').
    Expectations weight pair p by its probability and J by its
    multiplicity times prod_j mass_j^count_j. The multisets are taken a
    block of ``_MULTISETS`` at a time, whose (n, J) counts and weights
    are formed from the cached index rows. Against each block, all trials'
    pairs, in stacked_positive_pairs order, are walked in blocks of at most
    ``_BLOCK // min(M, _MULTISETS)`` that split only a longer trial, and each trial's
    segment is folded as pair_w[seg] @ values @ neg_w[trial]: a trial sums
    as in a pass on it alone, and a trial of one block as a whole-grid
    pass. S, S' and R are built by BLAS on the counts, a chunk of anchors
    at a time, in class-ranked rows: whole trials while they fit, else part
    of one from a block's first anchor on.
    """
    B, n = labels.shape
    multisets, runs, multiplicity = negative_multisets(n, k)
    order, trial, anchor_row, positives, pair_w = stacked_positive_pairs(labels, mass)
    fold = np.empty((1 if emb_prev is None else 3, B * n, n))  # summed over J into S, S', R
    sims, shift = _anchor_tables(emb_t, order, fold[0])
    s_ab = sims[anchor_row, positives][:, None]
    e_ab_t = fold[0][anchor_row, positives][:, None]
    if emb_prev is not None:
        sims_p, shift_p = _anchor_tables(emb_prev, order, fold[1])
        s_prev = sims_p[anchor_row, positives][:, None]
        e_ab_prev = fold[1][anchor_row, positives][:, None]  # e'_ab
        e_s = e_ab_prev * s_ab
        np.multiply(fold[1], sims, out=fold[2])
    P, M = trial.size, len(multisets)
    starts = [0, P] if B == 1 else np.searchsorted(trial, np.arange(B + 1)).tolist()
    out = np.full((B, 4), np.nan)
    dis_only = dis_only and emb_prev is not None
    # the lines of a block: link, link', CE and cross; under dis_only S', then CE
    lines, line_s = (2, 0) if dis_only else (1 if emb_prev is None else 4, 1)
    folded = slice(1, 2) if dis_only else slice(0, lines)  # the lines folded into acc
    acc = out[:, slice(2, 3) if dis_only else folded]  # the columns each trial sums into
    acc[:] = 0.0
    width = min(M, _MULTISETS)
    rows = max(1, _BLOCK // width)  # pairs per block of the grid
    whole = n <= rows  # chunks of whole trials, else of part of one trial
    chunk = min((rows // n + 1) * n, B * n) if whole else rows  # holds a block's anchors
    lead = (len(fold), -1, n) if whole else (-1,)  # a product per trial and table, else one
    counts_buf, tabs_buf = np.empty(n * width), np.empty(len(fold) * chunk * width)
    buf = np.empty(lines * min(rows, P) * width)
    for j0 in range(0, M, width):  # a block of multisets, all pairs walked against it
        J = slice(j0, j0 + width)
        w = len(multisets[J])
        counts = multiset_counts(multisets[J], n, counts_buf[: n * w].reshape(n, w))
        neg_w = multiset_weights(mass, multisets[J], runs[J], multiplicity[J])[:, :, None]
        block = buf[: lines * min(rows, P) * w].reshape(lines, -1, w)
        lo = c1 = 0
        while lo < P:  # a block of pairs: whole trials while they fit, else part of one
            fit = starts[bisect.bisect_right(starts, lo + rows) - 1]
            stop = fit if fit > lo else lo + rows
            if anchor_row[stop - 1] >= c1:  # the next chunk of tables, from the block's anchors on
                c0 = int(anchor_row[lo])
                c0 -= c0 % n if whole else 0
                c1 = min(c0 + chunk, B * n if whole else c0 - c0 % n + n)
                tabs = tabs_buf[: len(fold) * (c1 - c0) * w]
                np.matmul(fold[:, c0:c1].reshape(*lead, n), counts, out=tabs.reshape(*lead, w))
                tabs = tabs.reshape(len(fold), -1, w)
            g = anchor_row[lo:stop]
            a = g - c0
            v = block[:, : stop - lo]  # the block's lines, link' and CE from S' and R on
            if emb_prev is not None:
                denom = tabs[1].take(a, 0, v[line_s], "clip")  # S', then e'_ab + S'
                r = tabs[2].take(a, 0, v[line_s + 1], "clip")
                if not dis_only:
                    np.multiply(denom, s_ab[lo:stop], out=v[3])
                    v[3] -= r
                denom += e_ab_prev[lo:stop]
                r += e_s[lo:stop]
                r /= denom
                if not dis_only:
                    v[3] /= denom
                    np.log(denom, out=denom)
                    denom += shift_p[g]
                    denom -= s_prev[lo:stop]
            lse = tabs[0].take(a, 0, v[0], "clip")  # under dis_only over e'_ab + S'
            lse += e_ab_t[lo:stop]  # log(exp(s_ab) + S), shifted back, then the link
            np.log(lse, out=lse)
            lse += shift[g]
            if emb_prev is not None:
                np.subtract(lse, r, out=r)  # the CE
            if not dis_only:
                lse -= s_ab[lo:stop]
            v = v[folded]
            i0, i1 = bisect.bisect_right(starts, lo), bisect.bisect_left(starts, stop)
            edges = [lo, *starts[i0:i1], stop]  # the block's segment of each trial
            for b, seg0, seg1 in zip(range(i0 - 1, i1), edges, edges[1:]):
                w_v = pair_w[seg0:seg1] @ v[:, seg0 - lo : seg1 - lo]
                acc[b] += (w_v[:, None] @ neg_w[b])[:, 0, 0]
            lo = stop
    out[:, 3] = out[:, 2] - out[:, 0] - out[:, 3]
    return out


def population_contrastive(emb: np.ndarray, dist: TaskDistribution, k: int = 1) -> float:
    """Exact expected contrastive loss, with k negatives, of the (n, e) unit
    rows ``emb``, one per point of ``dist``."""
    return _population_terms(emb, dist, k).con_t


def population_distillation(
    emb_t: np.ndarray, emb_prev: np.ndarray, dist: TaskDistribution, k: int = 1
) -> float:
    """Exact expected cross-entropy from f_prev's similarity softmax to f_t's,
    of their unit rows on the points of ``dist``."""
    return _population_terms(emb_t, dist, k, emb_prev, dis_only=True).dis


def decomposition_residual(
    emb_t: np.ndarray, emb_prev: np.ndarray, dist: TaskDistribution, k: int = 1
) -> float:
    """Residual of the identity
    -p(f_prev) . log p(f_t) = l(v(f_t)) + sum_i q_i(f_prev) v_i(f_t),
    in expectation. Zero (within float error) by construction.
    """
    return _population_terms(emb_t, dist, k, emb_prev).residual


def _task_rows(emb: np.ndarray, tasks: list[TaskDistribution]) -> list[np.ndarray]:
    """Each task's block of ``emb``, a model's rows on the tasks' supports
    concatenated in order (as ``core.mixture`` concatenates them)."""
    sizes = [d.size for d in tasks]
    return np.split(_rows(emb, sum(sizes)), np.cumsum(sizes)[:-1])


def population_test_loss(emb_final: np.ndarray, tasks: list[TaskDistribution], k: int = 1) -> float:
    """Total performance of the final model, the sum of per-task contrastive
    losses, from its rows on the tasks' supports concatenated in order."""
    if not tasks:
        raise ValueError("need at least one task")
    return float(sum(_stacked_contrastive(_task_rows(emb_final, tasks), tasks, k)))


@dataclass
class Temperatures:
    """Batch-loss temperatures; fixed across tasks, recorded per run."""

    contrastive: float = 0.5
    distill_current: float = 0.2
    distill_past: float = 0.01

    def __post_init__(self):
        if min(self.contrastive, self.distill_current, self.distill_past) <= 0:
            raise ValueError("temperatures must be positive")


def _batch_step(
    zs: np.ndarray, labels: np.ndarray, temps: Temperatures, lam: float = 0.0
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """(SupCon loss, IRD loss, gradient of SupCon + lam * IRD in zz', softmax
    stack) of the unit rows ``zs`` of the live encoder, (1, n, e), or of the
    live and the frozen one, (2, n, e); losses summed over anchors.

    The Grams' row maxes off the diagonal (column maxes, as they are
    symmetric) are taken once; the shifted Grams d over their temperatures
    become the stacked softmax in place, each matrix bit-identical to a
    stack without the others. Each loss's weights w (positives over their
    count, or the past softmax q) sum to one per row, so it is
    sum_i log Z_i - sum w d. The IRD gradient enters only for lam > 0.
    """
    n = zs.shape[-2]
    if n < 2:
        raise ValueError("need at least two embeddings")
    pos = labels[:, None] == labels
    pos.flat[:: n + 1] = False
    counts = np.add.reduce(pos, axis=1, keepdims=True)
    if counts.min() == 0:
        raise ValueError("anchor with empty positive set")
    w_pos = pos * (1.0 / (counts * temps.contrastive))  # SupCon's w, over tau
    sims = zs @ zs.swapaxes(-1, -2)
    sims.reshape(len(zs), n * n)[:, :: n + 1] = -np.inf
    sims -= np.maximum.reduce(sims, axis=1, keepdims=True).swapaxes(1, 2)
    taus = np.array((temps.contrastive, temps.distill_current, temps.distill_past))
    p = np.empty((2 * len(zs) - 1, n, n))
    np.divide(sims[0], taus[: min(len(p), 2), None, None], out=p[:2])
    if len(p) == 3:
        np.divide(sims[1], taus[2], out=p[2])
    np.exp(p, out=p)
    sums = np.add.reduce(p, axis=2, keepdims=True)
    p /= sums
    log_z = np.add.reduce(np.log(sums), axis=(1, 2)).tolist()
    d = sims[0]
    d.flat[:: n + 1] = 0.0  # finite, for the zero diagonals of w_pos and q
    l_con = log_z[0] - float(np.vdot(w_pos, d))
    tau = temps.distill_current
    l_dis = log_z[1] - float(np.vdot(p[2], d)) / tau if len(p) == 3 else 0.0
    # sum_k coef_k p_k - w_pos: g_con = p_0/tau_c - w_pos, g_dis = (p_1 - p_2)/tau_d
    coef = [1.0 / temps.contrastive] + ([lam / tau, -lam / tau] if len(p) == 3 and lam > 0 else [])
    g = (np.array(coef) @ p[: len(coef)].reshape(len(coef), n * n)).reshape(n, n)
    g -= w_pos
    return l_con, l_dis, g, p

