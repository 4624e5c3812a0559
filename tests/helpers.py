"""Slow, loop-based oracle implementations of every loss, written straight
from the definitions and sharing no code with the library. The tests pin
the vectorized implementations against these. Below them are whole-array
references of faster paths: earlier forms that the current code must
reproduce bit for bit or, where it sums in another order, within float
error."""

import itertools
import math

import numpy as np

from cclab.core import TableModel, TaskDistribution, negative_weights, positive_pairs


def two_point_antipodal():
    """Two singleton classes embedded at antipodes of the sphere."""
    points = np.array([[1.0, 0.0], [0.0, 1.0]])
    dist = TaskDistribution(
        points=points, labels=np.array([0, 1]), mass=np.array([0.5, 0.5])
    )
    model = TableModel(points, np.array([[1.0, 0.0], [-1.0, 0.0]]))
    return dist, model


def _class_tables(dist):
    """{class: [(index, conditional prob)]} plus class marginals."""
    out, marginals = {}, {}
    for c in np.unique(dist.labels):
        idx = np.flatnonzero(dist.labels == c)
        total = dist.mass[idx].sum()
        out[int(c)] = [(int(i), dist.mass[i] / total) for i in idx]
        marginals[int(c)] = float(total)
    return out, marginals


def oracle_population_contrastive(f, dist, k):
    """Expected log(1 + sum_i exp(-v_i)), enumerated with plain loops."""
    emb = f.embed(dist.points)
    tables, marginals = _class_tables(dist)
    total = 0.0
    for c, rows in tables.items():
        for a, pa in rows:
            for b, pb in rows:
                pair_w = marginals[c] * pa * pb
                for combo in itertools.product(range(dist.size), repeat=k):
                    w = pair_w * math.prod(dist.mass[i] for i in combo)
                    s = sum(
                        math.exp(-(emb[a] @ (emb[b] - emb[i]))) for i in combo
                    )
                    total += w * math.log(1.0 + s)
    return total


def _softmax(logits):
    ex = [math.exp(x - max(logits)) for x in logits]
    z = sum(ex)
    return [e / z for e in ex]


def oracle_population_distillation(f_t, f_prev, dist, k):
    """Expected CE from f_prev's similarity softmax to f_t's."""
    emb_t = f_t.embed(dist.points)
    emb_p = f_prev.embed(dist.points)
    tables, marginals = _class_tables(dist)
    total = 0.0
    for c, rows in tables.items():
        for a, pa in rows:
            for b, pb in rows:
                pair_w = marginals[c] * pa * pb
                for combo in itertools.product(range(dist.size), repeat=k):
                    w = pair_w * math.prod(dist.mass[i] for i in combo)
                    logits_t = [emb_t[a] @ emb_t[b]] + [
                        emb_t[a] @ emb_t[i] for i in combo
                    ]
                    logits_p = [emb_p[a] @ emb_p[b]] + [
                        emb_p[a] @ emb_p[i] for i in combo
                    ]
                    q = _softmax(logits_p)
                    p = _softmax(logits_t)
                    total += w * -sum(
                        qi * math.log(pi) for qi, pi in zip(q, p)
                    )
    return total


def oracle_supcon(z, labels, tau):
    """Supervised contrastive batch loss, summed over anchors."""
    n = len(z)
    total = 0.0
    for i in range(n):
        pos = [j for j in range(n) if j != i and labels[j] == labels[i]]
        denom = sum(math.exp(z[i] @ z[j] / tau) for j in range(n) if j != i)
        total += -sum(
            math.log(math.exp(z[i] @ z[p] / tau) / denom) for p in pos
        ) / len(pos)
    return total


def oracle_ird(z_cur, z_past, tau_cur, tau_past):
    """Instance-relation distillation batch loss, summed over anchors."""
    n = len(z_cur)
    total = 0.0
    for i in range(n):
        others = [j for j in range(n) if j != i]
        p = _softmax([z_cur[i] @ z_cur[j] / tau_cur for j in others])
        q = _softmax([z_past[i] @ z_past[j] / tau_past for j in others])
        total += -sum(qi * math.log(pi) for qi, pi in zip(q, p))
    return total


def masked_softmax_reference(logits):
    """Row log-sum-exp and softmax of one (n, n) logit matrix over its
    off-diagonal, masked with np.eye/np.where and a zeroed output."""
    off = ~np.eye(logits.shape[0], dtype=bool)
    m = np.where(off, logits, -np.inf).max(axis=1)
    ex = np.exp(logits - m[:, None], where=off, out=np.zeros_like(logits))
    sums = ex.sum(axis=1)
    return m + np.log(sums), ex / sums[:, None]


def class_balanced_reference(labels, batch_size, n_batches, rng):
    """The two-step batch rule with one scalar draw per instance: a
    uniform class, then a uniform index within that class."""
    classes = np.unique(labels)
    per_class = [np.flatnonzero(labels == c) for c in classes]
    batches = []
    for _ in range(n_batches):
        cs = rng.integers(0, classes.size, size=batch_size)
        batches.append(np.array(
            [per_class[c][rng.integers(0, per_class[c].size)] for c in cs]
        ))
    return batches


def population_terms_reference(f_t, dist, k, f_prev=None):
    """(con_t, con_prev, dis, residual) from one pass over the whole
    (pair, multiset) grid at once, as losses._population_terms computed
    them before it walked the grid in blocks."""
    counts, neg_w = negative_weights(dist, k)
    anchors, positives, pair_w = positive_pairs(dist)

    def tables(f):
        emb = f.embed(dist.points)
        sims = emb @ emb.T
        shift = sims.max(axis=1, keepdims=True)
        ex = np.exp(sims - shift)
        return sims, shift, ex, ex @ counts.T

    def on_grid(sims, shift, ex, sums):
        s_ab = sims[anchors, positives][:, None]
        e_ab = ex[anchors, positives][:, None]
        sums = sums[anchors]
        return s_ab, e_ab, sums, np.log(e_ab + sums) + shift[anchors]

    def expect(values):
        return float(pair_w @ values @ neg_w)

    t = tables(f_t)
    s_ab, _, _, lse = on_grid(*t)
    con_t = expect(lse - s_ab)
    if f_prev is None:
        return con_t, np.nan, np.nan, np.nan
    p = tables(f_prev)
    s_prev, e_ab, sums_prev, lse_prev = on_grid(*p)
    con_prev = expect(lse_prev - s_prev)
    cross_sums = ((p[2] * t[0]) @ counts.T)[anchors]
    denom = e_ab + sums_prev
    dis = expect(lse - (e_ab * s_ab + cross_sums) / denom)
    cross = expect((s_ab * sums_prev - cross_sums) / denom)
    return con_t, con_prev, dis, dis - con_t - cross


def gamma_reference(t, lam, weights):
    """bounds.gamma with numpy's min and max over the scaled weights."""
    if t != weights.task_index:
        raise ValueError("weights belong to a different task index")
    if lam < 0:
        raise ValueError("distillation coefficient must be non-negative")
    scaled = lam * weights.weights
    return min(1.0 / t, float(scaled.min())), max(1.0, float(scaled.max()))
