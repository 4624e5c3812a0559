"""Slow, loop-based oracle implementations of every loss, written straight
from the definitions and sharing no code with the library. The tests pin
the vectorized implementations against these. Below them are whole-array
references of faster paths: earlier forms that the current code must
reproduce bit for bit or, where it sums in another order, within float
error."""

import itertools
import math
from dataclasses import asdict

import numpy as np

from cclab.bounds import (
    BoundReport,
    E2,
    analytic_min_contrastive,
    constants,
    random_distribution,
)
from cclab.continual import (
    ExperimentTrace,
    LambdaSchedule,
    ReplayBuffer,
    TaskRecord,
    adaptive_lambda,
    class_balanced_batches,
)
from cclab.core import (
    NORM_TOL,
    MixtureWeights,
    TaskDistribution,
    mixture,
    normalize_rows,
    stacked_positive_pairs,
)
from cclab import losses
from cclab.losses import _population_terms
from cclab.trainer import Encoder


def random_embedding(dist, dim, rng):
    """Unit rows in i.i.d. Gaussian directions, one per point of ``dist``."""
    return normalize_rows(rng.standard_normal((dist.size, dim)))


def two_point_antipodal():
    """Two singleton classes embedded at antipodes of the sphere: the
    distribution and its (2, 2) embedding rows."""
    points = np.array([[1.0, 0.0], [0.0, 1.0]])
    dist = TaskDistribution(
        points=points, labels=np.array([0, 1]), mass=np.array([0.5, 0.5])
    )
    return dist, np.array([[1.0, 0.0], [-1.0, 0.0]])


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


def population_terms_reference(emb_t, dist, k, emb_prev=None):
    """(con_t, con_prev, dis, residual) of the (n, e) rows of f_t and f_prev
    from one pass over the whole (pair, multiset) grid at once, as
    losses._population_terms computed them before it walked the grid in
    blocks, on the dense counts of dense_negative_weights_reference and the
    pairs of positive_pairs_reference."""
    counts, neg_w = dense_negative_weights_reference(dist.mass, k)
    anchors, positives, pair_w = positive_pairs_reference(dist)

    def tables(emb):
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

    t = tables(emb_t)
    s_ab, _, _, lse = on_grid(*t)
    con_t = expect(lse - s_ab)
    if emb_prev is None:
        return con_t, np.nan, np.nan, np.nan
    p = tables(emb_prev)
    s_prev, e_ab, sums_prev, lse_prev = on_grid(*p)
    con_prev = expect(lse_prev - s_prev)
    cross_sums = ((p[2] * t[0]) @ counts.T)[anchors]
    denom = e_ab + sums_prev
    dis = expect(lse - (e_ab * s_ab + cross_sums) / denom)
    cross = expect((s_ab * sums_prev - cross_sums) / denom)
    return con_t, con_prev, dis, dis - con_t - cross


def negative_multisets_reference(n, k):
    """core.negative_multisets from the combinations_with_replacement tuples
    as a Python list: (M, k) int64 index rows, their runs (each run of
    equal indices' length at its last column, 0 elsewhere) found one column
    at a time, and multiplicities k! / prod runs! from float64 factorials,
    multiplied in ascending index order."""
    rows = np.array(
        list(itertools.combinations_with_replacement(range(n), k)), dtype=np.int64
    ).reshape(-1, k)
    runs = np.zeros_like(rows)
    run = np.ones(len(rows), dtype=np.int64)
    for c in range(k):
        if c:
            run = np.where(rows[:, c] == rows[:, c - 1], run + 1, 1)
        ends = rows[:, c] != rows[:, c + 1] if c + 1 < k else np.ones(len(rows), bool)
        runs[:, c] = np.where(ends, run, 0)
    factorials = np.array([math.factorial(i) for i in range(k + 1)], dtype=np.float64)
    multiplicity = factorials[k] / factorials[runs].prod(axis=1)
    return rows, runs, multiplicity


def dense_counts_reference(rows, n):
    """The (M, n) counts of index rows, scattered with np.add.at: row J says
    how often each point occurs in multiset J."""
    counts = np.zeros((len(rows), n))
    np.add.at(counts, (np.arange(len(rows))[:, None], rows), 1.0)
    return counts


def dense_negative_weights_reference(mass, k):
    """The negative multisets of (..., n) masses as core built them before it
    dropped whole counts: dense (M, n) counts, and weights multiplicity *
    prod_j mass_j ** counts_j over a (..., M, n) power temporary."""
    rows, _, multiplicity = negative_multisets_reference(mass.shape[-1], k)
    counts = dense_counts_reference(rows, mass.shape[-1])
    return counts, multiplicity * np.prod(mass[..., None, :] ** counts, axis=-1)


def positive_pairs_reference(dist):
    """(anchors, positives, weights) of the ordered same-class pairs, as
    core.stacked_positive_pairs gives them for one trial, with each class's
    mass found as before it was summed with np.bincount: a masked
    cumulative sum over the class-ranked points, each class summed in index
    order."""
    order = np.argsort(dist.labels, kind="stable")
    ranked, m = dist.labels[order], dist.mass[order]
    same = ranked[:, None] == ranked[None, :]
    mu = np.cumsum(np.where(same, m[None], 0.0), axis=1)[:, -1]
    a, b = np.nonzero(same)
    return order[a], order[b], m[a] * m[b] / mu[a]


def stacked_terms_reference(emb_t, labels, mass, k, emb_prev=None):
    """losses._stacked_terms as it walked the (pair, multiset) grid before
    it built its tables a chunk of anchors at a time: whole (B*n, M) tables
    in index order, the same blocks of ``losses._BLOCK // M`` pairs and the
    same per-trial fold, so each term has the same bits at k <= 2, where a
    table entry sums at most two nonzero terms in any order. Its counts and
    weights are dense_negative_weights_reference's."""
    B, n = labels.shape
    counts, neg_w = dense_negative_weights_reference(mass, k)
    order, trial, rows, positives, pair_w = stacked_positive_pairs(labels, mass)
    anchor_row = order[rows]  # the anchor's own row, in index order

    def tables(emb):
        sims = (emb @ emb.swapaxes(-1, -2)).reshape(-1, n)
        shift = sims.max(axis=1, keepdims=True)
        ex = np.exp(sims - shift)
        return sims, shift, ex, ex.reshape(B, n, n) @ counts.T

    sims, shift, ex, sums = tables(emb_t)
    sums = sums.reshape(-1, len(counts))
    s_ab = sims[anchor_row, positives][:, None]
    e_ab = ex[anchor_row, positives][:, None]
    out = np.full((B, 4), np.nan)
    cols = [0] if emb_prev is None else [0, 1, 2, 3]
    out[:, cols] = 0.0
    if emb_prev is not None:
        sims_p, shift_p, ex_p, sums_p = tables(emb_prev)
        sums_p = sums_p.reshape(-1, len(counts))
        cross_tab = ((ex_p * sims).reshape(B, n, n) @ counts.T).reshape(-1, len(counts))
        s_prev = sims_p[anchor_row, positives][:, None]
        e_ab_p = ex_p[anchor_row, positives][:, None]
    per_block = max(1, losses._BLOCK // len(counts))
    starts = np.searchsorted(trial, np.arange(B + 1)).tolist()
    lo = 0
    while lo < trial.size:
        fit = max(s for s in starts if s <= lo + per_block)
        stop = fit if fit > lo else lo + per_block
        a = anchor_row[lo:stop]
        lse = np.log(sums[a] + e_ab[lo:stop]) + shift[a]
        values = [lse - s_ab[lo:stop]]
        if emb_prev is not None:
            denom = sums_p[a] + e_ab_p[lo:stop]
            r = cross_tab[a]
            values = [
                values[0],
                np.log(denom) + shift_p[a] - s_prev[lo:stop],
                lse - (r + e_ab_p[lo:stop] * s_ab[lo:stop]) / denom,
                (sums_p[a] * s_ab[lo:stop] - r) / denom,
            ]
        v = np.stack(values)
        for b in range(B):
            seg0, seg1 = max(lo, starts[b]), min(stop, starts[b + 1])
            if seg0 < seg1:
                w_v = pair_w[seg0:seg1] @ v[:, seg0 - lo : seg1 - lo]
                out[b, cols] += (w_v[:, None] @ neg_w[b][:, None])[:, 0, 0]
        lo = stop
    out[:, 3] = out[:, 2] - out[:, 0] - out[:, 3]
    return out


def gamma_reference(t, lam, weights):
    """Theorem 1's denominators at task t, (gamma_t, gamma'_t) =
    (min({1/t} u {lam * k_tj}), max({1} u {lam * k_tj})), with numpy's min
    and max over the scaled weights. A NaN coefficient is no coefficient."""
    if t != weights.task_index:
        raise ValueError("weights belong to a different task index")
    if not lam >= 0:
        raise ValueError("distillation coefficient must be non-negative")
    scaled = lam * weights.weights
    return min(1.0 / t, float(scaled.min())), max(1.0, float(scaled.max()))


def random_distribution_reference(rng, support_size=4, dimension=3, n_classes=2):
    """bounds.random_distribution as it drew before the stacked trial draw:
    one rng.dirichlet call for the masses, then the points."""
    n_classes = min(n_classes, support_size)
    labels = np.concatenate(
        [np.arange(n_classes), rng.integers(0, n_classes, size=support_size - n_classes)]
    )
    mass = rng.dirichlet(np.ones(support_size))
    mass = np.maximum(mass, 1e-3)
    mass /= mass.sum()
    return TaskDistribution(
        points=rng.standard_normal((support_size, dimension)), labels=labels, mass=mass
    )


def trial_terms_reference(trials, k, seed, support_size=4, dimension=3, embed_dim=4,
                          alpha_corruption=0.0):
    """The random triples of bounds.lemma1_trials and
    decomposition_check_trials, one at a time as those functions drew and
    evaluated them before they worked in stacked blocks: a
    random_distribution, two random_embedding draws and one
    _population_terms pass per trial. Returns the (trials, 4) terms and
    the (lemma1_trials, decomposition_check_trials) results, reduced one
    trial at a time, with the slacks written out as lemma1_slack had them."""
    c = constants(k)
    alpha = c.alpha + alpha_corruption
    rng = np.random.default_rng(seed)
    terms = []
    worst_up = worst_lo = np.inf
    worst_res = 0.0
    for _ in range(trials):
        dist = random_distribution(rng, support_size, dimension)
        emb_t = random_embedding(dist, embed_dim, rng)
        emb_prev = random_embedding(dist, embed_dim, rng)
        terms.append(_population_terms(emb_t, dist, k, emb_prev))
        l_t, l_prev, l_dis, residual = terms[-1]
        worst_up = min(worst_up, alpha * l_prev + l_dis + c.beta - l_t)
        worst_lo = min(worst_lo, l_t - alpha * l_prev - l_dis - c.beta_prime)
        worst_res = max(worst_res, abs(residual))
    return np.array(terms), ((float(worst_up), float(worst_lo)), worst_res)


class DictTableModel:
    """A model given as a table from each point's bytes (-0.0 read as 0.0)
    to its normalized vector, byte-equal points sharing the vector given
    last, looked up one row at a time: it embeds a support for the loop
    oracles and population_bound_check_reference independently of the
    row order the library relies on."""

    def __init__(self, points, vectors):
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        vectors = normalize_rows(np.atleast_2d(vectors))
        self._table = {(p + 0.0).tobytes(): v for p, v in zip(points, vectors)}

    def embed(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        try:
            rows = [self._table[(p + 0.0).tobytes()] for p in points]
        except KeyError:
            raise KeyError("point not present in embedding table") from None
        return np.stack(rows)


def _eta_factor(alpha, T):
    return (T - 1 - T * alpha + alpha**T) / (1.0 - alpha) ** 2


def _per_task_lambdas(lam, T):
    if np.isscalar(lam):
        return [float(lam)] * (T - 1)
    lams = [float(x) for x in lam]
    if len(lams) != T - 1:
        raise ValueError(f"need one coefficient per task 2..{T}, got {len(lams)}")
    return lams


def _theorem1_upper_reference(train_losses, weights, lam, k=1, minf=None):
    losses = [float(x) for x in train_losses]
    T = len(losses)
    if T < 2:
        raise ValueError("bounds need at least two tasks")
    if len(weights) != T - 1:
        raise ValueError(f"need mixture weights for tasks 2..{T}")
    lams = _per_task_lambdas(lam, T)
    c = constants(k)
    minf_mode = "analytic" if minf is None else "given"
    if minf is None:
        minf = [analytic_min_contrastive(k)] * (T - 1)
    minf = [float(x) for x in minf]
    gammas, coeffs = [], [c.alpha ** (T - 1)]
    eta = c.beta * _eta_factor(c.alpha, T)
    value = coeffs[0] * losses[0]
    for i, t in enumerate(range(2, T + 1)):
        g, _ = gamma_reference(t, lams[i], weights[i])
        if g <= 0:
            raise ValueError(
                f"task {t}: coefficient {lams[i]} gives a zero denominator"
            )
        gammas.append(g)
        w = c.alpha ** (T - t) / g
        coeffs.append(w)
        value += w * losses[i + 1]
        eta += c.alpha ** (T - t) * (1.0 - 1.0 / g) * minf[i]
    value += eta
    return BoundReport(kind="upper", T=T, k=k, lambdas=lams, alpha=c.alpha, gammas=gammas,
                       coefficients=coeffs, train_losses=losses, eta=eta, value=value,
                       minf_mode=minf_mode, minf_values=minf)


def _theorem1_lower_reference(train_losses, weights, lam, k=1):
    losses = [float(x) for x in train_losses]
    T = len(losses)
    if T < 2:
        raise ValueError("bounds need at least two tasks")
    if len(weights) != T - 1:
        raise ValueError(f"need mixture weights for tasks 2..{T}")
    lams = _per_task_lambdas(lam, T)
    c = constants(k)
    gammas, coeffs = [], [c.alpha ** (T - 1)]
    eta = c.beta_prime * _eta_factor(c.alpha, T)
    value = coeffs[0] * losses[0]
    for i, t in enumerate(range(2, T + 1)):
        _, gp = gamma_reference(t, lams[i], weights[i])
        gammas.append(gp)
        w = c.alpha ** (T - t) / gp
        coeffs.append(w)
        value += w * losses[i + 1]
    value += eta
    return BoundReport(kind="lower", T=T, k=k, lambdas=lams, alpha=c.alpha, gammas=gammas,
                       coefficients=coeffs, train_losses=losses, eta=eta, value=value)


# bounds.theorem1_upper and theorem1_lower as they were before they shared
# their input checks and cached alpha powers, keyed by BoundReport.kind
theorem1_reference = {"upper": _theorem1_upper_reference, "lower": _theorem1_lower_reference}


def compute_U_reference(train_losses, weights, lam_t, k=1):
    """bounds.compute_U as it walked the alpha powers and gammas itself,
    before it read the upper bound's coefficients."""
    losses = [float(x) for x in train_losses]
    if len(losses) != len(weights) or not losses:
        raise ValueError("need one training loss per task 2..t")
    c = constants(k)
    t = weights[-1].task_index
    total = 0.0
    for loss, w in zip(losses, weights):
        j = w.task_index
        g, _ = gamma_reference(j, lam_t, w)
        if g <= 0:
            raise ValueError(f"task {j}: zero denominator at coefficient {lam_t}")
        total += c.alpha ** (t - j) / g * loss
    return total


def single_negative_beta_prime():
    """The main text's k = 1 form of beta', -alpha*log(1+e^2) - alpha; the
    general formula's last term 2k e^2/(1+k e^2) is alpha at k = 1."""
    alpha = 2.0 * E2 / (1.0 + E2)
    return -alpha * math.log1p(E2) - alpha


def population_bound_check_reference(task_models, task_dists, lambdas, k=1, weights=None):
    """bounds.population_bound_check on table models, such as
    DictTableModel, as one full _population_terms pass per loss: each
    task's contrastive loss, each distillation loss and each term of the
    realized test loss on its own, each model embedding the pass's support
    points by lookup, with theorem1_reference."""
    T = len(task_models)
    if weights is None:
        weights = [
            MixtureWeights(task_index=t, weights=np.full(t - 1, 1.0 / (t - 1)))
            for t in range(2, T + 1)
        ]

    def con(model, dist):
        return _population_terms(model.embed(dist.points), dist, k).con_t

    train_losses = [con(task_models[0], task_dists[0])]
    for i, t in enumerate(range(2, T + 1)):
        past = mixture(task_dists[: t - 1], weights[i])
        l_dis = _population_terms(task_models[t - 1].embed(past.points), past, k,
                                  task_models[t - 2].embed(past.points)).dis
        train_losses.append(con(task_models[t - 1], task_dists[t - 1]) + lambdas[i] * l_dis)
    upper = theorem1_reference["upper"](train_losses, weights, lambdas, k=k)
    lower = theorem1_reference["lower"](train_losses, weights, lambdas, k=k)
    realized = float(sum(con(task_models[-1], d) for d in task_dists))
    upper.realized_test_loss = realized
    lower.realized_test_loss = realized
    return upper, lower, realized


# -- the training step before it was fused --------------------------------
#
# The step as the library computed it with two augment calls per batch, one
# forward pass per encoder, a masked softmax on a copy of the stacked logits
# with the losses read off per anchor, and a fresh velocity per update. The
# fused step must reproduce it within float error.


def augment_reference(points, rng, jitter=0.05, max_angle_deg=15.0):
    """Gaussian jitter, plus a small random rotation for 2-D inputs."""
    points = np.atleast_2d(points)
    out = points + rng.normal(scale=jitter, size=points.shape)
    if points.shape[1] == 2:
        theta = rng.uniform(-1.0, 1.0, size=points.shape[0]) * np.deg2rad(max_angle_deg)
        c, s = np.cos(theta), np.sin(theta)
        x = c * out[:, 0] - s * out[:, 1]
        out[:, 1] = s * out[:, 0] + c * out[:, 1]
        out[:, 0] = x
    return out


def stacked_softmax_reference(logits):
    """Row log-sum-exp and softmax of (..., n, n) logits over the
    off-diagonal of each trailing (n, n) matrix, on a copy whose diagonal
    is set to -inf."""
    n = logits.shape[-1]
    ex = logits.copy()
    ex.reshape(logits.shape[:-2] + (n * n,))[..., :: n + 1] = -np.inf
    m = ex.max(axis=-1)
    ex -= m[..., None]
    np.exp(ex, out=ex)
    sums = ex.sum(axis=-1)
    return m + np.log(sums), ex / sums[..., None]


def batch_terms_reference(z, labels, temps, z_past=None):
    """(SupCon loss, its gradient in zz', IRD loss, its gradient), each loss
    summed over anchors, with the losses read off per anchor."""
    n = z.shape[0]
    pos = labels[:, None] == labels[None, :]
    pos.flat[:: n + 1] = False
    counts = pos.sum(axis=1)
    if not counts.all():
        raise ValueError("anchor with empty positive set")
    sims = z @ z.T
    logits = np.empty((1 if z_past is None else 3, n, n))
    np.divide(sims, temps.contrastive, out=logits[0])
    if z_past is not None:
        np.divide(sims, temps.distill_current, out=logits[1])
        np.divide(z_past @ z_past.T, temps.distill_past, out=logits[2])
    lse, p = stacked_softmax_reference(logits)
    per_anchor = -(np.where(pos, logits[0] - lse[0][:, None], 0.0).sum(axis=1)) / counts
    l_con = float(per_anchor.sum())
    g_con = (p[0] - pos / counts[:, None]) / temps.contrastive
    if z_past is None:
        return l_con, g_con, 0.0, None
    q = p[2]
    l_dis = float(-(q * (logits[1] - lse[1][:, None])).sum())
    return l_con, g_con, l_dis, (p[1] - q) / temps.distill_current


def _forward_reference(enc, points):
    """(unit embeddings, per-layer activations, pre-normalization output)."""
    acts = [points]
    h = points
    for w, b in zip(enc.weights[:-1], enc.biases[:-1]):
        h = np.tanh(h @ w + b)
        acts.append(h)
    raw = h @ enc.weights[-1] + enc.biases[-1]
    return normalize_rows(raw), acts, raw


def grad_total_reference(enc_t, enc_prev, points, labels, lam, temps, divide=True):
    """trainer.grad_total on the reference batch terms, with one forward
    pass per encoder and the backward pass written layer by layer."""
    n = points.shape[0]
    z, acts, raw = _forward_reference(enc_t, points)
    z_past = None if enc_prev is None else _forward_reference(enc_prev, points)[0]
    l_con, g_sim, l_dis, g_dis = batch_terms_reference(z, labels, temps, z_past)
    if g_dis is not None and lam > 0:
        g_sim = g_sim + lam * g_dis
    d_z = (g_sim + g_sim.T) @ z
    norms = np.linalg.norm(raw, axis=1)
    d_raw = d_z - (d_z * z).sum(axis=1)[:, None] * z
    small = norms < NORM_TOL
    d_raw[small] = 0.0
    d_raw /= np.where(small, 1.0, norms)[:, None]
    grad = np.empty_like(enc_t.params)
    grads_w, grads_b = enc_t._layers(grad)
    delta = d_raw
    for layer in range(len(enc_t.weights) - 1, -1, -1):
        grads_w[layer][...] = acts[layer].T @ delta
        grads_b[layer][...] = delta.sum(axis=0)
        if layer:
            a = acts[layer]
            delta = (delta @ enc_t.weights[layer].T) * (1.0 - a**2)
    scale = 1.0 / n if divide else 1.0
    return l_con * scale, l_dis * scale, grad * scale


def run_sequence_reference(tasks, cfg):
    """continual.run_sequence's loop on the reference step: two
    augment_reference calls per batch, grad_total_reference and a
    momentum update into a fresh velocity. Returns (trace, final encoder,
    buffer); the buffer, schedule and trace are the library's."""
    ss = np.random.SeedSequence(cfg.seed)
    batching, augmenting, buffering = ss.spawn(3)
    batch_rng, aug_rng = np.random.default_rng(batching), np.random.default_rng(augmenting)
    buffer = ReplayBuffer(capacity=cfg.buffer_size, seed=int(buffering.generate_state(1)[0]))
    schedule = LambdaSchedule.from_config(cfg)
    trace = ExperimentTrace(config=asdict(cfg))
    enc = None
    for t, task in enumerate(tasks, start=1):
        train = task.train
        pts = np.asarray(list(train.points) + (buffer.points if t >= 2 else []))
        labs = np.asarray(list(train.labels) + (buffer.labels if t >= 2 else []), dtype=np.int64)
        enc_prev, lam = enc, None if enc is None else adaptive_lambda(schedule, t)
        enc = Encoder((train.dimension, cfg.hidden, cfg.embed_dim), seed=cfg.seed) \
            if enc_prev is None else enc_prev.copy()
        velocity = np.zeros(enc.n_params)
        n = pts.shape[0]
        for epoch in range(cfg.sgd.epochs):
            order = batch_rng.permutation(n)
            con_sum = dis_sum = 0.0
            n_batches = 0
            for start in range(0, n, cfg.sgd.batch_size):
                idx = order[start : start + cfg.sgd.batch_size]
                views = np.empty((2 * idx.size, pts.shape[1]))
                views[0::2] = augment_reference(pts[idx], aug_rng)
                views[1::2] = augment_reference(pts[idx], aug_rng)
                l_con, l_dis, grad = grad_total_reference(
                    enc, enc_prev, views, np.repeat(labs[idx], 2), lam or 0.0, cfg.temps)
                if not np.all(np.isfinite(grad)):
                    raise FloatingPointError("non-finite gradient component")
                velocity = cfg.sgd.momentum * velocity + grad
                enc.params -= cfg.sgd.lr * velocity
                con_sum += l_con
                dis_sum += l_dis
                n_batches += 1
            final_con, final_dis = con_sum / n_batches, dis_sum / n_batches
            trace.epoch_rows.append((t, epoch, final_con, final_dis, lam))
        for p, c in zip(train.points, train.labels):
            buffer.insert(p, int(c), t)
        if t >= 2:
            schedule.record_task(final_con, final_dis, buffer)
        trace.records.append(TaskRecord(t, lam, final_con, final_dis, buffer.composition()))
    return trace, enc, buffer


def linear_probe_reference(embed_fn, probe_points, probe_labels, test_tasks, n_classes,
                           epochs=100, batch_size=32, lr=0.5, seed=0):
    """Per-task accuracies of continual.linear_probe's classifier, trained
    one batch at a time with a fresh softmax and a scattered target."""
    rng = np.random.default_rng(seed)
    z = embed_fn(np.atleast_2d(probe_points))
    labels = np.asarray(probe_labels, dtype=np.int64)
    w = np.zeros((z.shape[1], n_classes))
    b = np.zeros(n_classes)
    steps = epochs * max(1, int(np.ceil(z.shape[0] / batch_size)))
    for idx in class_balanced_batches(labels, batch_size, steps, rng):
        zb = z[idx]
        logits = zb @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(idx.size), labels[idx]] -= 1.0
        p /= idx.size
        w -= lr * (zb.T @ p)
        b -= lr * p.sum(axis=0)
    return [float(np.mean(np.argmax(embed_fn(d.points) @ w + b, axis=1) == d.labels))
            for d in test_tasks]
