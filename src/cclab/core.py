"""Finite-support labeled distributions, the projection of embedding rows
onto the unit sphere, and the outcome space that population losses are
defined over: same-class (anchor, positive) pairs and multisets of
negatives.

An embedding is a plain (n, e) array of unit rows, one per point of a
support in its order. Distributions are frozen after construction and all
operations are pure functions, so they are safe to share across threads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-12
MASS_TOL = 1e-12
MAX_K = 170  # the most negatives: the largest k whose k! is finite in float64
# the most entries of one array a config may shape: the n * C(n+k-1, k)
# (anchor, multiset) table entries of an exact pass, a trial's draw, an
# encoder's parameters, a blob sequence's points
MAX_TABLE_ENTRIES = 1 << 26


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Project each row of an (n, d) matrix onto the unit sphere.

    Rows with norm below 1e-12 map to the first standard basis vector
    (documented degenerate-input rule; keeps training robust at init).
    """
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1)
    small = norms < NORM_TOL
    if not small.any():
        return m / norms[:, None]
    out = m / np.where(small, 1.0, norms)[:, None]
    out[small] = np.eye(1, m.shape[1])  # the first basis vector
    return out


@dataclass(frozen=True)
class TaskDistribution:
    """A finite-support labeled data distribution.

    ``points`` is (n, d_in), ``labels`` holds one integer class id per
    point (global across tasks), and ``mass`` is the probability of each
    point. Class probabilities and within-class conditionals are derived.
    """

    points: np.ndarray
    labels: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        points = np.atleast_2d(np.asarray(self.points, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        mass = np.asarray(self.mass, dtype=np.float64)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "mass", mass)
        n = points.shape[0]
        if labels.shape != (n,) or mass.shape != (n,):
            raise ValueError("points, labels and mass must have matching lengths")
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        if np.any(mass < 0):
            raise ValueError("point masses must be non-negative")
        if not abs(mass.sum() - 1.0) <= MASS_TOL:  # a NaN or infinite mass fails too
            raise ValueError(f"point masses must be finite and sum to 1, got {mass.sum()!r}")
        for c in np.unique(labels):
            if mass[labels == c].sum() <= 0:
                raise ValueError(f"class {c} has zero total mass")

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def classes(self) -> np.ndarray:
        return np.unique(self.labels)

    def class_prob(self, c: int) -> float:
        """Probability of class ``c`` (the class marginal)."""
        return float(self.mass[self.labels == c].sum())

    def within_class(self, c: int) -> tuple[np.ndarray, np.ndarray]:
        """Conditional distribution of points given class ``c``.

        Returns (indices into points, conditional probabilities).
        """
        idx = np.flatnonzero(self.labels == c)
        if idx.size == 0:
            raise KeyError(f"no points labeled {c}")
        p = self.mass[idx]
        return idx, p / p.sum()


@dataclass(frozen=True)
class MixtureWeights:
    """Convex weights over the previous ``t - 1`` tasks at task ``t``.

    ``weights`` is a read-only copy of the given array; ``lo`` and ``hi``
    are its smallest and largest entry.
    """

    task_index: int
    weights: np.ndarray
    lo: float = field(init=False, repr=False, compare=False)
    hi: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        if self.task_index < 2:
            raise ValueError("mixture weights only exist from the second task on")
        if w.shape != (self.task_index - 1,):
            raise ValueError(
                f"task {self.task_index} needs {self.task_index - 1} weights, got {w.shape}"
            )
        if np.any(w <= 0):
            raise ValueError("all mixture weights must be strictly positive")
        if abs(w.sum() - 1.0) > MASS_TOL:
            raise ValueError(f"mixture weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "lo", float(w.min()))
        object.__setattr__(self, "hi", float(w.max()))


def mixture(dists: list[TaskDistribution], w: MixtureWeights) -> TaskDistribution:
    """The seen-data distribution: point masses of task j scaled by w_j.

    Classes keep their global ids; supports are concatenated in task order
    so nested mixing at compatible weights is associative point-mass-wise.
    """
    if len(dists) != w.task_index - 1:
        raise ValueError(
            f"expected {w.task_index - 1} distributions, got {len(dists)}"
        )
    d = dists[0].dimension
    if any(dd.dimension != d for dd in dists):
        raise ValueError("all distributions must share the input dimension")
    points = np.concatenate([dd.points for dd in dists])
    labels = np.concatenate([dd.labels for dd in dists])
    mass = np.concatenate([wj * dd.mass for wj, dd in zip(w.weights, dists)])
    return TaskDistribution(points=points, labels=labels, mass=mass)


@functools.lru_cache(maxsize=64)
def _multiset_rows(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, k) index rows in combinations_with_replacement order, in the
    smallest unsigned dtype that holds n; their runs, the length of each run
    of equal indices at its last column and 0 elsewhere; and their exact
    integer multinomials, as float. Each row extends by every index from its
    last on, and its multinomial grows by size / run length. Rows and runs
    are views of (k, M) arrays, one contiguous row per column."""
    rows, runs = np.arange(n, dtype=np.min_scalar_type(n))[None], np.ones((1, n), np.uint8)
    mult = np.ones(n, dtype=np.int64 if k <= 20 else object)  # 20! fits int64
    for size in range(2, k + 1):
        last = rows[-1].astype(np.intp)
        parent = np.repeat(np.arange(len(last)), n - last)
        new = np.arange(len(parent)) - np.repeat(np.cumsum(n - last) - n, n - last)  # last..n-1
        runs = runs[:, parent]
        extends = new == last[parent]  # the last run grows by one, or a new run of one starts
        run = np.where(extends, runs[-1] + 1, 1)
        runs[-1, extends] = 0
        mult = mult[parent] * size // run.astype(np.int64)
        rows = np.vstack([rows[:, parent], new.astype(rows.dtype)])
        runs = np.vstack([runs, run])
    mult = mult.astype(np.float64)
    for a in (rows, runs, mult):
        a.setflags(write=False)
    return rows.T, runs.T, mult


def negative_multisets(n: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The C(n+k-1, k) multisets of k negatives from an n-point support.

    Returns (rows, runs, multiplicity): row J of the (M, k) ``rows`` lists
    multiset J's points in ascending order, ``runs[J, c]`` is the length of
    the run of equal indices that ends at column c (0 where none ends), and
    ``multiplicity[J]`` is the multinomial coefficient k! / prod runs[J]!,
    the number of ordered k-tuples that sort to J. The arrays are cached
    per (n, k), read-only, in O(k * M) bytes; no (M, n) counts are formed
    (:func:`multiset_counts` builds them for a block of rows). k runs from
    1 to ``MAX_K``, and n * M may be at most ``MAX_TABLE_ENTRIES``, checked
    before any work.
    """
    if k < 1:
        raise ValueError("need at least one negative sample")
    if k > MAX_K:
        raise ValueError(f"at most {MAX_K} negative samples, got {k}")
    if n * math.comb(n + k - 1, k) > MAX_TABLE_ENTRIES:
        raise ValueError(f"n = {n}, k = {k} needs more than {MAX_TABLE_ENTRIES} table entries")
    return _multiset_rows(n, k)


def multiset_counts(rows: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """The (n, J) counts of J index rows over n points, C-contiguous for
    BLAS: entry (i, j) is how often point i occurs in rows[j]. Written
    into ``out``, a C-contiguous (n, J) float array, when one is given."""
    counts = np.empty((n, len(rows))) if out is None else out
    counts.fill(0.0)
    np.add.at(counts.reshape(-1), rows * np.intp(len(rows)) + np.arange(len(rows))[:, None], 1.0)
    return counts


def multiset_weights(mass: np.ndarray, rows: np.ndarray, runs: np.ndarray,
                     multiplicity: np.ndarray) -> np.ndarray:
    """The probabilities, (..., J), of J rows of :func:`negative_multisets`
    under (..., n) point masses: multiplicity[J] times one factor
    mass[i] ** run per run of equal indices, multiplied in ascending i.

    Each negative is drawn via its own class draw c_i ~ mu and x_i ~
    D_{c_i}; marginalizing the class draws leaves the k negatives i.i.d.
    with the raw point masses, so multiset J has probability
    multiplicity[J] * prod_j mass_j^count_j, and the weights of all rows
    sum to 1. Negatives may collide with the anchor's class or the anchor
    itself."""
    factors = mass.take(rows.T, axis=-1)  # (..., k, J), C-ordered, as the weights come out
    np.power(factors, runs.T, out=factors)  # 1.0 where no run ends
    weights = np.multiply.reduce(factors, axis=-2)
    weights *= multiplicity
    return weights


def stacked_positive_pairs(labels: np.ndarray, mass: np.ndarray):
    """The ordered same-class pairs (x, x+) of B trials with their joint
    probability, from (B, n) labels and masses, class by class: (order,
    trial, rows, positives, weights). Row trial * n + r is the trial's r-th
    point in class order, at flat index order[row]; pair p's anchor is row
    rows[p], and its positive is at flat index positives[p].

    x and x+ are independent draws from the same class conditional, so the
    pair weight is mu(c) * D_c(x) * D_c(x+) = mass(x) * mass(x+) / mu(c).
    Identical-point pairs are included."""
    B, n = labels.shape
    base = np.arange(0, B * n, n)[:, None]  # each trial's first flat index
    order = (np.argsort(labels, axis=1, kind="stable") + base).ravel()
    ranked, m = labels.take(order).reshape(B, n), mass.take(order)
    same = ranked[:, :, None] == ranked[:, None, :]
    cls = (same.argmax(axis=2) + base).ravel()  # each row's class, named by its first row
    mu = np.bincount(cls, weights=m)[cls]  # summed in index order
    trial, a, b = np.nonzero(same)
    rows, b = trial * n + a, order[trial * n + b]  # the positive's flat index
    return order, trial, rows, b - (rows - a), m[rows] * mass.take(b) / mu[rows]
