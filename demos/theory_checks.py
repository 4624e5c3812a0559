"""Numerical verification of the framework's identities and inequalities.

Checks, on freshly drawn random models and distributions:
  - the closed-form sandwich constants and their signs,
  - the per-step loss sandwich between consecutive models,
  - the cross-entropy decomposition identity,
  - exact enumeration against Monte Carlo sampling,
  - analytic gradients against finite differences.
Run with:  python3 demos/theory_checks.py
"""

import numpy as np

from cclab.bounds import (
    constants,
    decomposition_check_trials,
    lemma1_trials,
    random_distribution,
)
from cclab.core import normalize_rows
from cclab.data import monte_carlo_contrastive
from cclab.losses import population_contrastive
from cclab.trainer import Encoder, Temperatures, finite_diff_check


def main() -> None:
    for k in (1, 2, 5):
        c = constants(k)
        print(f"k={k}: alpha={c.alpha:.6f} beta={c.beta:.6f} beta'={c.beta_prime:.6f}")

    up, lo = lemma1_trials(trials=300, k=1, seed=0)
    print(f"\nsandwich over 300 random triples: worst upper slack {up:.4f}, "
          f"worst lower slack {lo:.4f} (both must be >= 0)")

    resid = decomposition_check_trials(trials=100, k=1, seed=1)
    print(f"worst decomposition residual over 100 triples: {resid:.2e}")

    rng = np.random.default_rng(2)
    dist = random_distribution(rng, support_size=5, dimension=3)
    emb = normalize_rows(rng.standard_normal((dist.size, 4)))
    exact = population_contrastive(emb, dist, k=1)
    est, se = monte_carlo_contrastive(emb, dist, k=1, draws=200_000, seed=0)
    print(f"\nexact loss {exact:.6f} vs Monte Carlo {est:.6f} "
          f"(standard error {se:.6f}, gap {abs(exact - est) / se:.2f} SE)")

    enc = Encoder((2, 16, 8), seed=0)
    prev = Encoder((2, 16, 8), seed=1)
    pts = rng.standard_normal((8, 2))
    labels = np.repeat(np.arange(4), 2)
    err = finite_diff_check(enc, prev, pts, labels, 1.0, Temperatures())
    print(f"max relative gradient error vs finite differences: {err:.2e}")


if __name__ == "__main__":
    main()
