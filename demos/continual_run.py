"""A full continual run on synthetic blobs with an adaptive distillation
coefficient, then a bound check on the trained models.

Trains five class-incremental tasks with replay, compares the adaptive
coefficient variants by linear-probe accuracy, and verifies that the
realized population test loss of the final model lands between the
computed lower and upper bounds. Run with:  python3 demos/continual_run.py
"""

import numpy as np

from cclab.continual import RunConfig, population_bound_check, probe_run, run_sequence
from cclab.data import make_blob_sequence
from cclab.trainer import SgdConfig


def main() -> None:
    tasks = make_blob_sequence(5, classes_per_task=2, points_per_class=10, seed=0)

    print("mode comparison (5 tasks, buffer 50, probe on last task + buffer):")
    for mode in ("fixed", "pure", "min", "max"):
        cfg = RunConfig(
            hidden=16, embed_dim=4,
            sgd=SgdConfig(lr=0.05, epochs=40, batch_size=32, seed=0),
            mode=mode, lam0=1.0, buffer_size=50, seed=0,
        )
        res = run_sequence(tasks, cfg)
        lams = ["-" if r.lam is None else f"{r.lam:.3f}" for r in res.trace.records]
        acc = probe_run(tasks, cfg, res.encoder).average_accuracy
        print(f"  {mode:>5}: probe accuracy {acc:.3f}, coefficients {lams}")

    # bound check on a fixed-coefficient run over a 3-task prefix
    prefix = tasks[:3]
    cfg = RunConfig(
        hidden=16, embed_dim=4,
        sgd=SgdConfig(lr=0.05, epochs=20, batch_size=32, seed=0),
        mode="fixed", lam0=1.0, buffer_size=50, seed=0,
    )
    res = run_sequence(prefix, cfg)
    dists = [t.train for t in prefix]
    support = np.concatenate([d.points for d in dists])
    embeddings = [enc.snapshot(support) for enc in res.task_models]
    lambdas = [r.lam for r in res.trace.records[1:]]
    upper, lower, realized = population_bound_check(embeddings, dists, lambdas)
    print("\nbound sandwich on the trained 3-task prefix:")
    print(f"  lower {lower.value:.4f} <= realized test loss {realized:.4f} "
          f"<= upper {upper.value:.4f}")


if __name__ == "__main__":
    main()
