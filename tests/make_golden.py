"""Writes tests/golden.json: the outputs that the Theorem 1 chain and the
training loop produce at small configs, with the numpy version and
machine that wrote them. ``tests/test_golden.py`` recomputes the same
outputs with ``outputs()`` and compares them with the file.

Pinned: ``cclab train``'s four output files in the theorem2 mode (whose
coefficients come from ``compute_U``) and the max mode, ``cclab bounds``'
two files at defaults, and the training losses, realized test loss and
both bound values of ``population_bound_check`` on one trained 3-task
sequence at k = 1 and 2.

Run from the repository root:  PYTHONPATH=src python tests/make_golden.py
"""

import base64
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from cclab import cli
from cclab.bounds import population_bound_check
from cclab.continual import RunConfig, run_sequence
from cclab.data import make_blob_sequence
from cclab.trainer import SgdConfig

GOLDEN = Path(__file__).resolve().parent / "golden.json"
TRAIN = {"tasks": 4, "points_per_class": 6, "epochs": 3, "probe_epochs": 5}
TRAIN_MODES = ("theorem2", "max")
TRAIN_FILES = ("trace.json", "epochs.csv", "final.ckpt", "final.ckpt.json")
BOUNDS_FILES = ("bounds.csv", "turning_point.json")


def platform_key() -> dict:
    """What decides whether outputs can be compared byte for byte."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def certify() -> dict:
    """population_bound_check on one trained 3-task max-mode sequence."""
    tasks = make_blob_sequence(3, points_per_class=6, seed=0)
    cfg = RunConfig(hidden=8, embed_dim=4, sgd=SgdConfig(epochs=6), mode="max", buffer_size=6)
    res = run_sequence(tasks, cfg)
    dists = [t.train for t in tasks]
    support = np.concatenate([d.points for d in dists])
    embeddings = [enc.snapshot(support) for enc in res.task_models]
    lambdas = [r.lam for r in res.trace.records[1:]]
    doc = {}
    for k in (1, 2):
        upper, lower, realized = population_bound_check(embeddings, dists, lambdas, k)
        doc[str(k)] = {"train_losses": upper.train_losses, "realized": realized,
                       "upper": upper.value, "lower": lower.value}
    return doc


def outputs(work: Path) -> dict[str, bytes]:
    """Every pinned output by name; the commands write under ``work``."""
    out = {}
    for mode in TRAIN_MODES:
        config, run = work / f"train-{mode}.json", work / f"train-{mode}"
        config.write_text(json.dumps(dict(TRAIN, mode=mode)))
        if cli.main(["train", "--config", str(config), "--out", str(run)]) != 0:
            raise RuntimeError(f"cclab train failed in the {mode} mode")
        out.update({f"train/{mode}/{name}": (run / name).read_bytes() for name in TRAIN_FILES})
    if cli.main(["bounds", "--out", str(work / "bounds")]) != 0:
        raise RuntimeError("cclab bounds failed")
    out.update({f"bounds/{name}": (work / "bounds" / name).read_bytes() for name in BOUNDS_FILES})
    out["certify.json"] = json.dumps(certify(), sort_keys=True).encode()
    return out


def encode(name: str, blob: bytes) -> str:
    return base64.b64encode(blob).decode() if name.endswith(".ckpt") else blob.decode()


def decode(name: str, text: str) -> bytes:
    return base64.b64decode(text) if name.endswith(".ckpt") else text.encode()


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        files = {name: encode(name, blob) for name, blob in outputs(Path(work)).items()}
    doc = {**platform_key(), "files": files}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(files)} outputs to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
