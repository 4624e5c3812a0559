"""Writes tests/golden.json: the outputs that the Theorem 1 chain and the
training loop produce at small configs, with the numpy version and
machine that wrote them. ``tests/test_golden.py`` recomputes the same
outputs with ``outputs()`` and compares them with the file.

Pinned: ``cclab train``'s four output files in every λ mode (theorem2's
coefficients come from ``compute_U``), ``cclab probe``'s two files on
the max run with and without its checkpoint, ``cclab verify``'s report
without the finite-difference check (its errors move with matmul
rounding, and criterion 7 checks them), a 2-cell ``cclab sweep``,
``cclab bounds``' two files at defaults, and the training losses,
realized test loss and both bound values of ``population_bound_check``
on one trained 3-task sequence at k = 1 and 2.

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
TRAIN_MODES = ("theorem2", "max", "fixed", "pure", "min")
TRAIN_FILES = ("trace.json", "epochs.csv", "final.ckpt", "final.ckpt.json")
PROBE_FILES = ("probe.json", "probe.csv")
BOUNDS_FILES = ("bounds.csv", "turning_point.json")
SWEEP = dict(TRAIN, values=["fixed", "max"], seeds=[0])


def platform_key() -> dict:
    """What decides whether outputs can be compared byte for byte."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "machine": platform.machine(),
            "blas": f"{blas['name']} {blas.get('version')}"}


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

    def run(command: str, name: str, config: dict | None, files: tuple[str, ...]) -> None:
        run_dir = work / name
        args = [command, "--out", str(run_dir)]
        if config is not None:
            run_dir.mkdir(parents=True)
            (run_dir / "config.json").write_text(json.dumps(config))
            args += ["--config", str(run_dir / "config.json")]
        if cli.main(args) != 0:
            raise RuntimeError(f"cclab {command} failed on {name}")
        out.update({f"{name}/{file}": (run_dir / file).read_bytes() for file in files})

    for mode in TRAIN_MODES:
        run("train", f"train/{mode}", dict(TRAIN, mode=mode), TRAIN_FILES)
    ckpt = str(work / "train" / "max" / "final.ckpt")
    run("probe", "probe/max", dict(TRAIN, mode="max"), PROBE_FILES)
    run("probe", "probe/checkpoint", dict(TRAIN, mode="max", checkpoint=ckpt), PROBE_FILES)
    run("verify", "verify", {"grad_seeds": 0}, ("verify_report.json",))
    run("sweep", "sweep", SWEEP, ("sweep.csv",))
    run("bounds", "bounds", None, BOUNDS_FILES)
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
