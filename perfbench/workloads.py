"""The three benchmark workloads.

Each workload is a closed loop with one client: the harness asks for the
units of one cycle, runs them one after another and checks each output
before starting the next. ``setup`` builds every input from the workload
seed; ``run`` is the timed call into the public ``cclab`` functions;
``check`` is the per-unit correctness gate and raises ``GateFailure``.

Every ``cclab`` function is looked up on its module at call time
(``bounds.lemma1_trials``, never a name imported into this file), so the
tracer's attribute patches see every call.

Rationale and predictions are in each class docstring; the layer-by-layer
no-change pairings are tabulated in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from cclab import bounds, cli, continual, core, data, trainer

MODES = ("fixed", "pure", "min", "max", "theorem2")


class GateFailure(Exception):
    """A unit produced an output that fails its correctness check."""


@dataclass(frozen=True)
class Unit:
    cell: str  # latency class reported separately in the detail line
    key: tuple  # identifies the unit's inputs for recurrence and reference checks


def _sha256(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def _within(a, b, tol: float) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= tol for x, y in zip(a, b))


class ExactSandwich:
    """Unit: one sweep over the (support n, negatives k) cells (4,1),
    (4,2), (4,5) and (8,3), as ``cclab verify`` sweeps its k values: per
    cell, one ``bounds.lemma1_trials`` plus one
    ``bounds.decomposition_check_trials`` call on the same small batch of
    random (model, model, distribution) triples.

    Why: the shape of ``cclab verify`` and acceptance criteria 1-2. Time
    goes to enumerating n^k ordered negatives over few same-class pairs
    (``losses.population_*`` and ``core.negative_combos``), and k=5
    dominates: with 20, 25, 16 and 3 trials the cells took ~25, ~40,
    ~300 and ~75 ms of a ~450 ms unit at the commit that defined the
    benchmark.

    Stresses: core, losses (population kernels), bounds.
    Bypasses: trainer, continual, cli, data. An enumeration speed-up must
    show here; a trainer speed-up must not.

    The unit is the whole sweep, not one cell: on a shared 2-core VM
    whose speed drifts by tens of percent over seconds, the median of one
    short cell's units follows whichever speed held for most of the run,
    where the median of sweeps follows the average speed. Each cell's own
    median time is kept in the detail line (``workload_state.cells``).
    Trial seeds come from a fixed pool of ``POOL`` per cell, in an order
    drawn from the workload seed, so each cell of each unit can be
    compared to a stored reference.
    """

    name = "exact-sandwich"
    CELLS = ((4, 1, 20), (4, 2, 25), (4, 5, 16), (8, 3, 3))  # (n, k, trials)
    POOL = 256

    def __init__(self, seed: int, reference: dict | None, alpha_corruption: float = 0.0):
        self.seed = seed
        self.reference = reference and reference[self.name]
        self.alpha_corruption = alpha_corruption

    @staticmethod
    def cell_name(n: int, k: int) -> str:
        return f"n{n}k{k}"

    def setup(self, root: Path) -> None:
        rng = np.random.default_rng(self.seed)
        self.order = [rng.permutation(self.POOL) for _ in self.CELLS]
        self.cell_s = {self.cell_name(n, k): [] for n, k, _ in self.CELLS}
        self.run(Unit("sweep", (0,)))  # warm-up
        for times in self.cell_s.values():
            times.clear()

    def cycle(self, i: int) -> list[Unit]:
        return [Unit("sweep", (i % self.POOL,))]

    def trial_seeds(self, unit: Unit) -> list[int]:
        return [int(order[unit.key[0]]) for order in self.order]

    def run_cell(self, c: int, seed: int) -> list[float]:
        n, k, trials = self.CELLS[c]
        up, lo = bounds.lemma1_trials(
            trials, k, seed=seed, support_size=n, alpha_corruption=self.alpha_corruption
        )
        res = bounds.decomposition_check_trials(trials, k, seed=seed, support_size=n)
        return [up, lo, res]

    def run(self, unit: Unit):
        out = []
        for c, seed in enumerate(self.trial_seeds(unit)):
            t0 = perf_counter()
            out.append(self.run_cell(c, seed))
            n, k, _ = self.CELLS[c]
            self.cell_s[self.cell_name(n, k)].append(perf_counter() - t0)
        return out

    def check(self, unit: Unit, out) -> None:
        for (n, k, _), seed, (up, lo, res) in zip(self.CELLS, self.trial_seeds(unit), out):
            cell = self.cell_name(n, k)
            if not (up >= -1e-10 and lo >= -1e-10):
                raise GateFailure(f"{unit} {cell}: sandwich violated, slacks {up!r} {lo!r}")
            if not res <= 1e-10:
                raise GateFailure(f"{unit} {cell}: decomposition residual {res!r}")
            if self.reference is not None:
                ref = self.reference[cell][seed]
                if not _within([up, lo, res], ref, 1e-12):
                    raise GateFailure(f"{unit} {cell}: {[up, lo, res]!r} differs from "
                                      f"reference {ref!r}")

    def summary(self) -> dict:
        return {"cells": {c: {"n": len(v), "p50_ms": statistics.median(v) * 1e3}
                          for c, v in self.cell_s.items() if v}}


class ContinualTrain:
    """Unit: one in-process ``cli.main(["train", ...])`` with stdout
    captured and output written to a fresh directory under the work dir,
    at the acceptance-criterion-9 shape: 5 blob tasks, 10 points/class,
    hidden 16, embed 4, 40 epochs, buffer 50, 100-epoch probe. Each cycle
    runs the five lambda modes in turn for one training seed; the run uses
    ``SEEDS_PER_RUN`` seeds drawn from a pool by the workload seed, so
    every (mode, seed) recurs within a run.

    Why: time goes to ``trainer.grad_total``/``sgd_step``, the batch
    SupCon/IRD estimators and the ``continual`` loop, at 2N <= 64 rows per
    batch, so the loop is bound by Python overhead.

    Stresses: trainer, losses (batch estimators), continual, cli, data;
    writes checkpoints. Bypasses: the population kernels and bounds except
    ``compute_U`` (theorem2 mode). The fused batch-loss kernel and the
    flat-parameter encoder must show here and not in exact-sandwich.
    """

    name = "continual-train"
    SEED_POOL = 32
    SEEDS_PER_RUN = 4
    SHAPE = {
        "tasks": 5, "classes_per_task": 2, "points_per_class": 10,
        "hidden": 16, "embed_dim": 4, "epochs": 40, "batch_size": 32,
        "lr": 0.05, "buffer_size": 50, "probe_epochs": 100,
    }
    OUTPUTS = ("trace.json", "epochs.csv", "final.ckpt")

    def __init__(self, seed: int, reference: dict | None):
        self.seed = seed
        self.reference = reference and reference[self.name]

    def setup(self, root: Path) -> None:
        rng = np.random.default_rng(self.seed)
        self.prepare(root, [int(s) for s in rng.choice(
            self.SEED_POOL, self.SEEDS_PER_RUN, replace=False)])
        warm = Unit(MODES[0], (MODES[0], self.seeds[0]))
        self.check(warm, self.run(warm))
        self.digest_changes = 0

    def prepare(self, root: Path, seeds: list[int]) -> None:
        """Write one train config per (mode, seed) under ``root``."""
        self.seeds = seeds
        self.root = root
        (root / "configs").mkdir(parents=True, exist_ok=True)
        for seed in seeds:
            for mode in MODES:
                doc = dict(self.SHAPE, mode=mode, seed=seed, data_seed=seed)
                self._config(mode, seed).write_text(json.dumps(doc, sort_keys=True))
        self.digests: dict[tuple, tuple] = {}
        self.digest_changes = 0
        self.counter = 0

    def _config(self, mode: str, seed: int) -> Path:
        return self.root / "configs" / f"{mode}-{seed}.json"

    def cycle(self, i: int) -> list[Unit]:
        seed = self.seeds[i % len(self.seeds)]
        return [Unit(mode, (mode, seed)) for mode in MODES]

    def run(self, unit: Unit):
        self.counter += 1
        out = self.root / f"unit{self.counter}"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["train", "--config", str(self._config(*unit.key)),
                             "--out", str(out)])
        return code, out

    def check(self, unit: Unit, result) -> None:
        code, out = result
        try:
            if code != 0:
                raise GateFailure(f"{unit}: exit code {code}")
            rows = (out / "epochs.csv").read_text().splitlines()[1:]
            losses = [float(v) for row in rows for v in row.split(",")[2:4]]
            if not rows or not all(math.isfinite(v) for v in losses):
                raise GateFailure(f"{unit}: missing or non-finite epoch losses")
            digest = tuple(_sha256(out / name) for name in self.OUTPUTS)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        seen = self.digests.setdefault(unit.key, digest)
        if seen != digest:
            raise GateFailure(f"{unit}: outputs differ from an earlier run of the same config")
        if self.reference is not None:
            ref = self.reference.get(f"{unit.key[0]}-{unit.key[1]}")
            if ref is not None and tuple(ref) != digest:
                self.digest_changes += 1

    def summary(self) -> dict:
        return {"seeds": self.seeds, "digest_changes": self.digest_changes}


@dataclass
class _Sequence:
    """One trained 5-task sequence: its checkpoints and task distributions."""

    seed: int
    paths: list[Path]
    dists: list
    support: np.ndarray
    weights: list


class CertifyTrained:
    """Setup trains ``SEQUENCES`` 5-task sequences (seeds drawn from a pool
    by the workload seed, lambda mode rotating with the seed) and saves
    every task model's checkpoint. Unit: certify one sequence at one k:
    ``load_checkpoint`` its five models, ``snapshot`` them to table models
    on the joint support, ``continual.population_bound_check``, then a
    400-point ``theorem1_upper``/``theorem1_lower`` lambda grid plus
    ``turning_point`` on the resulting training losses. A cycle certifies
    every sequence at k=1 and then one sequence, in rotation, at k=2, so
    the median falls among the k=1 units and the tail among the k=2 ones.

    Why: the opposite shape to exact-sandwich. Seen-data mixtures reach
    64 support points with few negatives, so there are many pairs and a
    modest n^k; the k=2 unit holds (P, M, k+1) logits of several hundred
    MB, which makes ``peak_rss_mb`` meaningful. It also exercises
    byte-keyed ``TableModel`` lookups and the read side of checkpoints.

    Stresses: losses (population kernels at large P), core (pairs,
    mixtures, table lookups), bounds, trainer (checkpoint reads; training
    in setup). Bypasses: cli, the batch estimators inside units. An
    optimisation that pays only at large k should show no gain here.
    """

    name = "certify-trained"
    SEED_POOL = 16
    SEQUENCES = 3
    GRID = np.linspace(0.01, 20.0, 400)
    T = 5

    def __init__(self, seed: int, reference: dict | None):
        self.seed = seed
        self.reference = reference and reference[self.name]

    @classmethod
    def train_sequence(cls, seed: int, root: Path) -> _Sequence:
        tasks = data.make_blob_sequence(cls.T, 2, 10, seed=seed)
        cfg = continual.RunConfig(
            hidden=16, embed_dim=4,
            sgd=trainer.SgdConfig(lr=0.05, epochs=40, batch_size=32, seed=seed),
            mode=MODES[seed % len(MODES)], lam0=1.0, buffer_size=50, seed=seed,
        )
        res = continual.run_sequence(tasks, cfg)
        root.mkdir(parents=True)
        paths = []
        for t, (enc, rec) in enumerate(zip(res.task_models, res.trace.records), start=1):
            path = root / f"task{t}.ckpt"
            trainer.save_checkpoint(enc, path, seed=seed, task=t,
                                    lam=rec.lam or 0.0, temps=cfg.temps)
            paths.append(path)
        dists = [t.train for t in tasks]
        weights = [
            core.MixtureWeights(task_index=t, weights=np.full(t - 1, 1.0 / (t - 1)))
            for t in range(2, cls.T + 1)
        ]
        return _Sequence(seed, paths, dists,
                         np.concatenate([d.points for d in dists]), weights)

    def setup(self, root: Path) -> None:
        rng = np.random.default_rng(self.seed)
        seeds = [int(s) for s in rng.choice(self.SEED_POOL, self.SEQUENCES, replace=False)]
        self.sequences = {s: self.train_sequence(s, root / f"seq{s}") for s in seeds}
        self.order = seeds
        self.seen: dict[tuple, list] = {}
        self.digest_changes = 0
        warm = Unit("k1", (seeds[0], 1))
        self.check(warm, self.run(warm))
        self.digest_changes = 0

    def cycle(self, i: int) -> list[Unit]:
        units = [Unit("k1", (s, 1)) for s in self.order]
        units.append(Unit("k2", (self.order[i % len(self.order)], 2)))
        return units

    def run(self, unit: Unit):
        seed, k = unit.key
        seq = self.sequences[seed]
        loaded = [trainer.load_checkpoint(p) for p in seq.paths]
        models = [enc.snapshot(seq.support) for enc, _ in loaded]
        lambdas = [manifest["lambda"] for _, manifest in loaded[1:]]
        upper, lower, realized = continual.population_bound_check(
            models, seq.dists, lambdas, k=k
        )
        uppers = [bounds.theorem1_upper(upper.train_losses, seq.weights, lam, k=k).value
                  for lam in self.GRID]
        lowers = [bounds.theorem1_lower(upper.train_losses, seq.weights, lam, k=k).value
                  for lam in self.GRID]
        lam_star = bounds.turning_point(seq.weights)
        return upper, lower, realized, uppers, lowers, lam_star

    @staticmethod
    def values(result) -> dict:
        upper, lower, realized, *_ = result
        return {"train_losses": upper.train_losses, "realized": realized,
                "upper": upper.value, "lower": lower.value}

    def check(self, unit: Unit, result) -> None:
        upper, lower, realized, uppers, _, lam_star = result
        if not lower.value - 1e-9 <= realized <= upper.value + 1e-9:
            raise GateFailure(f"{unit}: {lower.value!r} <= {realized!r} <= {upper.value!r} fails")
        if np.any(np.diff(uppers) > 1e-9):
            raise GateFailure(f"{unit}: upper bound increases along the lambda grid")
        if not lam_star > 0:
            raise GateFailure(f"{unit}: turning point {lam_star!r}")
        got = self.values(result)
        flat = got["train_losses"] + [got["realized"]]
        seen = self.seen.setdefault(unit.key, flat)
        if not _within(flat, seen, 1e-12):
            raise GateFailure(f"{unit}: losses differ from an earlier certification")
        if self.reference is None:
            return
        seed, k = unit.key
        ref = self.reference[str(seed)]
        if _sha256(*self.checkpoint_files(seed)) != ref["digest"]:
            self.digest_changes += 1
            return
        want = ref[f"k{k}"]
        if not _within(flat, want["train_losses"] + [want["realized"]], 1e-12):
            raise GateFailure(f"{unit}: losses differ from the reference on identical checkpoints")

    def checkpoint_files(self, seed: int) -> list[Path]:
        paths = self.sequences[seed].paths
        return paths + [p.with_suffix(p.suffix + ".json") for p in paths]

    def summary(self) -> dict:
        return {"sequence_seeds": self.order, "digest_changes": self.digest_changes}


WORKLOADS = {w.name: w for w in (ExactSandwich, ContinualTrain, CertifyTrained)}
