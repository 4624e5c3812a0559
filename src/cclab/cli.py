"""Command-line surface: theory verification suites, training runs, linear
probing, bound sweeps over the distillation coefficient, and hyperparameter
sweeps.

Exit codes: 0 success, 1 property violation, 2 configuration error,
3 I/O error. Every command writes a manifest sufficient to reproduce it.
JSON in, JSON/CSV out; plotting is downstream of the CSVs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    _theorem1_constants,
    analytic_min_contrastive,
    constants,
    decomposition_check_trials,
    lemma1_trials,
    theorem1_lower,
    theorem1_upper,
    turning_point,
)
from .continual import DegenerateTraining, RunConfig, probe_run, run_sequence
from .core import MAX_K, MAX_TABLE_ENTRIES
from .data import (
    ScenarioSpec,
    make_blob_sequence,
    scenario_train_losses,
    scenario_weights,
)
from .trainer import (
    Encoder,
    SgdConfig,
    Temperatures,
    _param_count,
    finite_diff_check,
    load_checkpoint,
    save_checkpoint,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(ValueError):
    pass


SEED_KEYS = ("seed", "data_seed")  # any int seeds numpy; every other int must fit int64


def _check_config(cfg, defaults: dict) -> None:
    """A config is a JSON object of known keys, each value of its default's
    type. An int may stand for a float and a bool only for a bool; a value
    that stands for a float must be finite and fit one, and an int count or
    size must fit int64."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, not {type(cfg).__name__}")
    unknown = set(cfg) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in cfg.items():
        want = type(defaults[key])
        if not (type(value) is want or (want is float and type(value) is int)):
            raise ConfigError(f"{key} must be of type {want.__name__}, got {value!r}")
        if want is float and not abs(value) <= sys.float_info.max:  # NaN too
            raise ConfigError(f"{key} must be finite, got {value!r}")
        if want is int and key not in SEED_KEYS and not -(2**63) <= value < 2**63:
            raise ConfigError(f"{key} must fit a 64-bit integer, got {value!r}")


def _load_config(path: str | None, defaults: dict) -> dict:
    """Merge a JSON config over defaults, rejecting unknown keys and values
    of the wrong type."""
    cfg = dict(defaults)
    if path:
        try:
            user = json.loads(Path(path).read_text())
        except OSError as exc:
            raise OSError(f"cannot read config: {exc}") from exc
        except ValueError as exc:  # not UTF-8 text or not JSON
            raise ConfigError(f"config is not JSON: {exc}") from exc
        _check_config(user, defaults)
        cfg.update(user)
    return cfg


def _write_manifest(out: Path, command: str, cfg: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(
        json.dumps(
            {"command": command, "config": cfg, "version": __version__},
            sort_keys=True,
            indent=2,
        )
    )


VERIFY_DEFAULTS = {
    "trials": 200,
    "ks": [1, 2, 5],
    "seed": 0,
    "support_size": 4,
    "dimension": 3,
    "embed_dim": 4,
    "grad_seeds": 5,
    "alpha_corruption": 0.0,  # test hook: shifts alpha to force a failure
}


# the least value of each integer verify key; ks holds ints in 1..MAX_K
VERIFY_MINIMA = {
    "trials": 1, "support_size": 1, "dimension": 1, "embed_dim": 1, "grad_seeds": 0,
    "seed": 0,
}


def cmd_verify(cfg: dict, out: Path) -> int:
    ks = cfg["ks"]
    if not ks or not all(type(k) is int and 1 <= k <= MAX_K for k in ks):
        raise ConfigError(f"ks must be a non-empty list of ints in 1..{MAX_K}, got {ks!r}")
    for key, least in VERIFY_MINIMA.items():
        if cfg[key] < least:
            raise ConfigError(f"{key} must be >= {least}, got {cfg[key]!r}")
    n = cfg["support_size"]
    if max(n * math.comb(n + k - 1, k) for k in ks) > MAX_TABLE_ENTRIES:
        raise ConfigError(f"support_size {n} and ks {ks} exceed {MAX_TABLE_ENTRIES} entries")
    if n * (cfg["dimension"] + 2 * cfg["embed_dim"]) > MAX_TABLE_ENTRIES:  # a trial's normals
        raise ConfigError(
            f"support_size {n} with dimension {cfg['dimension']} and embed_dim "
            f"{cfg['embed_dim']} exceeds {MAX_TABLE_ENTRIES} entries per trial"
        )
    report = {"constants": {}, "lemma1": {}, "decomposition": {}, "gradients": {}}
    failures = []
    for k in cfg["ks"]:
        c = constants(k)
        report["constants"][str(k)] = {
            "alpha": c.alpha, "beta": c.beta, "beta_prime": c.beta_prime,
        }
        if c.beta <= 0 or c.beta_prime >= 0:
            failures.append(f"constants sanity failed at k={k}")
        worst_up, worst_lo = lemma1_trials(
            trials=cfg["trials"], k=k, seed=cfg["seed"],
            support_size=cfg["support_size"], dimension=cfg["dimension"],
            embed_dim=cfg["embed_dim"],
            alpha_corruption=cfg["alpha_corruption"],
        )
        report["lemma1"][str(k)] = {
            "worst_upper_slack": worst_up, "worst_lower_slack": worst_lo,
        }
        if worst_up < -1e-10 or worst_lo < -1e-10:
            failures.append(f"loss sandwich violated at k={k}")
        worst_res = decomposition_check_trials(
            trials=cfg["trials"], k=k, seed=cfg["seed"] + 1,
            support_size=cfg["support_size"], dimension=cfg["dimension"],
            embed_dim=cfg["embed_dim"],
        )
        report["decomposition"][str(k)] = {"worst_residual": worst_res}
        if worst_res > 1e-10:
            failures.append(f"cross-entropy decomposition violated at k={k}")
    rng = np.random.default_rng(cfg["seed"])
    worst_grad = 0.0
    for s in range(cfg["grad_seeds"]):
        enc = Encoder((2, 16, 8), seed=s)
        prev = Encoder((2, 16, 8), seed=s + 1000)
        pts = rng.standard_normal((8, 2))
        labels = np.repeat(np.arange(4), 2)
        worst_grad = max(
            worst_grad,
            finite_diff_check(enc, prev, pts, labels, 1.0, Temperatures()),
        )
    report["gradients"] = {"worst_relative_error": worst_grad}
    if worst_grad > 1e-4:
        failures.append("gradient check failed")
    report["failures"] = failures
    (out / "verify_report.json").write_text(json.dumps(report, sort_keys=True, indent=2))
    if failures:
        print("FAIL: " + "; ".join(failures))
        return EXIT_VIOLATION
    print("verify: all properties hold")
    return EXIT_OK


# The train/probe/sweep keys are the data shape plus a field of RunConfig or
# SgdConfig under its own name, or of Temperatures as tau_<field>, with that
# field's default. Not keys: RunConfig's nested sgd and temps, the Theorem 2
# threshold u_t and step delta_t (no command sets them), and SgdConfig.seed,
# which follows the run seed.
DATA_DEFAULTS = {
    "tasks": 3, "classes_per_task": 2, "points_per_class": 20, "d_in": 2, "data_seed": 0,
}
_SECTIONS = (
    (RunConfig, "", ("sgd", "temps", "u_t", "delta_t")),
    (SgdConfig, "", ("seed",)),
    (Temperatures, "tau_", ()),
)
TRAIN_FIELDS = {
    prefix + f.name: (cls, f)
    for cls, prefix, skip in _SECTIONS
    for f in fields(cls)
    if f.name not in skip
}
RUN_DEFAULTS = dict(DATA_DEFAULTS, **{k: f.default for k, (_, f) in TRAIN_FIELDS.items()})


def _run_from_config(cfg: dict):
    """Task sequence and RunConfig of a train-style config; a value they
    reject is a ConfigError."""
    try:
        tasks = make_blob_sequence(
            cfg["tasks"], cfg["classes_per_task"], cfg["points_per_class"],
            cfg["d_in"], seed=cfg["data_seed"],
        )
        args = {cls: {} for cls, _, _ in _SECTIONS}
        for key, (cls, f) in TRAIN_FIELDS.items():
            args[cls][f.name] = cfg[key]
        run_cfg = RunConfig(
            sgd=SgdConfig(seed=cfg["seed"], **args[SgdConfig]),
            temps=Temperatures(**args[Temperatures]),
            **args[RunConfig],
        )
        n_params = _param_count((cfg["d_in"], cfg["hidden"], cfg["embed_dim"]))
        if n_params > MAX_TABLE_ENTRIES:
            raise ValueError(f"an encoder of {n_params} parameters exceeds {MAX_TABLE_ENTRIES}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return tasks, run_cfg


# config keys a train run records in its checkpoint's sidecar, beside its
# seed and task count, so a probe on another task stream or buffer is refused
STREAM_KEYS = ("data_seed", "classes_per_task", "points_per_class", "buffer_size")


def cmd_train(cfg: dict, out: Path) -> int:
    tasks, run_cfg = _run_from_config(cfg)
    result = run_sequence(tasks, run_cfg)
    enc, trace = result.encoder, result.trace
    probe = probe_run(tasks, run_cfg, enc)
    trace.probe = asdict(probe)
    (out / "trace.json").write_text(trace.to_json())
    (out / "epochs.csv").write_text(trace.epoch_csv())
    save_checkpoint(
        enc, out / "final.ckpt", seed=cfg["seed"], task=cfg["tasks"],
        lam=trace.records[-1].lam or 0.0, temps=run_cfg.temps,
        **{key: cfg[key] for key in STREAM_KEYS},
    )
    print(f"train: {cfg['tasks']} tasks done, avg probe accuracy "
          f"{probe.average_accuracy:.3f}")
    return EXIT_OK


PROBE_DEFAULTS = dict(RUN_DEFAULTS, checkpoint="")


def cmd_probe(cfg: dict, out: Path) -> int:
    tasks, run_cfg = _run_from_config(cfg)
    if cfg["checkpoint"]:
        try:
            enc, sidecar = load_checkpoint(cfg["checkpoint"])
        except ValueError as exc:
            raise OSError(f"corrupt checkpoint {cfg['checkpoint']}: {exc}") from exc
        if enc.dims[0] != cfg["d_in"]:
            raise ConfigError(
                f"checkpoint input width {enc.dims[0]} does not match d_in {cfg['d_in']}"
            )
        # the buffer and the probe follow the seed and the task stream, and the
        # encoder must be the last task's; a sidecar without the stream keys
        # is checked on the seed and task only
        recorded = [(key, key) for key in STREAM_KEYS if key in sidecar]
        for key, name in (("seed", "seed"), ("task", "tasks"), *recorded):
            if sidecar.get(key) != cfg[name]:
                raise ConfigError(
                    f"checkpoint {key} {sidecar.get(key)!r} does not match {name} {cfg[name]!r}"
                )
    else:
        enc = run_sequence(tasks, run_cfg).encoder
    probe = probe_run(tasks, run_cfg, enc)
    (out / "probe.json").write_text(json.dumps(asdict(probe), sort_keys=True, indent=2))
    lines = ["task,accuracy"] + [
        f"{i + 1},{a!r}" for i, a in enumerate(probe.per_task_accuracy)
    ]
    (out / "probe.csv").write_text("\n".join(lines) + "\n")
    print(f"probe: average accuracy {probe.average_accuracy:.3f}")
    return EXIT_OK


BOUNDS_DEFAULTS = {
    "scenario": "example1",
    "T": 5,
    "rho": 1.0,
    "base_loss": 1.0,
    "loss_rule": "equal",
    "k": 1,
}


def _parse_grid(spec: str) -> np.ndarray:
    """The lambda grid of a start:stop:count spec with finite ends and a
    count in 0..MAX_TABLE_ENTRIES, checked before it is built."""
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}, want start:stop:count") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(f"grid ends must be finite, got {spec!r}")
    if not 0 <= count <= MAX_TABLE_ENTRIES:
        raise ConfigError(f"grid count must lie in 0..{MAX_TABLE_ENTRIES}, got {count}")
    return np.linspace(start, stop, count)


def cmd_bounds(cfg: dict, out: Path, grid_spec: str) -> int:
    grid = _parse_grid(grid_spec)
    try:
        spec = ScenarioSpec(
            T=cfg["T"], weight_rule=cfg["scenario"], rho=cfg["rho"],
            loss_rule=cfg["loss_rule"], base_loss=cfg["base_loss"],
        )
        weights = scenario_weights(spec)
        losses = scenario_train_losses(spec)
        _theorem1_constants(cfg["k"], cfg["T"])  # a bad k or T would skip every grid point
        if min(losses) < analytic_min_contrastive(cfg["k"]):  # the bound's premise
            raise ValueError(f"training losses must be >= log(1 + k e^-2), got {min(losses)!r}")
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lam_star = turning_point(weights)
    rows = ["lambda,upper,lower"]
    uppers = []
    for lam in grid:
        try:
            up = theorem1_upper(losses, weights, lam, k=cfg["k"]).value
            lo = theorem1_lower(losses, weights, lam, k=cfg["k"]).value
        except ValueError as exc:
            print(f"warning: skipping grid point {lam}: {exc}", file=sys.stderr)
            continue
        uppers.append(up)
        rows.append(f"{float(lam)!r},{float(up)!r},{float(lo)!r}")
    (out / "bounds.csv").write_text("\n".join(rows) + "\n")
    (out / "turning_point.json").write_text(
        json.dumps({"lambda_star": lam_star}, sort_keys=True)
    )
    print(f"bounds: turning point at lambda = {lam_star:g}")
    diffs = np.diff(uppers)
    if np.any(diffs > 1e-9):
        print("FAIL: upper bound increased along the grid")
        return EXIT_VIOLATION
    return EXIT_OK


SWEEP_DEFAULTS = dict(RUN_DEFAULTS, vary="mode", values=["fixed", "max"], seeds=[0, 1])


def _sweep_cell(cell: dict) -> float:
    tasks, run_cfg = _run_from_config(cell)
    return probe_run(tasks, run_cfg, run_sequence(tasks, run_cfg).encoder).average_accuracy


def cmd_sweep(cfg: dict, out: Path) -> int:
    vary, values, seeds = cfg["vary"], cfg["values"], cfg["seeds"]
    if vary not in ("lam0", "kappa", "mode"):  # the seeds list varies the seed
        raise ConfigError(f"cannot vary {vary!r}")
    base = {k: v for k, v in cfg.items() if k not in ("vary", "values", "seeds")}
    cells = [dict(base, **{vary: v, "seed": s}) for v in values for s in seeds]
    for cell in [base] + cells:  # a bad value fails here, not in a worker
        _check_config(cell, RUN_DEFAULTS)
        _run_from_config(cell)
    from concurrent.futures import ProcessPoolExecutor  # only sweep needs the process pool
    results, errors = [], []
    with ProcessPoolExecutor() as pool:
        for cell, res in zip(cells, pool.map(_sweep_cell_safe, cells)):
            if isinstance(res, str):
                errors.append((cell[vary], cell["seed"], res))
            else:
                results.append((cell[vary], res))
    rows = ["value,mean_accuracy,std_accuracy,n_seeds"]
    for v in values:
        accs = [a for val, a in results if val == v]
        if accs:
            rows.append(
                f"{v},{float(np.mean(accs))!r},{float(np.std(accs))!r},{len(accs)}"
            )
        else:
            rows.append(f"{v},nan,nan,0")
    (out / "sweep.csv").write_text("\n".join(rows) + "\n")
    if errors:
        (out / "sweep_errors.json").write_text(json.dumps(
            [{"value": str(v), "seed": s, "error": e} for v, s, e in errors]
        ))
        print(f"sweep: {len(errors)} cells failed")
        return EXIT_VIOLATION
    print(f"sweep: {len(results)} cells done")
    return EXIT_OK


def _sweep_cell_safe(cell: dict):
    try:
        return _sweep_cell(cell)
    except DegenerateTraining:  # a config fault: main reports it, as for train
        raise
    except Exception as exc:  # recorded per cell, surfaced via exit code
        return f"{type(exc).__name__}: {exc}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="cclab",
        description="contrastive continual learning laboratory",
    )
    parser.add_argument("command",
                        choices=["verify", "train", "probe", "bounds", "sweep"])
    parser.add_argument("--config", default=None, help="JSON config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--grid", default="0.01:20:400",
                        help="lambda grid as start:stop:count (bounds)")
    args = parser.parse_args(argv)
    defaults = {
        "verify": VERIFY_DEFAULTS,
        "train": RUN_DEFAULTS,
        "probe": PROBE_DEFAULTS,
        "bounds": BOUNDS_DEFAULTS,
        "sweep": SWEEP_DEFAULTS,
    }[args.command]
    try:
        cfg = _load_config(args.config, defaults)
        if args.seed is not None and "seed" in cfg:
            cfg["seed"] = args.seed
        out = Path(args.out)
        _write_manifest(out, args.command, cfg)
        if args.command == "verify":
            return cmd_verify(cfg, out)
        if args.command == "train":
            return cmd_train(cfg, out)
        if args.command == "probe":
            return cmd_probe(cfg, out)
        if args.command == "bounds":
            return cmd_bounds(cfg, out, args.grid)
        return cmd_sweep(cfg, out)
    except (ConfigError, DegenerateTraining) as exc:  # the config's values give no run
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
