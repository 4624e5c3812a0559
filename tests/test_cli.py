"""Command-line surface: exit codes, output files, reproducibility."""

import json
import struct
from dataclasses import fields

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cclab import cli
from cclab.cli import (
    BOUNDS_DEFAULTS,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_VIOLATION,
    PROBE_DEFAULTS,
    RUN_DEFAULTS,
    SWEEP_DEFAULTS,
    VERIFY_DEFAULTS,
    main,
)
from cclab.continual import RunConfig
from cclab.trainer import Encoder, SgdConfig, Temperatures, _param_count, save_checkpoint


def write_config(tmp_path, name, doc):
    """Write ``doc`` as JSON, or verbatim if it is already a string."""
    p = tmp_path / name
    p.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(p)


SMALL_TRAIN = {
    "tasks": 2,
    "points_per_class": 6,
    "epochs": 3,
    "probe_epochs": 5,
}
TINY_TRAIN = {"tasks": 2, "points_per_class": 6, "epochs": 2, "probe_epochs": 2}


class TestVerify:
    def test_passes_and_writes_report(self, tmp_path):
        cfg = write_config(tmp_path, "v.json", {"trials": 10, "grad_seeds": 1})
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        report = json.loads((tmp_path / "out" / "verify_report.json").read_text())
        assert report["failures"] == []
        assert set(report["constants"]) == {"1", "2", "5"}

    def test_least_accepted_values_run(self, tmp_path):
        doc = {"trials": 1, "ks": [1, 2], "seed": 0, "support_size": 1,
               "dimension": 1, "embed_dim": 1, "grad_seeds": 0}
        cfg = write_config(tmp_path, "v.json", doc)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_OK

    def test_sabotaged_constants_fail(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, "v.json",
            {"trials": 10, "grad_seeds": 1, "ks": [1], "alpha_corruption": -2.0},
        )
        code = main(["verify", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == EXIT_VIOLATION
        assert "FAIL" in capsys.readouterr().out


COMMAND_DEFAULTS = {
    "verify": VERIFY_DEFAULTS, "train": RUN_DEFAULTS, "probe": PROBE_DEFAULTS,
    "bounds": BOUNDS_DEFAULTS, "sweep": SWEEP_DEFAULTS,
}
# integer keys and values below the least each command accepts
BELOW_RANGE = {
    "verify": {"trials": 0, "support_size": 0, "dimension": 0, "embed_dim": 0,
               "grad_seeds": -1, "seed": -1},
    "train": {"tasks": 0, "classes_per_task": 0, "points_per_class": 1, "d_in": 1, "seed": -1,
              "hidden": 0, "embed_dim": 0, "buffer_size": -1, "probe_epochs": -1},
    "bounds": {"T": 1, "k": 0},
}
BELOW_RANGE["probe"] = BELOW_RANGE["sweep"] = BELOW_RANGE["train"]
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _wrong_type(default, value):
    want = type(default)
    return not (type(value) is want or (want is float and type(value) is int))


def invalid_configs(command):
    """Configs of default entries plus one to three invalid ones: an
    unknown key, a value of the wrong type, a non-finite float or an
    integer below its key's range."""
    defaults = COMMAND_DEFAULTS[command]
    floats = sorted(k for k, v in defaults.items() if type(v) is float)
    below = BELOW_RANGE[command]
    invalid = st.one_of(
        st.tuples(st.text(max_size=8).filter(lambda k: k not in defaults), JSON_VALUES),
        st.sampled_from(sorted(defaults)).flatmap(lambda k: st.tuples(
            st.just(k), JSON_VALUES.filter(lambda v: _wrong_type(defaults[k], v)))),
        st.tuples(st.sampled_from(floats),
                  st.sampled_from([float("nan"), float("inf"), float("-inf")])),
        st.sampled_from(sorted(below)).flatmap(lambda k: st.tuples(
            st.just(k), st.integers(max_value=below[k]))),
    )
    valid = st.lists(st.sampled_from(sorted(defaults)), unique=True)
    return st.tuples(valid, st.lists(invalid, min_size=1, max_size=3)).map(
        lambda parts: {**{k: defaults[k] for k in parts[0]}, **dict(parts[1])}
    )


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


# small valid-typed values per key: every shape key is always given, so a
# run stays at <= 3 tasks and <= 2 epochs; the others are drawn or default
_TRAIN_SHAPE = {
    "tasks": st.integers(1, 3), "classes_per_task": st.integers(1, 3),
    "points_per_class": st.integers(2, 4), "d_in": st.integers(2, 3),
    "epochs": st.integers(1, 2), "probe_epochs": st.integers(1, 2),
    "hidden": st.integers(1, 6), "embed_dim": st.integers(1, 4),
}
_TRAIN_OPTIONAL = {
    "data_seed": st.integers(0, 5), "seed": st.integers(0, 5),
    "mode": st.sampled_from(["fixed", "pure", "min", "max", "theorem2"]),
    "lam0": _floats(0.0, 4.0), "kappa": _floats(0.0, 4.0),
    "buffer_size": st.integers(0, 12), "lr": _floats(0.0, 0.5),
    "batch_size": st.integers(1, 12), "momentum": _floats(0.0, 0.99),
    "tau_contrastive": _floats(0.01, 2.0), "tau_distill_current": _floats(0.01, 2.0),
    "tau_distill_past": _floats(0.01, 2.0),
}
# falsifying examples found by the fuzz, replayed on every run
PINNED_VALID = dict.fromkeys(("train", "probe"), [
    {"tasks": 2, "classes_per_task": 1, "points_per_class": 2, "d_in": 2, "epochs": 1,
     "probe_epochs": 1, "hidden": 1, "embed_dim": 1, "mode": "theorem2", "lam0": 0.0},
])
VALID_CONFIGS = {
    "train": st.fixed_dictionaries(_TRAIN_SHAPE, optional=_TRAIN_OPTIONAL),
    "probe": st.fixed_dictionaries(_TRAIN_SHAPE, optional=_TRAIN_OPTIONAL),
    "bounds": st.fixed_dictionaries({}, optional={
        "scenario": st.sampled_from(["example1", "example2", "example3", "custom"]),
        "T": st.integers(1, 8), "rho": _floats(-2.0, 4.0), "base_loss": _floats(-1.0, 5.0),
        "loss_rule": st.sampled_from(["equal", "geometric", "measured"]),
        "k": st.integers(0, 12),
    }),
    "verify": st.fixed_dictionaries(
        {"trials": st.integers(1, 4), "grad_seeds": st.integers(0, 1),
         "ks": st.lists(st.integers(1, 4), min_size=1, max_size=2)},
        optional={"seed": st.integers(0, 5), "support_size": st.integers(1, 5),
                  "dimension": st.integers(1, 3), "embed_dim": st.integers(1, 3)},
    ),
}


class TestConfigHandling:
    def test_unknown_key_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"no_such_option": 1})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG

    def test_missing_config_is_io_error(self, tmp_path):
        code = main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
        assert code == EXIT_IO

    def test_bad_grid_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, "b.json", {"grid": "oops"})
        code = main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("grid", [
        "0.01:20:8796093022208",  # 2^43 points, refused before any is allocated
        "0.01:20:67108865",  # one above the cap
        "0.01:20:-1",
        "0.01:nan:5",
        "nan:20:5",
        "0.01:inf:5",
        "-inf:1:3",
    ])
    def test_grid_out_of_range_is_config_error(self, tmp_path, capsys, grid):
        cfg = write_config(tmp_path, "b.json", {"grid": grid})
        code = main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "Traceback" not in err
        assert err.startswith("configuration error: grid ") and err.count("\n") == 1
        assert not (tmp_path / "o" / "bounds.csv").exists()

    def test_skipped_grid_points_give_the_evaluators_reason(self, tmp_path, capsys):
        out, cfg = tmp_path / "o", write_config(tmp_path, "b.json", {"grid": "-1:1:3"})
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            "warning: skipping grid point -1.0: distillation coefficient must be non-negative",
            "warning: skipping grid point 0.0: task 2: coefficient 0.0 gives a zero denominator",
        ]
        assert (out / "bounds.csv").read_text().splitlines()[1:] == [
            "1.0,39.56941847216606,-94.48221522960866"]

    @pytest.mark.parametrize("command, doc", [
        ("bounds", {"T": 1}),
        ("bounds", {"k": 0}),
        ("train", {"lr": -1}),
        ("train", {"tasks": 0}),
        ("sweep", dict(SMALL_TRAIN, momentum=1.5)),
        ("train", {"mode": "bogus"}),
        ("train", {"kappa": 0}),
        ("train", {"tau_distill_past": 0}),
        ("train", {"epochs": "many"}),
        ("train", {"tasks": 2.5}),
        ("train", {"lam0": None}),
        ("train", "{not json"),
        ("train", "5"),
        ("train", "null"),
        ("train", "[[1]]"),
        ("verify", {"trials": True}),
        ("bounds", {"rho": float("nan")}),
        ("train", {"lam0": 10**400}),
        ("probe", {"checkpoint": 0}),
        ("sweep", dict(SMALL_TRAIN, vary="lam0", values=["x"])),
        ("sweep", dict(SMALL_TRAIN, vary="lam0", values=[-1.0])),
        ("verify", {"ks": [0]}),
        ("verify", {"ks": ["a"]}),
        ("verify", {"ks": [True]}),
        ("verify", {"ks": []}),
        ("verify", {"embed_dim": 0, "trials": 2}),
        ("verify", {"trials": 0}),
        ("verify", {"support_size": 0}),
        ("verify", {"dimension": 0}),
        ("verify", {"grad_seeds": -1}),
        ("verify", {"seed": -1}),
        ("train", {"seed": -1}),
        ("probe", {"seed": -1}),
        ("sweep", dict(SMALL_TRAIN, seeds=[-1])),
        ("verify", {"support_size": 40, "ks": [40]}),  # C(79, 40) multisets
        ("verify", {"ks": [171]}),  # 171! overflows float64
        ("bounds", {"scenario": "custom"}),  # an unknown weight rule
        ("bounds", {"base_loss": 0.0}),  # below log(1 + k e^-2): the bound rises in lambda
        ("bounds", {"k": 20}),  # log(1 + 20 e^-2) > the default base_loss
        ("train", dict(SMALL_TRAIN, tasks=3, batch_size=1)),  # no contrastive loss to weigh
        ("sweep", {"tasks": 3, "points_per_class": 4, "epochs": 1, "probe_epochs": 1,
                   "batch_size": 1, "values": ["max"], "seeds": [0]}),  # the same, in a cell
        ("train", {"tasks": 3, "mode": "theorem2", "lam0": 0}),  # U_t undefined at lambda = 0
        ("probe", dict(SMALL_TRAIN, mode="theorem2", lam0=0.0)),
        ("sweep", dict(SMALL_TRAIN, mode="theorem2", vary="lam0", values=[1.0, 0.0])),
        ("bounds", {"loss_rule": "measured"}),  # an unknown loss rule
        ("verify", {"trials": 10**30}),  # counts and sizes must fit int64
        ("verify", {"dimension": 10**30}),
        ("verify", {"embed_dim": 10**30}),
        ("train", {"hidden": 10**30}),
        ("bounds", {"k": 10**400}),
        ("bounds", {"T": 2000}),  # alpha^T overflows float64
        ("verify", {"dimension": 2**62, "trials": 1, "ks": [1], "grad_seeds": 0}),  # the draw
        ("verify", {"embed_dim": 2**62, "trials": 1, "ks": [1], "grad_seeds": 0}),
        ("train", {"hidden": 2**62}),  # the encoder's parameters
        ("train", {"embed_dim": 2**62}),
        ("train", {"tasks": 2**62}),  # the blob data
        ("bounds", {"T": 100000, "k": 8, "base_loss": 4.0}),  # T(T - 1)/2 mixture weights
        ("train", dict(TINY_TRAIN, hidden=0)),  # encoder widths and counts below their least
        ("train", dict(TINY_TRAIN, hidden=-3)),
        ("train", dict(TINY_TRAIN, embed_dim=-1)),
        ("train", dict(TINY_TRAIN, embed_dim=0)),
        ("train", dict(TINY_TRAIN, buffer_size=-1)),
        ("train", dict(TINY_TRAIN, probe_epochs=-1)),
        ("probe", dict(TINY_TRAIN, hidden=0)),
        ("probe", dict(TINY_TRAIN, embed_dim=0)),
        ("sweep", dict(TINY_TRAIN, buffer_size=-1)),
        ("sweep", dict(TINY_TRAIN, probe_epochs=-1)),
        # a sweep row per value and a cell per seed: no repeats, none empty
        ("sweep", dict(TINY_TRAIN, values=["max", "max"], seeds=[0, 1])),
        ("sweep", dict(TINY_TRAIN, vary="lam0", values=[1, 1.0])),
        ("sweep", dict(TINY_TRAIN, seeds=[])),
        ("sweep", dict(TINY_TRAIN, values=[])),
        ("sweep", dict(TINY_TRAIN, seeds=[0, 1, 0])),
        ("sweep", dict(TINY_TRAIN, seed=5)),  # the cells' seeds are the seeds list
    ])
    def test_rejected_value_is_config_error(self, tmp_path, capsys, command, doc):
        cfg = write_config(tmp_path, "bad.json", doc)
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "Traceback" not in err
        assert err.startswith("configuration error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", sorted(COMMAND_DEFAULTS))
    def test_fuzzed_invalid_config_is_config_error(self, tmp_path, capsys, command):
        # every generated config holds at least one invalid entry, so each
        # example stops at the config check, before any work
        @given(config=invalid_configs(command))
        @settings(max_examples=25, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
        def run(config):
            cfg = write_config(tmp_path, "fuzz.json", json.dumps(config))
            code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            assert code == EXIT_CONFIG, config
            assert "Traceback" not in err
            assert err.startswith("configuration error: ") and err.count("\n") == 1

        run()

    @pytest.mark.parametrize("command", sorted(VALID_CONFIGS))
    def test_fuzzed_valid_config_exits_cleanly(self, tmp_path, capsys, command):
        # well-typed configs of small shapes either run or are rejected as
        # bad values or unreadable files, never with a traceback
        @given(config=VALID_CONFIGS[command])
        @settings(max_examples=20, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
        def run(config):
            cfg = write_config(tmp_path, "valid.json", config)
            code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
            captured = capsys.readouterr()
            assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO), config
            assert "Traceback" not in captured.out + captured.err

        for config in PINNED_VALID.get(command, ()):  # replayed from every checkout
            run = example(config=config)(run)
        run()

    def test_train_defaults_are_the_dataclass_defaults(self, tmp_path):
        # every train key but the data shape names one field: RunConfig's and
        # SgdConfig's under their own names, Temperatures' as tau_<field>
        out = tmp_path / "o"
        assert main(["train", "--out", str(out)]) == EXIT_OK
        cli_defaults = json.loads((out / "manifest.json").read_text())["config"]
        sections = [
            {f.name: f.default for f in fields(RunConfig)
             if f.name not in ("sgd", "temps", "u_t", "delta_t")},
            {f.name: f.default for f in fields(SgdConfig) if f.name != "seed"},
            {"tau_" + f.name: f.default for f in fields(Temperatures)},
        ]
        data_keys = {"tasks", "classes_per_task", "points_per_class", "d_in", "data_seed"}
        for key, value in cli_defaults.items():
            owners = [s for s in sections if key in s]
            if key in data_keys:
                assert owners == []
            else:
                assert len(owners) == 1, key
                assert value == owners[0][key], key
        assert set(cli_defaults) == data_keys.union(*sections)

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "o"
        cfg = write_config(tmp_path, "b.json", {"grid": "0.5:2:4"})
        main(["bounds", "--config", cfg, "--out", str(out)])
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["command"] == "bounds"
        assert "config" in doc and "version" in doc

    @pytest.mark.parametrize("command", sorted(COMMAND_DEFAULTS))
    def test_manifest_rebuilds_the_run(self, tmp_path, command):
        # the manifest's config is every setting the command ran with: rerun
        # from it, the command writes the same files
        doc = {"verify": {"trials": 2, "ks": [1], "grad_seeds": 0},
               "bounds": {"grid": "0.5:3:4", "T": 3}, "sweep": dict(TINY_TRAIN, seeds=[0])
               }.get(command, TINY_TRAIN)
        first, again = tmp_path / "first", tmp_path / "again"
        cfg = write_config(tmp_path, "c.json", doc)
        assert main([command, "--config", cfg, "--out", str(first)]) == EXIT_OK
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["config"] == dict(COMMAND_DEFAULTS[command], **doc)
        rerun = write_config(tmp_path, "m.json", manifest["config"])
        assert main([command, "--config", rerun, "--out", str(again)]) == EXIT_OK
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (again / path.name).read_bytes(), path.name

    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--grid", "0:1:2"]])
    def test_no_flag_goes_around_the_config(self, tmp_path, capsys, flag):
        # seeds and the bounds grid are config keys, recorded in the manifest
        for command in ("train", "bounds"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--out", str(tmp_path / "o"), *flag])
            assert exc.value.code == EXIT_CONFIG
            assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_help_lists_only_command_config_and_out(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK
        usage = capsys.readouterr().out
        assert "{verify,train,probe,bounds,sweep}" in usage
        options = {w.strip("[],") for w in usage.split() if w.lstrip("[").startswith("-")}
        assert options == {"-h", "--help", "--config", "--out"}


class TestTrain:
    def test_outputs(self, tmp_path):
        cfg = write_config(tmp_path, "t.json", SMALL_TRAIN)
        out = tmp_path / "out"
        assert main(["train", "--config", cfg, "--out", str(out)]) == EXIT_OK
        trace = json.loads((out / "trace.json").read_text())
        assert len(trace["records"]) == 2
        assert trace["probe"]["average_accuracy"] >= 0.0
        csv = (out / "epochs.csv").read_text().splitlines()
        assert csv[0] == "task,epoch,l_con,l_dis,lambda"
        assert len(csv) == 1 + 2 * SMALL_TRAIN["epochs"]
        assert (out / "final.ckpt").exists()
        assert (out / "final.ckpt.json").exists()

    def test_repeat_runs_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path, "t.json", SMALL_TRAIN)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", cfg, "--out", str(a)])
        main(["train", "--config", cfg, "--out", str(b)])
        assert (a / "trace.json").read_bytes() == (b / "trace.json").read_bytes()
        assert (a / "final.ckpt").read_bytes() == (b / "final.ckpt").read_bytes()

    def test_seed_flag_overrides(self, tmp_path):
        # the seed is the config's: there is no flag that overrides it
        a, b = tmp_path / "a", tmp_path / "b"
        main(["train", "--config", write_config(tmp_path, "1.json", dict(SMALL_TRAIN, seed=1)),
              "--out", str(a)])
        main(["train", "--config", write_config(tmp_path, "2.json", dict(SMALL_TRAIN, seed=2)),
              "--out", str(b)])
        assert (a / "trace.json").read_bytes() != (b / "trace.json").read_bytes()
        assert json.loads((a / "manifest.json").read_text())["config"]["seed"] == 1

    # one point per class and no replay: every batch is one point's two views,
    # so SupCon is exactly 0 and task 3's coefficient ratio has no denominator
    DEGENERATE = {"tasks": 3, "classes_per_task": 1, "points_per_class": 2, "buffer_size": 0,
                  "mode": "max", "epochs": 2, "probe_epochs": 1}

    @pytest.mark.parametrize("command, extra", [
        ("train", {}),
        ("sweep", {"values": ["max"], "seeds": [0]}),  # one cell, on the process pool
    ], ids=["train", "sweep"])
    def test_degenerate_training_is_config_error(self, tmp_path, capsys, command, extra):
        cfg = write_config(tmp_path, "d.json", dict(self.DEGENERATE, **extra))
        code = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "Traceback" not in err
        assert err == ("configuration error: degenerate training: "
                       "accumulated contrastive loss is zero\n")


class TestProbe:
    def test_runs_and_reports(self, tmp_path):
        cfg = write_config(tmp_path, "p.json", SMALL_TRAIN)
        out = tmp_path / "out"
        assert main(["probe", "--config", cfg, "--out", str(out)]) == EXIT_OK
        doc = json.loads((out / "probe.json").read_text())
        assert 0.0 <= doc["average_accuracy"] <= 1.0
        lines = (out / "probe.csv").read_text().splitlines()
        assert lines[0] == "task,accuracy"
        assert len(lines) == 3

    @pytest.mark.parametrize("damage", [
        "truncated", "trailing-bytes", "bad-magic", "non-json-sidecar", "zero-width",
        "nan-params", "relu-activation",
    ])
    def test_corrupt_checkpoint_is_io_error(self, tmp_path, capsys, damage):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(Encoder((2, 32, 8), seed=0), ckpt)
        blob = ckpt.read_bytes()
        if damage == "truncated":
            ckpt.write_bytes(blob[:30])
        elif damage == "trailing-bytes":
            ckpt.write_bytes(blob + b"\x00" * 3)
        elif damage == "bad-magic":
            ckpt.write_bytes(b"XXXX" + blob[4:])
        elif damage == "zero-width":  # dims (2, 0, 8), with a sidecar to match
            dims = (2, 0, 8)
            ckpt.write_bytes(blob[:8] + struct.pack("<3I", *dims) + bytes(8 * _param_count(dims)))
            sidecar = json.loads((tmp_path / "model.ckpt.json").read_text())
            (tmp_path / "model.ckpt.json").write_text(json.dumps(dict(sidecar, dims=list(dims))))
        elif damage == "nan-params":  # every parameter's bits set: a NaN
            ckpt.write_bytes(blob[:20] + b"\xff" * (len(blob) - 20))
        elif damage == "relu-activation":  # the encoder is tanh-only
            sidecar = json.loads((tmp_path / "model.ckpt.json").read_text())
            (tmp_path / "model.ckpt.json").write_text(json.dumps(dict(sidecar, activation="relu")))
        else:
            (tmp_path / "model.ckpt.json").write_text("{not json")
        cfg = write_config(tmp_path, "p.json", dict(SMALL_TRAIN, checkpoint=str(ckpt)))
        capsys.readouterr()
        code = main(["probe", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert "Traceback" not in err
        assert err.startswith("I/O error: corrupt checkpoint ") and err.count("\n") == 1
        if damage == "relu-activation":
            assert err.endswith(": checkpoint activation 'relu' is not tanh\n")

    def test_probe_from_checkpoint(self, tmp_path):
        cfg = write_config(tmp_path, "t.json", SMALL_TRAIN)
        train_out = tmp_path / "t"
        main(["train", "--config", cfg, "--out", str(train_out)])
        pcfg = write_config(
            tmp_path, "p.json",
            dict(SMALL_TRAIN, checkpoint=str(train_out / "final.ckpt")),
        )
        out = tmp_path / "p"
        assert main(["probe", "--config", pcfg, "--out", str(out)]) == EXIT_OK

    def test_checkpoint_probe_equals_probe_and_does_not_train(self, tmp_path, monkeypatch):
        # the buffer is rebuilt from the config's task stream, so probing the
        # trained checkpoint writes what probing after training writes
        cfg = write_config(tmp_path, "t.json", dict(SMALL_TRAIN, tasks=3, buffer_size=5))
        train_out, fresh, out = tmp_path / "t", tmp_path / "fresh", tmp_path / "p"
        assert main(["train", "--config", cfg, "--out", str(train_out)]) == EXIT_OK
        assert main(["probe", "--config", cfg, "--out", str(fresh)]) == EXIT_OK

        def no_training(*args):
            raise AssertionError("probe --checkpoint ran training")

        monkeypatch.setattr(cli, "run_sequence", no_training)
        pcfg = write_config(tmp_path, "p.json", dict(
            SMALL_TRAIN, tasks=3, buffer_size=5, checkpoint=str(train_out / "final.ckpt")))
        assert main(["probe", "--config", pcfg, "--out", str(out)]) == EXIT_OK
        for name in ("probe.json", "probe.csv"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.parametrize("key, value", [
        ("seed", 1), ("task", 3), ("data_seed", 5), ("buffer_size", 3)])
    def test_checkpoint_of_another_run_is_config_error(self, tmp_path, capsys, key, value):
        # SMALL_TRAIN's run has seed 0 and 2 tasks
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(Encoder((2, 32, 8), seed=0), ckpt, **{"seed": 0, "task": 2, key: value})
        cfg = write_config(tmp_path, "p.json", dict(SMALL_TRAIN, checkpoint=str(ckpt)))
        code = main(["probe", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith(f"configuration error: checkpoint {key} {value} ")
        assert err.count("\n") == 1

    def test_train_checkpoint_refuses_another_task_stream(self, tmp_path, capsys):
        # train records its data shape and buffer size beside its seed
        cfg = write_config(tmp_path, "t.json", SMALL_TRAIN)
        train_out = tmp_path / "t"
        assert main(["train", "--config", cfg, "--out", str(train_out)]) == EXIT_OK
        sidecar = json.loads((train_out / "final.ckpt.json").read_text())
        for key in ("data_seed", "classes_per_task", "points_per_class", "buffer_size"):
            assert sidecar[key] == dict(RUN_DEFAULTS, **SMALL_TRAIN)[key]
        capsys.readouterr()
        pcfg = write_config(tmp_path, "p.json", dict(
            SMALL_TRAIN, data_seed=5, checkpoint=str(train_out / "final.ckpt")))
        assert main(["probe", "--config", pcfg, "--out", str(tmp_path / "p")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: checkpoint data_seed 0 ")
        assert err.count("\n") == 1

    def test_input_width_mismatch_is_config_error(self, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(Encoder((3, 32, 8), seed=0), ckpt)
        cfg = write_config(tmp_path, "p.json", dict(SMALL_TRAIN, checkpoint=str(ckpt)))
        code = main(["probe", "--config", cfg, "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "Traceback" not in err
        assert err.startswith("configuration error: ") and err.count("\n") == 1


class TestBounds:
    def test_outputs_and_monotone(self, tmp_path):
        out, cfg = tmp_path / "out", write_config(tmp_path, "b.json", {"grid": "0.1:5:30"})
        code = main(["bounds", "--config", cfg, "--out", str(out)])
        assert code == EXIT_OK
        lines = (out / "bounds.csv").read_text().splitlines()
        assert lines[0] == "lambda,upper,lower"
        uppers = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(b <= a + 1e-9 for a, b in zip(uppers, uppers[1:]))
        tp = json.loads((out / "turning_point.json").read_text())
        assert tp["lambda_star"] == pytest.approx(1.0)

    def test_scenario_selection(self, tmp_path):
        cfg = write_config(tmp_path, "b.json", {"scenario": "example3", "T": 4,
                                                "grid": "0.5:12:24"})
        out = tmp_path / "out"
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == EXIT_OK
        tp = json.loads((out / "turning_point.json").read_text())
        assert tp["lambda_star"] == pytest.approx(10.0)


class TestSweep:
    def test_mode_sweep(self, tmp_path):
        cfg = write_config(
            tmp_path, "s.json",
            dict(SMALL_TRAIN, vary="mode", values=["fixed", "max"], seeds=[0]),
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == EXIT_OK
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,mean_accuracy,std_accuracy,n_seeds"
        assert len(lines) == 3
        assert not (out / "sweep_errors.json").exists()

    def test_invalid_vary_key(self, tmp_path):
        # the seed is varied by the seeds list, never by vary
        for vary in ("epochs", "seed"):
            cfg = write_config(
                tmp_path, "s.json", dict(SMALL_TRAIN, vary=vary, values=[0, 1])
            )
            assert main(["sweep", "--config", cfg,
                         "--out", str(tmp_path / "o")]) == EXIT_CONFIG
