"""Encoder forward/backward correctness, optimization behavior, and
checkpoint persistence."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclab import trainer
from cclab.core import NORM_TOL, normalize_rows
from cclab.trainer import (
    Encoder,
    SgdConfig,
    Temperatures,
    finite_diff_check,
    grad_total,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
)
from tests.helpers import grad_total_reference, oracle_ird, oracle_supcon


def small_batch(rng, n_pairs=4, d_in=2):
    points = rng.standard_normal((2 * n_pairs, d_in))
    labels = np.repeat(rng.integers(0, 2, size=n_pairs), 2)
    return points, labels


class TestEncoder:
    def test_output_is_unit_norm(self):
        enc = Encoder((3, 16, 8), seed=0)
        z = enc.forward(np.random.default_rng(0).standard_normal((10, 3)))
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0, atol=1e-12)

    def test_param_vector_round_trip(self):
        enc = Encoder((3, 5, 4), seed=1)
        theta = enc.get_params()
        assert theta.size == enc.n_params == 3 * 5 + 5 + 5 * 4 + 4
        enc2 = Encoder((3, 5, 4), seed=2)
        enc2.set_params(theta)
        np.testing.assert_array_equal(enc2.get_params(), theta)

    def test_set_params_wrong_length(self):
        enc = Encoder((3, 5, 4))
        with pytest.raises(ValueError):
            enc.set_params(np.zeros(enc.n_params + 1))

    def test_layers_are_views_of_params(self):
        enc = Encoder((3, 5, 4), seed=1)
        for arr in enc.weights + enc.biases:
            assert np.shares_memory(arr, enc.params)
        enc.set_params(np.arange(enc.n_params, dtype=np.float64))
        np.testing.assert_array_equal(enc.weights[0].ravel(), np.arange(15))
        np.testing.assert_array_equal(enc.biases[-1], np.arange(40, 44))

    def test_copy_is_independent(self):
        enc = Encoder((2, 4, 3), seed=0)
        clone = enc.copy()
        clone.weights[0][:] = 0.0
        assert not np.array_equal(enc.weights[0], clone.weights[0])

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_seeded_initialisation_stream(self, activation):
        dims = (3, 7, 5, 4)
        rng = np.random.default_rng(12)
        want = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            want.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)).ravel())
            want.append(rng.uniform(-bound, bound, size=fan_out))
        enc = Encoder(dims, activation, 12)
        assert enc.params.tobytes() == np.concatenate(want).tobytes()

    def test_copy_and_load_skip_the_random_draw(self, tmp_path, monkeypatch):
        enc = Encoder((3, 6, 4), activation="relu", seed=4)
        enc.params[::3] = -0.0
        enc.params[1] = 5e-324
        save_checkpoint(enc, tmp_path / "m.ckpt")

        def no_draw(*args, **kwargs):
            raise AssertionError("drew a random initialisation")

        monkeypatch.setattr(trainer.np.random, "default_rng", no_draw)
        clone, (loaded, _) = enc.copy(), load_checkpoint(tmp_path / "m.ckpt")
        for other in (clone, loaded):
            assert other.params.tobytes() == enc.params.tobytes()
            assert (other.dims, other.activation) == (enc.dims, enc.activation)
            for arr in other.weights + other.biases:
                assert np.shares_memory(arr, other.params)
        assert not np.shares_memory(clone.params, enc.params)
        assert loaded.params.flags.writeable

    def test_input_dimension_checked(self):
        with pytest.raises(ValueError):
            Encoder((2, 4, 3)).forward(np.zeros((1, 5)))

    def test_relu_variant(self):
        enc = Encoder((2, 4, 3), activation="relu", seed=0)
        z = enc.forward(np.ones((2, 2)))
        np.testing.assert_allclose(np.linalg.norm(z, axis=1), 1.0)
        with pytest.raises(ValueError):
            Encoder((2, 4, 3), activation="sigmoid")

    @pytest.mark.parametrize("dims", [(2, 0, 4), (2, 16, 0), (0, 4), (2, -3, 4)])
    def test_zero_width_rejected(self, dims):
        with pytest.raises(ValueError, match="layer width"):
            Encoder(dims)

    def test_snapshot_matches_forward(self):
        enc = Encoder((2, 8, 4), seed=3)
        pts = np.random.default_rng(1).standard_normal((5, 2))
        snap = enc.snapshot(pts)
        np.testing.assert_allclose(snap, enc.forward(pts), atol=1e-15)
        assert snap.tobytes() == normalize_rows(enc.forward(pts)).tobytes()


class TestGradients:
    def test_finite_differences_contrastive_only(self):
        rng = np.random.default_rng(0)
        points, labels = small_batch(rng)
        enc = Encoder((2, 8, 4), seed=0)
        err = finite_diff_check(enc, None, points, labels, 0.0, Temperatures())
        assert err < 1e-4

    def test_finite_differences_combined(self):
        rng = np.random.default_rng(1)
        points, labels = small_batch(rng)
        enc = Encoder((2, 8, 4), seed=1)
        prev = Encoder((2, 8, 4), seed=2)
        err = finite_diff_check(enc, prev, points, labels, 1.5, Temperatures())
        assert err < 1e-4

    def test_divide_flag_scales_consistently(self):
        rng = np.random.default_rng(2)
        points, labels = small_batch(rng)
        enc = Encoder((2, 8, 4), seed=0)
        prev = Encoder((2, 8, 4), seed=5)
        a = grad_total(enc, prev, points, labels, 1.0, Temperatures(), divide=False)
        b = grad_total(enc, prev, points, labels, 1.0, Temperatures(), divide=True)
        n = points.shape[0]
        assert b[0] == pytest.approx(a[0] / n)
        assert b[1] == pytest.approx(a[1] / n)
        np.testing.assert_allclose(b[2], a[2] / n, atol=1e-15)

    def test_losses_agree_with_empirical_losses(self):
        rng = np.random.default_rng(3)
        points, labels = small_batch(rng)
        enc = Encoder((2, 8, 4), seed=0)
        prev = Encoder((2, 8, 4), seed=7)
        temps = Temperatures()
        l_con, l_dis, _ = grad_total(enc, prev, points, labels, 1.0, temps, divide=False)
        z, z_prev = enc.forward(points), prev.forward(points)
        e_con = oracle_supcon(z, labels, temps.contrastive)
        e_dis = oracle_ird(z, z_prev, temps.distill_current, temps.distill_past)
        assert l_con == pytest.approx(e_con, abs=1e-12)
        assert l_dis == pytest.approx(e_dis, abs=1e-12)

    def test_zero_lambda_reports_distillation_without_its_gradient(self):
        rng = np.random.default_rng(5)
        points, labels = small_batch(rng)
        enc = Encoder((2, 8, 4), seed=0)
        prev = Encoder((2, 8, 4), seed=7)
        temps = Temperatures()
        l_con, l_dis, grad = grad_total(enc, prev, points, labels, 0.0, temps)
        alone_con, alone_dis, alone = grad_total(enc, None, points, labels, 0.0, temps)
        np.testing.assert_array_equal(grad, alone)
        assert l_con == alone_con
        assert alone_dis == 0.0
        e_dis = oracle_ird(enc.forward(points), prev.forward(points),
                           temps.distill_current, temps.distill_past)
        assert l_dis > 0
        assert l_dis == pytest.approx(e_dis / points.shape[0], abs=1e-12)

    @pytest.mark.parametrize("dims", [(2, 4), (2, 8, 4), (3, 6, 5, 4), (2, 5, 5, 5, 3)])
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_any_depth_matches_reference_step(self, dims, activation):
        # the stacked forward and flat-buffer backward against one forward
        # per encoder and a per-layer backward, with and without past rows
        rng = np.random.default_rng(len(dims))
        points, labels = small_batch(rng, d_in=dims[0])
        enc = Encoder(dims, activation, seed=1)
        prev = Encoder(dims, activation, seed=2)
        for past, lam in ((None, 0.0), (prev, 0.0), (prev, 0.7)):
            got = grad_total(enc, past, points, labels, lam, Temperatures())
            want = grad_total_reference(enc, past, points, labels, lam, Temperatures())
            assert got[:2] == pytest.approx(want[:2], rel=1e-12, abs=1e-300)
            np.testing.assert_allclose(got[2], want[2], rtol=0,
                                       atol=1e-12 * np.abs(want[2]).max())
        assert finite_diff_check(enc, prev, points, labels, 0.7, Temperatures()) < 1e-4

    def test_frozen_encoder_shares_the_architecture(self):
        points, labels = small_batch(np.random.default_rng(6))
        enc = Encoder((2, 8, 4), seed=0)
        for prev in (Encoder((2, 6, 4), seed=1), Encoder((2, 8, 4), "relu", seed=1)):
            with pytest.raises(ValueError):
                grad_total(enc, prev, points, labels, 1.0, Temperatures())

    def test_descent_reduces_loss(self):
        rng = np.random.default_rng(4)
        points, labels = small_batch(rng, n_pairs=8)
        enc = Encoder((2, 16, 4), seed=0)
        cfg = SgdConfig(lr=0.1, epochs=1, batch_size=16, momentum=0.0)
        first = None
        velocity = np.zeros(enc.n_params)
        for _ in range(60):
            l_con, _, grad = grad_total(enc, None, points, labels, 0.0, Temperatures())
            if first is None:
                first = l_con
            velocity = sgd_step(enc, grad, velocity, cfg)
        final, _, _ = grad_total(enc, None, points, labels, 0.0, Temperatures())
        assert final < first

    def test_nonfinite_gradient_aborts(self):
        enc = Encoder((2, 4, 3))
        with pytest.raises(FloatingPointError):
            sgd_step(enc, np.full(enc.n_params, np.nan), np.zeros(enc.n_params),
                     SgdConfig())

    def test_bad_step_size_rejected(self):
        enc = Encoder((2, 4, 3))
        with pytest.raises(ValueError):
            finite_diff_check(enc, None, np.zeros((2, 2)), np.zeros(2, dtype=int),
                              0.0, Temperatures(), h=0.0)


class TestSgdConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SgdConfig(lr=0.0)
        with pytest.raises(ValueError):
            SgdConfig(momentum=1.0)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        enc = Encoder((3, 8, 4), seed=9)
        path = tmp_path / "model.ckpt"
        save_checkpoint(enc, path, seed=9, task=3, lam=1.25)
        back, manifest = load_checkpoint(path)
        np.testing.assert_array_equal(back.get_params(), enc.get_params())
        assert back.dims == enc.dims
        assert manifest["seed"] == 9
        assert manifest["task"] == 3
        assert manifest["lambda"] == 1.25
        pts = np.random.default_rng(0).standard_normal((4, 3))
        np.testing.assert_array_equal(back.forward(pts), enc.forward(pts))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [6, 10, 14, 40, -8, -1])
    def test_truncated_rejected(self, tmp_path, cut):
        # (2, 4, 3): 8 header bytes, 12 bytes of dims, then 27 parameters
        path = tmp_path / "model.ckpt"
        save_checkpoint(Encoder((2, 4, 3), seed=0), path)
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(ValueError, match="truncated|parameter bytes"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(Encoder((2, 4, 3), seed=0), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ValueError, match="parameter bytes"):
            load_checkpoint(path)

    def test_dims_header_must_match_payload(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(Encoder((2, 4, 3), seed=0), path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = (2**20).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="parameter bytes"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field, value", [("version", 2), ("dims", [2, 4, 4])])
    def test_sidecar_must_match_binary(self, tmp_path, field, value):
        path = tmp_path / "model.ckpt"
        save_checkpoint(Encoder((2, 4, 3), seed=0), path)
        sidecar = tmp_path / "model.ckpt.json"
        doc = json.loads(sidecar.read_text())
        doc[field] = value
        sidecar.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="sidecar"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_parameters_rejected(self, tmp_path, value):
        path = tmp_path / "model.ckpt"
        save_checkpoint(Encoder((2, 4, 3), seed=0), path)
        blob = bytearray(path.read_bytes())
        blob[-8:] = np.float64(value).tobytes()  # the last bias
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="non-finite"):
            load_checkpoint(path)

    @given(
        target=st.sampled_from(["model.ckpt", "model.ckpt.json"]),
        damage=st.sampled_from(["truncate", "flip", "append"]),
        where=st.integers(min_value=0, max_value=2**16),
        mask=st.integers(min_value=1, max_value=255),
        tail=st.binary(min_size=1, max_size=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_mutated_checkpoint_loads_or_raises_value_error(
        self, target, damage, where, mask, tail
    ):
        # any other exception (struct.error, IndexError, MemoryError, ...)
        # escapes and fails the test
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.ckpt"
            save_checkpoint(Encoder((2, 4, 3), seed=0), path)
            victim = Path(tmp) / target
            blob = bytearray(victim.read_bytes())
            at = where % len(blob)
            if damage == "truncate":
                del blob[at:]
            elif damage == "flip":
                blob[at] ^= mask
            else:
                blob += tail
            victim.write_bytes(bytes(blob))
            try:
                load_checkpoint(path)
            except ValueError:
                pass

    def test_save_is_deterministic(self, tmp_path):
        enc = Encoder((2, 4, 3), seed=0)
        save_checkpoint(enc, tmp_path / "a.ckpt")
        save_checkpoint(enc, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        assert (tmp_path / "a.ckpt.json").read_text() == (
            tmp_path / "b.ckpt.json"
        ).read_text()


class TestDegenerateNormalization:
    def test_zero_raw_output_does_not_blow_up(self):
        # force a zero pre-normalization output by zeroing the last layer
        enc = Encoder((2, 4, 3), seed=0)
        enc.weights[-1][:] = 0.0
        enc.biases[-1][:] = 0.0
        z = enc.forward(np.ones((2, 2)))
        np.testing.assert_array_equal(z, [[1, 0, 0], [1, 0, 0]])
        _, _, grad = grad_total(
            enc, None, np.ones((2, 2)) + np.arange(4).reshape(2, 2),
            np.array([0, 0]), 0.0, Temperatures(),
        )
        assert np.all(np.isfinite(grad))
        assert NORM_TOL > 0
