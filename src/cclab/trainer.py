"""A small trainable encoder (MLP with a final unit-sphere head), analytic
reverse-mode gradients of the batch losses, plain SGD with momentum,
finite-difference gradient verification, and checkpoint persistence.

The encoder keeps all of its parameters in one flat vector; the per-layer
weights and biases are views into it. Gradients are written out by hand:
one call to ``losses.batch_terms`` per step supplies both batch losses
and their dL/d(zz') from one stacked masked softmax, and the
normalization head contributes the Jacobian (I - zz')/||z|| per row.
Double precision throughout.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import NORM_TOL, TableModel, normalize_rows
from .losses import Temperatures, batch_terms

CHECKPOINT_MAGIC = b"CCL1"
CHECKPOINT_VERSION = 1


@dataclass
class SgdConfig:
    lr: float = 0.05
    epochs: int = 60
    batch_size: int = 32
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0 or self.epochs <= 0 or self.batch_size <= 0:
            raise ValueError("lr, epochs and batch size must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")


def _param_count(dims) -> int:
    """Number of weights and biases of an encoder with layer widths ``dims``."""
    return sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


class Encoder:
    """Fully connected encoder mapping inputs to the unit sphere.

    ``dims`` lists layer widths input-first, e.g. (2, 32, 8). Hidden
    layers use tanh or relu; the output layer is linear followed by row
    normalization, so forward output is always unit-norm.
    """

    def __init__(self, dims, activation: str = "tanh", seed: int = 0):
        self._allocate(dims, activation)
        rng = np.random.default_rng(seed)
        for w, b in zip(self.weights, self.biases):
            bound = 1.0 / np.sqrt(w.shape[0])
            w[...] = rng.uniform(-bound, bound, size=w.shape)
            b[...] = rng.uniform(-bound, bound, size=b.shape)

    @classmethod
    def _from_params(cls, dims, activation: str, params: np.ndarray) -> "Encoder":
        """An encoder holding a copy of ``params``, built without the random draw."""
        enc = cls.__new__(cls)
        enc._allocate(dims, activation)
        enc.params[...] = params
        return enc

    def _allocate(self, dims, activation: str) -> None:
        dims = tuple(int(d) for d in dims)
        if len(dims) < 2:
            raise ValueError("need at least an input and an output width")
        if activation not in ("tanh", "relu"):
            raise ValueError(f"unknown activation {activation!r}")
        self.dims = dims
        self.activation = activation
        self.dim = dims[-1]
        # the flat parameter vector; only ever updated in place, so the
        # per-layer views below stay valid
        self.params = np.empty(_param_count(dims))
        self.weights, self.biases = self._layers(self.params)

    # -- parameter vector -------------------------------------------------

    def _layers(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer (weights, biases) views of a flat parameter-shaped
        vector, laid out layer by layer as weights row-major, then biases."""
        weights, biases = [], []
        pos = 0
        for fan_in, fan_out in zip(self.dims[:-1], self.dims[1:]):
            weights.append(flat[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out))
            pos += fan_in * fan_out
            biases.append(flat[pos : pos + fan_out])
            pos += fan_out
        return weights, biases

    def get_params(self) -> np.ndarray:
        return self.params.copy()

    def set_params(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != self.params.shape:
            raise ValueError("parameter vector has the wrong length")
        self.params[...] = theta

    @property
    def n_params(self) -> int:
        return self.params.size

    def copy(self) -> "Encoder":
        return Encoder._from_params(self.dims, self.activation, self.params)

    # -- forward ----------------------------------------------------------

    def _act(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x) if self.activation == "tanh" else np.maximum(x, 0.0)

    def _act_grad(self, a: np.ndarray) -> np.ndarray:
        # derivative expressed through the activation output
        return 1.0 - a**2 if self.activation == "tanh" else (a > 0).astype(np.float64)

    def forward(self, points: np.ndarray) -> np.ndarray:
        """Unit-norm embeddings of (n, d_in) points."""
        z, _ = self._forward_cached(points)
        return z

    # an Encoder is a valid EmbeddingModel for the population losses
    embed = forward

    def _forward_cached(self, points: np.ndarray):
        x = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if x.shape[1] != self.dims[0]:
            raise ValueError(
                f"input dimension {x.shape[1]} does not match encoder ({self.dims[0]})"
            )
        acts = [x]
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = self._act(h @ w + b)
            acts.append(h)
        raw = h @ self.weights[-1] + self.biases[-1]
        z = normalize_rows(raw)
        return z, (acts, raw, z)

    def snapshot(self, points: np.ndarray) -> TableModel:
        """Freeze the encoder's embeddings of a support into a table model."""
        return TableModel(points, self.forward(points))

    # -- backward ---------------------------------------------------------

    def _backward(self, cache, d_z: np.ndarray) -> np.ndarray:
        """Gradient of a scalar loss w.r.t. parameters given dL/dZ."""
        acts, raw, z = cache
        norms = np.linalg.norm(raw, axis=1)
        # through z = raw/||raw||: d_raw = (d_z - (d_z.z) z)/||raw||; rows
        # that normalize_rows sent to the basis vector pass no gradient
        d_raw = d_z - (d_z * z).sum(axis=1)[:, None] * z
        small = norms < NORM_TOL
        if small.any():
            d_raw[small] = 0.0
            norms = np.where(small, 1.0, norms)
        d_raw /= norms[:, None]
        grad = np.empty_like(self.params)
        grads_w, grads_b = self._layers(grad)
        delta = d_raw
        grads_w[-1][...] = acts[-1].T @ delta
        grads_b[-1][...] = delta.sum(axis=0)
        for layer in range(len(self.weights) - 2, -1, -1):
            delta = (delta @ self.weights[layer + 1].T) * self._act_grad(acts[layer + 1])
            grads_w[layer][...] = acts[layer].T @ delta
            grads_b[layer][...] = delta.sum(axis=0)
        return grad


def grad_total(
    enc_t: Encoder,
    enc_prev: Encoder | None,
    points: np.ndarray,
    labels: np.ndarray,
    lam: float,
    temps: Temperatures,
    divide: bool = True,
) -> tuple[float, float, np.ndarray]:
    """Analytic gradient of contrastive + lam * distillation w.r.t. the
    current encoder's parameters. The previous encoder is frozen.

    Returns (contrastive loss, distillation loss, flat gradient); with
    ``divide`` both losses and the gradient are scaled by 1/2N for
    step-size conditioning. The distillation loss is reported whenever a
    previous encoder is given; its gradient enters only for lam > 0.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    n = points.shape[0]
    z, cache = enc_t._forward_cached(points)
    z_past = None if enc_prev is None else enc_prev.forward(points)
    l_con, g_sim, l_dis, g_dis = batch_terms(z, labels, temps, z_past)
    if g_dis is not None and lam > 0:
        g_sim = g_sim + lam * g_dis

    d_z = (g_sim + g_sim.T) @ z
    grad = enc_t._backward(cache, d_z)
    if divide:
        scale = 1.0 / n
        return l_con * scale, l_dis * scale, grad * scale
    return l_con, l_dis, grad


def sgd_step(
    enc: Encoder,
    grad: np.ndarray,
    velocity: np.ndarray,
    cfg: SgdConfig,
) -> np.ndarray:
    """One momentum-SGD update in place; returns the new velocity."""
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite gradient component; training aborted")
    velocity = cfg.momentum * velocity + grad
    enc.params -= cfg.lr * velocity
    return velocity


def finite_diff_check(
    enc: Encoder,
    enc_prev: Encoder | None,
    points: np.ndarray,
    labels: np.ndarray,
    lam: float,
    temps: Temperatures,
    h: float = 1e-5,
) -> float:
    """Max relative disagreement between the analytic gradient and central
    finite differences of the combined loss."""
    if h <= 0:
        raise ValueError("step size must be positive")

    def loss_at(theta: np.ndarray) -> float:
        probe = enc.copy()
        probe.set_params(theta)
        l_con, l_dis, _ = grad_total(
            probe, enc_prev, points, labels, lam, temps, divide=False
        )
        return l_con + lam * l_dis

    _, _, analytic = grad_total(
        enc, enc_prev, points, labels, lam, temps, divide=False
    )
    theta = enc.get_params()
    worst = 0.0
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        fd = (loss_at(up) - loss_at(down)) / (2 * h)
        denom = max(1e-8, abs(analytic[i]) + abs(fd))
        worst = max(worst, abs(analytic[i] - fd) / denom)
    return worst


# -- persistence ----------------------------------------------------------


def save_checkpoint(
    enc: Encoder,
    path: str | Path,
    seed: int = 0,
    task: int = 0,
    lam: float = 0.0,
    temps: Temperatures | None = None,
) -> None:
    """Versioned little-endian binary: magic, layer count, dims, f64
    parameter stream; plus a JSON sidecar manifest at <path>.json."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(enc.dims)))
        fh.write(struct.pack(f"<{len(enc.dims)}I", *enc.dims))
        fh.write(enc.params.astype("<f8").tobytes())
    manifest = {
        "version": CHECKPOINT_VERSION,
        "dims": list(enc.dims),
        "seed": seed,
        "task": task,
        "lambda": lam,
        "temperatures": asdict(temps or Temperatures()),
        "activation": enc.activation,
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2)
    )


def load_checkpoint(path: str | Path) -> tuple[Encoder, dict]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    A file that is not exactly magic, layer count, dims and the f64
    parameters those dims call for, or whose sidecar disagrees with it,
    raises ValueError; nothing is allocated from the header before the
    file length confirms it.
    """
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError("bad checkpoint magic")
    if len(blob) < 8:
        raise ValueError("checkpoint truncated inside its header")
    (n_layers,) = struct.unpack_from("<I", blob, 4)
    offset = 8 + 4 * n_layers
    if len(blob) < offset:
        raise ValueError(f"checkpoint truncated inside its {n_layers} layer widths")
    dims = struct.unpack_from(f"<{n_layers}I", blob, 8)
    expected = 8 * _param_count(dims)
    if len(blob) - offset != expected:
        raise ValueError(
            f"checkpoint holds {len(blob) - offset} parameter bytes, "
            f"dims {list(dims)} need {expected}"
        )
    manifest = json.loads(path.with_suffix(path.suffix + ".json").read_text())
    if not isinstance(manifest, dict) or (
        manifest.get("version"), manifest.get("dims")
    ) != (CHECKPOINT_VERSION, list(dims)):
        raise ValueError("checkpoint sidecar disagrees with the binary's version or dims")
    params = np.frombuffer(blob, dtype="<f8", offset=offset)
    return Encoder._from_params(dims, manifest.get("activation", "tanh"), params), manifest


def fit_encoder_to_distribution(
    dist,
    dim: int = 8,
    hidden: int = 32,
    seed: int = 0,
    steps: int = 300,
    lr: float = 0.1,
    batch: int = 16,
    jitter: float = 0.01,
):
    """Train a fresh encoder to minimize the batch contrastive loss on
    samples from a finite distribution. Used as the optimized surrogate
    for the best achievable loss."""
    rng = np.random.default_rng(seed)
    enc = Encoder((dist.dimension, hidden, dim), seed=seed)
    cfg = SgdConfig(lr=lr, epochs=1, batch_size=batch, momentum=0.9, seed=seed)
    velocity = np.zeros(enc.n_params)
    temps = Temperatures()
    for _ in range(steps):
        idx = rng.choice(dist.size, size=min(batch, dist.size), p=dist.mass)
        pts = np.repeat(dist.points[idx], 2, axis=0)
        pts = pts + rng.normal(scale=jitter, size=pts.shape)
        labels = np.repeat(dist.labels[idx], 2)
        if np.unique(labels).size == labels.size:
            continue  # no positives beyond paired views is fine; guard anyway
        _, _, grad = grad_total(enc, None, pts, labels, 0.0, temps)
        velocity = sgd_step(enc, grad, velocity, cfg)
    return enc
