"""A small trainable encoder (MLP with a final unit-sphere head), analytic
reverse-mode gradients of the batch losses, plain SGD with momentum,
finite-difference gradient verification, and checkpoint persistence.

The encoder keeps all of its parameters in one flat vector; the per-layer
weights and biases are views into it. A step runs one stacked forward pass
of the live and the frozen encoder, one ``losses._batch_step`` for both
losses and dL/d(zz'), and a hand-written backward pass reusing the forward's
norms for the head's Jacobian (I - zz')/||z||: ~40 numpy operations. Float64.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .core import NORM_TOL, normalize_rows
from .losses import Temperatures, _batch_step

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
        if min(dims) < 1:
            raise ValueError(f"every layer width must be >= 1, got {list(dims)}")
        if activation not in ("tanh", "relu"):
            raise ValueError(f"unknown activation {activation!r}")
        self.dims = dims
        self.activation = activation
        self.dim = dims[-1]
        # the flat parameter vector; only ever updated in place, so the
        # per-layer views below stay valid
        self.params = np.empty(_param_count(dims))
        self.weights, self.biases = self._layers(self.params)
        # stacked layers, alone or beside a frozen encoder's copy; gradient views
        self._pair = np.empty((2, self.params.size))
        self._stacks = (self._layers(self.params[None]), self._layers(self._pair))
        self._grad = np.empty(self.params.size)
        self._grad_layers = self._layers(self._grad)

    # -- parameter vector -------------------------------------------------

    def _layers(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer (weights, biases) views of a flat parameter-shaped
        vector, laid out layer by layer as weights row-major, then biases;
        of a (K, n_params) stack, (K, fan_in, fan_out) and (K, fan_out) ones."""
        lead = flat.shape[:-1]
        weights, biases = [], []
        pos = 0
        for fan_in, fan_out in zip(self.dims[:-1], self.dims[1:]):
            weights.append(flat[..., pos : pos + fan_in * fan_out].reshape(*lead, fan_in, fan_out))
            pos += fan_in * fan_out
            biases.append(flat[..., pos : pos + fan_out])
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

    def _act_grad(self, a: np.ndarray) -> np.ndarray:
        # derivative expressed through the activation output
        return 1.0 - a**2 if self.activation == "tanh" else (a > 0).astype(np.float64)

    def forward(self, points: np.ndarray) -> np.ndarray:
        """Unit-norm embeddings of (n, d_in) points."""
        return self._forward_stack(points)[0][0]

    def _forward_stack(self, points: np.ndarray, frozen: "Encoder | None" = None):
        """(K, n, dim) unit embeddings of (n, d_in) points under this encoder
        and, K = 2, a frozen one of its architecture; and the backward's cache.
        As in ``core.normalize_rows``, rows of norm below NORM_TOL map to the
        first basis vector; their norm is cached as inf to stop their gradient."""
        x = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if x.shape[1] != self.dims[0]:
            raise ValueError(
                f"input dimension {x.shape[1]} does not match encoder ({self.dims[0]})"
            )
        if frozen is not None:
            if (frozen.dims, frozen.activation) != (self.dims, self.activation):
                raise ValueError("the frozen encoder must share the live one's architecture")
            np.concatenate((self.params, frozen.params), out=self._pair.reshape(-1))
        weights, biases = self._stacks[frozen is not None]
        acts = [x]
        h = x
        for w, b in zip(weights, biases):
            h = h @ w
            h += b[:, None]
            if len(acts) < len(weights):
                np.tanh(h, out=h) if self.activation == "tanh" else np.maximum(h, 0.0, out=h)
                acts.append(h)
        norms = np.sqrt(np.add.reduce(h * h, axis=-1, keepdims=True))
        small = norms < NORM_TOL if norms.min() < NORM_TOL else None
        if small is not None:
            h[small[..., 0]], norms[small] = np.eye(1, self.dim), 1.0
        z = np.divide(h, norms, out=h)
        if small is not None:
            norms[small] = np.inf
        return z, (acts, z, norms)

    def snapshot(self, points: np.ndarray) -> np.ndarray:
        """The encoder's unit rows on a support, one per point, as the
        population losses take them."""
        return normalize_rows(self.forward(points))

    # -- backward ---------------------------------------------------------

    def _backward(self, cache, d_z: np.ndarray) -> np.ndarray:
        """Gradient of a scalar loss w.r.t. parameters given dL/dZ of this
        encoder's rows, in a buffer that the next call overwrites."""
        acts, z, norms = cache
        z = z[0]
        # through z = raw/||raw||: d_raw = (d_z - (d_z.z) z)/||raw||
        d_raw = d_z - np.add.reduce(d_z * z, axis=1, keepdims=True) * z
        delta = np.divide(d_raw, norms[0], out=d_raw)
        grads_w, grads_b = self._grad_layers
        for layer in range(len(self.weights) - 1, -1, -1):
            a = acts[layer] if layer == 0 else acts[layer][0]
            np.matmul(a.T, delta, out=grads_w[layer])
            np.add.reduce(delta, axis=0, out=grads_b[layer])
            if layer:
                delta = (delta @ self.weights[layer].T) * self._act_grad(a)
        return self._grad


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
    current encoder's parameters. The previous encoder is frozen and shares
    the current one's architecture.

    Returns (contrastive loss, distillation loss, flat gradient); with
    ``divide`` both losses and the gradient are scaled by 1/2N for
    step-size conditioning. The distillation loss is reported whenever a
    previous encoder is given; its gradient enters only for lam > 0.
    """
    zs, cache = enc_t._forward_stack(points, enc_prev)
    l_con, l_dis, g_sim, _ = _batch_step(zs, np.asarray(labels), temps, lam)
    grad = enc_t._backward(cache, (g_sim + g_sim.T) @ zs[0])
    scale = 1.0 / zs.shape[1] if divide else 1.0
    return l_con * scale, l_dis * scale, grad * scale


def sgd_step(
    enc: Encoder,
    grad: np.ndarray,
    velocity: np.ndarray,
    cfg: SgdConfig,
) -> np.ndarray:
    """One momentum-SGD update of the parameters and ``velocity`` in place; returns it."""
    if not np.isfinite(grad).all():
        raise FloatingPointError("non-finite gradient component; training aborted")
    velocity *= cfg.momentum
    velocity += grad
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
    **run,
) -> None:
    """Versioned little-endian binary: magic, layer count, dims, f64
    parameter stream; plus a JSON sidecar manifest at <path>.json. Further
    keyword values (a run's data shape and buffer size, say) are recorded
    in the sidecar under their own names."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(enc.dims)))
        fh.write(struct.pack(f"<{len(enc.dims)}I", *enc.dims))
        fh.write(enc.params.astype("<f8").tobytes())
    manifest = {
        **run,
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

    A file that is not exactly magic, layer count, dims of width >= 1 and
    the finite f64 parameters those dims call for, or whose sidecar
    disagrees with it, raises ValueError; nothing is allocated from the
    header before the file length confirms it.
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
    if not np.isfinite(params).all():  # training aborts before a non-finite step
        raise ValueError("checkpoint holds non-finite parameters")
    return Encoder._from_params(dims, manifest.get("activation", "tanh"), params), manifest
