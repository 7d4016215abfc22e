"""Toy conditional GAN: generator and two-branch discriminator MLPs, the
adversarial and contrastive losses, Adam, the training loop, and JSON
checkpoints.

The discriminator is D(img, cond) = ds(backbone(img)) + cond . fd(backbone(img)):
an unconditional realness head plus a condition-feature inner product over a
shared backbone. fd doubles as the feature extractor for evaluation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import adapter
from .adapter import EnsAdConfig, EnsAdParams, ForwardTrace, init_params
from .data import Dataset, atomic_write_text, augment_rows, sample_indices, stack_rows
from .numkit import NORM_EPS, SeededRng, as_f64, derive_seed, l2_normalize_rows

TRAINABLE_COMPONENTS = ("ensad", "generator", "discriminator")
CONDITIONING_MODES = ("ensad", "zero_shot", "translate_test", "mean_pool")

# Stream salt for the proxy visual encoder used by the generator-side
# contrastive variant; independent of the training stream by construction.
_PROXY_SALT = 0x1C
# Stream salt separating the two phases of the fine-tune pipeline.
_PHASE2_SALT = 3


@dataclass(frozen=True)
class GanConfig:
    d: int
    d_z: int = 16
    d_img: int = 48
    gen_hidden: tuple = (64, 64)
    disc_hidden: tuple = (64, 64)
    tau: float = 0.5
    lambda1: float = 4.0
    lambda2: float = 2.0
    lr: float = 5e-4
    beta1: float = 0.0
    beta2: float = 0.99
    batch: int = 16
    steps: int = 0
    trainable: frozenset = frozenset({"ensad", "discriminator"})
    enable_clg: bool = False
    # What the generator is conditioned on during training. "ensad" runs the
    # adapter; the others are the non-learned fusion baselines.
    conditioning: str = "ensad"
    # Mixing proportions of the Gaussian-noise augmentation trick applied to
    # the source embedding and the translations at every batch draw.
    noise_p0: float = 0.10
    noise_pt: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "gen_hidden", tuple(int(w) for w in self.gen_hidden))
        object.__setattr__(self, "disc_hidden", tuple(int(w) for w in self.disc_hidden))
        object.__setattr__(self, "trainable", frozenset(self.trainable))
        if self.d < 1 or self.d_z < 1 or self.d_img < 1:
            raise ValueError("dimensions must be positive")
        if any(w < 1 for w in self.gen_hidden) or any(w < 1 for w in self.disc_hidden):
            raise ValueError("hidden widths must be positive")
        if len(self.disc_hidden) < 1:
            raise ValueError("discriminator needs at least one hidden layer")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ValueError("lambdas must be nonnegative")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if self.batch < 1:
            raise ValueError("batch must be positive")
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        unknown = self.trainable - set(TRAINABLE_COMPONENTS)
        if unknown:
            raise ValueError(f"unknown trainable components {sorted(unknown)}")
        if self.conditioning not in CONDITIONING_MODES:
            raise ValueError(f"unknown conditioning mode {self.conditioning!r}")
        if not (0 <= self.noise_p0 <= 1 and 0 <= self.noise_pt <= 1):
            raise ValueError("noise proportions must lie in [0, 1]")


@dataclass
class ToyGanParams:
    gen_w: list
    gen_b: list
    disc_w: list
    disc_b: list
    fd_w: np.ndarray
    fd_b: np.ndarray
    ds_w: np.ndarray
    ds_b: np.ndarray

    def generator_tensors(self) -> list:
        out = []
        for w, b in zip(self.gen_w, self.gen_b):
            out.append(w)
            out.append(b)
        return out

    def discriminator_tensors(self) -> list:
        out = []
        for w, b in zip(self.disc_w, self.disc_b):
            out.append(w)
            out.append(b)
        out.extend([self.fd_w, self.fd_b, self.ds_w, self.ds_b])
        return out

    def copy(self) -> "ToyGanParams":
        return ToyGanParams(
            gen_w=[w.copy() for w in self.gen_w],
            gen_b=[b.copy() for b in self.gen_b],
            disc_w=[w.copy() for w in self.disc_w],
            disc_b=[b.copy() for b in self.disc_b],
            fd_w=self.fd_w.copy(),
            fd_b=self.fd_b.copy(),
            ds_w=self.ds_w.copy(),
            ds_b=self.ds_b.copy(),
        )

    def to_jsonable(self) -> dict:
        return {
            "gen_w": [w.tolist() for w in self.gen_w],
            "gen_b": [b.tolist() for b in self.gen_b],
            "disc_w": [w.tolist() for w in self.disc_w],
            "disc_b": [b.tolist() for b in self.disc_b],
            "fd_w": self.fd_w.tolist(),
            "fd_b": self.fd_b.tolist(),
            "ds_w": self.ds_w.tolist(),
            "ds_b": float(self.ds_b),
        }

    @staticmethod
    def from_jsonable(obj: dict, cfg: GanConfig, d: int) -> "ToyGanParams":
        gp = ToyGanParams(
            gen_w=[np.asarray(w, dtype=np.float64) for w in obj["gen_w"]],
            gen_b=[np.asarray(b, dtype=np.float64) for b in obj["gen_b"]],
            disc_w=[np.asarray(w, dtype=np.float64) for w in obj["disc_w"]],
            disc_b=[np.asarray(b, dtype=np.float64) for b in obj["disc_b"]],
            fd_w=np.asarray(obj["fd_w"], dtype=np.float64),
            fd_b=np.asarray(obj["fd_b"], dtype=np.float64),
            ds_w=np.asarray(obj["ds_w"], dtype=np.float64),
            ds_b=np.asarray(obj["ds_b"], dtype=np.float64),
        )
        validate_gan_params(gp, cfg, d)
        return gp


def _layer_sizes(cfg: GanConfig, d: int) -> tuple[list, list]:
    gen = [d + cfg.d_z, *cfg.gen_hidden, cfg.d_img]
    disc = [cfg.d_img, *cfg.disc_hidden]
    return gen, disc


def validate_gan_params(gp: ToyGanParams, cfg: GanConfig, d: int) -> None:
    gen_sizes, disc_sizes = _layer_sizes(cfg, d)
    if len(gp.gen_w) != len(gen_sizes) - 1 or len(gp.gen_b) != len(gen_sizes) - 1:
        raise ValueError("generator layer count does not match config")
    for i, (w, b) in enumerate(zip(gp.gen_w, gp.gen_b)):
        if w.shape != (gen_sizes[i + 1], gen_sizes[i]) or b.shape != (gen_sizes[i + 1],):
            raise ValueError(f"generator layer {i} has wrong shape")
    if len(gp.disc_w) != len(disc_sizes) - 1 or len(gp.disc_b) != len(disc_sizes) - 1:
        raise ValueError("discriminator layer count does not match config")
    for i, (w, b) in enumerate(zip(gp.disc_w, gp.disc_b)):
        if w.shape != (disc_sizes[i + 1], disc_sizes[i]) or b.shape != (disc_sizes[i + 1],):
            raise ValueError(f"discriminator layer {i} has wrong shape")
    h_last = disc_sizes[-1]
    if gp.fd_w.shape != (d, h_last) or gp.fd_b.shape != (d,):
        raise ValueError("feature head has wrong shape")
    if gp.ds_w.shape != (h_last,) or gp.ds_b.shape != ():
        raise ValueError("score head has wrong shape")
    for arr in gp.generator_tensors() + gp.discriminator_tensors():
        if not np.all(np.isfinite(arr)):
            raise ValueError("gan parameters contain non-finite entries")


def init_gan_params(cfg: GanConfig, d: int, rng: SeededRng) -> ToyGanParams:
    """Weights N(0, 1/fan_in), biases zero. Draw order: generator layers,
    discriminator backbone layers, feature head, score head."""
    gen_sizes, disc_sizes = _layer_sizes(cfg, d)

    def draw(rows, cols):
        return rng.gaussian(rows * cols).reshape(rows, cols) / np.sqrt(cols)

    gen_w = [draw(gen_sizes[i + 1], gen_sizes[i]) for i in range(len(gen_sizes) - 1)]
    gen_b = [np.zeros(gen_sizes[i + 1]) for i in range(len(gen_sizes) - 1)]
    disc_w = [draw(disc_sizes[i + 1], disc_sizes[i]) for i in range(len(disc_sizes) - 1)]
    disc_b = [np.zeros(disc_sizes[i + 1]) for i in range(len(disc_sizes) - 1)]
    h_last = disc_sizes[-1]
    fd_w = draw(d, h_last)
    fd_b = np.zeros(d)
    ds_w = rng.gaussian(h_last) / np.sqrt(h_last)
    ds_b = np.zeros(())
    return ToyGanParams(gen_w, gen_b, disc_w, disc_b, fd_w, fd_b, ds_w, ds_b)


def _mlp_forward(ws, bs, x):
    """Batched MLP with tanh after every layer. Returns output and the
    per-layer post-activation list (index 0 is the input)."""
    acts = [x]
    h = x
    for w, b in zip(ws, bs):
        h = np.tanh(h @ w.T + b)
        acts.append(h)
    return h, acts


def _mlp_backward(ws, acts, grad_out):
    """Gradients for _mlp_forward: per-layer (gw, gb) lists and the gradient
    w.r.t. the input batch."""
    gws = [None] * len(ws)
    gbs = [None] * len(ws)
    g = grad_out
    for i in range(len(ws) - 1, -1, -1):
        y = acts[i + 1]
        g = g * (1.0 - y * y)
        gws[i] = g.T @ acts[i]
        gbs[i] = g.sum(axis=0)
        g = g @ ws[i]
    return gws, gbs, g


def _generate_batch(gp: ToyGanParams, conds: np.ndarray, zs: np.ndarray):
    x = np.concatenate([conds, zs], axis=1)
    return _mlp_forward(gp.gen_w, gp.gen_b, x)


def _disc_forward_batch(gp: ToyGanParams, imgs: np.ndarray):
    r, acts = _mlp_forward(gp.disc_w, gp.disc_b, imgs)
    fd = r @ gp.fd_w.T + gp.fd_b
    ds = r @ gp.ds_w + float(gp.ds_b)
    return fd, ds, acts


def _disc_backward_batch(gp: ToyGanParams, acts, grad_fd, grad_ds):
    """Backprop through both heads and the backbone. Returns gradients in
    discriminator_tensors() order plus the gradient w.r.t. the images."""
    r = acts[-1]
    g_fd_w = grad_fd.T @ r
    g_fd_b = grad_fd.sum(axis=0)
    g_ds_w = r.T @ grad_ds
    g_ds_b = np.asarray(grad_ds.sum())
    grad_r = grad_fd @ gp.fd_w + grad_ds[:, None] * gp.ds_w[None, :]
    gws, gbs, grad_imgs = _mlp_backward(gp.disc_w, acts, grad_r)
    grads = []
    for gw, gb in zip(gws, gbs):
        grads.append(gw)
        grads.append(gb)
    grads.extend([g_fd_w, g_fd_b, g_ds_w, g_ds_b])
    return grads, grad_imgs


def generate(gp: ToyGanParams, h_tilde: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One fake image vector from (condition, noise); entries in (-1, 1)."""
    cond = as_f64(h_tilde, "condition")
    noise = as_f64(z, "noise")
    if cond.ndim != 1 or noise.ndim != 1:
        raise ValueError("condition and noise must be 1-D")
    expected = gp.gen_w[0].shape[1]
    if cond.shape[0] + noise.shape[0] != expected:
        raise ValueError(
            f"condition+noise dims {cond.shape[0]}+{noise.shape[0]} "
            f"do not match generator input {expected}"
        )
    out, _ = _generate_batch(gp, cond[None, :], noise[None, :])
    return out[0]


def disc_logit(
    gp: ToyGanParams, img: np.ndarray, h_tilde: np.ndarray
) -> tuple[float, np.ndarray]:
    """Two-branch discriminator score and the feature vector it used:
    logit = ds(backbone(img)) + h_tilde . fd(backbone(img))."""
    image = as_f64(img, "image")
    cond = as_f64(h_tilde, "condition")
    if image.ndim != 1 or image.shape[0] != gp.disc_w[0].shape[1]:
        raise ValueError("image has wrong dimension")
    if cond.ndim != 1 or cond.shape[0] != gp.fd_w.shape[0]:
        raise ValueError("condition has wrong dimension")
    fd, ds, _ = _disc_forward_batch(gp, image[None, :])
    logit = float(ds[0] + np.dot(fd[0], cond))
    return logit, fd[0]


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _adv_ensad(x: np.ndarray) -> float:
    return float(np.mean(_softplus(-x)))


def _adv_disc(r: np.ndarray, f: np.ndarray) -> float:
    return float(np.mean(_softplus(-r)) + np.mean(_softplus(f)))


def loss_adv_ensad(logits_fake: np.ndarray) -> float:
    """Generator-side adversarial loss: mean softplus(-logit), the stable
    form of -mean log sigmoid(logit)."""
    x = as_f64(logits_fake, "fake logits")
    if x.ndim != 1 or x.size == 0:
        raise ValueError("fake logits must be a nonempty vector")
    return _adv_ensad(x)


def loss_adv_disc(logits_real: np.ndarray, logits_fake: np.ndarray) -> float:
    """Discriminator adversarial loss: mean softplus(-real) + mean
    softplus(fake)."""
    r = as_f64(logits_real, "real logits")
    f = as_f64(logits_fake, "fake logits")
    if r.ndim != 1 or r.size == 0 or f.ndim != 1 or f.size == 0:
        raise ValueError("logits must be nonempty vectors")
    return _adv_disc(r, f)


def _feature_matrix(feats, name: str) -> np.ndarray:
    arr = np.asarray(feats, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty list of equal-length vectors")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _cosine_parts(a: np.ndarray, p: np.ndarray):
    inv_a = np.linalg.norm(a, axis=1)
    inv_p = np.linalg.norm(p, axis=1)
    inv_a = np.where(inv_a < NORM_EPS, 0.0, 1.0 / np.maximum(inv_a, NORM_EPS))
    inv_p = np.where(inv_p < NORM_EPS, 0.0, 1.0 / np.maximum(inv_p, NORM_EPS))
    ahat = a * inv_a[:, None]
    phat = p * inv_p[:, None]
    # rows: anchors j; columns: positives i; zero-vector pairs score 0
    sim = ahat @ phat.T
    return sim, ahat, phat, inv_a, inv_p


def loss_contrastive(anchor_feats, positive_feats, tau: float) -> float:
    """Temperature-scaled cross-entropy over cosine similarities.

    Column i (the i-th positive) is softmax-normalized over all anchors j,
    and the diagonal pair is the target. Cosines involving a zero vector
    are defined as 0.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    a = _feature_matrix(anchor_feats, "anchor features")
    p = _feature_matrix(positive_feats, "positive features")
    if a.shape[0] != p.shape[0]:
        raise ValueError("anchor and positive counts differ")
    loss, _, _ = _contrastive_with_grads(a, p, tau)
    return loss


def _contrastive_with_grads(a: np.ndarray, p: np.ndarray, tau: float):
    """Loss of :func:`loss_contrastive` and its gradients w.r.t. the (n, k)
    anchor and positive matrices, which the caller has checked."""
    n = a.shape[0]
    sim, ahat, phat, inv_a, inv_p = _cosine_parts(a, p)
    x = sim / tau
    mx = x.max(axis=0)
    ex = np.exp(x - mx)
    colsum = ex.sum(axis=0)
    lse = np.log(colsum) + mx
    loss = float(-np.mean(np.diag(x) - lse))

    # d loss / d sim = (colwise softmax - identity) / (n tau)
    w = ex / colsum
    dsim = (w - np.eye(n)) / (n * tau)
    rows = (dsim * sim).sum(axis=1)
    cols = (dsim * sim).sum(axis=0)
    grad_a = (dsim @ phat - rows[:, None] * ahat) * inv_a[:, None]
    grad_p = (dsim.T @ ahat - cols[:, None] * phat) * inv_p[:, None]
    return loss, grad_a, grad_p


@dataclass
class LossParts:
    """Per-step loss components. l_cl_d is evaluated twice per step with
    different feature sides: fake-image features in the adapter total, real
    ones in the discriminator total."""

    l_ad_ensad: float = 0.0
    l_ad_d: float = 0.0
    l_cl: float = 0.0
    l_cl_d_fake: float = 0.0
    l_cl_d_real: float = 0.0
    l_cl_g: float = 0.0


def total_losses(parts: LossParts, cfg: GanConfig) -> tuple[float, float]:
    """Weighted totals for the adapter/generator side and the discriminator
    side. With enable_clg the generator-side contrastive term replaces the
    paired-feature one in both totals."""
    cl_main = parts.l_cl_g if cfg.enable_clg else parts.l_cl
    loss_ensad = parts.l_ad_ensad + cfg.lambda1 * cl_main + cfg.lambda2 * parts.l_cl_d_fake
    loss_disc = parts.l_ad_d + cfg.lambda1 * cl_main + cfg.lambda2 * parts.l_cl_d_real
    return float(loss_ensad), float(loss_disc)


@dataclass
class AdamState:
    m: list
    v: list
    t: int = 0

    @staticmethod
    def init_like(tensors) -> "AdamState":
        return AdamState(
            m=[np.zeros_like(t) for t in tensors],
            v=[np.zeros_like(t) for t in tensors],
        )

    def copy(self) -> "AdamState":
        return AdamState(
            m=[x.copy() for x in self.m], v=[x.copy() for x in self.v], t=self.t
        )

    def to_jsonable(self) -> dict:
        return {
            "m": [x.tolist() for x in self.m],
            "v": [x.tolist() for x in self.v],
            "t": self.t,
        }

    @staticmethod
    def from_jsonable(obj: dict) -> "AdamState":
        return AdamState(
            m=[np.asarray(x, dtype=np.float64) for x in obj["m"]],
            v=[np.asarray(x, dtype=np.float64) for x in obj["v"]],
            t=int(obj["t"]),
        )


def adam_step(
    params: list,
    grads: list,
    state: AdamState,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float = 1e-8,
) -> list:
    """Standard bias-corrected Adam, in place on the parameter arrays."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("parameter, gradient and state lengths differ")
    for p, g in zip(params, grads):
        if np.shape(p) != np.shape(g):
            raise ValueError(f"gradient shape {np.shape(g)} != parameter {np.shape(p)}")
    state.t += 1
    b1c = 1.0 - beta1 ** state.t
    b2c = 1.0 - beta2 ** state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p -= lr * (m / b1c) / (np.sqrt(v / b2c) + eps)
    return params


@dataclass
class Checkpoint:
    ensad_cfg: EnsAdConfig
    gan_cfg: GanConfig
    ensad_params: EnsAdParams
    gan_params: ToyGanParams
    adam: dict
    rng_seed: int
    rng_position: int
    step: int
    version: int = 1
    rng_algorithm: str = SeededRng.ALGORITHM


class TrainingDiverged(RuntimeError):
    """Raised when a loss goes non-finite; carries a diagnostic checkpoint."""

    def __init__(self, step: int, checkpoint: Checkpoint, message: str):
        super().__init__(message)
        self.step = step
        self.checkpoint = checkpoint


def _ensad_cfg_to_jsonable(cfg: EnsAdConfig) -> dict:
    return {
        "d": cfg.d,
        "d_hid": cfg.d_hid,
        "m": cfg.m,
        "alpha": cfg.alpha,
        "variant_v_equals_k": cfg.variant_v_equals_k,
    }


def _gan_cfg_to_jsonable(cfg: GanConfig) -> dict:
    return {
        "d": cfg.d,
        "d_z": cfg.d_z,
        "d_img": cfg.d_img,
        "gen_hidden": list(cfg.gen_hidden),
        "disc_hidden": list(cfg.disc_hidden),
        "tau": cfg.tau,
        "lambda1": cfg.lambda1,
        "lambda2": cfg.lambda2,
        "lr": cfg.lr,
        "beta1": cfg.beta1,
        "beta2": cfg.beta2,
        "batch": cfg.batch,
        "steps": cfg.steps,
        "trainable": sorted(cfg.trainable),
        "enable_clg": cfg.enable_clg,
        "conditioning": cfg.conditioning,
        "noise_p0": cfg.noise_p0,
        "noise_pt": cfg.noise_pt,
    }


def checkpoint_to_jsonable(ck: Checkpoint) -> dict:
    adam_obj = {comp: None for comp in TRAINABLE_COMPONENTS}
    for comp, st in ck.adam.items():
        adam_obj[comp] = st.to_jsonable()
    return {
        "version": ck.version,
        "configs": {
            "adapter": _ensad_cfg_to_jsonable(ck.ensad_cfg),
            "gan": _gan_cfg_to_jsonable(ck.gan_cfg),
        },
        "params": {
            "ensad": ck.ensad_params.to_jsonable(),
            "gan": ck.gan_params.to_jsonable(),
        },
        "adam": adam_obj,
        "rng": {
            "algorithm": ck.rng_algorithm,
            "seed": ck.rng_seed,
            "position": ck.rng_position,
        },
        "step": ck.step,
    }


def checkpoint_from_jsonable(obj: dict) -> Checkpoint:
    if obj.get("version") != 1:
        raise ValueError(f"unsupported checkpoint version {obj.get('version')!r}")
    cfg_obj = obj["configs"]
    ensad_cfg = EnsAdConfig(**cfg_obj["adapter"])
    gan_raw = dict(cfg_obj["gan"])
    gan_raw["trainable"] = frozenset(gan_raw["trainable"])
    gan_raw["gen_hidden"] = tuple(gan_raw["gen_hidden"])
    gan_raw["disc_hidden"] = tuple(gan_raw["disc_hidden"])
    gan_cfg = GanConfig(**gan_raw)
    ensad_params = EnsAdParams.from_jsonable(obj["params"]["ensad"], ensad_cfg)
    gan_params = ToyGanParams.from_jsonable(obj["params"]["gan"], gan_cfg, ensad_cfg.d)
    adam = {}
    for comp, st in obj["adam"].items():
        if comp not in TRAINABLE_COMPONENTS:
            raise ValueError(f"unknown optimizer component {comp!r}")
        if st is not None:
            adam[comp] = AdamState.from_jsonable(st)
    rng_obj = obj["rng"]
    if rng_obj["algorithm"] != SeededRng.ALGORITHM:
        raise ValueError(f"unknown rng algorithm {rng_obj['algorithm']!r}")
    return Checkpoint(
        ensad_cfg=ensad_cfg,
        gan_cfg=gan_cfg,
        ensad_params=ensad_params,
        gan_params=gan_params,
        adam=adam,
        rng_seed=int(rng_obj["seed"]),
        rng_position=int(rng_obj["position"]),
        step=int(obj["step"]),
    )


def save_checkpoint(ck: Checkpoint, path: str) -> None:
    atomic_write_text(path, json.dumps(checkpoint_to_jsonable(ck), sort_keys=True) + "\n")


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "r", encoding="utf-8") as fh:
        return checkpoint_from_jsonable(json.load(fh))


def _condition_batch(h, ep, ensad_cfg, mode):
    """Fused conditioning of an (n, m+1, d) batch. Returns the (n, d)
    conditions and the adapter's batched trace, None unless it ran."""
    if mode == "ensad":
        return adapter.forward_batch(ep, ensad_cfg, h)
    if mode == "zero_shot":
        return h[:, 0].copy(), None
    if mode == "translate_test":
        return h[:, 1].copy(), None
    if mode == "mean_pool":
        return l2_normalize_rows(h.mean(axis=1)), None
    raise ValueError(f"unknown conditioning mode {mode!r}")


@dataclass
class StepGrads:
    """Losses and parameter gradients of one training step, before any
    optimizer update. Gradient lists are None for components outside the
    trainable set, and also when the step blew up: a non-finite loss skips
    all gradients, and a non-finite gradient reaching the adapter leaves
    its list None with the reason in grad_failure.

    ``trace`` is the adapter's batched forward trace (its ``h_tilde`` the
    fused conditions, its ``s`` the attention weights) when the adapter
    ran. When the adapter is trained, ``grad_conds`` (n, d) and ``grad_h``
    (n, m+1, d) are the gradients of the adapter-side total w.r.t. the
    fused conditions and the adapter's input rows."""

    parts: LossParts
    loss_ensad: float
    loss_disc: float
    ensad_grads: list | None = None
    gen_grads: list | None = None
    disc_grads: list | None = None
    grad_failure: str | None = None
    trace: ForwardTrace | None = None
    grad_conds: np.ndarray | None = None
    grad_h: np.ndarray | None = None


def step_losses_and_grads(
    ensembles,
    imgs_real: np.ndarray,
    zs: np.ndarray,
    ep: EnsAdParams,
    ensad_cfg: EnsAdConfig,
    gp: ToyGanParams,
    gan_cfg: GanConfig,
    proxy: np.ndarray | None = None,
) -> StepGrads:
    """One full training step's math, pure: forward everything, total both
    losses, and differentiate each trainable component. The adapter and
    generator see the discriminator frozen; the discriminator half holds
    fakes and conditions constant. ``train`` applies these gradients with
    Adam; calling this directly gives the exact training gradients for
    inspection or verification.

    ``ensembles`` is the (n, m+1, d) batch of rows (source first), or a
    sequence of EmbeddingEnsemble. Inputs are not validated here.
    """
    h = ensembles if isinstance(ensembles, np.ndarray) else stack_rows(ensembles)
    n = h.shape[0]
    d = ensad_cfg.d
    htil, trace = _condition_batch(h, ep, ensad_cfg, gan_cfg.conditioning)
    fakes, gen_acts = _generate_batch(gp, htil, zs)
    fd_f, ds_f, acts_f = _disc_forward_batch(gp, fakes)
    fd_r, ds_r, acts_r = _disc_forward_batch(gp, imgs_real)
    logits_f = ds_f + np.sum(fd_f * htil, axis=1)
    logits_r = ds_r + np.sum(fd_r * htil, axis=1)

    parts = LossParts(
        l_ad_ensad=_adv_ensad(logits_f),
        l_ad_d=_adv_disc(logits_r, logits_f),
    )
    cl_a = cl_p = cldf_a = cldf_p = cldr_a = clg_a = clg_p = None
    if gan_cfg.lambda1 > 0:
        if gan_cfg.enable_clg:
            proxy_f = fakes @ proxy.T
            parts.l_cl_g, clg_a, clg_p = _contrastive_with_grads(
                proxy_f, htil, gan_cfg.tau
            )
        else:
            parts.l_cl, cl_a, cl_p = _contrastive_with_grads(
                fd_r, fd_f, gan_cfg.tau
            )
    if gan_cfg.lambda2 > 0:
        parts.l_cl_d_fake, cldf_a, cldf_p = _contrastive_with_grads(
            fd_f, htil, gan_cfg.tau
        )
        parts.l_cl_d_real, cldr_a, _ = _contrastive_with_grads(
            fd_r, htil, gan_cfg.tau
        )
    loss_e, loss_d = total_losses(parts, gan_cfg)
    res = StepGrads(parts=parts, loss_ensad=loss_e, loss_disc=loss_d, trace=trace)
    if not (math.isfinite(loss_e) and math.isfinite(loss_d)):
        return res

    if gan_cfg.trainable & {"ensad", "generator"}:
        # adapter/generator half-step: D frozen, gradients flow through it
        g_logit = (_sigmoid(logits_f) - 1.0) / n
        grad_fd_f = g_logit[:, None] * htil
        grad_ds_f = g_logit.copy()
        grad_htil = g_logit[:, None] * fd_f
        grad_fakes = np.zeros_like(fakes)
        if gan_cfg.lambda1 > 0:
            if gan_cfg.enable_clg:
                grad_fakes += gan_cfg.lambda1 * (clg_a @ proxy)
                grad_htil += gan_cfg.lambda1 * clg_p
            else:
                # the real-feature anchors only touch frozen D weights
                grad_fd_f += gan_cfg.lambda1 * cl_p
        if gan_cfg.lambda2 > 0:
            grad_fd_f += gan_cfg.lambda2 * cldf_a
            grad_htil += gan_cfg.lambda2 * cldf_p
        _, grad_imgs = _disc_backward_batch(gp, acts_f, grad_fd_f, grad_ds_f)
        grad_fakes += grad_imgs
        gen_gws, gen_gbs, grad_x = _mlp_backward(gp.gen_w, gen_acts, grad_fakes)
        grad_htil += grad_x[:, :d]

        if "ensad" in gan_cfg.trainable:
            res.grad_conds = grad_htil
            if np.all(np.isfinite(grad_htil)):
                grads, res.grad_h = adapter.backward_batch(
                    ep, ensad_cfg, trace, grad_htil
                )
                res.ensad_grads = [a for _, a in grads.tensor_items()]
            else:
                res.grad_failure = "non-finite gradient reaching the adapter"
        if "generator" in gan_cfg.trainable:
            gen_grads = []
            for gw, gb in zip(gen_gws, gen_gbs):
                gen_grads.append(gw)
                gen_grads.append(gb)
            res.gen_grads = gen_grads

    if "discriminator" in gan_cfg.trainable:
        # discriminator half-step: fakes and conditions held constant
        g_r = (_sigmoid(logits_r) - 1.0) / n
        g_f = _sigmoid(logits_f) / n
        grad_fd_r2 = g_r[:, None] * htil
        grad_ds_r2 = g_r.copy()
        grad_fd_f2 = g_f[:, None] * htil
        grad_ds_f2 = g_f.copy()
        if gan_cfg.lambda1 > 0 and not gan_cfg.enable_clg:
            grad_fd_r2 += gan_cfg.lambda1 * cl_a
            grad_fd_f2 += gan_cfg.lambda1 * cl_p
        if gan_cfg.lambda2 > 0:
            grad_fd_r2 += gan_cfg.lambda2 * cldr_a
        grads_f, _ = _disc_backward_batch(gp, acts_f, grad_fd_f2, grad_ds_f2)
        grads_r, _ = _disc_backward_batch(gp, acts_r, grad_fd_r2, grad_ds_r2)
        res.disc_grads = [a + b for a, b in zip(grads_f, grads_r)]

    return res


def train(
    ds: Dataset,
    ensad_cfg: EnsAdConfig,
    gan_cfg: GanConfig,
    seed: int,
    *,
    resume: Checkpoint | None = None,
    init_from: tuple[EnsAdParams, ToyGanParams] | None = None,
    log_fn=None,
) -> Checkpoint:
    """Adversarial-contrastive training, deterministic given
    (dataset, configs, seed).

    Each iteration: draw a batch of indices, apply noise augmentation to its
    (n, m+1, d) rows, fuse the conditioning per gan_cfg.conditioning,
    synthesize one fake per item, evaluate both totals on the same fakes,
    then update the adapter and/or generator against the frozen
    discriminator, then the discriminator with everything else held
    constant. Components outside gan_cfg.trainable are
    never touched.

    ``resume`` continues a checkpoint bit-exactly to gan_cfg.steps;
    ``init_from`` seeds parameters (optimizer and stream start fresh).
    ``log_fn`` receives one row dict per step.
    """
    if ds.d != ensad_cfg.d or ds.m != ensad_cfg.m:
        raise ValueError(
            f"dataset (d={ds.d}, m={ds.m}) does not match adapter config "
            f"(d={ensad_cfg.d}, m={ensad_cfg.m})"
        )
    if gan_cfg.d != ds.d or gan_cfg.d_img != ds.d_img:
        raise ValueError(
            f"dataset (d={ds.d}, d_img={ds.d_img}) does not match gan config "
            f"(d={gan_cfg.d}, d_img={gan_cfg.d_img})"
        )
    if "ensad" in gan_cfg.trainable and gan_cfg.conditioning != "ensad":
        raise ValueError(
            "training the adapter requires conditioning='ensad' "
            f"(got {gan_cfg.conditioning!r})"
        )
    if resume is not None and init_from is not None:
        raise ValueError("resume and init_from are mutually exclusive")

    if resume is not None:
        if resume.ensad_cfg != ensad_cfg:
            raise ValueError("resume checkpoint has a different adapter config")
        if replace(resume.gan_cfg, steps=gan_cfg.steps) != gan_cfg:
            raise ValueError("resume checkpoint has a different gan config")
        if resume.rng_seed != seed:
            raise ValueError("resume checkpoint was created with a different seed")
        adapter.validate_params(resume.ensad_params, ensad_cfg)
        validate_gan_params(resume.gan_params, gan_cfg, ensad_cfg.d)
        ep = resume.ensad_params.copy()
        gp = resume.gan_params.copy()
        adam = {comp: st.copy() for comp, st in resume.adam.items()}
        rng = SeededRng(resume.rng_seed, resume.rng_position)
        start_step = resume.step
    else:
        rng = SeededRng(seed)
        if init_from is not None:
            ep_init, gp_init = init_from
            adapter.validate_params(ep_init, ensad_cfg)
            validate_gan_params(gp_init, gan_cfg, ensad_cfg.d)
            ep = ep_init.copy()
            gp = gp_init.copy()
        else:
            ep = init_params(ensad_cfg, rng)
            gp = init_gan_params(gan_cfg, ensad_cfg.d, rng)
        adam = {}
        for comp in TRAINABLE_COMPONENTS:
            if comp in gan_cfg.trainable:
                tensors = {
                    "ensad": lambda: [a for _, a in ep.tensor_items()],
                    "generator": gp.generator_tensors,
                    "discriminator": gp.discriminator_tensors,
                }[comp]()
                adam[comp] = AdamState.init_like(tensors)
        start_step = 0

    proxy = None
    if gan_cfg.enable_clg:
        proxy_rng = SeededRng(derive_seed(seed, _PROXY_SALT))
        proxy = proxy_rng.gaussian(ensad_cfg.d * gan_cfg.d_img).reshape(
            ensad_cfg.d, gan_cfg.d_img
        ) / np.sqrt(gan_cfg.d_img)

    ens_tensors = [a for _, a in ep.tensor_items()]
    gen_tensors = gp.generator_tensors()
    disc_tensors = gp.discriminator_tensors()
    n = gan_cfg.batch

    def snapshot(step_count: int) -> Checkpoint:
        return Checkpoint(
            ensad_cfg=ensad_cfg,
            gan_cfg=gan_cfg,
            ensad_params=ep.copy(),
            gan_params=gp.copy(),
            adam={comp: st.copy() for comp, st in adam.items()},
            rng_seed=seed,
            rng_position=rng.position,
            step=step_count,
        )

    batches = sample_indices(len(ds), n, rng)
    for step in range(start_step, gan_cfg.steps):
        idx = next(batches)
        h = augment_rows(ds.rows[idx], gan_cfg.noise_p0, gan_cfg.noise_pt, rng)
        zs = rng.gaussian_rows(n, gan_cfg.d_z)

        res = step_losses_and_grads(
            h, ds.images[idx], zs, ep, ensad_cfg, gp, gan_cfg, proxy
        )
        if not (math.isfinite(res.loss_ensad) and math.isfinite(res.loss_disc)):
            raise TrainingDiverged(
                step,
                snapshot(step),
                f"non-finite loss at step {step}: "
                f"adapter-side {res.loss_ensad!r}, "
                f"discriminator-side {res.loss_disc!r}",
            )
        component_grads = {
            "ensad": res.ensad_grads,
            "generator": res.gen_grads,
            "discriminator": res.disc_grads,
        }
        for comp in gan_cfg.trainable:
            grads = component_grads[comp]
            if grads is None or not all(np.all(np.isfinite(g)) for g in grads):
                detail = f": {res.grad_failure}" if res.grad_failure else ""
                raise TrainingDiverged(
                    step,
                    snapshot(step),
                    f"non-finite {comp} gradients at step {step}{detail}",
                )

        if "ensad" in gan_cfg.trainable:
            adam_step(
                ens_tensors, res.ensad_grads, adam["ensad"],
                gan_cfg.lr, gan_cfg.beta1, gan_cfg.beta2,
            )
        if "generator" in gan_cfg.trainable:
            adam_step(
                gen_tensors, res.gen_grads, adam["generator"],
                gan_cfg.lr, gan_cfg.beta1, gan_cfg.beta2,
            )
        if "discriminator" in gan_cfg.trainable:
            adam_step(
                disc_tensors, res.disc_grads, adam["discriminator"],
                gan_cfg.lr, gan_cfg.beta1, gan_cfg.beta2,
            )

        if log_fn is not None:
            parts = res.parts
            log_fn(
                {
                    "step": step + 1,
                    "loss_ensad": res.loss_ensad,
                    "loss_disc": res.loss_disc,
                    "l_ad_ensad": parts.l_ad_ensad,
                    "l_ad_d": parts.l_ad_d,
                    "l_cl": parts.l_cl,
                    "l_cl_d": parts.l_cl_d_fake,
                    "l_cl_g": parts.l_cl_g,
                }
            )

    return snapshot(max(start_step, gan_cfg.steps))


def finetune_pipeline(
    ds: Dataset,
    ensad_cfg: EnsAdConfig,
    gan_cfg: GanConfig,
    seed: int,
    *,
    phase1_steps: int,
    phase2_steps: int,
    log_fn=None,
) -> Checkpoint:
    """Two-phase recipe: first fine-tune the generator (and discriminator)
    on source-embedding conditioning, then train the adapter against the
    tuned generator while the discriminator is reset to its pre-phase-1
    snapshot and held fixed.

    Log rows from phase 2 continue phase 1's step numbering.
    """
    if phase1_steps < 0 or phase2_steps < 0:
        raise ValueError("phase budgets must be nonnegative")
    g1 = replace(
        gan_cfg,
        steps=phase1_steps,
        trainable=frozenset({"generator", "discriminator"}),
        conditioning="zero_shot",
    )
    ck0 = train(ds, ensad_cfg, replace(g1, steps=0), seed)
    ck1 = train(ds, ensad_cfg, g1, seed, resume=ck0, log_fn=log_fn)

    g2 = replace(
        gan_cfg,
        steps=phase2_steps,
        trainable=frozenset({"ensad"}),
        conditioning="ensad",
    )
    gp2 = ck1.gan_params.copy()
    snapshot_disc = ck0.gan_params
    gp2.disc_w = [w.copy() for w in snapshot_disc.disc_w]
    gp2.disc_b = [b.copy() for b in snapshot_disc.disc_b]
    gp2.fd_w = snapshot_disc.fd_w.copy()
    gp2.fd_b = snapshot_disc.fd_b.copy()
    gp2.ds_w = snapshot_disc.ds_w.copy()
    gp2.ds_b = snapshot_disc.ds_b.copy()

    log2 = None
    if log_fn is not None:
        def log2(row):
            row = dict(row)
            row["step"] += phase1_steps
            log_fn(row)

    return train(
        ds,
        ensad_cfg,
        g2,
        derive_seed(seed, _PHASE2_SALT),
        init_from=(ck1.ensad_params, gp2),
        log_fn=log2,
    )
