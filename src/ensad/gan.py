"""Toy conditional GAN: generator and two-branch discriminator MLPs, the
adversarial and contrastive losses, Adam, the training loop, and
checkpoints.

The discriminator is D(img, cond) = ds(backbone(img)) + cond . fd(backbone(img)):
an unconditional realness head plus a condition-feature inner product over a
shared backbone. fd doubles as the feature extractor for evaluation.

Parameters are one ``{component: {tensor name: array}}`` mapping, keyed by
TRAINABLE_COMPONENTS; :func:`param_shapes` says what each component holds.
Inside :func:`train` each component's tensors are named views into one
float64 vector, laid out as in format 2's tensor vector.
"""

from __future__ import annotations

import json
import math
import tokenize
import zipfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import adapter, numkit
from .adapter import STRATEGIES, EnsAdConfig, ForwardTrace
from .data import (
    JSON_ERRORS, Dataset, atomic_write, json_uint, set_uint_fields, step_batches,
)
from .numkit import (
    NORM_EPS, SeededRng, TensorSpec, as_f64, check_tensors, derive_seed, init_tensors,
    map_tensors,
)

# The parameter components, in the order of param_shapes and init draws.
TRAINABLE_COMPONENTS = ("ensad", "generator", "discriminator")

# Stream salt for the proxy visual encoder used by the generator-side
# contrastive variant; independent of the training stream by construction.
_PROXY_SALT = 0x1C
# Stream salt separating the two phases of the fine-tune pipeline.
_PHASE2_SALT = 3
# The keys of the per-step row ``train`` passes to ``log_fn``, in the loss
# CSV's column order.
CSV_COLUMNS = ("step", "loss_ensad", "loss_disc", "l_ad_ensad", "l_ad_d",
               "l_cl", "l_cl_d", "l_cl_g")


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
        object.__setattr__(self, "gen_hidden", tuple(self.gen_hidden))
        object.__setattr__(self, "disc_hidden", tuple(self.disc_hidden))
        object.__setattr__(self, "trainable", frozenset(self.trainable))
        set_uint_fields(self, {"d": 1, "d_z": 1, "d_img": 1, "gen_hidden": 1,
                               "disc_hidden": 1, "batch": 1, "steps": 0})
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
        unknown = self.trainable - set(TRAINABLE_COMPONENTS)
        if unknown:
            raise ValueError(f"unknown trainable components {sorted(unknown)}")
        if self.conditioning not in STRATEGIES:
            raise ValueError(f"unknown conditioning mode {self.conditioning!r}")
        if not (0 <= self.noise_p0 <= 1 and 0 <= self.noise_pt <= 1):
            raise ValueError("noise proportions must lie in [0, 1]")


def _mlp_specs(prefix: str, sizes: list) -> dict:
    specs = {}
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        specs[f"{prefix}_w.{i}"] = TensorSpec((n_out, n_in))
        specs[f"{prefix}_b.{i}"] = TensorSpec((n_out,), zero=True)
    return specs


def param_shapes(ensad_cfg: EnsAdConfig, gan_cfg: GanConfig) -> dict:
    """``{component: {tensor name: TensorSpec}}`` for every component, each
    in the order of its gradients, Adam moments and initial draws. MLP
    layers alternate weight and bias; ``gen_w.1`` is the checkpoint's
    ``gen_w[1]``."""
    d = ensad_cfg.d
    disc_sizes = [gan_cfg.d_img, *gan_cfg.disc_hidden]
    h_last = disc_sizes[-1]
    return {
        "ensad": adapter.tensor_specs(ensad_cfg),
        "generator": _mlp_specs("gen", [d + gan_cfg.d_z, *gan_cfg.gen_hidden, gan_cfg.d_img]),
        "discriminator": {
            **_mlp_specs("disc", disc_sizes),
            "fd_w": TensorSpec((d, h_last)),
            "fd_b": TensorSpec((d,), zero=True),
            "ds_w": TensorSpec((h_last,)),
            "ds_b": TensorSpec((), zero=True),
        },
    }


def _mlp_forward(layers: list, x):
    """Batched MLP with tanh after every layer; ``layers`` alternates
    weights and biases. Returns output and the per-layer post-activation
    list (index 0 is the input)."""
    acts = [x]
    for w, b in zip(layers[0::2], layers[1::2]):
        x = np.tanh(x @ w.T + b)
        acts.append(x)
    return x, acts


def _mlp_backward(layers: list, acts, grad_out):
    """Gradients for _mlp_forward, one per entry of ``layers``, and the
    gradient w.r.t. the input batch."""
    grads = [None] * len(layers)
    g = grad_out
    for i in range(len(layers) - 2, -1, -2):
        y = acts[i // 2 + 1]
        g = g * (1.0 - y * y)
        grads[i] = g.T @ acts[i // 2]
        grads[i + 1] = g.sum(axis=0)
        g = g @ layers[i]
    return grads, g


def generate_batch(params: dict, conds: np.ndarray, zs: np.ndarray):
    """Fake images, (n, d_img) with entries in (-1, 1), from (n, d) conditions
    and (n, d_z) noise, and the generator's per-layer activations."""
    x = np.concatenate([conds, zs], axis=1)
    return _mlp_forward(list(params["generator"].values()), x)


def disc_forward_batch(params: dict, imgs: np.ndarray):
    """Discriminator heads on (n, d_img) images: the (n, d) condition features
    fd, the (n,) realness scores ds, and the backbone activations. The logit
    for condition h is ds + h . fd."""
    *backbone, fd_w, fd_b, ds_w, ds_b = params["discriminator"].values()
    r, acts = _mlp_forward(backbone, imgs)
    fd = r @ fd_w.T + fd_b
    ds = r @ ds_w + float(ds_b)
    return fd, ds, acts


def _disc_backward_batch(params: dict, acts, grad_fd, grad_ds):
    """Backprop through both heads and the backbone. Returns the
    discriminator's gradients, ``{name: array}``, and the gradient w.r.t.
    the images."""
    *backbone, fd_w, _, ds_w, _ = params["discriminator"].values()
    r = acts[-1]
    grad_r = grad_fd @ fd_w + grad_ds[:, None] * ds_w[None, :]
    grads, grad_imgs = _mlp_backward(backbone, acts, grad_r)
    grads += [grad_fd.T @ r, grad_fd.sum(axis=0), r.T @ grad_ds, np.asarray(grad_ds.sum())]
    return dict(zip(params["discriminator"], grads)), grad_imgs


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _mean(x: np.ndarray):
    return x.sum() / x.size  # np.mean's arithmetic, without its dispatch


def _adv_ensad(x: np.ndarray) -> float:
    return float(_mean(_softplus(-x)))


def _adv_disc(r: np.ndarray, f: np.ndarray) -> float:
    return float(_mean(_softplus(-r)) + _mean(_softplus(f)))


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


def _unit_rows(x: np.ndarray):
    """The rows of the (n, k) matrix ``x`` scaled to unit norm, and the
    inverse norms; a row of norm below NORM_EPS gets inverse norm 0 and
    becomes zero. The norm is np.linalg.norm's arithmetic along axis 1,
    without its dispatch."""
    norm = np.sqrt(np.add.reduce(x * x, axis=1))
    inv = np.where(norm < NORM_EPS, 0.0, 1.0 / np.maximum(norm, NORM_EPS))
    return x * inv[:, None], inv


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
    loss, _, _ = _contrastive_with_grads(_unit_rows(a), _unit_rows(p), tau)
    return loss


def _contrastive_with_grads(a: tuple, p: tuple, tau: float):
    """Loss of :func:`loss_contrastive` and its gradients w.r.t. the (n, k)
    anchor and positive matrices, which the caller has checked, each given
    as its :func:`_unit_rows`."""
    (ahat, inv_a), (phat, inv_p) = a, p
    n = ahat.shape[0]
    # rows: anchors j; columns: positives i; zero-vector pairs score 0
    sim = ahat @ phat.T
    x = sim / tau
    mx = x.max(axis=0)
    ex = np.exp(x - mx)
    colsum = ex.sum(axis=0)
    lse = np.log(colsum) + mx
    loss = float(-_mean(x.ravel()[::n + 1] - lse))

    # d loss / d sim = (colwise softmax - identity) / (n tau)
    dsim = ex / colsum
    dsim.ravel()[::n + 1] -= 1.0
    dsim /= n * tau
    weighted = dsim * sim
    rows = weighted.sum(axis=1)
    cols = weighted.sum(axis=0)
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
    """Adam state of one component: the moments, ``{name: array}`` like its
    parameters, and the step count."""

    m: dict
    v: dict
    t: int = 0


def adam_step(
    params: dict,
    grads: dict,
    state: AdamState,
    lr: float,
    beta1: float,
    beta2: float,
    eps: float = 1e-8,
) -> dict:
    """Standard bias-corrected Adam, in place on the parameter arrays of one
    component; ``grads`` and the moments have the same tensor names.
    :func:`train` passes a component's flat vectors, in blocks."""
    if params.keys() != grads.keys() or params.keys() != state.m.keys():
        raise ValueError("parameter, gradient and state names differ")
    for name, p in params.items():
        if np.shape(p) != np.shape(grads[name]):
            raise ValueError(f"{name}: gradient shape {np.shape(grads[name])} != {np.shape(p)}")
    state.t += 1
    b1c = 1.0 - beta1 ** state.t
    b2c = 1.0 - beta2 ** state.t
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
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
    params: dict  # {component: {tensor name: array}}, see param_shapes
    adam: dict  # {component: AdamState}, for the trainable components
    rng_seed: int
    rng_position: int
    step: int


class TrainingDiverged(RuntimeError):
    """Raised by :func:`train` when a step's arithmetic overflows, divides by
    zero or goes invalid, or a loss or a trained component's gradient is
    non-finite. ``checkpoint`` is the state at the start of the failed step,
    and ``step`` its step."""

    def __init__(self, checkpoint: Checkpoint, message: str):
        super().__init__(message)
        self.checkpoint = checkpoint
        self.step = checkpoint.step


def _cfg_to_jsonable(cfg) -> dict:
    """A config dataclass as JSON values: sets sorted, tuples as lists."""
    obj = asdict(cfg)
    for key, value in obj.items():
        if isinstance(value, frozenset):
            obj[key] = sorted(value)
        elif isinstance(value, tuple):
            obj[key] = list(value)
    return obj


@contextmanager
def _field(path: str):
    """Re-raise what a malformed checkpoint field raises as a ValueError
    naming the field."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"checkpoint field {path!r}: missing key {exc}") from exc
    except (TypeError, ValueError, RecursionError) as exc:
        raise ValueError(f"checkpoint field {path!r}: {exc}") from exc


def _meta_to_jsonable(ck: Checkpoint) -> dict:
    """The fields both checkpoint formats store as JSON: configs, rng, step."""
    return {
        "configs": {
            "adapter": _cfg_to_jsonable(ck.ensad_cfg),
            "gan": _cfg_to_jsonable(ck.gan_cfg),
        },
        "rng": {
            "algorithm": SeededRng.ALGORITHM,
            "seed": ck.rng_seed,
            "position": ck.rng_position,
        },
        "step": ck.step,
    }


def _meta_from_jsonable(obj: dict) -> dict:
    """Parse what :func:`_meta_to_jsonable` writes, as Checkpoint keyword
    arguments."""
    with _field("configs.adapter"):
        ensad_cfg = EnsAdConfig(**obj["configs"]["adapter"])
    with _field("configs.gan"):
        gan_cfg = GanConfig(**obj["configs"]["gan"])
    with _field("rng.algorithm"):
        if obj["rng"]["algorithm"] != SeededRng.ALGORITHM:
            raise ValueError(f"unknown rng algorithm {obj['rng']['algorithm']!r}")
    with _field("rng.seed"):
        rng_seed = json_uint(obj["rng"]["seed"])
    with _field("rng.position"):
        rng_position = json_uint(obj["rng"]["position"])
    with _field("step"):
        step = json_uint(obj["step"])
    return dict(ensad_cfg=ensad_cfg, gan_cfg=gan_cfg, rng_seed=rng_seed,
                rng_position=rng_position, step=step)


def _check_version(obj: dict, version: int) -> None:
    with _field("version"):
        # a JSON integer: true and 1.0 compare equal to 1 but are not versions
        if type(obj["version"]) is not int or obj["version"] != version:
            raise ValueError(f"unsupported checkpoint version {obj['version']!r}")


def _adam_state(m: dict, v: dict, t, spec: dict) -> AdamState:
    """Moments checked against the component's ``spec``: the same shapes,
    finite, and ``v`` nonnegative."""
    check_tensors(m, spec, "m")
    check_tensors(v, spec, "v")
    if any(np.any(x < 0) for x in v.values()):
        raise ValueError("v contains negative entries")
    return AdamState(m, v, json_uint(t))


# Checkpoint format 1 is the JSON object of checkpoint_to_jsonable. It stores
# a component's tensors under their names, with the layers of ``gen_w.0,
# gen_w.1, ...`` as one list ``gen_w`` and 0-d tensors as plain floats; the
# generator and the discriminator share the object ``params.gan``. Adam
# moments are lists in param_shapes order. It is read, no longer written.


def _tensors_to_jsonable(tensors: dict) -> dict:
    obj = {}
    for name, arr in tensors.items():
        key, layered, _ = name.partition(".")
        if layered:
            obj.setdefault(key, []).append(arr.tolist())
        else:
            obj[key] = arr.tolist()
    return obj


def _tensors_from_jsonable(obj: dict, spec: dict) -> dict:
    tensors = {}
    for name in spec:
        key, layered, i = name.partition(".")
        if i == "0":  # the first layer of a list: check the list's length once
            layers = sum(n.startswith(key + ".") for n in spec)
            if len(obj[key]) != layers:
                raise ValueError(f"{key} has {len(obj[key])} layers, expected {layers}")
        tensors[name] = np.asarray(obj[key][int(i)] if layered else obj[key], dtype=np.float64)
    check_tensors(tensors, spec)
    return tensors


def _adam_from_jsonable(obj: dict, spec: dict) -> AdamState:
    moments = []
    for key in ("m", "v"):
        if len(obj[key]) != len(spec):
            raise ValueError(f"{key} has {len(obj[key])} tensors, expected {len(spec)}")
        moments.append({name: np.asarray(x, dtype=np.float64)
                        for name, x in zip(spec, obj[key])})
    return _adam_state(*moments, obj["t"], spec)


def checkpoint_to_jsonable(ck: Checkpoint) -> dict:
    """``ck`` as a format-1 JSON object."""
    adam_obj = {comp: None for comp in TRAINABLE_COMPONENTS}
    for comp, st in ck.adam.items():
        adam_obj[comp] = {"m": [x.tolist() for x in st.m.values()],
                          "v": [x.tolist() for x in st.v.values()], "t": st.t}
    return {
        "version": 1,
        **_meta_to_jsonable(ck),
        "params": {
            "ensad": _tensors_to_jsonable(ck.params["ensad"]),
            "gan": _tensors_to_jsonable(
                {**ck.params["generator"], **ck.params["discriminator"]}
            ),
        },
        "adam": adam_obj,
    }


def checkpoint_from_jsonable(obj: dict) -> Checkpoint:
    """Parse and validate a format-1 checkpoint; a malformed field raises
    ValueError naming it."""
    _check_version(obj, 1)
    meta = _meta_from_jsonable(obj)
    shapes = param_shapes(meta["ensad_cfg"], meta["gan_cfg"])
    with _field("params.ensad"):
        params = {"ensad": _tensors_from_jsonable(obj["params"]["ensad"], shapes["ensad"])}
    with _field("params.gan"):
        for comp in ("generator", "discriminator"):
            params[comp] = _tensors_from_jsonable(obj["params"]["gan"], shapes[comp])
    with _field("adam"):
        adam_obj = dict(obj["adam"])
        unknown = set(adam_obj) - set(TRAINABLE_COMPONENTS)
        if unknown:
            raise ValueError(f"unknown optimizer components {sorted(unknown)}")
        missing = [c for c in TRAINABLE_COMPONENTS
                   if c in meta["gan_cfg"].trainable and adam_obj.get(c) is None]
        if missing:
            raise ValueError(f"no optimizer state for trainable {missing}")
    adam = {}
    for comp, st in adam_obj.items():
        if st is not None:
            with _field(f"adam.{comp}"):
                adam[comp] = _adam_from_jsonable(st, shapes[comp])
    return Checkpoint(params=params, adam=adam, **meta)


# Checkpoint format 2, what save_checkpoint writes, is an uncompressed
# np.savez archive of exactly two members:
#   header   the UTF-8 bytes of a JSON object, as a uint8 vector: "version"
#            (2), "configs", "rng" and "step" as in format 1, and "adam",
#            the Adam step count t of each trainable component;
#   tensors  one float64 vector: every parameter in param_shapes order,
#            then the m and then the v moments of each trainable component.
# A file is read as format 2 when it starts with the zip magic, else as
# format 1. Equal checkpoints give equal bytes (np.savez fixes the zip
# timestamps).
_ZIP_MAGIC = b"PK\x03\x04"
_MEMBERS = ["header", "tensors"]
# What np.load raises on a truncated or corrupted archive: the zip reader's
# errors, a member that runs past the end of the file (EOFError), a seek
# before its start (OSError), a compression or encryption flag it cannot
# honour (RuntimeError), and an npy header that does not parse (SyntaxError,
# TokenError)
_ARCHIVE_ERRORS = (zipfile.BadZipFile, EOFError, OSError, RuntimeError, SyntaxError,
                   ValueError, tokenize.TokenError)


def _trained(gan_cfg: GanConfig) -> list:
    return [comp for comp in TRAINABLE_COMPONENTS if comp in gan_cfg.trainable]


def _flat_specs(shapes: dict, trained: list) -> list:
    """The specs of format 2's tensor vector, in order."""
    return [shapes[comp] for comp in TRAINABLE_COMPONENTS] + [
        shapes[comp] for comp in trained for _ in ("m", "v")]


def _flatten(tree: dict) -> np.ndarray:
    """The tensors of ``tree`` as one float64 vector, in its order."""
    return np.concatenate(list(tree.values()), axis=None, dtype=np.float64)


def _views(vec: np.ndarray, spec: dict) -> dict:
    """Named views of the flat vector ``vec``, one per tensor of ``spec``,
    in its order: the inverse of :func:`_flatten`."""
    views, end = {}, 0
    for name, s in spec.items():
        start, end = end, end + math.prod(s.shape)
        views[name] = vec[start:end].reshape(s.shape)
    return views


def _blocks(vec: np.ndarray) -> dict:
    """``vec`` as consecutive views of at most numkit.CACHE_BLOCK entries,
    one dict entry each, as train hands them to adam_step."""
    block = numkit.CACHE_BLOCK
    return {i: vec[lo:lo + block] for i, lo in enumerate(range(0, vec.size, block))}


def save_checkpoint(ck: Checkpoint, path: str) -> None:
    """Write ``ck`` to ``path`` in format 2, atomically, with the Adam state
    of the components its config trains."""
    trained = _trained(ck.gan_cfg)
    trees = [ck.params[comp] for comp in TRAINABLE_COMPONENTS] + [
        moments for comp in trained for moments in (ck.adam[comp].m, ck.adam[comp].v)]
    specs = _flat_specs(param_shapes(ck.ensad_cfg, ck.gan_cfg), trained)
    tensors = np.concatenate([np.ravel(tree[name]) for tree, spec in zip(trees, specs)
                              for name in spec], dtype=np.float64)
    header = json.dumps({"version": 2, **_meta_to_jsonable(ck),
                         "adam": {comp: ck.adam[comp].t for comp in trained}}, sort_keys=True)
    with atomic_write(path) as fh:  # to a path, np.savez would append ".npz"
        np.savez(fh, header=np.frombuffer(header.encode("utf-8"), dtype=np.uint8),
                 tensors=tensors)


def _checkpoint_from_archive(fh, path: str) -> Checkpoint:
    """Parse and validate a format-2 checkpoint read from ``fh``."""
    try:
        with np.load(fh, allow_pickle=False) as archive:
            if sorted(archive.files) != _MEMBERS:
                raise ValueError(f"members {sorted(archive.files)}, expected {_MEMBERS}")
            header, tensors = archive["header"], archive["tensors"]
    except _ARCHIVE_ERRORS as exc:
        raise ValueError(f"checkpoint {path}: not a readable archive: {exc}") from exc
    with _field("header"):
        if header.dtype != np.uint8 or header.ndim != 1:
            raise ValueError(f"expected a uint8 vector, got {header.dtype} {header.shape}")
        obj = json.loads(header.tobytes().decode("utf-8"))
    _check_version(obj, 2)
    meta = _meta_from_jsonable(obj)
    trained = _trained(meta["gan_cfg"])
    with _field("adam"):
        steps = dict(obj["adam"])
        if sorted(steps) != sorted(trained):
            raise ValueError(f"optimizer state for {sorted(steps)}, expected the "
                             f"trainable {sorted(trained)}")
    shapes = param_shapes(meta["ensad_cfg"], meta["gan_cfg"])
    specs = _flat_specs(shapes, trained)
    sizes = [math.prod(s.shape) for spec in specs for s in spec.values()]
    with _field("tensors"):
        if tensors.dtype != np.float64 or tensors.shape != (sum(sizes),):
            raise ValueError(f"expected {sum(sizes)} float64 values, got "
                             f"{tensors.dtype} {tensors.shape}")
    # a fresh array per tensor, not a view into the vector, as format 1's
    # reader and train's returned checkpoints hold them
    pieces = iter(np.split(tensors, np.cumsum(sizes)[:-1]))
    trees = [{name: next(pieces).reshape(s.shape).copy() for name, s in spec.items()}
             for spec in specs]
    params = dict(zip(TRAINABLE_COMPONENTS, trees))
    for comp, tree in params.items():
        with _field("params.ensad" if comp == "ensad" else "params.gan"):
            check_tensors(tree, shapes[comp])
    adam = {}
    moments = iter(trees[len(TRAINABLE_COMPONENTS):])
    for comp in trained:
        with _field(f"adam.{comp}"):
            adam[comp] = _adam_state(next(moments), next(moments), steps[comp], shapes[comp])
    return Checkpoint(params=params, adam=adam, **meta)


def load_checkpoint(path: str) -> Checkpoint:
    """Read a checkpoint of either format; a malformed file raises
    ValueError naming the path or the field."""
    with open(path, "rb") as fh:
        if fh.read(len(_ZIP_MAGIC)) == _ZIP_MAGIC:
            fh.seek(0)
            return _checkpoint_from_archive(fh, path)
        fh.seek(0)
        try:
            obj = json.loads(fh.read().decode("utf-8"))
        except JSON_ERRORS as exc:
            raise ValueError(f"checkpoint {path}: not valid JSON: {exc}") from exc
        return checkpoint_from_jsonable(obj)


@dataclass
class StepGrads:
    """Losses and parameter gradients of one training step, before any
    optimizer update. ``grads`` maps each trainable component to its
    gradients, ``{name: array}`` like its parameters. Nothing here is
    checked for finiteness: :func:`train` does that.

    ``trace`` is the adapter's batched forward trace (its ``h_tilde`` the
    fused conditions, its ``s`` the attention weights) when the adapter
    ran. When the adapter is trained, ``grad_conds`` (n, d) and ``grad_h``
    (n, m+1, d) are the gradients of the adapter-side total w.r.t. the
    fused conditions and the adapter's input rows."""

    parts: LossParts
    loss_ensad: float
    loss_disc: float
    grads: dict = field(default_factory=dict)
    trace: ForwardTrace | None = None
    grad_conds: np.ndarray | None = None
    grad_h: np.ndarray | None = None


def step_losses_and_grads(
    h: np.ndarray,
    imgs_real: np.ndarray,
    zs: np.ndarray,
    params: dict,
    ensad_cfg: EnsAdConfig,
    gan_cfg: GanConfig,
    proxy: np.ndarray | None = None,
) -> StepGrads:
    """One full training step's math, pure: forward everything, total both
    losses, and differentiate each trainable component. The adapter and
    generator see the discriminator frozen; the discriminator half holds
    fakes and conditions constant. ``train`` applies these gradients with
    Adam; calling this directly gives the exact training gradients for
    inspection or verification.

    ``h`` is the (n, m+1, d) batch of rows, source first. Inputs are not
    validated here.
    """
    n = h.shape[0]
    d = ensad_cfg.d
    htil, trace = adapter.fuse_batch(h, params["ensad"], ensad_cfg, gan_cfg.conditioning)
    fakes, gen_acts = generate_batch(params, htil, zs)
    fd_f, ds_f, acts_f = disc_forward_batch(params, fakes)
    fd_r, ds_r, acts_r = disc_forward_batch(params, imgs_real)
    logits_f = ds_f + np.sum(fd_f * htil, axis=1)
    logits_r = ds_r + np.sum(fd_r * htil, axis=1)

    parts = LossParts(
        l_ad_ensad=_adv_ensad(logits_f),
        l_ad_d=_adv_disc(logits_r, logits_f),
    )
    cl_a = cl_p = cldf_a = cldf_p = cldr_a = clg_a = clg_p = None
    if gan_cfg.lambda1 > 0 or gan_cfg.lambda2 > 0:
        # each feature matrix is normalized once, for every term it enters
        unit_r, unit_f, unit_h = _unit_rows(fd_r), _unit_rows(fd_f), _unit_rows(htil)
    if gan_cfg.lambda1 > 0:
        if gan_cfg.enable_clg:
            parts.l_cl_g, clg_a, clg_p = _contrastive_with_grads(
                _unit_rows(fakes @ proxy.T), unit_h, gan_cfg.tau
            )
        else:
            parts.l_cl, cl_a, cl_p = _contrastive_with_grads(unit_r, unit_f, gan_cfg.tau)
    if gan_cfg.lambda2 > 0:
        parts.l_cl_d_fake, cldf_a, cldf_p = _contrastive_with_grads(
            unit_f, unit_h, gan_cfg.tau
        )
        parts.l_cl_d_real, cldr_a, _ = _contrastive_with_grads(unit_r, unit_h, gan_cfg.tau)
    loss_e, loss_d = total_losses(parts, gan_cfg)
    res = StepGrads(parts=parts, loss_ensad=loss_e, loss_disc=loss_d, trace=trace)

    if gan_cfg.trainable & {"ensad", "generator"}:
        # adapter/generator half-step: D frozen, gradients flow through it
        g_logit = (_sigmoid(logits_f) - 1.0) / n
        grad_fd_f = g_logit[:, None] * htil
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
        _, grad_imgs = _disc_backward_batch(params, acts_f, grad_fd_f, g_logit)
        grad_fakes += grad_imgs
        gen = params["generator"]
        gen_grads, grad_x = _mlp_backward(list(gen.values()), gen_acts, grad_fakes)
        grad_htil += grad_x[:, :d]

        if "ensad" in gan_cfg.trainable:
            res.grad_conds = grad_htil
            res.grads["ensad"], res.grad_h = adapter.backward_batch(
                params["ensad"], ensad_cfg, trace, grad_htil
            )
        if "generator" in gan_cfg.trainable:
            res.grads["generator"] = dict(zip(gen, gen_grads))

    if "discriminator" in gan_cfg.trainable:
        # discriminator half-step: fakes and conditions held constant
        g_r = (_sigmoid(logits_r) - 1.0) / n
        g_f = _sigmoid(logits_f) / n
        grad_fd_r2 = g_r[:, None] * htil
        grad_fd_f2 = g_f[:, None] * htil
        if gan_cfg.lambda1 > 0 and not gan_cfg.enable_clg:
            grad_fd_r2 += gan_cfg.lambda1 * cl_a
            grad_fd_f2 += gan_cfg.lambda1 * cl_p
        if gan_cfg.lambda2 > 0:
            grad_fd_r2 += gan_cfg.lambda2 * cldr_a
        grads_f, _ = _disc_backward_batch(params, acts_f, grad_fd_f2, g_f)
        grads_r, _ = _disc_backward_batch(params, acts_r, grad_fd_r2, g_r)
        res.grads["discriminator"] = {k: grads_f[k] + grads_r[k] for k in grads_f}

    return res


def check_dataset(ds: Dataset, ensad_cfg: EnsAdConfig, gan_cfg: GanConfig) -> None:
    """Raise ValueError unless the dataset's d, m and d_img are those of the
    adapter and gan configs."""
    if (ds.d, ds.m, ds.d_img) != (ensad_cfg.d, ensad_cfg.m, gan_cfg.d_img) or gan_cfg.d != ds.d:
        raise ValueError(
            f"dataset (d={ds.d}, m={ds.m}, d_img={ds.d_img}) does not match the "
            f"configs (adapter d={ensad_cfg.d}, m={ensad_cfg.m}; "
            f"gan d={gan_cfg.d}, d_img={gan_cfg.d_img})"
        )


def train(
    ds: Dataset,
    ensad_cfg: EnsAdConfig,
    gan_cfg: GanConfig,
    seed: int,
    *,
    resume: Checkpoint | None = None,
    init_from: dict | None = None,
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
    ``init_from`` seeds parameters, a mapping like ``Checkpoint.params``
    (optimizer and stream start fresh).
    ``log_fn`` receives one row dict per step. A step diverges, raising
    :class:`TrainingDiverged`, when its arithmetic overflows, divides by
    zero or goes invalid, or a loss or a trained gradient is non-finite.
    """
    check_dataset(ds, ensad_cfg, gan_cfg)
    if "ensad" in gan_cfg.trainable and gan_cfg.conditioning != "ensad":
        raise ValueError(
            "training the adapter requires conditioning='ensad' "
            f"(got {gan_cfg.conditioning!r})"
        )
    if resume is not None and init_from is not None:
        raise ValueError("resume and init_from are mutually exclusive")

    shapes = param_shapes(ensad_cfg, gan_cfg)
    trained = _trained(gan_cfg)
    if resume is not None:
        if resume.ensad_cfg != ensad_cfg:
            raise ValueError("resume checkpoint has a different adapter config")
        if replace(resume.gan_cfg, steps=gan_cfg.steps) != gan_cfg:
            raise ValueError("resume checkpoint has a different gan config")
        if resume.rng_seed != seed:
            raise ValueError("resume checkpoint was created with a different seed")
        check_tensors(resume.params, shapes)
        source = resume.params
        rng = SeededRng(resume.rng_seed, resume.rng_position)
        start_step = resume.step
    else:
        rng = SeededRng(seed)
        if init_from is not None:
            check_tensors(init_from, shapes)
            source = init_from
        else:
            source = init_tensors(shapes, rng)
        start_step = 0

    # One float64 vector per component, in param_shapes order as in format
    # 2's tensor vector; params[comp] holds named views of it. A trained
    # component's gradients and Adam moments get vectors of the same layout,
    # so its finiteness check and its Adam update are one call each.
    flat = {comp: _flatten(source[comp]) for comp in TRAINABLE_COMPONENTS}
    params = {comp: _views(vec, shapes[comp]) for comp, vec in flat.items()}
    grads = {comp: np.empty_like(flat[comp]) for comp in trained}
    blocks = {comp: (_blocks(flat[comp]), _blocks(grads[comp])) for comp in trained}
    moments, adam = {}, {}
    for comp in trained:
        if resume is None:
            m, v, t = np.zeros_like(flat[comp]), np.zeros_like(flat[comp]), 0
        else:
            with _field(f"adam.{comp}"):
                st = resume.adam[comp]
                st = _adam_state(st.m, st.v, st.t, shapes[comp])
            m, v, t = _flatten(st.m), _flatten(st.v), st.t
        moments[comp] = m, v
        adam[comp] = AdamState(_blocks(m), _blocks(v), t)

    proxy = None
    if gan_cfg.enable_clg:
        proxy_rng = SeededRng(derive_seed(seed, _PROXY_SALT))
        proxy = proxy_rng.gaussian(ensad_cfg.d * gan_cfg.d_img).reshape(
            ensad_cfg.d, gan_cfg.d_img
        ) / np.sqrt(gan_cfg.d_img)

    def snapshot(step_count: int, position: int) -> Checkpoint:
        return Checkpoint(
            ensad_cfg=ensad_cfg,
            gan_cfg=gan_cfg,
            params=map_tensors(np.copy, params),
            adam={comp: AdamState(*(map_tensors(np.copy, _views(x, shapes[comp]))
                                    for x in moments[comp]), adam[comp].t)
                  for comp in trained},
            rng_seed=seed,
            rng_position=position,
            step=step_count,
        )

    batches = step_batches(ds, gan_cfg.batch, gan_cfg.noise_p0, gan_cfg.noise_pt,
                           gan_cfg.d_z, rng, gan_cfg.steps - start_step)
    for step in range(start_step, gan_cfg.steps):
        # where this step's draws start: a diagnostic checkpoint replays it
        position = rng.position
        h, imgs, zs = next(batches)

        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                res = step_losses_and_grads(h, imgs, zs, params, ensad_cfg, gan_cfg, proxy)
            for comp in trained:
                np.concatenate([res.grads[comp][name] for name in shapes[comp]], axis=None,
                               out=grads[comp])
            # an inf already present passes *, +, tanh and exp without raising
            # a flag, and Adam, outside the errstate because a half-applied
            # in-place update cannot be undone, can leave one behind
            values = {"adapter-side loss": res.loss_ensad,
                      "discriminator-side loss": res.loss_disc,
                      **{f"{comp} gradient": grads[comp] for comp in trained}}
            bad = [what for what, x in values.items() if not np.isfinite(x).all()]
            if bad:
                raise FloatingPointError(f"non-finite {', '.join(bad)}")
        except FloatingPointError as exc:
            raise TrainingDiverged(snapshot(step, position), f"{exc} at step {step}") from exc

        for comp in trained:
            adam_step(*blocks[comp], adam[comp], gan_cfg.lr, gan_cfg.beta1, gan_cfg.beta2)

        if log_fn is not None:
            parts = res.parts
            log_fn(dict(zip(CSV_COLUMNS, (
                step + 1, res.loss_ensad, res.loss_disc, parts.l_ad_ensad,
                parts.l_ad_d, parts.l_cl, parts.l_cl_d_fake, parts.l_cl_g,
            ))))

    return snapshot(max(start_step, gan_cfg.steps), rng.position)


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
    ck1 = train(ds, ensad_cfg, g1, seed, log_fn=log_fn)

    g2 = replace(
        gan_cfg,
        steps=phase2_steps,
        trainable=frozenset({"ensad"}),
        conditioning="ensad",
    )
    # the tuned generator with the pre-phase-1 discriminator (phase 1's
    # initial draw); phase 1 leaves the adapter untouched
    init = {**init_tensors(param_shapes(ensad_cfg, g1), SeededRng(seed)),
            "generator": ck1.params["generator"]}

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
        init_from=init,
        log_fn=log2,
    )
