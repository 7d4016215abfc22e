"""Toy conditional GAN: generator and two-branch discriminator MLPs, the
adversarial and contrastive losses, Adam, the training loop, and
checkpoints.

The discriminator is D(img, cond) = ds(backbone(img)) + cond . fd(backbone(img)):
an unconditional realness head plus a condition-feature inner product over a
shared backbone. fd doubles as the feature extractor for evaluation.
The contrastive losses normalize features by :func:`numkit.unit_rows`.

Parameters are one ``{component: {tensor name: array}}`` mapping, keyed by
TRAINABLE_COMPONENTS; :func:`param_shapes` says what each component holds.
Inside :func:`train` parameters and Adam moments are named views into one
float64 vector laid out by :func:`_layout`; every checkpoint this module
returns holds views of a format-2 vector of its own, built by :func:`_unpack`.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import adapter, numkit
from .adapter import STRATEGIES, EnsAdConfig, ForwardTrace
from .data import Dataset, atomic_write, check_fields, step_batches
from .numkit import (
    NORM_EPS, SeededRng, TensorSpec, as_f64, check_tensors, derive_seed, init_tensors,
    json_uint, unit_rows,
)

# The parameter components, in the order of param_shapes and init draws.
TRAINABLE_COMPONENTS = ("ensad", "generator", "discriminator")

# Stream salt for the proxy visual encoder used by the generator-side
# contrastive variant; independent of the training stream by construction.
_PROXY_SALT = 0x1C
# Stream salt separating the two phases of the fine-tune pipeline.
_PHASE2_SALT = 3
# Adam's epsilon, added to the bias-corrected root of v.
_ADAM_EPS = 1e-8
# Keys, in the loss CSV's order, of the record train passes log_fn after each
# completed step's Adam update (none on divergence): int step, float losses.
CSV_COLUMNS = ("step", "loss_ensad", "loss_disc", "l_ad_ensad", "l_ad_d",
               "l_cl", "l_cl_d", "l_cl_g")
# The gan fields each phase of finetune_pipeline sets: phase 1 fine-tunes G
# and D on the source embedding, phase 2 trains the adapter against it.
PIPELINE_PHASES = (
    {"trainable": frozenset({"generator", "discriminator"}), "conditioning": "zero_shot"},
    {"trainable": frozenset({"ensad"}), "conditioning": "ensad"})


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
        check_fields(self, {
            "d": 1, "d_z": 1, "d_img": 1, "gen_hidden": 1, "disc_hidden": 1, "tau": "(0, inf)",
            "lambda1": "[0, inf)", "lambda2": "[0, inf)", "lr": "(0, inf)", "beta1": "[0, 1)",
            "beta2": "[0, 1)", "batch": 1, "steps": 0, "trainable": TRAINABLE_COMPONENTS,
            "conditioning": STRATEGIES, "noise_p0": "[0, 1]", "noise_pt": "[0, 1]"})
        if not self.disc_hidden:
            raise ValueError("disc_hidden: expected at least one hidden layer, got ()")
        if "ensad" in self.trainable and self.conditioning != "ensad":
            raise ValueError("conditioning: training the adapter requires 'ensad', "
                             f"got {self.conditioning!r}")


def _mlp_specs(prefix: str, sizes: list) -> dict:
    specs = {}
    for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
        specs[f"{prefix}_w.{i}"] = TensorSpec((n_out, n_in))
        specs[f"{prefix}_b.{i}"] = TensorSpec((n_out,), zero=True)
    return specs


def param_shapes(ensad_cfg: EnsAdConfig, gan_cfg: GanConfig) -> dict:
    """``{component: {tensor name: TensorSpec}}`` for every component, each
    in the order of its gradients, Adam moments and initial draws. MLP
    layers alternate weight and bias: ``gen_w.0, gen_b.0, gen_w.1, ...``."""
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
    list (index 0 is the input). Each layer adds its bias and takes its
    tanh in place in the matmul's output: the values of
    ``np.tanh(x @ w.T + b)`` without its two temporaries. So every entry of
    the list is its own buffer, and the input is never written."""
    acts = [x]
    for w, b in zip(layers[0::2], layers[1::2]):
        x = x @ w.T
        x += b
        np.tanh(x, out=x)
        acts.append(x)
    return x, acts


def _mlp_backward(layers: list, acts, grad_out, rows=slice(None), first=0,
                  to_params=True, to_input=True):
    """Gradients for _mlp_forward on a stack of batches, for a stack of
    gradient rows: row j backs batch ``rows[j]``, and the rows from ``first``
    on back the batches in order. Returns those rows' parameter gradients,
    one per entry of ``layers`` and summed over the rows (None unless
    ``to_params``), and row 0's input gradient (None unless ``to_input``)."""
    grads = [None] * len(layers)
    g = grad_out
    for i in range(len(layers) - 2, -1, -2):
        y = acts[i // 2 + 1]
        g = g * (1.0 - y * y)[rows]
        if to_params:
            grads[i] = _stack_product(g[first:], acts[i // 2])
            grads[i + 1] = _stack_sum(np.add.reduce(g[first:], axis=-2))
        if i:
            g = g @ layers[i]
    return grads, g[0] @ layers[0] if to_input else None


def _stack_sum(x: np.ndarray) -> np.ndarray:
    """``x`` summed over its leading (stack) axis, in stack order."""
    return x[0] if len(x) == 1 else np.add.reduce(x, axis=0)


def _stack_product(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The sum of g[j].T @ x[j] over the stack, in stack order."""
    return _stack_sum(np.matmul(g.swapaxes(-1, -2), x))


def generate_batch(params: dict, conds: np.ndarray, zs: np.ndarray):
    """Fake images, (n, d_img) with entries in (-1, 1), from (n, d) conditions
    and (n, d_z) noise, and the generator's per-layer activations; (S, n, d)
    stacked conditions give (S, n, d_img), every slice with the same noise."""
    d = conds.shape[-1]
    x = np.empty((*conds.shape[:-1], d + zs.shape[-1]))
    x[..., :d] = conds
    x[..., d:] = zs
    return _mlp_forward(list(params["generator"].values()), x)


def disc_forward_batch(params: dict, imgs: np.ndarray):
    """Discriminator heads on (n, d_img) images: the (n, d) condition features
    fd, the (n,) realness scores ds, and the backbone activations. The logit
    for condition h is ds + h . fd."""
    *backbone, fd_w, fd_b, ds_w, ds_b = params["discriminator"].values()
    r, acts = _mlp_forward(backbone, imgs)
    fd = r @ fd_w.T
    fd += fd_b
    ds = r @ ds_w + float(ds_b)
    return fd, ds, acts


def _softplus(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _mean(x: np.ndarray):
    return np.add.reduce(x, axis=None) / x.size  # np.mean's arithmetic, without its dispatch


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
    arr = as_f64(feats, name)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty list of equal-length vectors")
    return arr


def loss_contrastive(anchor_feats, positive_feats, tau: float) -> float:
    """Temperature-scaled cross-entropy over cosine similarities.

    Column i (the i-th positive) is softmax-normalized over all anchors j,
    and the diagonal pair is the target. A row of norm below NORM_EPS passes
    :func:`numkit.unit_rows` unchanged, and no gradient flows through it.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    a = _feature_matrix(anchor_feats, "anchor features")
    p = _feature_matrix(positive_feats, "positive features")
    if a.shape[0] != p.shape[0]:
        raise ValueError("anchor and positive counts differ")
    losses, _ = _contrastive_with_grads(*unit_rows(np.array([a, p])), tau)
    return float(losses[0])


def _contrastive_with_grads(unit: np.ndarray, norm: np.ndarray, tau: float):
    """Losses of :func:`loss_contrastive` and their gradients, for ``unit``
    and ``norm``, the :func:`numkit.unit_rows` of a (2j, n, k) stack of j
    anchor matrices, then their j positive matrices, which the caller has
    checked. Returns the j losses and the (2j, n, k) gradients w.r.t. the
    stack; each pair's arithmetic is that of a stack of it alone."""
    j, n = unit.shape[0] // 2, unit.shape[-2]
    ahat, phat = unit[:j], unit[j:]
    # rows: anchors j; columns: positives i
    sim = ahat @ phat.swapaxes(-1, -2)
    x = sim / tau
    mx = np.maximum.reduce(x, axis=-2, keepdims=True)
    ex = np.exp(x - mx)
    colsum = np.add.reduce(ex, axis=-2, keepdims=True)
    lse = np.log(colsum) + mx
    loss = -(np.add.reduce(x.diagonal(axis1=-2, axis2=-1) - lse[..., 0, :], axis=-1) / n)

    # d loss / d sim = (colwise softmax - identity) / (n tau)
    dsim = ex / colsum
    dsim.reshape(*dsim.shape[:-2], n * n)[..., ::n + 1] -= 1.0
    dsim /= n * tau
    weighted = dsim * sim
    cols = np.add.reduce(weighted, axis=-2)[..., None]
    rows = np.add.reduce(weighted, axis=-1, keepdims=True)
    grads = np.concatenate([dsim @ phat - rows * ahat,
                            dsim.swapaxes(-1, -2) @ ahat - cols * phat])
    # d unit / d row is (I - unit unit^T) / norm, and zero below NORM_EPS
    grads *= (1.0 / np.where(norm < NORM_EPS, np.inf, norm))[..., None]
    return loss, grads


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
    """A checkpoint's Adam state: ``m`` and ``v`` map each trained component
    to its moments, ``{name: array}`` shaped like its parameters, and one
    step count ``t`` serves all of them."""

    m: dict
    v: dict
    t: int = 0


def adam_step(p: np.ndarray, g: np.ndarray, m: np.ndarray, v: np.ndarray, t: int,
              lr: float, beta1: float, beta2: float) -> None:
    """Standard bias-corrected Adam update number ``t`` (from 1), in place on
    the flat float64 vector ``p`` and its moments ``m`` and ``v``, for the
    gradient ``g``, in slices of numkit.CACHE_BLOCK entries so that each
    slice's temporaries stay in cache. The temporaries are two slice-sized
    buffers written with ``out=``, running the ufuncs of
    ``m += (1 - beta1) g; v += (1 - beta2) g^2;
    p -= lr (m / b1c) / (sqrt(v / b2c) + eps)`` in their order, so the bits
    are theirs. :func:`train` passes three spans of its state vector."""
    if not np.shape(p) == np.shape(g) == np.shape(m) == np.shape(v):
        raise ValueError(f"p, g, m and v shapes differ: {[np.shape(x) for x in (p, g, m, v)]}")
    b1c = 1.0 - beta1 ** t
    b2c = 1.0 - beta2 ** t
    size = min(p.size, numkit.CACHE_BLOCK)
    buf_a, buf_b = np.empty(size), np.empty(size)
    for lo in range(0, p.size, numkit.CACHE_BLOCK):
        pb, gb, mb, vb = (x[lo:lo + numkit.CACHE_BLOCK] for x in (p, g, m, v))
        a, b = buf_a[:pb.size], buf_b[:pb.size]
        mb *= beta1
        np.multiply(gb, 1.0 - beta1, out=a)
        mb += a
        vb *= beta2
        np.multiply(gb, gb, out=a)
        a *= 1.0 - beta2
        vb += a
        np.divide(vb, b2c, out=a)
        np.sqrt(a, out=a)
        a += _ADAM_EPS
        np.divide(mb, b1c, out=b)
        b *= lr
        b /= a
        pb -= b


@dataclass
class Checkpoint:
    ensad_cfg: EnsAdConfig
    gan_cfg: GanConfig
    params: dict  # {component: {tensor name: array}}, see param_shapes
    adam: AdamState  # moments {component: {name: array}} of the trainable components
    rng_seed: int
    rng_position: int
    step: int


class TrainingDiverged(RuntimeError):
    """Raised by :func:`train` when a step's arithmetic overflows, divides by
    zero or goes invalid, or a loss or a trained component's gradient is
    non-finite. ``checkpoint`` is the state at the start of the failed step
    and ``step`` its step."""

    def __init__(self, checkpoint: Checkpoint, reason: str):
        super().__init__(f"{reason} at step {checkpoint.step}")
        self.checkpoint = checkpoint
        self.step = checkpoint.step


def conflicts(cfg, fixed: dict, where: str) -> list:
    """One clause, ``<key>: <fixed value> in <where>, <cfg's value> given``,
    for each key of ``fixed`` that the config ``cfg`` holds at another
    value. Both values are written as JSON, a set as its sorted list."""
    return [f"{key}: {json.dumps(value, default=sorted)} in {where}, "
            f"{json.dumps(getattr(cfg, key), default=sorted)} given"
            for key, value in fixed.items() if getattr(cfg, key) != value]


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


def _check_trees(ck: Checkpoint, shapes: dict) -> None:
    """Raise ValueError naming the field, ``params``, ``params.<component>``
    or ``adam.<component>``, unless ``ck``'s parameters, and the Adam moments
    of the components its config trains, hold the tensors of ``shapes``,
    ``{comp: spec}``: their names in order, and their shapes. Reads no
    values; :func:`_check_state` checks those."""
    with _field("params"):
        if list(ck.params) != list(TRAINABLE_COMPONENTS):
            raise ValueError(f"components {list(ck.params)}, expected {list(TRAINABLE_COMPONENTS)}")
    trees = {"": ck.params, "m.": ck.adam.m, "v.": ck.adam.v}
    for prefix, comp, *_ in _format2(ck.ensad_cfg, ck.gan_cfg):
        with _field(f"adam.{comp}" if prefix else f"params.{comp}"):
            check_tensors(trees[prefix][comp], shapes[comp], prefix[:1])


def _check_state(vec: np.ndarray, layout: list) -> None:
    """Raise ValueError naming the first bad tensor and its checkpoint field
    unless ``vec``, format 2's tensor vector as ``layout`` (:func:`_format2`)
    lays it out, is finite and its ``v`` moments are nonnegative: one
    ``isfinite`` pass and one sign test per ``v`` part. Reads the parts'
    spans, and their components and tensor spans only to name a fault."""
    if np.isfinite(vec).all() and not any(
            (vec[start:end] < 0).any() for prefix, _, start, end, _ in layout if prefix == "v."):
        return
    first = next(iter(np.flatnonzero(~np.isfinite(vec))), vec.size)
    for prefix, comp, start, end, tensors in layout:
        with _field(f"adam.{comp}" if prefix else f"params.{comp}"):
            for name, (_, lo, hi) in tensors.items():
                if lo <= first < hi:  # the tensor of the first bad entry
                    as_f64(vec[lo:hi], prefix + name)
            if prefix == "v." and (vec[start:end] < 0).any():
                raise ValueError("v contains negative entries")


# Checkpoint format 2, the one on-disk checkpoint, is the uncompressed zip
# archive np.savez writes for two members, each an npy 1.0 vector:
#   header   the UTF-8 bytes of a JSON object, as a uint8 vector: "version"
#            (2), "configs", "rng" and "step" as save_checkpoint writes
#            them, and "adam", the Adam step count t under the name of
#            each trainable component (one count, so all must be equal);
#   tensors  one float64 vector: every parameter in param_shapes order,
#            then the m and then the v moments of each trainable component.
# _archive is its one definition: save_checkpoint writes its bytes, and the
# reader loads a file only when it is those bytes for the members it holds.
# The zip dates are fixed, so equal checkpoints give equal bytes. The layout
# covers archives under 4 GiB; a paper-shape checkpoint is 49 MB.
_ZIP_MAGIC = b"PK\x03\x04"


def _npy_vector(descr: str, n: int) -> bytes:
    """numpy's npy 1.0 header of a vector of ``n`` values of dtype ``descr``:
    the dict, room for a 21-digit length, then spaces and a newline up to a
    64-byte boundary."""
    text = f"{{'descr': '{descr}', 'fortran_order': False, 'shape': ({n},), }}"
    text += " " * (21 - len(str(n)))
    size = 64 * ((len(text) + 11) // 64 + 1)
    return (b"\x93NUMPY\x01\x00" + struct.pack("<H", size - 10)
            + text.ljust(size - 11).encode() + b"\n")


def _archive(header: bytes, tensors: np.ndarray) -> list:
    """Format 2's bytes for the members ``header`` and ``tensors``, in file
    order, as five pieces: the framing at even indexes (each member's zip64
    local header and npy header, then the zip directory and end record) and
    the members' data, as given, at odd ones."""
    pieces, directory, at = [], b"", 0
    for name, data in (b"header.npy", np.frombuffer(header, np.uint8)), (b"tensors.npy", tensors):
        npy = _npy_vector(data.dtype.str, data.size)
        size = len(npy) + data.nbytes
        # version 45, no flags, stored, DOS date 1980-01-01 and time 0, CRC-32;
        # the local header's sizes are in its zip64 extra field (tag 1)
        entry = struct.pack("<5HI", 45, 0, 0, 0, 0x21, zlib.crc32(data, zlib.crc32(npy)))
        pieces += [_ZIP_MAGIC + entry + struct.pack("<2I2H", 2**32 - 1, 2**32 - 1, len(name), 20)
                   + name + struct.pack("<2H2Q", 1, 16, size, size) + npy, data]
        # made by 0x32d, no extra field, external attributes: mode 0600
        directory += (b"PK\x01\x02" + struct.pack("<H", 0x32D) + entry
                      + struct.pack("<2I5H2I", size, size, len(name), 0, 0, 0, 0, 0x1800000, at)
                      + name)
        at += len(pieces[-2]) + data.nbytes
    return pieces + [directory + b"PK\x05\x06"
                     + struct.pack("<4H2IH", 0, 0, 2, 2, len(directory), at, 0)]


def _trained(gan_cfg: GanConfig) -> list:
    return [comp for comp in TRAINABLE_COMPONENTS if comp in gan_cfg.trainable]


def _layout(shapes: dict, parts: list) -> list:
    """The float64 vector of ``shapes``, ``{comp: spec}``, for ``parts``,
    ``(prefix, comp)`` pairs in order (prefix "" for parameters, "m." or
    "v." for Adam moments): per part, its prefix, component, span ``start,
    end`` and ``{name: (shape, lo, hi)}`` per tensor."""
    layout, end = [], 0
    for prefix, comp in parts:
        start, tensors = end, {}
        for name, s in shapes[comp].items():
            lo, end = end, end + math.prod(s.shape)
            tensors[name] = s.shape, lo, end
        layout.append((prefix, comp, start, end, tensors))
    return layout


def _format2(ensad_cfg: EnsAdConfig, gan_cfg: GanConfig) -> list:
    """Format 2's tensor vector as :func:`_layout` lays it out."""
    return _layout(param_shapes(ensad_cfg, gan_cfg), [("", c) for c in TRAINABLE_COMPONENTS] + [
        (k, c) for c in _trained(gan_cfg) for k in ("m.", "v.")])


def _vector(trees: dict, layout: list, out=None) -> np.ndarray:
    """The tensors ``trees[prefix][comp][name]`` of ``layout`` as one float64
    vector (or into ``out``), in the layout's order, not the trees' own."""
    arrays = [trees[prefix][comp][name] for prefix, comp, *_, tensors in layout for name in tensors]
    return np.concatenate(arrays or [np.empty(0)], axis=None, out=out,
                          dtype=np.float64 if out is None else None)


def _trees(vec: np.ndarray, layout: list) -> dict:
    """Named views of ``vec`` as ``layout`` lays it out, ``{prefix: {comp:
    {name: view}}}`` with all three prefixes: the inverse of :func:`_vector`."""
    trees = {"": {}, "m.": {}, "v.": {}}
    for prefix, comp, _, _, tensors in layout:
        trees[prefix][comp] = {n: vec[lo:hi].reshape(s) for n, (s, lo, hi) in tensors.items()}
    return trees


def _unpack(vec: np.ndarray, layout: list, ensad_cfg: EnsAdConfig, gan_cfg: GanConfig, t: int,
            rng_seed: int, rng_position: int, step: int) -> Checkpoint:
    """The checkpoint that owns ``vec``, format 2's tensor vector as ``layout``
    lays it out, as :func:`_trees` views; no one else may hold ``vec``. Every
    checkpoint that train, finetune_pipeline and load_checkpoint return is built here."""
    trees = _trees(vec, layout)
    return Checkpoint(ensad_cfg, gan_cfg, trees[""], AdamState(trees["m."], trees["v."], t),
                      rng_seed, rng_position, step)


def _tensor_vector(ck: Checkpoint) -> np.ndarray:
    """Format 2's tensor vector of ``ck``: its parameters and the Adam
    moments of the components its config trains, as one float64 vector."""
    return _vector({"": ck.params, "m.": ck.adam.m, "v.": ck.adam.v},
                   _format2(ck.ensad_cfg, ck.gan_cfg))


def save_checkpoint(ck: Checkpoint, path: str) -> None:
    """Write ``ck`` to ``path`` in format 2, atomically, with the Adam state
    of the components its config trains."""
    trained = _trained(ck.gan_cfg)
    header = json.dumps({
        "version": 2,
        "configs": {"adapter": vars(ck.ensad_cfg), "gan": vars(ck.gan_cfg)},
        "rng": {
            "algorithm": SeededRng.ALGORITHM,
            "seed": ck.rng_seed,
            "position": ck.rng_position,
        },
        "step": ck.step,
        "adam": {comp: ck.adam.t for comp in trained},
    }, sort_keys=True, default=sorted)  # a set as its sorted list
    with atomic_write(path) as fh:
        fh.writelines(_archive(header.encode("utf-8"), _tensor_vector(ck)))


def _checkpoint_from_archive(raw: bytes, path: str) -> Checkpoint:
    """Parse and validate the format-2 checkpoint ``raw``: find the members
    through their zip64 local headers, and refuse the file unless
    :func:`_archive` lays out its framing for them, byte for byte."""
    def uint(at, n):  # the little-endian unsigned field of raw at ``at``, 0 past its end
        return int.from_bytes(raw[at:at + n], "little")
    view, at, data = memoryview(raw), 0, []
    for _ in range(2):  # name and extra lengths, the zip64 size, the npy header length
        name_end = at + 30 + uint(at + 26, 2)
        start = name_end + uint(at + 28, 2)
        at = start + uint(name_end + 4, 8)
        data.append(view[start + 10 + uint(start + 8, 2):at])
    header, tensors = data[0].tobytes(), np.frombuffer(data[1], np.float64, len(data[1]) // 8)
    at = 0
    for i, piece in enumerate(_archive(header, tensors)):
        # the data are the file's own bytes, and the framing's CRC-32s cover
        # them; the zip directory must end the file
        end = at + memoryview(piece).nbytes if i < 4 else len(raw)
        if i % 2 == 0 and raw[at:end] != piece:
            what = ("header.npy headers", "tensors.npy headers", "zip directory")[i // 2]
            raise ValueError(f"checkpoint {path}: not a readable archive: "
                             f"bytes {at}-{end} ({what}) differ from format 2's layout")
        at = end
    with _field("header"):
        obj = json.loads(header.decode("utf-8"))
    with _field("version"):
        # a JSON integer: 2.0 equals 2 but is not a version
        if type(obj["version"]) is not int or obj["version"] != 2:
            raise ValueError(f"unsupported checkpoint version {obj['version']!r}")
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
    trained = _trained(gan_cfg)
    with _field("adam"):
        steps = dict(obj["adam"])
        if sorted(steps) != sorted(trained):
            raise ValueError(f"optimizer state for {sorted(steps)}, expected the "
                             f"trainable {sorted(trained)}")
    for comp in trained:
        with _field(f"adam.{comp}"):
            steps[comp] = json_uint(steps[comp])
    with _field("adam"):
        if len(set(steps.values())) > 1:
            raise ValueError(f"step counts differ: {steps}")
    layout = _format2(ensad_cfg, gan_cfg)
    size = layout[-1][3]
    with _field("tensors"):
        if tensors.size != size:
            raise ValueError(f"expected {size} float64 values, got "
                             f"{tensors.dtype} {tensors.shape}")
    # names and shapes hold by construction; the values are checked here
    _check_state(tensors, layout)
    return _unpack(tensors.copy(), layout, ensad_cfg, gan_cfg, max(steps.values(), default=0),
                   rng_seed, rng_position, step)


def load_checkpoint(path: str) -> Checkpoint:
    """Read a format-2 checkpoint; a malformed file raises ValueError naming
    the path or the field. A file without the zip magic (an empty file, an
    ``.npy`` array, JSON) is refused as not a format-2 archive."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(_ZIP_MAGIC):
        raise ValueError(f"checkpoint {path}: not a format-2 archive")
    return _checkpoint_from_archive(raw, path)


@dataclass
class StepGrads:
    """Losses and parameter gradients of one training step, before any
    optimizer update. ``grads`` maps each trainable component to its
    gradients, ``{name: array}`` like its parameters. Nothing here is
    checked for finiteness: :func:`train` does that.

    ``trace`` is the adapter's batched forward trace (its ``h_tilde`` the
    fused conditions, its ``s`` the attention weights) when the adapter
    ran. When the adapter is trained, ``grad_conds`` (n, d) is the
    gradient of the adapter-side total w.r.t. the fused conditions; the
    step does not compute the gradient w.r.t. the adapter's input rows,
    which are data, but ``adapter.backward_batch(params["ensad"], cfg,
    trace, grad_conds)`` returns it."""

    parts: LossParts
    loss_ensad: float
    loss_disc: float
    grads: dict = field(default_factory=dict)
    trace: ForwardTrace | None = None
    grad_conds: np.ndarray | None = None


class _StepPlan(NamedTuple):
    """What :func:`step_losses_and_grads` computes for one GanConfig, which
    stays fixed through a run, so :func:`train` builds it once."""

    cfg: GanConfig
    terms: tuple  # the active contrastive terms' LossParts fields
    # the terms' anchors, then their positives, as indices into (fd of the
    # fakes, fd of the reals, the fused conditions, the fakes' proxy features)
    feats: tuple
    # the discriminator backward's rows as indices into the stack [fakes,
    # reals]: the fakes toward the adapter and generator (D frozen), then the
    # fakes and the reals toward D (fakes and conditions held constant); and
    # per row, (1,) where its logit's target is real, else (0,)
    rows: np.ndarray
    targets: np.ndarray
    # (row, λ, gradient) per contrastive term a row's fd gradient takes, and
    # (λ, gradient) per term the fused conditions' gradient takes; a gradient
    # indexes the stack of the terms' anchor, then positive, gradients
    fd_terms: tuple
    htil_terms: tuple
    to_gen: bool  # the adapter or the generator is trained
    to_disc: bool  # the discriminator is trained


def _step_plan(gan_cfg: GanConfig) -> _StepPlan:
    """The step plan of ``gan_cfg``; see :class:`_StepPlan`."""
    lam1, lam2 = gan_cfg.lambda1, gan_cfg.lambda2
    terms = (("l_cl_g" if gan_cfg.enable_clg else "l_cl",) if lam1 > 0 else ()) + (
        ("l_cl_d_fake", "l_cl_d_real") if lam2 > 0 else ())
    pairs = {"l_cl": (1, 0), "l_cl_g": (3, 2), "l_cl_d_fake": (0, 2), "l_cl_d_real": (1, 2)}
    # each active term's anchor ("a") and positive ("p") gradient
    grad = {(side, name): t + len(terms) * (side == "p")
            for t, name in enumerate(terms) for side in "ap"}

    def take(*wanted):  # the active ones of (λ, side, term)
        return tuple((lam, grad[side, name]) for lam, side, name in wanted
                     if (side, name) in grad)

    to_gen = bool(gan_cfg.trainable & {"ensad", "generator"})
    to_disc = "discriminator" in gan_cfg.trainable
    # per row: its stack index, its target and its fd terms
    rows = [(0, 1.0, take((lam1, "p", "l_cl"), (lam2, "a", "l_cl_d_fake")))] * to_gen + [
        (0, 0.0, take((lam1, "p", "l_cl"))),
        (1, 1.0, take((lam1, "a", "l_cl"), (lam2, "a", "l_cl_d_real")))] * to_disc
    return _StepPlan(
        cfg=gan_cfg, terms=terms, feats=tuple(pairs[name][k] for k in (0, 1) for name in terms),
        rows=np.array([r[0] for r in rows], dtype=np.intp),
        targets=np.array([r[1] for r in rows]).reshape(-1, 1),
        fd_terms=tuple((i, lam, g) for i, r in enumerate(rows) for lam, g in r[2]),
        htil_terms=take((lam1, "p", "l_cl_g"), (lam2, "p", "l_cl_d_fake")),
        to_gen=to_gen, to_disc=to_disc)


# The three adversarial softplus terms as one stack: of the fake logits
# negated (the adapter side), then of the real ones negated and of the fake
# ones (the discriminator side).
_ADV_ROWS = np.array([0, 1, 0])
_ADV_SIGNS = np.array([[-1.0], [-1.0], [1.0]])


def step_losses_and_grads(h: np.ndarray, imgs_real: np.ndarray, zs: np.ndarray, params: dict,
                          ensad_cfg: EnsAdConfig, plan: _StepPlan,
                          proxy: np.ndarray | None = None) -> StepGrads:
    """One full training step's math, pure: forward everything, total both
    losses, and differentiate each trainable component, as ``plan``
    (:func:`_step_plan` of the gan config) says. The adapter and
    generator see the discriminator frozen; the discriminator half holds
    fakes and conditions constant. ``train`` applies these gradients with
    Adam; calling this directly gives the exact training gradients for
    inspection or verification.

    ``h`` is the (n, m+1, d) batch of rows, source first. Inputs are not
    validated here.
    """
    n, cfg = h.shape[0], plan.cfg
    htil, trace = adapter.fuse_batch(h, params["ensad"], ensad_cfg, cfg.conditioning)
    fakes, gen_acts = generate_batch(params, htil, zs)
    # one discriminator pass over the stack [fakes, reals]
    fd, ds, acts = disc_forward_batch(params, np.array([fakes, imgs_real]))
    logits = ds + np.add.reduce(fd * htil, axis=-1)

    adv = np.add.reduce(_softplus(_ADV_SIGNS * logits[_ADV_ROWS]), axis=-1) / n
    parts = LossParts(l_ad_ensad=float(adv[0]), l_ad_d=float(adv[1] + adv[2]))
    if plan.terms:  # the active contrastive terms, in one call over their stack
        feats = (*fd, htil, fakes @ proxy.T if "l_cl_g" in plan.terms else None)
        losses, cl_grads = _contrastive_with_grads(
            *unit_rows(np.array([feats[i] for i in plan.feats])), cfg.tau)
        for name, loss in zip(plan.terms, losses.tolist()):
            setattr(parts, name, loss)
    res = StepGrads(parts, *total_losses(parts, cfg), trace=trace)

    # the discriminator backward: per row of plan.rows, its logit gradient
    # and the contrastive gradients its fd gradient takes
    to_gen, to_disc = plan.to_gen, plan.to_disc
    if not (to_gen or to_disc):
        return res
    grad_ds = (_sigmoid(logits)[plan.rows] - plan.targets) / n
    grad_fd = grad_ds[..., None] * htil
    for row, lam, g in plan.fd_terms:
        grad_fd[row] += lam * cl_grads[g]
    *backbone, fd_w, _, ds_w, _ = params["discriminator"].values()
    k = int(to_gen)  # the first D-side row
    grads_d, grad_fakes = _mlp_backward(backbone, acts, grad_fd @ fd_w + grad_ds[..., None] * ds_w,
                                        plan.rows, k, to_disc, to_gen)

    trainable = cfg.trainable
    if to_gen:
        if "l_cl_g" in plan.terms:  # the first term when active
            grad_fakes += cfg.lambda1 * (cl_grads[0] @ proxy)
        gen = params["generator"]
        gen_grads, grad_x = _mlp_backward(list(gen.values()), [a[None] for a in gen_acts],
                                          grad_fakes[None], to_params="generator" in trainable,
                                          to_input="ensad" in trainable)
    if "ensad" in trainable:
        grad_htil = grad_ds[0][:, None] * fd[0]
        for lam, g in plan.htil_terms:
            grad_htil += lam * cl_grads[g]
        grad_htil += grad_x[:, :ensad_cfg.d]
        res.grad_conds = grad_htil
        res.grads["ensad"], _ = adapter.backward_batch(params["ensad"], ensad_cfg, trace,
                                                       grad_htil, to_input=False)
    if "generator" in trainable:
        res.grads["generator"] = dict(zip(gen, gen_grads))
    if to_disc:
        r, gd, gf = acts[-1], grad_ds[k:], grad_fd[k:]
        grads_d += [_stack_product(gf, r), _stack_sum(np.add.reduce(gf, axis=-2)),
                    _stack_product(r, gd[..., None])[:, 0],
                    np.asarray(_stack_sum(np.add.reduce(gd, axis=-1)))]
        res.grads["discriminator"] = dict(zip(params["discriminator"], grads_d))
    return res


def check_dataset(ds: Dataset, ensad_cfg: EnsAdConfig, gan_cfg: GanConfig) -> None:
    """Raise ValueError, naming each field that differs, unless the
    dataset's d, m and d_img are those of the adapter and gan configs."""
    diff = [f"{name} config {clause}" for name, cfg, dims in (
        ("adapter", ensad_cfg, {"d": ds.d, "m": ds.m}),
        ("gan", gan_cfg, {"d": ds.d, "d_img": ds.d_img}),
    ) for clause in conflicts(cfg, dims, "the dataset")]
    if diff:
        raise ValueError("configs conflict with the dataset: " + "; ".join(diff))


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
    constant. Components outside gan_cfg.trainable are never touched.

    ``resume`` continues a checkpoint bit-exactly to gan_cfg.steps, which
    may not lie below its step; every other config field must match.
    Without it, train resumes the step-0 checkpoint of the initial draws,
    or of ``init_from`` (a mapping like ``Checkpoint.params``; no draws):
    zero Adam moments, and the stream after the draws.
    ``log_fn`` gets each completed step's :data:`CSV_COLUMNS` record after
    its Adam update. A step diverges, raising :class:`TrainingDiverged`
    and logging nothing, when its arithmetic overflows, divides by zero
    or goes invalid, or a loss or a trained gradient is non-finite.
    Its checkpoints, returned or raised, are built by :func:`_unpack`.
    """
    check_dataset(ds, ensad_cfg, gan_cfg)
    seed = json_uint(seed, 0, "seed")
    if resume is not None and init_from is not None:
        raise ValueError("resume and init_from are mutually exclusive")

    shapes = param_shapes(ensad_cfg, gan_cfg)
    trained = _trained(gan_cfg)
    if resume is None:
        # a fresh start resumes the step-0 checkpoint of the drawn or given
        # parameters: zero moments, and the stream after the init draws
        rng = SeededRng(seed)
        params = init_tensors(shapes, rng) if init_from is None else init_from
        zeros = {c: {name: np.zeros(s.shape) for name, s in shapes[c].items()} for c in trained}
        resume = Checkpoint(ensad_cfg, gan_cfg, params, AdamState(zeros, zeros), seed,
                            rng.position, 0)
    else:
        for name in ("rng_seed", "rng_position", "step"):  # named as load_checkpoint names them
            with _field(name.replace("_", ".")):
                resume = replace(resume, **{name: json_uint(getattr(resume, name))})
        for kind, old, new in (("adapter", resume.ensad_cfg, ensad_cfg),
                               ("gan", replace(resume.gan_cfg, steps=gan_cfg.steps), gan_cfg)):
            diff = conflicts(new, vars(old), "the checkpoint")
            if diff:
                raise ValueError(f"resume checkpoint has a different {kind} config: "
                                 + "; ".join(diff))
        if resume.step > gan_cfg.steps:
            raise ValueError(f"resume checkpoint is at step {resume.step}, "
                             f"past steps {gan_cfg.steps}")
        if resume.rng_seed != seed:
            raise ValueError(f"resume checkpoint was created with seed {resume.rng_seed}, "
                             f"not {seed}")
    _check_trees(resume, shapes)
    with _field("adam"):
        t = json_uint(resume.adam.t)
    fmt2 = _format2(ensad_cfg, gan_cfg)
    _check_state(_tensor_vector(resume), fmt2)

    # One float64 vector holds the state: the trained components'
    # parameters, their m and their v moments, then the other parameters,
    # each component in param_shapes order. trees holds named views of it,
    # and the trained components' gradients get a vector of the first
    # span's layout, so a step runs one finiteness check and one Adam
    # update, over three aligned spans, for all of them.
    layout = _layout(shapes, [(k, c) for k in ("", "m.", "v.") for c in trained] + [
        ("", c) for c in TRAINABLE_COMPONENTS if c not in trained])
    state = _vector({"": resume.params, "m.": resume.adam.m, "v.": resume.adam.v}, layout)
    trees = _trees(state, layout)
    params = {comp: trees[""][comp] for comp in TRAINABLE_COMPONENTS}
    n = layout[len(trained)][2]  # the trained parameters end where the next part starts
    p, m, v = state[:3 * n].reshape(3, n)
    grad = np.empty(n)
    rng = SeededRng(resume.rng_seed, resume.rng_position)

    proxy = None
    if gan_cfg.enable_clg:
        proxy = SeededRng(derive_seed(seed, _PROXY_SALT)).gaussian(
            ensad_cfg.d * gan_cfg.d_img).reshape(ensad_cfg.d, -1) / np.sqrt(gan_cfg.d_img)

    def snapshot(done: int, position: int) -> Checkpoint:
        return _unpack(_vector(trees, fmt2), fmt2, ensad_cfg, gan_cfg, t, seed, position, done)

    plan = _step_plan(gan_cfg)
    batches = step_batches(ds, gan_cfg.batch, gan_cfg.noise_p0, gan_cfg.noise_pt,
                           gan_cfg.d_z, rng, gan_cfg.steps - resume.step,
                           adapter.READ_ROWS[gan_cfg.conditioning])
    for step in range(resume.step, gan_cfg.steps):
        # where this step's draws start: a diagnostic checkpoint replays it
        position = rng.position
        h, imgs, zs = next(batches)

        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                res = step_losses_and_grads(h, imgs, zs, params, ensad_cfg, plan, proxy)
            lp = res.parts
            record = dict(zip(CSV_COLUMNS, (step + 1, res.loss_ensad, res.loss_disc, lp.l_ad_ensad,
                                            lp.l_ad_d, lp.l_cl, lp.l_cl_d_fake, lp.l_cl_g)))
            _vector({"": res.grads}, layout[:len(trained)], out=grad)
            # an inf already present passes *, +, tanh and exp without raising
            # a flag, and Adam, outside the errstate because a half-applied
            # in-place update cannot be undone, can leave one behind
            totals = (("adapter-side loss", "loss_ensad"), ("discriminator-side loss", "loss_disc"))
            bad = [what for what, key in totals if not math.isfinite(record[key])]
            if not np.isfinite(grad).all():
                bad += [f"{comp} gradient" for comp in trained
                        if not all(np.isfinite(x).all() for x in res.grads[comp].values())]
            if bad:
                raise FloatingPointError(f"non-finite {', '.join(bad)}")
        except FloatingPointError as exc:
            raise TrainingDiverged(snapshot(step, position), str(exc)) from exc

        if trained:  # t counts the updates Adam applied
            t += 1
            adam_step(p, grad, m, v, t, gan_cfg.lr, gan_cfg.beta1, gan_cfg.beta2)

        if log_fn is not None:
            log_fn(record)

    return snapshot(gan_cfg.steps, rng.position)


def finetune_pipeline(
    ds: Dataset,
    ensad_cfg: EnsAdConfig,
    gan_cfg: GanConfig,
    seed: int,
    *,
    phase1_steps: int,
    resume: Checkpoint | None = None,
    log_fn=None,
) -> Checkpoint:
    """Two-phase recipe over ``gan_cfg.steps`` steps: the first
    ``phase1_steps`` fine-tune the generator (and discriminator) on
    source-embedding conditioning, the rest train the adapter against the
    tuned generator while the discriminator is reset to its pre-phase-1
    snapshot and held fixed.

    Phase 2 resumes phase 1's step count on its own stream, so its log
    rows, a :class:`TrainingDiverged` it raises and the returned checkpoint
    count the whole run. ``resume`` continues any such checkpoint ``ck``
    bit-exactly, to ``gan_cfg.steps``. Phase 1's finishes phase 1, then
    runs phase 2 as above. Phase 2's must have begun (at
    ``ck.step - ck.adam.t``) at ``phase1_steps``, and ``seed`` must derive
    ``ck.rng_seed`` or equal it. Any other fails :func:`train`'s config check.
    """
    phase1_steps = json_uint(phase1_steps, 0, "phase1_steps")
    if phase1_steps > gan_cfg.steps:
        raise ValueError(f"phase1_steps {phase1_steps} must lie in [0, steps {gan_cfg.steps}]")
    g1 = replace(gan_cfg, steps=phase1_steps, **PIPELINE_PHASES[0])
    g2 = replace(gan_cfg, **PIPELINE_PHASES[1])
    seed = json_uint(seed, 0, "seed")
    seed2 = derive_seed(seed, _PHASE2_SALT)
    if resume is not None and resume.gan_cfg.trainable == g2.trainable:
        began = resume.step - resume.adam.t
        if began != phase1_steps:
            raise ValueError(f"resume checkpoint's phase 2 began at step {began}, "
                             f"not at phase1_steps {phase1_steps}")
        if resume.rng_seed not in (seed, seed2):
            raise ValueError(f"resume checkpoint was created with phase 2's seed "
                             f"{resume.rng_seed}, which seed {seed} does not derive")
        return train(ds, ensad_cfg, g2, resume.rng_seed, resume=resume, log_fn=log_fn)
    ck0 = train(ds, ensad_cfg, replace(g1, steps=0), seed)
    ck1 = train(ds, ensad_cfg, g1, seed, resume=resume or ck0, log_fn=log_fn)
    # the tuned generator with ck0's discriminator and (untouched) adapter
    init = {**ck0.params, "generator": ck1.params["generator"]}
    # phase 2's fresh Adam state and stream, set at phase 1's last step
    start = train(ds, ensad_cfg, replace(g2, steps=0), seed2, init_from=init)
    return train(ds, ensad_cfg, g2, seed2, resume=replace(start, step=phase1_steps),
                 log_fn=log_fn)
