"""The ensemble adapter: additive attention over translation embeddings,
fused into the source embedding through a gated residual.

The math is batched and row-major: :func:`forward_batch` and
:func:`backward_batch` take an (n, m+1, d) stack of ensembles, per item the
source row first, and pass it through each weight matrix as one 2-D
product (weights used untransposed, ``x @ w.T``); the parameter gradients
are summed over the batch by the same kind of product. Reductions are bare
ufunc calls (``np.add.reduce``, ``np.maximum.reduce``). Zero-norm
conventions are applied with ``np.where`` on safe divisors, so every item
of a batch follows the same code path. :func:`forward`/:func:`backward`
are their one-item views in the paper's (d, m+1) column layout.

This module also owns the adapter's tensor spec, initialization and
counting, the batched fusion over all strategies (the adapter and the
non-learned baselines), and the attention-score export schema. Parameters
and their gradients are ``{name: array}`` in :func:`tensor_specs` order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .data import check_real_fields, set_bool_fields, set_uint_fields
from .numkit import NORM_EPS, SeededRng, TensorSpec, as_f64, init_tensors, unit_rows


@dataclass(frozen=True)
class EnsAdConfig:
    d: int = 512
    d_hid: int = 256
    m: int = 12
    alpha: float = 0.2
    variant_v_equals_k: bool = False

    def __post_init__(self):
        set_uint_fields(self, {"d": 1, "d_hid": 1, "m": 1})
        check_real_fields(self, {"alpha": "[0, 1]"})
        set_bool_fields(self, ["variant_v_equals_k"])


def tensor_specs(cfg: EnsAdConfig) -> dict:
    """The adapter's tensors, in the order of their gradients, Adam moments
    and initial draws. ``wp`` is the single score-projection row. The score
    has no bias: the softmax over the m translations does not change when
    every score shifts by the same amount, so a bias would get no gradient."""
    d, dh = cfg.d, cfg.d_hid
    return {
        "wq": TensorSpec((dh, d)),
        "wk": TensorSpec((dh, d)),
        "wv": TensorSpec((dh, d)),
        "b": TensorSpec((dh,), zero=True),
        "wp": TensorSpec((dh,)),
        "wo": TensorSpec((d, d)),
    }


def init_params(cfg: EnsAdConfig, rng: SeededRng) -> dict:
    """``{name: array}`` with weights i.i.d. N(0, 1/fan_in) and biases zero,
    drawn in :func:`tensor_specs` order (wq, wk, wv, wp, wo, row-major)."""
    return init_tensors(tensor_specs(cfg), rng)


def param_count(cfg: EnsAdConfig) -> int:
    """Total scalar count: three query/key/value maps, two hidden-width
    bias/projection vectors and one d x d output map."""
    return sum(math.prod(s.shape) for s in tensor_specs(cfg).values())


@dataclass
class ForwardTrace:
    """What the backward pass needs from one batched adapter forward pass.

    The leading axis is the batch (n items); each item has m translation
    rows. Shapes: ``h`` (n, m+1, d) the input rows, source first; ``v``
    (n, m, d) the value rows and ``vraw_norm`` (n, m) their norms before
    normalization; ``t`` (n, m, d_hid) the tanh of the attention
    preactivation; ``s`` (n, m) the attention weights; ``u``/``uhat``
    (n, m, d) the refined value rows before and after normalization, with
    norms ``u_norm`` (n, m); ``vo`` (n, m, d) the gated value mix; ``c``
    (n, d) the normalized context, ``craw_norm`` (n,) its raw norm;
    ``hraw_norm`` (n,) the norm of the gated residual; ``h_tilde`` (n, d)
    the fused output.
    """

    h: np.ndarray
    vraw_norm: np.ndarray
    v: np.ndarray
    t: np.ndarray
    s: np.ndarray
    u: np.ndarray
    u_norm: np.ndarray
    uhat: np.ndarray
    vo: np.ndarray
    c: np.ndarray
    craw_norm: np.ndarray
    hraw_norm: np.ndarray
    h_tilde: np.ndarray


def _normalize_backward(grad, unit, norm):
    """Backward of x -> x/|x| given unit = x/|x|: (I - unit unit^T) grad / |x|,
    and zero where |x| fell below NORM_EPS."""
    proj = grad - unit * np.add.reduce(unit * grad, axis=-1, keepdims=True)
    small = (norm < NORM_EPS)[..., None]
    return np.where(small, 0.0, proj / np.where(small, 1.0, norm[..., None]))


def _matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for a stack of rows x (..., k) and a (k, j) matrix, as one
    2-D product."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])


def _outer_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over every leading index of the outer products a_i b_i^T."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def forward_batch(
    p: dict, cfg: EnsAdConfig, h: np.ndarray
) -> tuple[np.ndarray, ForwardTrace]:
    """Fuse each source embedding with its translations via additive
    attention, for a whole batch at once.

    ``h`` is (n, m+1, d): per item, row 0 the source embedding and rows
    1..m the translations. Value rows are the unit-normalized translation
    offsets (or the translations themselves under ``variant_v_equals_k``).
    A gated residual mixes the attention context back into the query with
    weight ``alpha`` and the result is re-normalized. Returns the (n, d)
    fused unit vectors and the batched trace.

    When ``alpha == 0`` or an item's context vector vanishes, that item's
    query passes through bit-exactly. Inputs are not checked here;
    parameters are validated where they enter the program (loading,
    ``train``), and data where it is read.
    """
    alpha, v_eq_k = cfg.alpha, cfg.variant_v_equals_k
    q = h[:, 0]
    k = h[:, 1:]
    vraw = k if v_eq_k else k - q[:, None, :]
    vunit, vraw_norm = unit_rows(vraw)
    v = vraw if v_eq_k else vunit

    a = _matmul(k, p["wk"].T) + _matmul(v, p["wv"].T) + (q @ p["wq"].T + p["b"])[:, None, :]
    t = np.tanh(a)
    logits = t @ p["wp"]
    e = np.exp(logits - np.maximum.reduce(logits, axis=1, keepdims=True))
    s = e / np.add.reduce(e, axis=1, keepdims=True)

    u = np.tanh(_matmul(v, p["wo"].T))
    uhat, u_norm = unit_rows(u)
    vo = (1.0 - alpha) * v + alpha * uhat
    c, craw_norm = unit_rows(np.einsum("nm,nmd->nd", s, vo))

    hunit, hraw_norm = unit_rows((1.0 - alpha) * q + alpha * c)
    passthrough = (alpha == 0.0) | (craw_norm < NORM_EPS)
    h_tilde = np.where(passthrough[:, None], q, hunit)
    return h_tilde, ForwardTrace(
        h, vraw_norm, v, t, s, u, u_norm, uhat, vo, c, craw_norm, hraw_norm, h_tilde
    )


# The conditioning strategies: the adapter, then the non-learned baselines
# (source only, first translation only, renormalized mean of all m+1 rows).
_FUSIONS = {
    "ensad": lambda h, p, cfg: forward_batch(p, cfg, h),
    "zero_shot": lambda h, p, cfg: (h[:, 0].copy(), None),
    "translate_test": lambda h, p, cfg: (h[:, 1].copy(), None),
    "mean_pool": lambda h, p, cfg: (unit_rows(h.mean(axis=1))[0], None),
}
STRATEGIES = tuple(_FUSIONS)
# The rows of an ensemble each strategy's fusion reads, as a slice of its
# m+1 rows; training augments only these (data.step_batches).
READ_ROWS = {"ensad": slice(None), "zero_shot": slice(0, 1), "translate_test": slice(1, 2),
             "mean_pool": slice(None)}


def fuse_batch(
    h: np.ndarray, p: dict, cfg: EnsAdConfig, strategy: str
) -> tuple[np.ndarray, ForwardTrace | None]:
    """Fused conditioning of an (n, m+1, d) batch under ``strategy``: the
    (n, d) conditions and the adapter's batched trace, None unless the
    adapter ran."""
    if strategy not in _FUSIONS:
        raise ValueError(f"unknown conditioning mode {strategy!r}")
    return _FUSIONS[strategy](h, p, cfg)


def backward_batch(
    p: dict, cfg: EnsAdConfig, trace: ForwardTrace, g: np.ndarray, to_input: bool = True
) -> tuple[dict, np.ndarray | None]:
    """Exact reverse-mode gradients of :func:`forward_batch`.

    ``g`` (n, d) is the loss gradient at each fused output. Hand-derived
    chain: each l2 normalization contributes (I - vv^T)/|raw| on its branch
    (zero when the raw vector vanished), softmax contributes s*(g - s.g),
    tanh contributes 1-y^2, and the affine attention map scatters into the
    weight tensors. Returns the parameter gradients summed over the batch,
    ``{name: array}`` in :func:`tensor_specs` order, and the gradient
    w.r.t. the input rows, shaped like ``trace.h`` (None unless
    ``to_input``: training treats the rows as data and skips it).
    """
    alpha = cfg.alpha
    q = trace.h[:, 0]
    k = trace.h[:, 1:]
    t = trace.t

    grad_hraw = _normalize_backward(g, trace.h_tilde, trace.hraw_norm)
    grad_craw = _normalize_backward(alpha * grad_hraw, trace.c, trace.craw_norm)

    grad_vo = trace.s[:, :, None] * grad_craw[:, None, :]
    grad_s = np.einsum("nmd,nd->nm", trace.vo, grad_craw)
    grad_u = _normalize_backward(alpha * grad_vo, trace.uhat, trace.u_norm)
    grad_wov = grad_u * (1.0 - trace.u * trace.u)

    grad_logits = trace.s * (grad_s - np.add.reduce(trace.s * grad_s, axis=1, keepdims=True))
    grad_a = grad_logits[:, :, None] * p["wp"] * (1.0 - t * t)
    colsum = np.add.reduce(grad_a, axis=1)
    # grad_wp is np.tensordot(grad_logits, t, axes=2): the same product of
    # the same reshaped operands, without its dispatch
    grads = {"wq": colsum.T @ q, "wk": _outer_sum(grad_a, k),
             "wv": _outer_sum(grad_a, trace.v), "b": np.add.reduce(colsum, axis=0),
             "wp": np.dot(grad_logits.reshape(1, -1), t.reshape(-1, t.shape[-1]))[0],
             "wo": _outer_sum(grad_wov, trace.v)}
    if not to_input:
        return grads, None

    grad_q = (1.0 - alpha) * grad_hraw + colsum @ p["wq"]
    grad_k = _matmul(grad_a, p["wk"])
    grad_v = (1.0 - alpha) * grad_vo + _matmul(grad_wov, p["wo"]) + _matmul(grad_a, p["wv"])
    if cfg.variant_v_equals_k:
        grad_k = grad_k + grad_v
    else:
        grad_vraw = _normalize_backward(grad_v, trace.v, trace.vraw_norm)
        grad_k = grad_k + grad_vraw
        grad_q = grad_q - np.add.reduce(grad_vraw, axis=1)
    return grads, np.concatenate([grad_q[:, None, :], grad_k], axis=1)


def _map_trace(trace: ForwardTrace, fn) -> ForwardTrace:
    return ForwardTrace(*(fn(getattr(trace, f.name)) for f in fields(ForwardTrace)))


def forward(
    p: dict, cfg: EnsAdConfig, h_matrix: np.ndarray
) -> tuple[np.ndarray, ForwardTrace]:
    """Run the adapter on one ensemble.

    ``h_matrix`` is (d, m+1): column 0 the source embedding, columns 1..m
    the translations, all unit-norm or zero. Returns the fused unit vector
    and the trace of this one item (the batched trace without its batch
    axis; ``trace.s`` holds the m attention weights). With alpha == 0, or
    when the attention context vanishes, the source column is returned
    bit-exactly.
    """
    h = as_f64(h_matrix, "ensemble matrix")
    if h.ndim != 2 or h.shape != (cfg.d, cfg.m + 1):
        raise ValueError(
            f"ensemble matrix has shape {h.shape}, expected {(cfg.d, cfg.m + 1)}"
        )
    h_tilde, trace = forward_batch(p, cfg, h.T.copy()[None])
    return h_tilde[0], _map_trace(trace, lambda a: a[0])


def attention_scores(trace: ForwardTrace) -> np.ndarray:
    """The softmax attention weights over translations, summing to 1 (per
    item, for a batched trace)."""
    return trace.s.copy()


def backward(
    p: dict,
    cfg: EnsAdConfig,
    trace: ForwardTrace,
    grad_h_tilde: np.ndarray,
) -> tuple[dict, np.ndarray]:
    """Exact reverse-mode gradients of :func:`forward` for one item.

    Returns (parameter gradients, ``{name: array}`` like ``p``,
    gradient w.r.t. the (d, m+1) input matrix). Normalizations that hit the
    zero-vector branch in the forward contribute a zero gradient.
    """
    g = as_f64(grad_h_tilde, "grad_h_tilde")
    if g.shape != (cfg.d,):
        raise ValueError(f"grad_h_tilde has shape {g.shape}, expected {(cfg.d,)}")
    batched = _map_trace(trace, lambda a: np.asarray(a)[None])
    grads, grad_h = backward_batch(p, cfg, batched, g[None])
    return grads, grad_h[0].T.copy()


def attention_export_record(
    item_id: str,
    scores: np.ndarray,
    translation_texts: tuple[str, ...] | None = None,
) -> dict:
    """One export line: scores sorted descending, texts reordered to match."""
    s = as_f64(scores, "scores")
    order = np.argsort(-s, kind="stable")
    record: dict = {"id": item_id, "scores": [float(s[i]) for i in order]}
    if translation_texts is not None:
        if len(translation_texts) != s.shape[0]:
            raise ValueError("translation_texts length does not match scores")
        record["translation_texts"] = [translation_texts[i] for i in order]
    return record
