"""The ensemble adapter: additive attention over translation embeddings,
fused into the source embedding through a gated residual.

Forward and backward run in the kernels module, batched and row-major:
:func:`forward_batch`/:func:`backward_batch` take (n, m+1, d) stacks, and
:func:`forward`/:func:`backward` are their one-item views in the (d, m+1)
column layout. This module also owns the adapter's tensor spec,
initialization and counting, the batched fusion over all strategies (the
adapter and the non-learned baselines), and the attention-score export
schema. Parameters are ``{name: array}`` in :func:`tensor_specs` order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import kernels
from .data import set_uint_fields
from .kernels import ForwardTrace
from .numkit import SeededRng, TensorSpec, as_f64, init_tensors, l2_normalize_rows


@dataclass(frozen=True)
class EnsAdConfig:
    d: int = 512
    d_hid: int = 256
    m: int = 12
    alpha: float = 0.2
    variant_v_equals_k: bool = False

    def __post_init__(self):
        set_uint_fields(self, {"d": 1, "d_hid": 1, "m": 1})
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


def tensor_specs(cfg: EnsAdConfig) -> dict:
    """The adapter's tensors, in the order of their gradients, Adam moments
    and initial draws. ``wp`` is the single score-projection row and ``bp``
    its scalar bias, kept as a 0-d array so the optimizer can update it in
    place like every other tensor."""
    d, dh = cfg.d, cfg.d_hid
    return {
        "wq": TensorSpec((dh, d)),
        "wk": TensorSpec((dh, d)),
        "wv": TensorSpec((dh, d)),
        "b": TensorSpec((dh,), zero=True),
        "wp": TensorSpec((dh,)),
        "bp": TensorSpec((), zero=True),
        "wo": TensorSpec((d, d)),
    }


def init_params(cfg: EnsAdConfig, rng: SeededRng) -> dict:
    """``{name: array}`` with weights i.i.d. N(0, 1/fan_in) and biases zero,
    drawn in :func:`tensor_specs` order (wq, wk, wv, wp, wo, row-major)."""
    return init_tensors(tensor_specs(cfg), rng)


def param_count(cfg: EnsAdConfig) -> int:
    """Total scalar count: three query/key/value maps, two hidden-width
    bias/projection vectors, one scalar score bias, one d x d output map."""
    return sum(math.prod(s.shape) for s in tensor_specs(cfg).values())


def forward_batch(
    p: dict, cfg: EnsAdConfig, h: np.ndarray
) -> tuple[np.ndarray, ForwardTrace]:
    """Run the adapter on a batch of ensembles in one kernel call.

    ``h`` is (n, m+1, d): per item the source row, then the m translation
    rows. Returns the (n, d) fused unit vectors and the batched trace.
    Inputs are not checked here; parameters are validated where they enter
    the program (loading, ``train``), and data where it is read.
    """
    tr = kernels.adapter_forward(
        h, p["wq"], p["wk"], p["wv"], p["b"], p["wp"], float(p["bp"]), p["wo"],
        cfg.alpha, cfg.variant_v_equals_k,
    )
    return tr.h_tilde, tr


# The conditioning strategies: the adapter, then the non-learned baselines
# (source only, first translation only, renormalized mean of all m+1 rows).
_FUSIONS = {
    "ensad": lambda h, p, cfg: forward_batch(p, cfg, h),
    "zero_shot": lambda h, p, cfg: (h[:, 0].copy(), None),
    "translate_test": lambda h, p, cfg: (h[:, 1].copy(), None),
    "mean_pool": lambda h, p, cfg: (l2_normalize_rows(h.mean(axis=1)), None),
}
STRATEGIES = tuple(_FUSIONS)


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
    p: dict, cfg: EnsAdConfig, trace: ForwardTrace, grad_h_tilde: np.ndarray
) -> tuple[dict, np.ndarray]:
    """Exact reverse-mode gradients of :func:`forward_batch`.

    ``grad_h_tilde`` is (n, d). Returns the parameter gradients summed over
    the batch, and the gradient w.r.t. the (n, m+1, d) input rows.
    """
    grads, grad_h = kernels.adapter_backward(
        trace, grad_h_tilde, p["wq"], p["wk"], p["wv"], p["wp"], p["wo"],
        cfg.alpha, cfg.variant_v_equals_k,
    )
    return dict(zip(tensor_specs(cfg), grads)), grad_h


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
