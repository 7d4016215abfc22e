"""The ensemble adapter: additive attention over translation embeddings,
fused into the source embedding through a gated residual.

Forward and backward run in the kernels module, batched and row-major:
:func:`forward_batch`/:func:`backward_batch` take (n, m+1, d) stacks, and
:func:`forward`/:func:`backward` are their one-item views in the (d, m+1)
column layout. This module also owns parameter containers, validation,
initialization, counting, the non-learned fusion baselines, and the
attention-score export schema.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import kernels
from .kernels import ForwardTrace
from .numkit import SeededRng, as_f64, l2_normalize

STRATEGIES = ("ensad", "zero_shot", "translate_test", "mean_pool")


@dataclass(frozen=True)
class EnsAdConfig:
    d: int = 512
    d_hid: int = 256
    m: int = 12
    alpha: float = 0.2
    variant_v_equals_k: bool = False

    def __post_init__(self):
        if self.d < 1 or self.d_hid < 1 or self.m < 1:
            raise ValueError("d, d_hid and m must be positive")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")


@dataclass
class EnsAdParams:
    """Learnable tensors. ``wp`` is the single score-projection row and
    ``bp`` its scalar bias, kept as a 0-d array so the optimizer can update
    it in place like every other tensor."""

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    b: np.ndarray
    wp: np.ndarray
    bp: np.ndarray
    wo: np.ndarray

    def tensor_items(self) -> list[tuple[str, np.ndarray]]:
        return [
            ("wq", self.wq),
            ("wk", self.wk),
            ("wv", self.wv),
            ("b", self.b),
            ("wp", self.wp),
            ("bp", self.bp),
            ("wo", self.wo),
        ]

    def copy(self) -> "EnsAdParams":
        return EnsAdParams(*(arr.copy() for _, arr in self.tensor_items()))

    def to_jsonable(self) -> dict:
        return {
            "wq": self.wq.tolist(),
            "wk": self.wk.tolist(),
            "wv": self.wv.tolist(),
            "b": self.b.tolist(),
            "wp": self.wp.tolist(),
            "bp": float(self.bp),
            "wo": self.wo.tolist(),
        }

    @staticmethod
    def from_jsonable(obj: dict, cfg: EnsAdConfig) -> "EnsAdParams":
        p = EnsAdParams(
            wq=np.asarray(obj["wq"], dtype=np.float64),
            wk=np.asarray(obj["wk"], dtype=np.float64),
            wv=np.asarray(obj["wv"], dtype=np.float64),
            b=np.asarray(obj["b"], dtype=np.float64),
            wp=np.asarray(obj["wp"], dtype=np.float64),
            bp=np.asarray(obj["bp"], dtype=np.float64),
            wo=np.asarray(obj["wo"], dtype=np.float64),
        )
        validate_params(p, cfg)
        return p


def validate_params(p: EnsAdParams, cfg: EnsAdConfig) -> None:
    shapes = {
        "wq": (cfg.d_hid, cfg.d),
        "wk": (cfg.d_hid, cfg.d),
        "wv": (cfg.d_hid, cfg.d),
        "b": (cfg.d_hid,),
        "wp": (cfg.d_hid,),
        "bp": (),
        "wo": (cfg.d, cfg.d),
    }
    for name, arr in p.tensor_items():
        if arr.shape != shapes[name]:
            raise ValueError(f"{name} has shape {arr.shape}, expected {shapes[name]}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite entries")


def init_params(cfg: EnsAdConfig, rng: SeededRng) -> EnsAdParams:
    """Weights i.i.d. N(0, 1/fan_in), biases zero.

    Draw order (frozen for reproducibility): wq, wk, wv, wp, wo, each
    row-major.
    """
    d, dh = cfg.d, cfg.d_hid

    def draw(rows, cols, fan_in):
        flat = rng.gaussian(rows * cols) / np.sqrt(fan_in)
        return flat.reshape(rows, cols)

    wq = draw(dh, d, d)
    wk = draw(dh, d, d)
    wv = draw(dh, d, d)
    wp = rng.gaussian(dh) / np.sqrt(dh)
    wo = draw(d, d, d)
    return EnsAdParams(
        wq=wq,
        wk=wk,
        wv=wv,
        b=np.zeros(dh),
        wp=wp,
        bp=np.zeros(()),
        wo=wo,
    )


def param_count(cfg: EnsAdConfig) -> int:
    """Total scalar count: three query/key/value maps, two hidden-width
    bias/projection vectors, one scalar score bias, one d x d output map."""
    return 3 * cfg.d_hid * cfg.d + 2 * cfg.d_hid + 1 + cfg.d * cfg.d


def forward_batch(
    p: EnsAdParams, cfg: EnsAdConfig, h: np.ndarray
) -> tuple[np.ndarray, ForwardTrace]:
    """Run the adapter on a batch of ensembles in one kernel call.

    ``h`` is (n, m+1, d): per item the source row, then the m translation
    rows. Returns the (n, d) fused unit vectors and the batched trace.
    Inputs are not checked here; parameters are validated where they enter
    the program (loading, ``train``), and data where it is read.
    """
    tr = kernels.adapter_forward(
        h, p.wq, p.wk, p.wv, p.b, p.wp, float(p.bp), p.wo,
        cfg.alpha, cfg.variant_v_equals_k,
    )
    return tr.h_tilde, tr


def backward_batch(
    p: EnsAdParams, cfg: EnsAdConfig, trace: ForwardTrace, grad_h_tilde: np.ndarray
) -> tuple[EnsAdParams, np.ndarray]:
    """Exact reverse-mode gradients of :func:`forward_batch`.

    ``grad_h_tilde`` is (n, d). Returns the parameter gradients summed over
    the batch, and the gradient w.r.t. the (n, m+1, d) input rows.
    """
    grads, grad_h = kernels.adapter_backward(
        trace, grad_h_tilde, p.wq, p.wk, p.wv, p.wp, p.wo,
        cfg.alpha, cfg.variant_v_equals_k,
    )
    return EnsAdParams(*grads), grad_h


def _map_trace(trace: ForwardTrace, fn) -> ForwardTrace:
    return ForwardTrace(*(fn(getattr(trace, f.name)) for f in fields(ForwardTrace)))


def forward(
    p: EnsAdParams, cfg: EnsAdConfig, h_matrix: np.ndarray
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
    p: EnsAdParams,
    cfg: EnsAdConfig,
    trace: ForwardTrace,
    grad_h_tilde: np.ndarray,
) -> tuple[EnsAdParams, np.ndarray]:
    """Exact reverse-mode gradients of :func:`forward` for one item.

    Returns (parameter gradients in an EnsAdParams-shaped container,
    gradient w.r.t. the (d, m+1) input matrix). Normalizations that hit the
    zero-vector branch in the forward contribute zero Jacobian.
    """
    g = as_f64(grad_h_tilde, "grad_h_tilde")
    if g.shape != (cfg.d,):
        raise ValueError(f"grad_h_tilde has shape {g.shape}, expected {(cfg.d,)}")
    batched = _map_trace(trace, lambda a: np.asarray(a)[None])
    grads, grad_h = backward_batch(p, cfg, batched, g[None])
    return grads, grad_h[0].T.copy()


def fuse_mean_pool(h_matrix: np.ndarray) -> np.ndarray:
    """Unit-normalized columnwise mean of all m+1 embeddings."""
    h = as_f64(h_matrix, "ensemble matrix")
    if h.ndim != 2:
        raise ValueError("ensemble matrix must be 2-D")
    return l2_normalize(h.mean(axis=1))


def fuse_select(h_matrix: np.ndarray, index: int) -> np.ndarray:
    """Column ``index`` unchanged: 0 is the source embedding (zero-shot
    conditioning), 1 the first translation (translate-test)."""
    h = as_f64(h_matrix, "ensemble matrix")
    if h.ndim != 2:
        raise ValueError("ensemble matrix must be 2-D")
    if not 0 <= index < h.shape[1]:
        raise IndexError(f"column {index} out of range for {h.shape[1]} columns")
    return h[:, index].copy()


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
