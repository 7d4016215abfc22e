"""Numeric kernels: the splitmix64 stream and its Box-Muller transform, and
the batched adapter forward/backward pass, all plain numpy.

The adapter kernels work on a whole batch: an (n, m+1, d) stack of
ensembles passes through each weight matrix as one 2-D product (weights
used untransposed, ``x @ w.T``), and the parameter gradients are summed
over the batch by the same kind of product.  Zero-norm conventions
are applied with ``np.where`` on safe divisors, so every item of a batch
follows the same code path.

Layout: vectors are rows, so an item is (m+1, d) with the source row first.
The public adapter API transposes its (d, m+1) column layout at the
boundary.  ``python3 perfbench/run.py --workload desk_finetune --trace 1``
reports call counts and self time for each kernel here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# splitmix64 constants
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_R30 = np.uint64(30)
_R27 = np.uint64(27)
_R31 = np.uint64(31)
_R11 = np.uint64(11)
_ONE = np.uint64(1)

_TWO_PI = 6.283185307179586
_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53

# Norms below this are treated as zero: the vector passes through unscaled
# and the matching backward branch contributes a zero gradient.
_NORM_EPS = 1e-12


def splitmix64_fill(seed: np.uint64, position: np.uint64, n: int) -> np.ndarray:
    """Outputs ``position .. position+n-1`` of the splitmix64 stream for ``seed``.

    Counter-based: output ``i`` mixes ``seed + (i+1)*GAMMA`` (uint64 wrap),
    which equals the sequential generator that advances its state by GAMMA
    before each mix.  Pure integer arithmetic, so the stream is
    platform-stable and random access is O(1).
    """
    idx = np.arange(n).astype(np.uint64)
    z = seed + (position + idx + _ONE) * _GAMMA
    z = (z ^ (z >> _R30)) * _MIX1
    z = (z ^ (z >> _R27)) * _MIX2
    z = z ^ (z >> _R31)
    return z


def gaussian_from_bits(bits: np.ndarray) -> np.ndarray:
    """Box-Muller: 2k uint64 words -> 2k standard normals.

    Word pairs map to (u1, u2] X [0, 1) via the top 53 bits; u1 is offset
    into (0, 1] so the log never sees zero.
    """
    n2 = bits.shape[0] // 2
    hi = (bits[0::2] >> _R11).astype(np.float64)
    lo = (bits[1::2] >> _R11).astype(np.float64)
    u1 = (hi + 1.0) * _INV_2_53
    u2 = lo * _INV_2_53
    r = np.sqrt(-2.0 * np.log(u1))
    t = _TWO_PI * u2
    out = np.empty(2 * n2)
    out[0::2] = r * np.cos(t)
    out[1::2] = r * np.sin(t)
    return out


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


def _norm(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(x * x, axis=-1))


def _divisor(norm: np.ndarray) -> np.ndarray:
    """Norms as divisors, with norms below _NORM_EPS replaced by 1 so those
    vectors pass through unscaled."""
    return np.where(norm < _NORM_EPS, 1.0, norm)[..., None]


def _normalize_backward(grad, unit, norm):
    """Backward of x -> x/|x| given unit = x/|x|: (I - unit unit^T) grad / |x|,
    and zero where |x| fell below _NORM_EPS."""
    proj = grad - unit * np.sum(unit * grad, axis=-1, keepdims=True)
    return np.where((norm < _NORM_EPS)[..., None], 0.0, proj / _divisor(norm))


def _matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for a stack of rows x (..., k) and a (k, j) matrix, as one
    2-D product."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])


def _outer_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over every leading index of the outer products a_i b_i^T."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def adapter_forward(
    h: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    b: np.ndarray,
    wp: np.ndarray,
    bp: float,
    wo: np.ndarray,
    alpha: float,
    v_eq_k: bool,
) -> ForwardTrace:
    """Fuse each source embedding with its translations via additive
    attention, for a whole batch at once.

    ``h`` is (n, m+1, d): per item, row 0 the source embedding and rows
    1..m the translations.  Value rows are the unit-normalized translation
    offsets (or the translations themselves under ``v_eq_k``).  A gated
    residual mixes the attention context back into the query with weight
    ``alpha`` and the result is re-normalized.

    When ``alpha == 0`` or an item's context vector vanishes, that item's
    query passes through bit-exactly.
    """
    q = h[:, 0]
    k = h[:, 1:]
    vraw = k if v_eq_k else k - q[:, None, :]
    vraw_norm = _norm(vraw)
    v = vraw if v_eq_k else vraw / _divisor(vraw_norm)

    a = _matmul(k, wk.T) + _matmul(v, wv.T) + (q @ wq.T + b)[:, None, :]
    t = np.tanh(a)
    logits = t @ wp + bp
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)

    u = np.tanh(_matmul(v, wo.T))
    u_norm = _norm(u)
    uhat = u / _divisor(u_norm)
    vo = (1.0 - alpha) * v + alpha * uhat
    craw = np.einsum("nm,nmd->nd", s, vo)
    craw_norm = _norm(craw)
    c = craw / _divisor(craw_norm)

    hraw = (1.0 - alpha) * q + alpha * c
    hraw_norm = _norm(hraw)
    passthrough = (alpha == 0.0) | (craw_norm < _NORM_EPS)
    h_tilde = np.where(passthrough[:, None], q, hraw / _divisor(hraw_norm))
    return ForwardTrace(
        h, vraw_norm, v, t, s, u, u_norm, uhat, vo, c, craw_norm, hraw_norm, h_tilde
    )


def adapter_backward(
    tr: ForwardTrace,
    g: np.ndarray,
    wq: np.ndarray,
    wk: np.ndarray,
    wv: np.ndarray,
    wp: np.ndarray,
    wo: np.ndarray,
    alpha: float,
    v_eq_k: bool,
):
    """Reverse-mode gradients of a batched adapter forward pass.

    ``g`` (n, d) is the loss gradient at each fused output.  Hand-derived
    chain: each l2 normalization contributes (I - vv^T)/|raw| on its branch
    (zero when the raw vector vanished), softmax contributes s*(g - s.g),
    tanh contributes 1-y^2, and the affine attention map scatters into the
    weight tensors.  Returns the parameter gradients summed over the batch,
    in declaration order (wq, wk, wv, b, wp, bp, wo), and the gradient
    w.r.t. the input rows, shaped like ``tr.h``.
    """
    q = tr.h[:, 0]
    k = tr.h[:, 1:]

    grad_hraw = _normalize_backward(g, tr.h_tilde, tr.hraw_norm)
    grad_q = (1.0 - alpha) * grad_hraw
    grad_craw = _normalize_backward(alpha * grad_hraw, tr.c, tr.craw_norm)

    grad_vo = tr.s[:, :, None] * grad_craw[:, None, :]
    grad_s = np.einsum("nmd,nd->nm", tr.vo, grad_craw)
    grad_u = _normalize_backward(alpha * grad_vo, tr.uhat, tr.u_norm)
    grad_wov = grad_u * (1.0 - tr.u * tr.u)
    grad_wo = _outer_sum(grad_wov, tr.v)
    grad_v = (1.0 - alpha) * grad_vo + _matmul(grad_wov, wo)

    grad_logits = tr.s * (grad_s - np.sum(tr.s * grad_s, axis=1, keepdims=True))
    grad_wp = np.tensordot(grad_logits, tr.t, axes=2)
    grad_bp = np.asarray(np.sum(grad_logits))
    grad_a = grad_logits[:, :, None] * wp * (1.0 - tr.t * tr.t)

    colsum = np.sum(grad_a, axis=1)
    grad_wq = colsum.T @ q
    grad_q = grad_q + colsum @ wq
    grad_wk = _outer_sum(grad_a, k)
    grad_wv = _outer_sum(grad_a, tr.v)
    grad_b = np.sum(colsum, axis=0)
    grad_k = _matmul(grad_a, wk)
    grad_v = grad_v + _matmul(grad_a, wv)

    if v_eq_k:
        grad_k = grad_k + grad_v
    else:
        grad_vraw = _normalize_backward(grad_v, tr.v, tr.vraw_norm)
        grad_k = grad_k + grad_vraw
        grad_q = grad_q - np.sum(grad_vraw, axis=1)

    grad_h = np.concatenate([grad_q[:, None, :], grad_k], axis=1)
    return (grad_wq, grad_wk, grad_wv, grad_b, grad_wp, grad_bp, grad_wo), grad_h
