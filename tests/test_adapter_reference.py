"""``adapter.forward_batch``/``backward_batch`` against the kernels they
replaced, bit for bit.

``reference_forward_batch`` and ``reference_backward_batch`` below are the
adapter kernels as they were before the input gradient became optional and
the reductions became bare ufunc calls: every reduction through ``np.sum``
or an array method, ``np.tensordot`` for the score-row gradient, and the
input gradient always built. Their helpers are kept with them. The kernels
apply the same IEEE operations to the same operands, so every output, trace
field and gradient must agree bit for bit, including on zero-norm rows and
with the input gradient skipped.
"""

from dataclasses import fields

import numpy as np
import pytest

from ensad.adapter import (
    EnsAdConfig,
    ForwardTrace,
    backward_batch,
    forward_batch,
    init_params,
)
from ensad.numkit import NORM_EPS, SeededRng, l2_normalize


def same_bits(got, want):
    if want is None:
        return got is None
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def reference_unit_rows(x):
    norm = np.sqrt(np.sum(x * x, axis=-1))
    return x / np.where(norm < NORM_EPS, 1.0, norm)[..., None], norm


def reference_normalize_backward(grad, unit, norm):
    proj = grad - unit * np.sum(unit * grad, axis=-1, keepdims=True)
    small = (norm < NORM_EPS)[..., None]
    return np.where(small, 0.0, proj / np.where(small, 1.0, norm[..., None]))


def reference_matmul(x, w):
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])


def reference_outer_sum(a, b):
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def reference_forward_batch(p, cfg, h):
    alpha, v_eq_k = cfg.alpha, cfg.variant_v_equals_k
    q = h[:, 0]
    k = h[:, 1:]
    vraw = k if v_eq_k else k - q[:, None, :]
    vunit, vraw_norm = reference_unit_rows(vraw)
    v = vraw if v_eq_k else vunit

    a = (reference_matmul(k, p["wk"].T) + reference_matmul(v, p["wv"].T)
         + (q @ p["wq"].T + p["b"])[:, None, :])
    t = np.tanh(a)
    logits = t @ p["wp"]
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    s = e / e.sum(axis=1, keepdims=True)

    u = np.tanh(reference_matmul(v, p["wo"].T))
    uhat, u_norm = reference_unit_rows(u)
    vo = (1.0 - alpha) * v + alpha * uhat
    c, craw_norm = reference_unit_rows(np.einsum("nm,nmd->nd", s, vo))

    hunit, hraw_norm = reference_unit_rows((1.0 - alpha) * q + alpha * c)
    passthrough = (alpha == 0.0) | (craw_norm < NORM_EPS)
    h_tilde = np.where(passthrough[:, None], q, hunit)
    return h_tilde, ForwardTrace(
        h, vraw_norm, v, t, s, u, u_norm, uhat, vo, c, craw_norm, hraw_norm, h_tilde
    )


def reference_backward_batch(p, cfg, trace, g):
    alpha = cfg.alpha
    q = trace.h[:, 0]
    k = trace.h[:, 1:]

    grad_hraw = reference_normalize_backward(g, trace.h_tilde, trace.hraw_norm)
    grad_q = (1.0 - alpha) * grad_hraw
    grad_craw = reference_normalize_backward(alpha * grad_hraw, trace.c, trace.craw_norm)

    grad_vo = trace.s[:, :, None] * grad_craw[:, None, :]
    grad_s = np.einsum("nmd,nd->nm", trace.vo, grad_craw)
    grad_u = reference_normalize_backward(alpha * grad_vo, trace.uhat, trace.u_norm)
    grad_wov = grad_u * (1.0 - trace.u * trace.u)
    grad_wo = reference_outer_sum(grad_wov, trace.v)
    grad_v = (1.0 - alpha) * grad_vo + reference_matmul(grad_wov, p["wo"])

    grad_logits = trace.s * (grad_s - np.sum(trace.s * grad_s, axis=1, keepdims=True))
    grad_wp = np.tensordot(grad_logits, trace.t, axes=2)
    grad_a = grad_logits[:, :, None] * p["wp"] * (1.0 - trace.t * trace.t)

    colsum = np.sum(grad_a, axis=1)
    grad_wq = colsum.T @ q
    grad_q = grad_q + colsum @ p["wq"]
    grad_wk = reference_outer_sum(grad_a, k)
    grad_wv = reference_outer_sum(grad_a, trace.v)
    grad_b = np.sum(colsum, axis=0)
    grad_k = reference_matmul(grad_a, p["wk"])
    grad_v = grad_v + reference_matmul(grad_a, p["wv"])

    if cfg.variant_v_equals_k:
        grad_k = grad_k + grad_v
    else:
        grad_vraw = reference_normalize_backward(grad_v, trace.v, trace.vraw_norm)
        grad_k = grad_k + grad_vraw
        grad_q = grad_q - np.sum(grad_vraw, axis=1)

    grad_h = np.concatenate([grad_q[:, None, :], grad_k], axis=1)
    grads = {"wq": grad_wq, "wk": grad_wk, "wv": grad_wv, "b": grad_b,
             "wp": grad_wp, "wo": grad_wo}
    return grads, grad_h


def batch(cfg, rng, kinds):
    """(n, m+1, d) rows, one item per entry of ``kinds``: "ordinary" (unit
    rows), "zero_value_row" (one value row of norm zero), "vanishing" (every
    value row zero, so the context vanishes) or "zero_source" (a zero source
    row). A value row is zero where its translation equals the source, or,
    under ``variant_v_equals_k``, where the translation is zero."""
    def unit():
        return l2_normalize(rng.gaussian(cfg.d))

    def degenerate(q):
        return np.zeros(cfg.d) if cfg.variant_v_equals_k else q

    items = []
    for kind in kinds:
        rows = [unit() for _ in range(cfg.m + 1)]
        if kind == "zero_value_row":
            rows[2] = degenerate(rows[0])
        elif kind == "vanishing":
            rows[1:] = [degenerate(rows[0])] * cfg.m
        elif kind == "zero_source":
            rows[0] = np.zeros(cfg.d)
        else:
            assert kind == "ordinary", kind
        items.append(np.stack(rows))
    return np.stack(items)


CONFIGS = {
    "alpha0": EnsAdConfig(d=7, d_hid=4, m=3, alpha=0.0),
    "alpha0.4": EnsAdConfig(d=7, d_hid=4, m=3, alpha=0.4),
    "alpha1": EnsAdConfig(d=7, d_hid=4, m=3, alpha=1.0),
    "v_eq_k": EnsAdConfig(d=7, d_hid=4, m=3, alpha=0.4, variant_v_equals_k=True),
}
BATCHES = {
    # no row of zero norm, no item passed through
    "ordinary": ["ordinary"] * 4,
    "zero_value_row": ["ordinary", "zero_value_row", "ordinary"],
    "vanishing": ["ordinary", "vanishing", "ordinary"],
    "mixed": ["zero_value_row", "ordinary", "vanishing", "zero_source", "ordinary"],
    "single": ["ordinary"],
}


@pytest.mark.parametrize("upstream", ["gaussian", "zero"])
@pytest.mark.parametrize("kinds", BATCHES.values(), ids=BATCHES.keys())
@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
def test_kernels_match_the_reference_bitwise(cfg, kinds, upstream):
    rng = SeededRng(71 + len(kinds))
    p = init_params(cfg, rng)
    p["b"] = rng.gaussian(cfg.d_hid) / 2.0
    h = batch(cfg, rng, kinds)
    g = rng.gaussian_rows(len(kinds), cfg.d)
    if upstream == "zero":
        g = np.zeros_like(g)

    out, trace = forward_batch(p, cfg, h)
    ref_out, ref_trace = reference_forward_batch(p, cfg, h.copy())
    assert same_bits(out, ref_out)
    for f in fields(ForwardTrace):
        assert same_bits(getattr(trace, f.name), getattr(ref_trace, f.name)), f.name

    ref_grads, ref_grad_h = reference_backward_batch(p, cfg, ref_trace, g)
    grads, grad_h = backward_batch(p, cfg, trace, g)
    params_only, none = backward_batch(p, cfg, trace, g, to_input=False)
    assert none is None
    assert same_bits(grad_h, ref_grad_h)
    assert list(grads) == list(params_only) == list(ref_grads) == list(p)
    for name, want in ref_grads.items():
        assert same_bits(grads[name], want), name
        assert same_bits(params_only[name], want), name

    if upstream == "zero":
        assert not np.any(grad_h)
    # the passthrough cases still return the source row bit for bit
    passthrough = (cfg.alpha == 0.0) | (np.array(kinds) == "vanishing")
    assert np.array_equal(out[passthrough], h[passthrough, 0])
