import re

import numpy as np
import pytest

from ensad.adapter import (
    STRATEGIES,
    EnsAdConfig,
    attention_export_record,
    attention_scores,
    backward,
    forward,
    fuse_batch,
    init_params,
    param_count,
)
from ensad.numkit import SeededRng, l2_normalize


def reference_forward(p, cfg, h_matrix):
    """Straight-line reimplementation of the fusion math, written
    independently of the kernel (plain column-wise numpy, no shared code).
    Only the fused output is produced."""
    d, m, alpha = cfg.d, cfg.m, cfg.alpha
    q = h_matrix[:, 0].astype(float)
    k = h_matrix[:, 1:].astype(float)

    if cfg.variant_v_equals_k:
        v = k.copy()
    else:
        v = np.zeros((d, m))
        for j in range(m):
            diff = k[:, j] - q
            n = np.linalg.norm(diff)
            v[:, j] = diff if n < 1e-12 else diff / n

    a = (p["wq"] @ q)[:, None] + p["wk"] @ k + p["wv"] @ v + p["b"][:, None]
    logits = p["wp"] @ np.tanh(a) + float(p["bp"])
    e = np.exp(logits - logits.max())
    s = e / e.sum()

    u = np.tanh(p["wo"] @ v)
    uhat = np.zeros_like(u)
    for j in range(m):
        n = np.linalg.norm(u[:, j])
        uhat[:, j] = u[:, j] if n < 1e-12 else u[:, j] / n
    v_refined = (1.0 - alpha) * v + alpha * uhat

    craw = v_refined @ s
    if alpha == 0.0 or np.linalg.norm(craw) < 1e-12:
        return q.copy(), s
    c = craw / np.linalg.norm(craw)
    hraw = (1.0 - alpha) * q + alpha * c
    n = np.linalg.norm(hraw)
    return (hraw if n < 1e-12 else hraw / n), s


def random_ensemble(cfg, rng):
    cols = [l2_normalize(rng.gaussian(cfg.d)) for _ in range(cfg.m + 1)]
    return np.stack(cols, axis=1)


def test_param_count_full_scale():
    assert param_count(EnsAdConfig(d=512, d_hid=256, m=12)) == 655_873


def test_param_count_small_configs():
    assert param_count(EnsAdConfig(d=2, d_hid=1, m=3)) == 13
    assert param_count(EnsAdConfig(d=1, d_hid=1, m=1)) == 7


def test_param_count_matches_tensor_sizes():
    for d, dh, m in [(4, 3, 2), (8, 4, 3), (16, 8, 4)]:
        cfg = EnsAdConfig(d=d, d_hid=dh, m=m)
        p = init_params(cfg, SeededRng(0))
        total = sum(t.size for t in p.values())
        assert total == param_count(cfg)


def test_init_determinism_and_zero_biases():
    cfg = EnsAdConfig(d=8, d_hid=4, m=3)
    p1 = init_params(cfg, SeededRng(9))
    p2 = init_params(cfg, SeededRng(9))
    for (n1, t1), (n2, t2) in zip(p1.items(), p2.items()):
        assert n1 == n2
        assert np.array_equal(t1, t2)
    assert np.array_equal(p1["b"], np.zeros(4))
    assert float(p1["bp"]) == 0.0


def test_init_variance_band():
    # rows of wq are N(0, 1/d): var * d within 20% of 1 at d=64
    cfg = EnsAdConfig(d=64, d_hid=64, m=2)
    p = init_params(cfg, SeededRng(3))
    scaled = p["wq"].var() * 64
    assert 0.8 < scaled < 1.2


def test_forward_matches_reference_many_configs():
    # seed-enumerated grid of small shapes, both variants, several alphas
    cases = [
        (2, 2, 1, 0.2, False),
        (3, 2, 2, 0.2, False),
        (4, 3, 2, 0.5, False),
        (5, 2, 3, 0.3, True),
        (6, 3, 4, 0.2, False),
        (6, 3, 4, 0.2, True),
        (7, 5, 2, 0.9, False),
        (8, 4, 3, 0.1, False),
        (8, 4, 3, 0.7, True),
        (9, 3, 5, 0.4, False),
        (10, 6, 3, 0.25, False),
        (12, 5, 6, 0.6, True),
    ]
    for i, (d, dh, m, alpha, variant) in enumerate(cases):
        cfg = EnsAdConfig(d=d, d_hid=dh, m=m, alpha=alpha,
                          variant_v_equals_k=variant)
        rng = SeededRng(1000 + i)
        p = init_params(cfg, rng)
        h = random_ensemble(cfg, rng)
        got, trace = forward(p, cfg, h)
        want, s_want = reference_forward(p, cfg, h)
        assert np.abs(got - want).max() < 1e-12, f"case {i}"
        assert np.abs(trace.s - s_want).max() < 1e-12, f"case {i}"


def test_forward_output_unit_norm():
    cfg = EnsAdConfig(d=8, d_hid=4, m=3, alpha=0.3)
    rng = SeededRng(4)
    p = init_params(cfg, rng)
    h = random_ensemble(cfg, rng)
    out, _ = forward(p, cfg, h)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_alpha_zero_passthrough_exact():
    cfg = EnsAdConfig(d=8, d_hid=4, m=3, alpha=0.0)
    rng = SeededRng(5)
    p = init_params(cfg, rng)
    h = random_ensemble(cfg, rng)
    out, _ = forward(p, cfg, h)
    assert np.array_equal(out, h[:, 0])


def test_identical_translations_passthrough_and_uniform_attention():
    # every translation equal to the source: difference vectors vanish, so
    # the context is zero and the source passes through exactly; the
    # attention cannot distinguish columns, so scores are uniform
    cfg = EnsAdConfig(d=8, d_hid=4, m=3, alpha=0.2)
    rng = SeededRng(6)
    p = init_params(cfg, rng)
    q = l2_normalize(rng.gaussian(8))
    h = np.stack([q] * 4, axis=1)
    out, trace = forward(p, cfg, h)
    assert np.array_equal(out, q)
    assert np.allclose(trace.s, np.full(3, 1 / 3), atol=1e-12)


def test_equal_translations_uniform_attention():
    # translations identical to each other (but not to the source) still
    # make every attention column equal, hence uniform scores
    cfg = EnsAdConfig(d=8, d_hid=4, m=4, alpha=0.2)
    rng = SeededRng(7)
    p = init_params(cfg, rng)
    q = l2_normalize(rng.gaussian(8))
    t = l2_normalize(rng.gaussian(8))
    h = np.stack([q, t, t, t, t], axis=1)
    _, trace = forward(p, cfg, h)
    assert np.allclose(trace.s, np.full(4, 0.25), atol=1e-12)


def test_attention_scores_basics():
    cfg = EnsAdConfig(d=6, d_hid=3, m=1, alpha=0.2)
    rng = SeededRng(8)
    p = init_params(cfg, rng)
    h = random_ensemble(cfg, rng)
    _, trace = forward(p, cfg, h)
    assert np.allclose(attention_scores(trace), [1.0], atol=1e-15)

    cfg5 = EnsAdConfig(d=6, d_hid=3, m=5, alpha=0.2)
    p5 = init_params(cfg5, rng)
    h5 = random_ensemble(cfg5, rng)
    _, tr5 = forward(p5, cfg5, h5)
    s = attention_scores(tr5)
    assert abs(s.sum() - 1.0) < 1e-12
    assert (s > 0).all()


def test_permutation_invariance():
    cfg = EnsAdConfig(d=8, d_hid=4, m=5, alpha=0.3)
    rng = SeededRng(10)
    p = init_params(cfg, rng)
    h = random_ensemble(cfg, rng)
    out, trace = forward(p, cfg, h)

    perm = np.array([3, 0, 4, 1, 2])
    h_perm = h.copy()
    h_perm[:, 1:] = h[:, 1:][:, perm]
    out_p, trace_p = forward(p, cfg, h_perm)
    assert np.abs(out_p - out).max() < 1e-12
    assert np.abs(trace_p.s - trace.s[perm]).max() < 1e-12


def test_backward_zero_upstream_gradient():
    cfg = EnsAdConfig(d=8, d_hid=4, m=3, alpha=0.2)
    rng = SeededRng(11)
    p = init_params(cfg, rng)
    h = random_ensemble(cfg, rng)
    _, trace = forward(p, cfg, h)
    grads, grad_h = backward(p, cfg, trace, np.zeros(8))
    for t in grads.values():
        assert np.all(t == 0.0)
    assert np.all(grad_h == 0.0)


def test_backward_alpha_zero_convention():
    # passthrough output: parameter gradients vanish and the source-column
    # gradient is the unit-sphere projection (I - q q^T) g
    cfg = EnsAdConfig(d=8, d_hid=4, m=3, alpha=0.0)
    rng = SeededRng(12)
    p = init_params(cfg, rng)
    h = random_ensemble(cfg, rng)
    _, trace = forward(p, cfg, h)
    g = rng.gaussian(8)
    grads, grad_h = backward(p, cfg, trace, g)
    for t in grads.values():
        assert np.all(t == 0.0)
    q = h[:, 0]
    want = g - q * float(q @ g)
    assert np.abs(grad_h[:, 0] - want).max() < 1e-12
    assert np.all(grad_h[:, 1:] == 0.0)


def probe_value(p, cfg, h, w):
    out, _ = forward(p, cfg, h)
    return float(w @ out)


def relcheck(analytic, numeric, tol):
    scale = max(abs(analytic), abs(numeric))
    if scale < 1e-7:
        return True  # noise floor: both effectively zero
    return abs(analytic - numeric) <= tol * scale


@pytest.mark.parametrize("seed", [21, 22, 23])
def test_gradients_match_finite_differences(seed):
    cfg = EnsAdConfig(d=8, d_hid=4, m=3, alpha=0.3)
    rng = SeededRng(seed)
    p = init_params(cfg, rng)
    h = random_ensemble(cfg, rng)
    w = rng.gaussian(8)

    _, trace = forward(p, cfg, h)
    grads, grad_h = backward(p, cfg, trace, w)

    eps = 1e-5
    for name, tensor in p.items():
        g_analytic = grads[name]
        flat = tensor.reshape(-1)
        ga = np.asarray(g_analytic, dtype=float).reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + eps
            up = probe_value(p, cfg, h, w)
            flat[i] = orig - eps
            dn = probe_value(p, cfg, h, w)
            flat[i] = orig
            num = (up - dn) / (2 * eps)
            assert relcheck(ga[i], num, 1e-4), (
                f"{name}[{i}]: analytic {ga[i]}, numeric {num}")

    hm = h
    for r in range(hm.shape[0]):
        for c in range(hm.shape[1]):
            orig = hm[r, c]
            hm[r, c] = orig + eps
            up = probe_value(p, cfg, hm, w)
            hm[r, c] = orig - eps
            dn = probe_value(p, cfg, hm, w)
            hm[r, c] = orig
            num = (up - dn) / (2 * eps)
            assert relcheck(grad_h[r, c], num, 1e-4), (
                f"input[{r},{c}]: analytic {grad_h[r, c]}, numeric {num}")


def test_gradients_variant_v_equals_k():
    cfg = EnsAdConfig(d=6, d_hid=3, m=3, alpha=0.4, variant_v_equals_k=True)
    rng = SeededRng(31)
    p = init_params(cfg, rng)
    h = random_ensemble(cfg, rng)
    w = rng.gaussian(6)
    _, trace = forward(p, cfg, h)
    grads, grad_h = backward(p, cfg, trace, w)
    eps = 1e-5
    for name, tensor in p.items():
        ga = grads[name].reshape(-1)
        flat = tensor.reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + eps
            up = probe_value(p, cfg, h, w)
            flat[i] = orig - eps
            dn = probe_value(p, cfg, h, w)
            flat[i] = orig
            num = (up - dn) / (2 * eps)
            assert relcheck(ga[i], num, 1e-4), f"{name}[{i}]"


def test_fuse_mean_pool_oracle():
    h = np.array([[[1.0, 0.0], [0.0, 1.0]]])  # one item, two d=2 rows
    out, trace = fuse_batch(h, None, None, "mean_pool")
    assert np.allclose(out, [[np.sqrt(0.5), np.sqrt(0.5)]], atol=1e-12)
    assert trace is None


def test_fuse_mean_pool_unit_norm():
    rng = SeededRng(14)
    h = np.stack([[l2_normalize(rng.gaussian(8)) for _ in range(4)]
                  for _ in range(3)])
    out, _ = fuse_batch(h, None, None, "mean_pool")
    assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() < 1e-12


def test_fuse_select():
    rng = SeededRng(15)
    h = np.stack([[l2_normalize(rng.gaussian(5)) for _ in range(3)]
                  for _ in range(2)])
    src, _ = fuse_batch(h, None, None, "zero_shot")
    first, _ = fuse_batch(h, None, None, "translate_test")
    assert np.array_equal(src, h[:, 0])
    assert np.array_equal(first, h[:, 1])
    with pytest.raises(ValueError, match="^unknown conditioning mode 'select_2'$"):
        fuse_batch(h, None, None, "select_2")


def test_fuse_ensad_is_the_batched_adapter():
    cfg = EnsAdConfig(d=6, d_hid=3, m=2, alpha=0.3)
    rng = SeededRng(16)
    p = init_params(cfg, rng)
    h = np.stack([random_ensemble(cfg, rng).T for _ in range(3)])
    out, trace = fuse_batch(h, p, cfg, "ensad")
    assert STRATEGIES == ("ensad", "zero_shot", "translate_test", "mean_pool")
    for i in range(3):
        want, _ = reference_forward(p, cfg, h[i].T)
        assert np.abs(out[i] - want).max() <= 1e-12
    assert trace.s.shape == (3, 2)


def test_attention_export_record_sorting():
    rec = attention_export_record(
        "item-1", np.array([0.2, 0.5, 0.3]), ("a", "b", "c"))
    assert rec["id"] == "item-1"
    assert rec["scores"] == [0.5, 0.3, 0.2]
    assert rec["translation_texts"] == ["b", "c", "a"]


def test_attention_export_record_tie_stable():
    rec = attention_export_record("x", np.array([0.4, 0.4, 0.2]), ("p", "q", "r"))
    assert rec["scores"] == [0.4, 0.4, 0.2]
    assert rec["translation_texts"] == ["p", "q", "r"]


def test_attention_export_record_no_texts():
    rec = attention_export_record("y", np.array([0.6, 0.4]))
    assert rec["scores"] == [0.6, 0.4]
    assert "translation_texts" not in rec


def test_attention_export_record_rejects_texts_of_another_length():
    with pytest.raises(ValueError, match="^translation_texts length does not match scores$"):
        attention_export_record("a", [0.5, 0.5], ("x",))


def test_single_item_calls_reject_a_transposed_or_misshapen_input():
    cfg = EnsAdConfig(d=16, d_hid=4, m=4, alpha=0.4)
    rng = SeededRng(17)
    p = init_params(cfg, rng)
    h = random_ensemble(cfg, rng)
    # the rows of an (m+1, d) item, not the (d, m+1) ensemble matrix
    with pytest.raises(ValueError, match=re.escape(
            "ensemble matrix has shape (5, 16), expected (16, 5)")):
        forward(p, cfg, h.T)
    _, trace = forward(p, cfg, h)
    with pytest.raises(ValueError, match=re.escape(
            "grad_h_tilde has shape (16, 1), expected (16,)")):
        backward(p, cfg, trace, np.ones((16, 1)))
