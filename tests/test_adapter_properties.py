"""Property tests of the batched adapter forward pass over random shapes,
mixing weights and unit-norm inputs: the fused rows have unit norm, permuting
the translations permutes the attention weights, alpha = 0 passes the
source through bit-exactly, identical translations get uniform attention,
and no weights turn a fused row further from its source than the gate's
cap."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ensad.adapter import EnsAdConfig, forward_batch, init_params
from ensad.numkit import SeededRng, unit_rows

SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def setups(draw, alpha=st.floats(0.0, 1.0)):
    """(params, config, (n, m+1, d) unit-norm rows). d >= 2: with d = 1 the
    gated residual can cancel to zero, which no norm can fix."""
    cfg = EnsAdConfig(d=draw(st.integers(2, 8)), d_hid=draw(st.integers(1, 5)),
                      m=draw(st.integers(1, 5)), alpha=draw(alpha),
                      variant_v_equals_k=draw(st.booleans()))
    n = draw(st.integers(1, 4))
    rng = SeededRng(draw(st.integers(0, 2**64 - 1)))
    p = init_params(cfg, rng)
    # a nonzero bias too, which init leaves at zero
    p["b"] = rng.gaussian(cfg.d_hid)
    h, _ = unit_rows(rng.gaussian_rows(n * (cfg.m + 1), cfg.d))
    return p, cfg, h.reshape(n, cfg.m + 1, cfg.d)


@SETTINGS
@given(setup=setups())
def test_fused_rows_have_unit_norm(setup):
    p, cfg, h = setup
    h_tilde, _ = forward_batch(p, cfg, h)
    assert np.allclose(np.linalg.norm(h_tilde, axis=1), 1.0, rtol=0, atol=1e-12)


@SETTINGS
@given(setup=setups(), data=st.data())
def test_permuting_translations_permutes_attention(setup, data):
    p, cfg, h = setup
    perm = np.array(data.draw(st.permutations(range(cfg.m))))
    h_perm = h.copy()
    h_perm[:, 1:] = h[:, 1:][:, perm]
    _, trace = forward_batch(p, cfg, h)
    _, trace_perm = forward_batch(p, cfg, h_perm)
    assert np.allclose(trace_perm.s, trace.s[:, perm], rtol=0, atol=1e-12)


@SETTINGS
@given(setup=setups(alpha=st.just(0.0)))
def test_alpha_zero_returns_the_source_rows(setup):
    p, cfg, h = setup
    h_tilde, _ = forward_batch(p, cfg, h)
    assert np.array_equal(h_tilde, h[:, 0])


@SETTINGS
@given(setup=setups())
def test_identical_translations_get_uniform_attention(setup):
    p, cfg, h = setup
    h[:, 2:] = h[:, 1:2]
    _, trace = forward_batch(p, cfg, h)
    assert np.allclose(trace.s, 1.0 / cfg.m, rtol=0, atol=1e-12)


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
       d=st.integers(2, 16), m=st.integers(1, 6), d_hid=st.integers(1, 8),
       n=st.integers(1, 4), scale=st.floats(0.0, 20.0), v_eq_k=st.booleans(),
       seed=st.integers(0, 2**64 - 1))
def test_fused_rows_stay_within_the_gate_cap(alpha, d, m, d_hid, n, scale, v_eq_k, seed):
    # the fused row is normalize((1 - alpha) q + alpha c) for unit q and c,
    # so for alpha < 1/2 no weights can turn it further from its source row
    # q than asin(alpha / (1 - alpha))
    cfg = EnsAdConfig(d=d, d_hid=d_hid, m=m, alpha=alpha, variant_v_equals_k=v_eq_k)
    rng = SeededRng(seed)
    p = {name: scale * w for name, w in init_params(cfg, rng).items()}
    h, _ = unit_rows(rng.gaussian_rows(n * (m + 1), d))
    h = h.reshape(n, m + 1, d)
    out, _ = forward_batch(p, cfg, h)
    q = h[:, 0]
    along = np.einsum("nd,nd->n", out, q)
    across = np.linalg.norm(out - along[:, None] * q, axis=1)
    assert (np.arctan2(across, along) <= np.arcsin(alpha / (1 - alpha)) + 1e-12).all()
