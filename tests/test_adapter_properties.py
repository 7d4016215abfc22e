"""Property tests of the batched adapter forward pass over random shapes,
mixing weights and unit-norm inputs: the fused rows have unit norm, permuting
the translations permutes the attention weights, alpha = 0 passes the
source through bit-exactly, and identical translations get uniform
attention."""

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
    # nonzero biases too, which init leaves at zero
    p["b"] = rng.gaussian(cfg.d_hid)
    p["bp"] = np.asarray(rng.gaussian(1)[0])
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
