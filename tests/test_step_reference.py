"""``step_losses_and_grads`` against the per-pass step it replaced.

The step runs the discriminator once over the stack [fakes, reals], its
backward once over the stacked gradient rows, and every active contrastive
term in one call over a stack of pairs. ``reference_step`` below is the step
before that: two discriminator forwards, one backward per role (the fakes
toward the generator, the fakes and the reals toward D), and one contrastive
call per term. Both apply the same IEEE operations to the same values, so
losses and gradients must agree bit for bit.

The step reduces with bare ufunc calls (``np.add.reduce``,
``np.maximum.reduce``) instead of ``np.sum``, ``np.max``, array methods and
``np.tensordot``, whose Python wrappers cost more than the arithmetic at
desk shape; a profiler hook checks that none of those wrappers runs.
"""

import sys
from dataclasses import fields, replace
from itertools import combinations, product

import numpy as np
import pytest

from ensad import adapter
from ensad.adapter import EnsAdConfig
from ensad.gan import (
    TRAINABLE_COMPONENTS,
    GanConfig,
    LossParts,
    StepGrads,
    _adv_disc,
    _adv_ensad,
    _contrastive_with_grads,
    _sigmoid,
    _step_plan,
    _unit_rows,
    disc_forward_batch,
    generate_batch,
    param_shapes,
    step_losses_and_grads,
    total_losses,
)
from ensad.numkit import SeededRng, init_tensors

try:
    from numpy._core import _methods, fromnumeric, numeric
except ImportError:  # numpy < 2
    from numpy.core import _methods, fromnumeric, numeric

from test_adapter_reference import reference_backward_batch, same_bits
from test_gan import batch_inputs, toy_dataset

SUBSETS = [frozenset(c) for r in range(4) for c in combinations(TRAINABLE_COMPONENTS, r)]


def reference_mlp_backward(layers, acts, grad_out):
    """Gradients of one (n, ...) MLP pass, one per entry of ``layers``, and
    the gradient w.r.t. its input batch."""
    grads = [None] * len(layers)
    g = grad_out
    for i in range(len(layers) - 2, -1, -2):
        y = acts[i // 2 + 1]
        g = g * (1.0 - y * y)
        grads[i] = g.T @ acts[i // 2]
        grads[i + 1] = g.sum(axis=0)
        g = g @ layers[i]
    return grads, g


def reference_disc_backward(params, acts, grad_fd, grad_ds):
    """One backward through both heads and the backbone for one (n, ...)
    pass: the discriminator's gradients and the gradient w.r.t. the images."""
    *backbone, fd_w, _, ds_w, _ = params["discriminator"].values()
    r = acts[-1]
    grad_r = grad_fd @ fd_w + grad_ds[:, None] * ds_w[None, :]
    grads, grad_imgs = reference_mlp_backward(backbone, acts, grad_r)
    grads += [grad_fd.T @ r, grad_fd.sum(axis=0), r.T @ grad_ds, np.asarray(grad_ds.sum())]
    return dict(zip(params["discriminator"], grads)), grad_imgs


def reference_step(h, imgs_real, zs, params, ensad_cfg, gan_cfg, proxy=None):
    n = h.shape[0]
    d = ensad_cfg.d
    htil, trace = adapter.fuse_batch(h, params["ensad"], ensad_cfg, gan_cfg.conditioning)
    fakes, gen_acts = generate_batch(params, htil, zs)
    fd_f, ds_f, acts_f = disc_forward_batch(params, fakes)
    fd_r, ds_r, acts_r = disc_forward_batch(params, imgs_real)
    logits_f = ds_f + np.sum(fd_f * htil, axis=1)
    logits_r = ds_r + np.sum(fd_r * htil, axis=1)

    parts = LossParts(l_ad_ensad=_adv_ensad(logits_f), l_ad_d=_adv_disc(logits_r, logits_f))
    cl_a = cl_p = cldf_a = cldf_p = cldr_a = clg_a = clg_p = None
    unit_r, unit_f, unit_h = _unit_rows(fd_r), _unit_rows(fd_f), _unit_rows(htil)
    if gan_cfg.lambda1 > 0:
        if gan_cfg.enable_clg:
            parts.l_cl_g, clg_a, clg_p = _contrastive_with_grads(
                _unit_rows(fakes @ proxy.T), unit_h, gan_cfg.tau)
        else:
            parts.l_cl, cl_a, cl_p = _contrastive_with_grads(unit_r, unit_f, gan_cfg.tau)
    if gan_cfg.lambda2 > 0:
        parts.l_cl_d_fake, cldf_a, cldf_p = _contrastive_with_grads(unit_f, unit_h, gan_cfg.tau)
        parts.l_cl_d_real, cldr_a, _ = _contrastive_with_grads(unit_r, unit_h, gan_cfg.tau)
    for name in ("l_cl", "l_cl_d_fake", "l_cl_d_real", "l_cl_g"):
        setattr(parts, name, float(getattr(parts, name)))
    loss_e, loss_d = total_losses(parts, gan_cfg)
    res = StepGrads(parts=parts, loss_ensad=loss_e, loss_disc=loss_d, trace=trace)

    if gan_cfg.trainable & {"ensad", "generator"}:
        g_logit = (_sigmoid(logits_f) - 1.0) / n
        grad_fd_f = g_logit[:, None] * htil
        grad_htil = g_logit[:, None] * fd_f
        grad_fakes = np.zeros_like(fakes)
        if gan_cfg.lambda1 > 0:
            if gan_cfg.enable_clg:
                grad_fakes += gan_cfg.lambda1 * (clg_a @ proxy)
                grad_htil += gan_cfg.lambda1 * clg_p
            else:
                grad_fd_f += gan_cfg.lambda1 * cl_p
        if gan_cfg.lambda2 > 0:
            grad_fd_f += gan_cfg.lambda2 * cldf_a
            grad_htil += gan_cfg.lambda2 * cldf_p
        _, grad_imgs = reference_disc_backward(params, acts_f, grad_fd_f, g_logit)
        grad_fakes += grad_imgs
        gen = params["generator"]
        gen_grads, grad_x = reference_mlp_backward(list(gen.values()), gen_acts, grad_fakes)
        grad_htil += grad_x[:, :d]
        if "ensad" in gan_cfg.trainable:
            res.grad_conds = grad_htil
            res.grads["ensad"], _ = adapter.backward_batch(
                params["ensad"], ensad_cfg, trace, grad_htil)
        if "generator" in gan_cfg.trainable:
            res.grads["generator"] = dict(zip(gen, gen_grads))

    if "discriminator" in gan_cfg.trainable:
        g_r = (_sigmoid(logits_r) - 1.0) / n
        g_f = _sigmoid(logits_f) / n
        grad_fd_r2 = g_r[:, None] * htil
        grad_fd_f2 = g_f[:, None] * htil
        if gan_cfg.lambda1 > 0 and not gan_cfg.enable_clg:
            grad_fd_r2 += gan_cfg.lambda1 * cl_a
            grad_fd_f2 += gan_cfg.lambda1 * cl_p
        if gan_cfg.lambda2 > 0:
            grad_fd_r2 += gan_cfg.lambda2 * cldr_a
        grads_f, _ = reference_disc_backward(params, acts_f, grad_fd_f2, g_f)
        grads_r, _ = reference_disc_backward(params, acts_r, grad_fd_r2, g_r)
        res.grads["discriminator"] = {k: grads_f[k] + grads_r[k] for k in grads_f}
    return res


@pytest.mark.parametrize("disc_hidden", [(7,), (7, 5)])
@pytest.mark.parametrize("enable_clg", [False, True])
@pytest.mark.parametrize("trainable", SUBSETS, ids=lambda s: "+".join(sorted(s)) or "none")
def test_step_matches_the_per_pass_step_bitwise(trainable, enable_clg, disc_hidden):
    ds = toy_dataset(d=8, m=3, d_img=6, seed=23)
    ecfg = EnsAdConfig(d=8, d_hid=4, m=3, alpha=0.3)
    base = GanConfig(d=8, d_z=4, d_img=6, gen_hidden=(9, 8), disc_hidden=disc_hidden,
                     batch=5, trainable=trainable, enable_clg=enable_clg)
    params = init_tensors(param_shapes(ecfg, base), SeededRng(35))
    proxy = SeededRng(36).gaussian(8 * 6).reshape(8, 6) / np.sqrt(6.0)
    h, imgs, zs = batch_inputs(ds, ecfg, base, 37)
    for lambda1, lambda2 in product((0.0, 4.0), (0.0, 2.0)):
        gcfg = replace(base, lambda1=lambda1, lambda2=lambda2)
        got = step_losses_and_grads(h, imgs, zs, params, ecfg, _step_plan(gcfg), proxy)
        want = reference_step(h, imgs, zs, params, ecfg, gcfg, proxy)
        case = (lambda1, lambda2)
        assert got.parts == want.parts, case
        assert (got.loss_ensad, got.loss_disc) == (want.loss_ensad, want.loss_disc), case
        assert list(got.grads) == list(want.grads) == [
            comp for comp in TRAINABLE_COMPONENTS if comp in trainable], case
        for comp, tree in want.grads.items():
            assert list(got.grads[comp]) == list(tree), (case, comp)
            for name, g in tree.items():
                assert same_bits(got.grads[comp][name], g), (case, comp, name)
        assert same_bits(got.grad_conds, want.grad_conds), case
        if "ensad" in trainable:  # the input gradient, which the step skips
            got_h = adapter.backward_batch(params["ensad"], ecfg, got.trace, got.grad_conds)[1]
            want_h = reference_backward_batch(params["ensad"], ecfg, want.trace, want.grad_conds)[1]
            assert same_bits(got_h, want_h), case
        assert same_bits(got.trace.h_tilde, want.trace.h_tilde), case


@pytest.mark.parametrize("n,k", [(1, 3), (5, 8), (16, 16)])
def test_stacked_contrastive_matches_one_call_per_pair_bitwise(n, k):
    rng = SeededRng(50 + n + k)
    a = rng.gaussian_rows(3 * n, k).reshape(3, n, k)
    p = rng.gaussian_rows(3 * n, k).reshape(3, n, k)
    if n > 1:  # a zero row and a row below the norm epsilon
        a[1, 0] = 0.0
        p[2, -1] = 1e-13
    for tau in (0.5, 0.07):
        losses, grad_a, grad_p = _contrastive_with_grads(_unit_rows(a), _unit_rows(p), tau)
        assert losses.shape == (3,) and grad_a.shape == grad_p.shape == (3, n, k)
        for j in range(3):
            loss, ga, gp = _contrastive_with_grads(_unit_rows(a[j]), _unit_rows(p[j]), tau)
            assert losses[j] == loss
            assert ga.tobytes() == grad_a[j].tobytes()
            assert gp.tobytes() == grad_p[j].tobytes()


# The modules whose Python-level wrappers dispatch to a ufunc reduction or a
# matrix product: np.sum, np.diagonal and the like, the array methods' sum
# and max, np.tensordot.
DISPATCH_FILES = {_methods.__file__, fromnumeric.__file__, numeric.__file__}


def dispatch_frames(fn, *args):
    """``fn(*args)``, and the names of the functions from DISPATCH_FILES
    that run during it, with their call counts."""
    seen = {}

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename in DISPATCH_FILES:
            seen[code.co_name] = seen.get(code.co_name, 0) + 1

    sys.setprofile(profile)
    try:
        out = fn(*args)
    finally:
        sys.setprofile(None)
    return out, seen


@pytest.mark.parametrize("enable_clg", [False, True])
@pytest.mark.parametrize("trainable", [
    {"ensad"}, {"ensad", "discriminator"}, {"ensad", "generator", "discriminator"},
], ids=lambda s: "+".join(sorted(s)))
def test_adapter_step_runs_no_numpy_dispatch_wrappers(trainable, enable_clg):
    # the desk_finetune shape: d=16, m=4, d_hid=8, d_img=12, disc (32, 32)
    ds = toy_dataset(n_items=16, d=16, m=4, d_img=12, seed=41)
    ecfg = EnsAdConfig(d=16, d_hid=8, m=4)
    gcfg = GanConfig(d=16, d_img=12, disc_hidden=(32, 32), batch=16,
                     trainable=frozenset(trainable), enable_clg=enable_clg)
    params = init_tensors(param_shapes(ecfg, gcfg), SeededRng(42))
    proxy = SeededRng(43).gaussian(16 * 12).reshape(16, 12) / np.sqrt(12.0)
    h, imgs, zs = batch_inputs(ds, ecfg, gcfg, 44)
    h = h.copy()
    h[3, 1:] = h[3, 0]  # one item's value rows are zero and its context vanishes

    assert dispatch_frames(np.sum, h)[1], "the hook sees no np.sum"
    res, frames = dispatch_frames(step_losses_and_grads, h, imgs, zs, params, ecfg,
                                  _step_plan(gcfg), proxy)
    assert frames == {}
    assert list(res.grads) == [c for c in TRAINABLE_COMPONENTS if c in trainable]
    assert "grad_h" not in {f.name for f in fields(StepGrads)}
