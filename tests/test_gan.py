import io
import itertools
import json
import math
import os
import re
import tempfile
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensad import gan
from ensad.adapter import EnsAdConfig
from ensad.cli import PIPELINE_PRESET, PRESETS
from ensad.data import SyntheticSpec, generate_synthetic
from ensad.gan import (
    _PHASE2_SALT,
    CSV_COLUMNS,
    PIPELINE_PHASES,
    TRAINABLE_COMPONENTS,
    AdamState,
    Checkpoint,
    GanConfig,
    TrainingDiverged,
    _step_plan,
    adam_step,
    disc_forward_batch,
    finetune_pipeline,
    generate_batch,
    load_checkpoint,
    loss_adv_disc,
    loss_adv_ensad,
    loss_contrastive,
    LossParts,
    param_shapes,
    save_checkpoint,
    step_losses_and_grads,
    total_losses,
    train,
)
from ensad.numkit import (
    SeededRng,
    box_muller,
    derive_seed,
    init_tensors,
    l2_normalize,
    unit_rows,
)


def checkpoint_bytes(ck):
    """``ck`` in format 2, as save_checkpoint writes it: two checkpoints are
    equal exactly when these bytes are."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ck.npz")
        save_checkpoint(ck, path)
        with open(path, "rb") as fh:
            return fh.read()


def map_tensors(fn, tree):
    """``fn`` of every leaf of a nested ``{name: array}`` mapping, by name, in order."""
    return {k: map_tensors(fn, v) if isinstance(v, dict) else fn(v) for k, v in tree.items()}


TOY_GAN = dict(d=6, d_z=4, d_img=5, gen_hidden=(8, 8), disc_hidden=(8,),
               batch=4)


def toy_setup(seed=0, **gan_kw):
    ecfg = EnsAdConfig(d=6, d_hid=3, m=2, alpha=0.3)
    kw = dict(TOY_GAN)
    kw.update(gan_kw)
    gcfg = GanConfig(**kw)
    rng = SeededRng(seed)
    gp = init_tensors(param_shapes(ecfg, gcfg), rng)
    return ecfg, gcfg, gp["ensad"], gp, rng


def toy_dataset(n_items=10, seed=7, d=6, m=2, d_img=5):
    return generate_synthetic(SyntheticSpec(
        n_items=n_items, d=d, m=m, d_img=d_img,
        sigma_source=0.2, sigma_trans=0.1, seed=seed))


def test_init_gan_params_shapes_and_determinism():
    ecfg, gcfg, ep, gp, _ = toy_setup(3)
    gen, disc = gp["generator"], gp["discriminator"]
    assert gen["gen_w.0"].shape == (8, 6 + 4)
    assert gen["gen_w.2"].shape == (5, 8)
    assert disc["disc_w.0"].shape == (8, 5)
    assert disc["fd_w"].shape == (6, 8)
    assert disc["ds_w"].shape == (8,)
    for b in [gen["gen_b.0"], gen["gen_b.1"], gen["gen_b.2"], disc["disc_b.0"]]:
        assert np.all(b == 0.0)
    assert np.all(disc["fd_b"] == 0.0)
    assert float(disc["ds_b"]) == 0.0

    _, _, _, gp2, _ = toy_setup(3)
    for a, b in zip([*gen.values(), *disc.values()],
                    [*gp2["generator"].values(), *gp2["discriminator"].values()]):
        assert np.array_equal(a, b)


def test_generate_deterministic_and_bounded():
    ecfg, gcfg, ep, gp, rng = toy_setup(1)
    conds = np.stack([l2_normalize(rng.gaussian(6)) for _ in range(3)])
    zs = rng.gaussian_rows(3, 4)
    img1, acts = generate_batch(gp, conds, zs)
    img2, _ = generate_batch(gp, conds, zs)
    assert np.array_equal(img1, img2)
    assert img1.shape == (3, 5)
    assert np.all(np.abs(img1) < 1.0)  # final tanh
    assert np.array_equal(acts[-1], img1)
    # each row depends on its own condition and noise only
    one, _ = generate_batch(gp, conds[1:2], zs[1:2])
    assert np.allclose(one[0], img1[1], rtol=0, atol=1e-15)


def test_generate_noise_sensitivity():
    ecfg, gcfg, ep, gp, rng = toy_setup(2)
    conds = np.stack([l2_normalize(rng.gaussian(6))] * 2)
    imgs, _ = generate_batch(gp, conds, rng.gaussian_rows(2, 4))
    assert not np.array_equal(imgs[0], imgs[1])


def test_generate_rejects_bad_dims():
    ecfg, gcfg, ep, gp, rng = toy_setup(4)
    with pytest.raises(ValueError):
        generate_batch(gp, np.zeros((1, 5)), np.zeros((1, 4)))
    with pytest.raises(ValueError):
        generate_batch(gp, np.zeros((2, 6)), np.zeros((3, 4)))


def test_disc_forward_batch_heads_per_row():
    ecfg, gcfg, ep, gp, rng = toy_setup(5)
    imgs = np.tanh(rng.gaussian_rows(3, 5))
    fd, ds, acts = disc_forward_batch(gp, imgs)
    assert fd.shape == (3, 6) and ds.shape == (3,)
    assert np.array_equal(acts[0], imgs)
    # the realness head is ds_w . r + ds_b over the last backbone layer
    disc = gp["discriminator"]
    assert np.allclose(ds, acts[-1] @ disc["ds_w"] + float(disc["ds_b"]),
                       rtol=0, atol=1e-15)
    for i in range(3):
        fd1, ds1, _ = disc_forward_batch(gp, imgs[i:i + 1])
        assert np.allclose(fd1[0], fd[i], rtol=0, atol=1e-15)
        assert np.allclose(ds1[0], ds[i], rtol=0, atol=1e-15)


def test_in_place_kernels_keep_values_and_alias_nothing():
    """Each layer adds its bias and takes its tanh in the matmul's output,
    and box_muller works in temporaries of its own: the values are bit for
    bit those of the plain formulas, the inputs are left as they were, and
    every activation _mlp_backward reads is its own buffer."""
    ecfg, gcfg, ep, gp, rng = toy_setup(5)
    imgs = np.tanh(rng.gaussian_rows(3, 5))
    for layers, x in ((list(gp["generator"].values()), rng.gaussian_rows(6, 10).reshape(2, 3, 10)),
                      (list(gp["discriminator"].values())[:-4], imgs)):
        kept = x.copy()
        out, acts = gan._mlp_forward(layers, x)
        assert np.array_equal(x, kept)
        assert acts[0] is x and out is acts[-1] and len(acts) == len(layers) // 2 + 1
        for one, other in itertools.combinations(acts, 2):
            assert not np.shares_memory(one, other)
        for w, b, act in zip(layers[0::2], layers[1::2], acts[1:]):
            x = np.tanh(x @ w.T + b)
            assert x.tobytes() == act.tobytes()
    fd, _, acts = disc_forward_batch(gp, imgs)
    assert not any(np.shares_memory(fd, a) for a in acts)
    disc = gp["discriminator"]
    assert fd.tobytes() == (acts[-1] @ disc["fd_w"].T + disc["fd_b"]).tobytes()
    words = rng._take(24).reshape(2, 12)
    bits = words[:, 2:]  # a strided view, as data.step_batches passes
    kept = bits.copy()
    normals = box_muller(bits)
    assert np.array_equal(bits, kept) and not np.shares_memory(normals, words)
    u1 = ((bits[:, 0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    t = 6.283185307179586 * ((bits[:, 1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53)
    r = np.sqrt(-2.0 * np.log(u1))
    assert normals[:, 0::2].tobytes() == (r * np.cos(t)).tobytes()
    assert normals[:, 1::2].tobytes() == (r * np.sin(t)).tobytes()


def test_adv_loss_oracles():
    ln2 = math.log(2.0)
    assert abs(loss_adv_ensad(np.zeros(4)) - ln2) < 1e-12
    assert abs(loss_adv_disc(np.zeros(4), np.zeros(4)) - 2 * ln2) < 1e-12
    # hand value: mean softplus over logits [1, -1]
    assert abs(loss_adv_ensad(np.array([-1.0, 1.0])) -
               0.8132616875182228) < 1e-12
    # confident discriminator: real logits +2, fake logits -2
    assert abs(loss_adv_disc(np.array([2.0, 2.0]), np.array([-2.0, -2.0])) -
               0.25385602208594527) < 1e-12


def test_adv_loss_decays_when_confident():
    assert loss_adv_ensad(np.array([50.0])) < 1e-20
    assert loss_adv_disc(np.array([50.0]), np.array([-50.0])) < 1e-20
    # stable at extreme magnitudes
    assert np.isfinite(loss_adv_ensad(np.array([-1000.0])))
    assert loss_adv_ensad(np.array([-1000.0])) == pytest.approx(1000.0)


def test_contrastive_single_pair_is_zero():
    a = np.array([[0.6, 0.8]])
    assert loss_contrastive(a, a, 0.5) == 0.0


def test_contrastive_orthonormal_oracle():
    anchors = np.eye(2)
    want = math.log(1.0 + math.exp(-2.0))
    got = loss_contrastive(anchors, anchors.copy(), 0.5)
    assert abs(got - want) < 1e-10


def test_contrastive_antialigned_oracle():
    u = np.array([1.0, 0.0])
    anchors = np.stack([u, -u])
    want = math.log(1.0 + math.exp(-4.0))
    got = loss_contrastive(anchors, anchors.copy(), 0.5)
    assert abs(got - want) < 1e-10


def test_contrastive_zero_rows_finite():
    anchors = np.array([[0.0, 0.0], [1.0, 0.0]])
    pos = np.array([[0.0, 1.0], [1.0, 0.0]])
    out = loss_contrastive(anchors, pos, 0.5)
    assert np.isfinite(out)


def test_contrastive_scale_invariance():
    # cosine similarity ignores feature magnitudes
    rng = SeededRng(6)
    a = rng.gaussian(12).reshape(3, 4)
    p = rng.gaussian(12).reshape(3, 4)
    assert abs(loss_contrastive(a, p, 0.5) -
               loss_contrastive(3.0 * a, 0.5 * p, 0.5)) < 1e-12


@pytest.mark.parametrize("loss, args, message", [
    (loss_adv_ensad, (np.zeros((2, 2)),), "fake logits must be a nonempty vector"),
    (loss_adv_ensad, (np.zeros(0),), "fake logits must be a nonempty vector"),
    (loss_adv_disc, (np.zeros((1, 2)), np.zeros(2)), "logits must be nonempty vectors"),
    (loss_adv_disc, (np.zeros(2), np.zeros(0)), "logits must be nonempty vectors"),
    (loss_contrastive, (np.eye(2), np.eye(2), 0.0), "tau must be positive"),
    (loss_contrastive, (np.eye(2), np.eye(3), 0.5), "anchor and positive counts differ"),
    (loss_contrastive, (np.zeros((0, 2)), np.zeros((0, 2)), 0.5),
     "anchor features must be a nonempty list of equal-length vectors"),
    # one vector is not a list of vectors: a single pair would always score 0
    (loss_contrastive, (np.array([0.6, 0.8]), np.array([[0.6, 0.8]]), 0.5),
     "anchor features must be a nonempty list of equal-length vectors"),
    (loss_contrastive, (np.array([[0.6, 0.8]]), np.array([0.6, 0.8]), 0.5),
     "positive features must be a nonempty list of equal-length vectors"),
], ids=["ensad_matrix", "ensad_empty", "disc_matrix", "disc_empty", "tau_zero",
        "counts_differ", "no_anchors", "anchor_vector", "positive_vector"])
def test_losses_reject_bad_arguments(loss, args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        loss(*args)


def test_gan_config_needs_a_discriminator_hidden_layer():
    with pytest.raises(ValueError,
                       match=re.escape("disc_hidden: expected at least one hidden layer, got ()")):
        GanConfig(d=4, disc_hidden=())


def test_config_booleans_and_lists_are_stored_as_python_types():
    # a numpy bool is a boolean, as json_uint takes a numpy integer
    gcfg = GanConfig(d=4, gen_hidden=[3], disc_hidden=[5, 2], trainable=["ensad"],
                     enable_clg=np.bool_(True))
    assert (gcfg.gen_hidden, gcfg.disc_hidden, gcfg.trainable) == ((3,), (5, 2),
                                                                   frozenset({"ensad"}))
    assert gcfg.enable_clg is True
    assert EnsAdConfig(d=4, d_hid=2, m=1, variant_v_equals_k=np.bool_(False)
                       ).variant_v_equals_k is False


def test_total_losses_arithmetic():
    parts = LossParts(l_ad_ensad=0.5, l_ad_d=0.7, l_cl=0.1,
                      l_cl_d_fake=0.2, l_cl_d_real=0.3)
    cfg = GanConfig(d=4, lambda1=4.0, lambda2=2.0)
    le, ld = total_losses(parts, cfg)
    assert le == 1.3  # 0.5 + 4*0.1 + 2*0.2, exact in IEEE
    assert ld == 0.7 + 4 * 0.1 + 2 * 0.3

    cfg0 = GanConfig(d=4, lambda1=0.0, lambda2=0.0)
    le0, ld0 = total_losses(parts, cfg0)
    assert le0 == 0.5 and ld0 == 0.7


def test_total_losses_clg_switch():
    parts = LossParts(l_ad_ensad=0.5, l_ad_d=0.7, l_cl=0.1,
                      l_cl_d_fake=0.2, l_cl_d_real=0.3, l_cl_g=0.9)
    cfg = GanConfig(d=4, lambda1=4.0, lambda2=0.0, enable_clg=True)
    le, ld = total_losses(parts, cfg)
    assert le == 0.5 + 4 * 0.9
    assert ld == 0.7 + 4 * 0.9


def test_adam_zero_grad_keeps_params():
    p, m, v = np.array([1.0, 2.0, 3.0]), np.zeros(3), np.zeros(3)
    adam_step(p, np.zeros(3), m, v, 1, 5e-4, 0.0, 0.99)
    assert np.array_equal(p, [1.0, 2.0, 3.0])
    assert not m.any() and not v.any()


def test_adam_single_step_oracle():
    # t=1, beta1=0, beta2=0.99, g=1: mhat=1, vhat=1, update=lr/(1+eps)
    p = np.array([1.0])
    adam_step(p, np.array([1.0]), np.zeros(1), np.zeros(1), 1, 5e-4, 0.0, 0.99)
    want = 1.0 - 5e-4 * (1.0 / (1.0 + 1e-8))
    assert p[0] == want


def test_adam_rejects_mismatched_shapes():
    with pytest.raises(ValueError,
                       match=re.escape("p, g, m and v shapes differ: [(2,), (3,), (2,), (2,)]")):
        adam_step(np.zeros(2), np.zeros(3), np.zeros(2), np.zeros(2), 1, 1e-3, 0.0, 0.99)


def test_train_zero_steps_matches_manual_init():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    gcfg = replace(gcfg, steps=0, trainable=frozenset({"ensad", "discriminator"}))
    ck = train(ds, ecfg, gcfg, 42)
    rng = SeededRng(42)
    want = init_tensors(param_shapes(ecfg, gcfg), rng)
    for a, b in zip(ck.params["ensad"].values(), want["ensad"].values()):
        assert np.array_equal(a, b)
    for a, b in zip(ck.params["generator"].values(),
                    want["generator"].values()):
        assert np.array_equal(a, b)
    assert ck.rng_position == rng.position
    assert ck.step == 0


def test_train_losses_finite_and_params_move():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    gcfg = replace(
        gcfg, steps=300,
        trainable=frozenset({"ensad", "generator", "discriminator"}))
    rows = []
    ck = train(ds, ecfg, gcfg, 1, log_fn=rows.append)
    assert len(rows) == 300
    for row in rows:
        for key in ("loss_ensad", "loss_disc", "l_ad_ensad", "l_ad_d",
                    "l_cl", "l_cl_d", "l_cl_g"):
            assert math.isfinite(row[key]), f"{key} not finite"
    assert rows[0]["step"] == 1
    assert rows[-1]["step"] == 300

    p0 = init_tensors(param_shapes(ecfg, gcfg), SeededRng(1))
    moved_e = any(
        not np.array_equal(a, b)
        for a, b in zip(ck.params["ensad"].values(), p0["ensad"].values()))
    moved_g = any(
        not np.array_equal(a, b)
        for a, b in zip(ck.params["generator"].values(),
                        p0["generator"].values()))
    assert moved_e and moved_g


def test_train_bitwise_determinism():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    gcfg = replace(gcfg, steps=40,
                   trainable=frozenset({"ensad", "discriminator"}))
    ck1 = train(ds, ecfg, gcfg, 9)
    ck2 = train(ds, ecfg, gcfg, 9)
    assert checkpoint_bytes(ck1) == checkpoint_bytes(ck2)


def test_train_seed_sensitivity():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    gcfg = replace(gcfg, steps=10,
                   trainable=frozenset({"ensad", "discriminator"}))
    ck1 = train(ds, ecfg, gcfg, 9)
    ck2 = train(ds, ecfg, gcfg, 10)
    assert checkpoint_bytes(ck1) != checkpoint_bytes(ck2)


def test_resume_bitwise_equivalence():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    trainable = frozenset({"ensad", "generator", "discriminator"})
    full = train(ds, ecfg, replace(gcfg, steps=25, trainable=trainable), 3)
    part = train(ds, ecfg, replace(gcfg, steps=10, trainable=trainable), 3)
    resumed = train(ds, ecfg, replace(gcfg, steps=25, trainable=trainable), 3,
                    resume=part)
    assert checkpoint_bytes(resumed) == checkpoint_bytes(full)


def test_resume_validates_config_and_seed():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    trainable = frozenset({"discriminator", "generator"})
    gcfg = replace(gcfg, steps=5, trainable=trainable,
                   conditioning="zero_shot")
    ck = train(ds, ecfg, gcfg, 3)
    with pytest.raises(ValueError, match="^resume checkpoint was created with seed 3, not 4$"):
        train(ds, ecfg, gcfg, 4, resume=ck)
    # each differing field, but not steps, with the checkpoint's value first
    with pytest.raises(ValueError, match="^resume checkpoint has a different gan config: "
                       "lr: 0.0005 in the checkpoint, 0.001 given$"):
        train(ds, ecfg, replace(gcfg, steps=8, lr=1e-3), 3, resume=ck)
    with pytest.raises(ValueError, match=r"^resume checkpoint has a different gan config: "
                       r"lambda2: 2.0 in the checkpoint, 0.5 given; trainable: "
                       r'\["discriminator", "generator"\] in the checkpoint, \["generator"\] '
                       "given$"):
        train(ds, ecfg, replace(gcfg, lambda2=0.5, trainable={"generator"}), 3, resume=ck)
    with pytest.raises(ValueError, match="^resume checkpoint has a different adapter config: "
                       "alpha: 0.3 in the checkpoint, 0.9 given$"):
        train(ds, replace(ecfg, alpha=0.9), gcfg, 3, resume=ck)


def test_resume_rejects_steps_below_the_checkpoint():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    ck = train(ds, ecfg, replace(gcfg, steps=6), 3)
    with pytest.raises(ValueError, match="resume checkpoint is at step 6, past steps 4"):
        train(ds, ecfg, replace(gcfg, steps=4), 3, resume=ck)
    assert checkpoint_bytes(train(ds, ecfg, replace(gcfg, steps=6), 3, resume=ck)) == (
        checkpoint_bytes(ck))


UINT_MESSAGE = r"expected an integer in \[0, 2\*\*64\), got "


@pytest.mark.parametrize("seed", [7.5, 7.0, "7", True, -1, 2**64])
def test_train_rejects_a_seed_that_is_not_a_uint64(seed):
    # 7.5 trained on seed 7 and recorded 7.5, which load_checkpoint refused
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup(steps=2)
    with pytest.raises(ValueError, match=f"^seed: {UINT_MESSAGE}{re.escape(repr(seed))}$"):
        train(ds, ecfg, gcfg, seed)


def test_a_numpy_integer_seed_trains_as_its_int(tmp_path):
    # np.uint64(7) was recorded as given, and save_checkpoint raised TypeError
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup(steps=3)
    ck = train(ds, ecfg, gcfg, np.uint64(7))
    assert type(ck.rng_seed) is int
    assert checkpoint_bytes(ck) == checkpoint_bytes(train(ds, ecfg, gcfg, 7))
    save_checkpoint(ck, tmp_path / "ck.npz")
    assert checkpoint_bytes(load_checkpoint(tmp_path / "ck.npz")) == checkpoint_bytes(ck)


@pytest.mark.parametrize("field,path,shift", [
    ("step", "step", 0.0),  # 2.0 raised TypeError from range
    ("rng_position", "rng.position", 0.5),  # x + 0.5 was truncated to x
    ("rng_seed", "rng.seed", 0.0),
    ("step", "step", 0.5),
])
def test_resume_names_a_counter_that_is_not_a_uint64(field, path, shift):
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup(steps=4)
    ck = train(ds, ecfg, replace(gcfg, steps=2), 3)
    bad = replace(ck, **{field: getattr(ck, field) + shift})
    assert type(getattr(bad, field)) is float
    message = f"checkpoint field '{path}': {UINT_MESSAGE}{re.escape(repr(getattr(bad, field)))}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        train(ds, ecfg, gcfg, 3, resume=bad)
    # numpy integers are integers: the run continues as from the plain ints
    same = replace(ck, **{name: np.uint64(getattr(ck, name))
                          for name in ("rng_seed", "rng_position", "step")})
    assert checkpoint_bytes(train(ds, ecfg, gcfg, 3, resume=same)) == (
        checkpoint_bytes(train(ds, ecfg, gcfg, 3, resume=ck)))


def test_frozen_components_bitwise_unchanged():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()

    # adapter + discriminator trainable: G frozen
    g1 = replace(gcfg, steps=30,
                 trainable=frozenset({"ensad", "discriminator"}))
    ck = train(ds, ecfg, g1, 5)
    p0 = init_tensors(param_shapes(ecfg, g1), SeededRng(5))
    for a, b in zip(ck.params["generator"].values(),
                    p0["generator"].values()):
        assert np.array_equal(a, b)
    # and the trained components moved
    assert any(not np.array_equal(a, b) for a, b in
               zip(ck.params["ensad"].values(), p0["ensad"].values()))

    # generator + discriminator trainable: adapter frozen
    g2 = replace(gcfg, steps=30, conditioning="zero_shot",
                 trainable=frozenset({"generator", "discriminator"}))
    ck2 = train(ds, ecfg, g2, 5)
    p0 = init_tensors(param_shapes(ecfg, g2), SeededRng(5))
    for a, b in zip(ck2.params["ensad"].values(), p0["ensad"].values()):
        assert np.array_equal(a, b)


def test_gan_config_requires_ensad_conditioning_for_adapter():
    # the default trainable set includes the adapter
    with pytest.raises(ValueError, match="^conditioning: training the adapter requires "
                       "'ensad', got 'zero_shot'$"):
        GanConfig(d=4, conditioning="zero_shot")


def test_init_from_and_resume_check_tensor_names_and_shapes():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    ck = train(ds, ecfg, replace(gcfg, steps=1), 0)
    gen = ck.params["generator"]
    # init_from's parameters are checked as a step-0 checkpoint's, so both
    # name the checkpoint field alike
    for params, message in [
        ({**ck.params, "generator": {k: a for k, a in gen.items() if k != "gen_b.0"}},
         r"^checkpoint field 'params.generator': tensors: names \['gen_w.0', 'gen_w.1'"),
        ({**ck.params, "generator": {**gen, "gen_w.0": gen["gen_w.0"][:, 1:]}},
         r"^checkpoint field 'params.generator': gen_w.0 has shape \(8, 9\), "
         r"expected \(8, 10\)$"),
        ({**ck.params, "x": {}}, r"^checkpoint field 'params': components \['ensad', "
         r"'generator', 'discriminator', 'x'\], expected"),
    ]:
        with pytest.raises(ValueError, match=message):
            train(ds, ecfg, gcfg, 0, init_from=params)
        with pytest.raises(ValueError, match=message):
            train(ds, ecfg, replace(gcfg, steps=2), 0, resume=replace(ck, params=params))
    with pytest.raises(ValueError, match="^resume and init_from are mutually exclusive$"):
        train(ds, ecfg, replace(gcfg, steps=2), 0, resume=ck, init_from=ck.params)


@pytest.mark.parametrize("cast,dtype", [
    (lambda a: a.astype(complex), "complex128"),
    (lambda a: np.full(a.shape, "abc"), "<U3"),
    (lambda a: a.astype(object), "object"),
], ids=["complex", "string", "object"])
def test_init_from_and_resume_reject_a_tensor_that_does_not_cast_to_float64(cast, dtype):
    # numpy's own cast error, raised while the tensors were flattened, named
    # neither the checkpoint field nor the tensor
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    ck = train(ds, ecfg, replace(gcfg, steps=1), 0)
    gen = ck.params["generator"]
    params = {**ck.params, "generator": {**gen, "gen_b.0": cast(gen["gen_b.0"])}}
    message = ("checkpoint field 'params.generator': gen_b.0 has dtype "
               f"{dtype}, which does not cast to float64")
    with pytest.raises(ValueError) as init:
        train(ds, ecfg, gcfg, 0, init_from=params)
    assert str(init.value) == message
    with pytest.raises(ValueError) as resumed:
        train(ds, ecfg, replace(gcfg, steps=2), 0, resume=replace(ck, params=params))
    assert str(resumed.value) == message
    moments = replace(ck.adam, m={**ck.adam.m, "ensad": {**ck.adam.m["ensad"],
                                                         "wq": cast(ck.adam.m["ensad"]["wq"])}})
    with pytest.raises(ValueError) as resumed:
        train(ds, ecfg, replace(gcfg, steps=2), 0, resume=replace(ck, adam=moments))
    assert str(resumed.value) == (f"checkpoint field 'adam.ensad': m.wq has dtype {dtype}, "
                                  "which does not cast to float64")


# Where a single bad entry goes, per value: the first entry of a component's
# first tensor, the last entry of a middle tensor, the first entry of its
# last tensor, so that every fault sits at a tensor's edge in the flat vector.
BAD_ENTRIES = [(np.nan, 0, 0), (np.inf, None, -1), (-np.inf, -1, 0)]


def trained_everywhere():
    """A toy dataset, its configs with every component trained, and a
    2-step checkpoint, so every component has Adam moments."""
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    gcfg = replace(gcfg, trainable=frozenset(TRAINABLE_COMPONENTS))
    return ds, ecfg, gcfg, train(ds, ecfg, replace(gcfg, steps=2), 0)


def tensors_of(ck, tree: str, comp: str) -> dict:
    """``comp``'s tensors in ``ck``'s ``tree``: params, m or v."""
    return ck.params[comp] if tree == "params" else getattr(ck.adam, tree)[comp]


def load_and_resume_errors(tmp_path, ds, ecfg, gcfg, ck):
    """The messages load_checkpoint (after a save) and train(resume=) give
    for the checkpoint ``ck``, which must be rejected by both."""
    path = str(tmp_path / "bad.npz")
    save_checkpoint(ck, path)
    with pytest.raises(ValueError) as loaded:
        load_checkpoint(path)
    with pytest.raises(ValueError) as resumed:
        train(ds, ecfg, replace(gcfg, steps=ck.step + 1), 0, resume=ck)
    return str(loaded.value), str(resumed.value)


@pytest.mark.parametrize("value,tensor,entry", BAD_ENTRIES)
@pytest.mark.parametrize("tree", ["params", "m", "v"])
@pytest.mark.parametrize("comp", TRAINABLE_COMPONENTS)
def test_load_and_resume_name_a_bad_tensor_alike(tmp_path, comp, tree, value, tensor, entry):
    # one check serves both readers of a checkpoint, and init_from, whose
    # parameters train checks as a step-0 checkpoint's; save_checkpoint
    # writes what it is given without checking it
    ds, ecfg, gcfg, ck = trained_everywhere()
    tensors = tensors_of(ck, tree, comp)
    names = list(tensors)
    name = names[len(names) // 2 if tensor is None else tensor]
    tensors[name].flat[entry] = value
    field = f"params.{comp}" if tree == "params" else f"adam.{comp}"
    prefix = "" if tree == "params" else f"{tree}."
    want = f"checkpoint field '{field}': {prefix}{name} contains non-finite entries"
    assert load_and_resume_errors(tmp_path, ds, ecfg, gcfg, ck) == (want, want)
    if tree == "params":
        with pytest.raises(ValueError) as init:
            train(ds, ecfg, gcfg, 0, init_from=ck.params)
        assert str(init.value) == want


@pytest.mark.parametrize("comp", TRAINABLE_COMPONENTS)
def test_load_and_resume_reject_a_negative_second_moment_alike(tmp_path, comp):
    ds, ecfg, gcfg, ck = trained_everywhere()
    tensors = ck.adam.v[comp]
    tensors[list(tensors)[-1]].flat[-1] = -1e-300
    want = f"checkpoint field 'adam.{comp}': v contains negative entries"
    assert load_and_resume_errors(tmp_path, ds, ecfg, gcfg, ck) == (want, want)


def corrupt(ck, *faults):
    """``ck`` with ``value`` written to entry 0 of each ``(tree, comp, name,
    value)`` of ``faults``; ``tree`` is params, m or v."""
    for tree, comp, name, value in faults:
        tensors_of(ck, tree, comp)[name].flat[0] = value
    return ck


@pytest.mark.parametrize("faults,named", [
    # two bad tensors of one component: the first in its spec
    ([("params", "generator", "gen_b.1", np.nan), ("params", "generator", "gen_w.0", np.inf)],
     "checkpoint field 'params.generator': gen_w.0 contains non-finite entries"),
    # every component's parameters before any Adam moment, and the
    # parameters in component order, although train lays the trained
    # discriminator out before the frozen generator
    ([("m", "ensad", "wq", np.nan), ("params", "discriminator", "fd_w", np.nan),
      ("params", "generator", "gen_w.1", np.nan)],
     "checkpoint field 'params.generator': gen_w.1 contains non-finite entries"),
    # per trained component, m, then v's finiteness, then v's sign
    ([("v", "discriminator", "ds_b", np.nan), ("v", "ensad", "b", -1.0)],
     "checkpoint field 'adam.ensad': v contains negative entries"),
    ([("v", "ensad", "wo", np.inf), ("v", "ensad", "wq", -1.0), ("m", "ensad", "wo", np.nan)],
     "checkpoint field 'adam.ensad': m.wo contains non-finite entries"),
])
def test_load_and_resume_name_the_first_of_several_faults_alike(tmp_path, faults, named):
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()  # trains the adapter and the discriminator
    ck = corrupt(train(ds, ecfg, replace(gcfg, steps=2), 0), *faults)
    assert load_and_resume_errors(tmp_path, ds, ecfg, gcfg, ck) == (named, named)


def test_resume_names_a_misshapen_tensor_before_a_bad_value():
    # the names and shapes of every tree are walked before any value is read
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    ck = corrupt(train(ds, ecfg, replace(gcfg, steps=2), 0), ("params", "ensad", "wq", np.nan))
    ck.adam.m["discriminator"]["ds_b"] = np.zeros(2)
    with pytest.raises(ValueError, match=r"^checkpoint field 'adam.discriminator': m.ds_b has "
                       r"shape \(2,\), expected \(\)$"):
        train(ds, ecfg, replace(gcfg, steps=3), 0, resume=ck)


@pytest.mark.parametrize("disc_hidden", [(8,), (8, 8, 8, 8)])
def test_checkpoint_values_are_checked_once_per_vector(tmp_path, monkeypatch, disc_hidden):
    # one finiteness pass over format 2's tensor vector, however many
    # tensors: the one a load reads, and the one train builds for a resume,
    # an init_from run or a fresh start (none of which runs a step here)
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup(disc_hidden=disc_hidden)
    ck = train(ds, ecfg, replace(gcfg, steps=2), 0)
    path = str(tmp_path / "ck.npz")
    save_checkpoint(ck, path)
    calls = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda *a, **kw: calls.append(1) or isfinite(*a, **kw))
    counts = []
    for call in (lambda: load_checkpoint(path),
                 lambda: train(ds, ecfg, replace(gcfg, steps=2), 0, resume=ck),
                 lambda: train(ds, ecfg, gcfg, 0, init_from=ck.params),
                 lambda: train(ds, ecfg, gcfg, 0)):
        calls.clear()
        call()
        counts.append(len(calls))
    assert counts == [1, 1, 1, 1]


def test_train_validates_dataset_dims():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    with pytest.raises(ValueError, match=re.escape(
            "dataset (d=6, m=2, d_img=5) does not match the configs (adapter d=7, m=2; "
            "gan d=7, d_img=5)")):
        train(ds, replace(ecfg, d=7), replace(gcfg, d=7), 0)
    with pytest.raises(ValueError, match=re.escape(
            "dataset (d=6, m=2, d_img=5) does not match the configs (adapter d=6, m=2; "
            "gan d=6, d_img=9)")):
        train(ds, ecfg, replace(gcfg, d_img=9), 0)


def test_divergence_raises_with_checkpoint():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    bad = replace(gcfg, steps=50, lr=1e300,
                  trainable=frozenset({"ensad", "generator", "discriminator"}))
    with pytest.raises(TrainingDiverged) as exc:
        train(ds, ecfg, bad, 0)
    err = exc.value
    assert err.step >= 1
    assert isinstance(err.checkpoint, Checkpoint)
    assert err.checkpoint.step == err.step


def test_checkpoint_roundtrip(tmp_path):
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    gcfg = replace(gcfg, steps=8,
                   trainable=frozenset({"ensad", "discriminator"}))
    ck = train(ds, ecfg, gcfg, 2)
    path = str(tmp_path / "ck.json")
    save_checkpoint(ck, path)
    back = load_checkpoint(path)
    assert checkpoint_bytes(back) == checkpoint_bytes(ck)
    assert back.ensad_cfg == ck.ensad_cfg
    assert back.gan_cfg == ck.gan_cfg
    # resume from the reloaded checkpoint is bit-exact too
    cont1 = train(ds, ecfg, replace(gcfg, steps=16), 2, resume=ck)
    cont2 = train(ds, ecfg, replace(gcfg, steps=16), 2, resume=back)
    assert checkpoint_bytes(cont1) == checkpoint_bytes(cont2)


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
# the format-2 re-save of the reference checkpoint ckpt_step6.json
GOLDEN_CKPT = os.path.join(GOLDEN, "ckpt_step6.npz")


def same_floats(value, arr):
    """Whether the JSON numbers ``value`` have ``arr``'s shape and float64
    bits (so -0.0 and 0.0 differ, as their text does)."""
    ref = np.asarray(value, dtype=np.float64)
    return ref.shape == arr.shape and ref.tobytes() == arr.tobytes()


def golden_tensors(group: dict) -> dict:
    """A ``params`` group of ckpt_step6.json by param_shapes name: that file
    holds the layers ``gen_w.0, gen_w.1, ...`` as one list ``gen_w``."""
    named = {}
    for key, value in group.items():
        if key in ("gen_w", "gen_b", "disc_w", "disc_b"):
            named.update((f"{key}.{i}", layer) for i, layer in enumerate(value))
        else:
            named[key] = value
    return named


def test_golden_json_and_archive_hold_the_same_floats():
    # the archive holds the values of the JSON reference, written by the
    # per-item code, exactly: every field, every float bit for bit
    with open(os.path.join(GOLDEN, "ckpt_step6.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    ck = load_checkpoint(GOLDEN_CKPT)
    assert ref.keys() == {"version", "configs", "rng", "step", "params", "adam"}
    assert ref["version"] == 1  # the JSON view's own, not a checkpoint format
    assert ref["step"] == ck.step
    assert ref["rng"] == {"algorithm": SeededRng.ALGORITHM, "seed": ck.rng_seed,
                          "position": ck.rng_position}
    # sets as sorted lists, tuples as lists
    assert ref["configs"] == json.loads(json.dumps(
        {"adapter": asdict(ck.ensad_cfg), "gan": asdict(ck.gan_cfg)}, default=sorted))
    # the JSON still holds the adapter's old score bias bp, which the
    # softmax cannot see and the archive leaves out: by name in the params,
    # and at index 5 of the adapter's Adam lists (wq, wk, wv, b, wp, bp, wo)
    dropped = [ref["params"]["ensad"].pop("bp")]
    dropped += [ref["adam"]["ensad"][key].pop(5) for key in ("m", "v")]
    assert all(abs(value) < 1e-11 for value in dropped), dropped
    groups = {"ensad": ck.params["ensad"],
              "gan": {**ck.params["generator"], **ck.params["discriminator"]}}
    for group, tensors in groups.items():
        named = golden_tensors(ref["params"][group])
        assert named.keys() == tensors.keys()
        for name, arr in tensors.items():
            assert same_floats(named[name], arr), (group, name)
    assert ref["adam"].keys() == ck.adam.m.keys()  # the run trains all three
    for comp, entry in ref["adam"].items():
        assert entry.keys() == {"m", "v", "t"} and entry["t"] == ck.adam.t
        for key, moments in (("m", ck.adam.m[comp]), ("v", ck.adam.v[comp])):
            assert len(entry[key]) == len(moments)
            for value, arr in zip(entry[key], moments.values()):
                assert same_floats(value, arr), (comp, key)


def test_checkpoint_rejects_bad_version(tmp_path):
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    ck = train(ds, ecfg, replace(gcfg, steps=0), 2)
    path = tmp_path / "ck.npz"
    save_checkpoint(ck, str(path))
    rewrite_header(path, path, lambda h: h.update(version=99))
    with pytest.raises(ValueError, match="unsupported checkpoint version 99"):
        load_checkpoint(str(path))


def rewrite_header(src, dst, mutate):
    """Write the format-2 archive ``src`` to ``dst`` with ``mutate`` applied
    to its header, a dict."""
    with np.load(src) as archive:
        header = json.loads(archive["header"].tobytes())
        tensors = archive["tensors"]
    mutate(header)
    with open(dst, "wb") as fh:
        np.savez(fh, header=np.frombuffer(json.dumps(header).encode(), np.uint8),
                 tensors=tensors)


def test_checkpoint_rejects_unequal_adam_step_counts(tmp_path):
    # one Adam state holds all trained components, so format 2's per-component
    # counts must agree; save_checkpoint cannot write unequal ones
    path = tmp_path / "ck.npz"
    rewrite_header(GOLDEN_CKPT, path, lambda h: h["adam"].update(generator=7))
    with pytest.raises(ValueError, match=re.escape("checkpoint field 'adam': step counts differ: "
                                       "{'discriminator': 6, 'ensad': 6, 'generator': 7}")):
        load_checkpoint(str(path))


def tensor_leaves(ck):
    """Every tensor of a checkpoint, parameters and Adam moments, by path."""
    leaves = {("params", comp, name): arr
              for comp, tree in ck.params.items() for name, arr in tree.items()}
    for key in ("m", "v"):
        for comp, tree in getattr(ck.adam, key).items():
            leaves.update({(key, comp, name): arr for name, arr in tree.items()})
    return leaves


def test_format2_round_trip_is_bit_exact(tmp_path):
    # the golden checkpoint trains all three components, so the
    # 0-d ds_b has Adam moments too; a negative zero keeps its sign
    ck = load_checkpoint(GOLDEN_CKPT)
    ck.params["discriminator"]["ds_b"] = np.array(-0.0)
    path = str(tmp_path / "ck.json")
    save_checkpoint(ck, path)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"PK\x03\x04"
    back = load_checkpoint(path)
    want, got = tensor_leaves(ck), tensor_leaves(back)
    assert got.keys() == want.keys()
    assert ("params", "discriminator", "ds_b") in got and ("v", "discriminator", "ds_b") in got
    for key, arr in want.items():
        assert got[key].dtype == np.float64 and got[key].shape == arr.shape, key
        assert got[key].tobytes() == arr.tobytes(), key
    assert back.adam.t == ck.adam.t
    assert (back.ensad_cfg, back.gan_cfg, back.rng_seed, back.rng_position, back.step) == (
        ck.ensad_cfg, ck.gan_cfg, ck.rng_seed, ck.rng_position, ck.step)


def assert_owns_its_tensors(ck, sources=()):
    """Assert that every tensor of ``ck`` is a writable view of one vector
    that owns its data and shares no memory with ``sources``; return the
    tensors by path."""
    leaves = tensor_leaves(ck)
    base = next(iter(leaves.values())).base
    assert base.flags.owndata and base.size == sum(arr.size for arr in leaves.values())
    assert all(arr.base is base and arr.flags.writeable for arr in leaves.values())
    assert not any(np.shares_memory(base, arr) for source in sources
                   for arr in tensor_leaves(source).values())
    return leaves


def returned_checkpoint(how):
    """``(checkpoint, sources)``: a checkpoint that ``load_checkpoint``,
    ``train`` (fresh, resumed or diverged) or ``finetune_pipeline`` returns,
    by ``how``, and the checkpoints it was made from."""
    if how == "load_checkpoint":
        return load_checkpoint(GOLDEN_CKPT), ()
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup(steps=6)
    if how == "finetune_pipeline":
        return finetune_pipeline(ds, ecfg, gcfg, 8, phase1_steps=3), ()
    if how == "diverged":
        with pytest.raises(TrainingDiverged) as exc:
            train(ds, ecfg, replace(gcfg, lr=1e300, trainable=frozenset(TRAINABLE_COMPONENTS)), 8)
        return exc.value.checkpoint, ()
    if how == "train_g_and_d_resumed":  # what finetune_g_text trains
        gcfg = replace(gcfg, **PIPELINE_PHASES[0])
    part = train(ds, ecfg, replace(gcfg, steps=3), 8)
    return (part, ()) if how == "train" else (train(ds, ecfg, gcfg, 8, resume=part), (part,))


@pytest.mark.parametrize("how", ["load_checkpoint", "train", "train_resumed",
                                 "train_g_and_d_resumed", "diverged", "finetune_pipeline"])
def test_returned_checkpoint_tensors_are_writable_and_disjoint(how):
    # a returned checkpoint's tensors are views of one vector that it alone
    # holds: writing into one changes no other tensor, no checkpoint it was
    # made from and no later run from the same inputs
    ck, sources = returned_checkpoint(how)
    leaves = assert_owns_its_tensors(ck, sources)
    before, kept = checkpoint_bytes(ck), [checkpoint_bytes(source) for source in sources]
    for i, arr in enumerate(leaves.values()):
        arr[...] = i
    assert all((arr == i).all() for i, arr in enumerate(leaves.values()))
    assert [checkpoint_bytes(source) for source in sources] == kept
    assert checkpoint_bytes(returned_checkpoint(how)[0]) == before


def test_golden_checkpoint_through_format2_reserializes_to_the_same_bytes(tmp_path):
    # pins format 2's bytes: today's code writes the golden archive again
    path = str(tmp_path / "ck.npz")
    save_checkpoint(load_checkpoint(GOLDEN_CKPT), path)
    with open(path, "rb") as fh, open(GOLDEN_CKPT, "rb") as golden:
        assert fh.read() == golden.read()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_save_checkpoint_writes_the_bytes_np_savez_writes(tmp_path_factory, data):
    # save_checkpoint lays format 2 out itself; np.savez of its two members
    # must give the same bytes, and np.load must read them, for any config,
    # trained set and step count
    dims = st.integers(1, 5)
    hidden = st.lists(dims, max_size=3).map(tuple)
    trainable = data.draw(st.sets(st.sampled_from(TRAINABLE_COMPONENTS)))
    ecfg = EnsAdConfig(d=data.draw(dims), d_hid=data.draw(dims), m=data.draw(dims))
    gcfg = GanConfig(d=ecfg.d, d_z=data.draw(dims), d_img=data.draw(dims),
                     gen_hidden=data.draw(hidden), disc_hidden=data.draw(hidden.filter(bool)),
                     trainable=trainable, steps=data.draw(st.integers(0, 10 ** 6)))
    words = st.integers(0, 2 ** 64 - 1)
    t = data.draw(words)
    rng = SeededRng(data.draw(words))
    shapes = param_shapes(ecfg, gcfg)
    trained = {comp: shapes[comp] for comp in TRAINABLE_COMPONENTS if comp in trainable}
    ck = Checkpoint(ecfg, gcfg, init_tensors(shapes, rng), AdamState(
        m=init_tensors(trained, rng), v=map_tensors(np.abs, init_tensors(trained, rng)), t=t),
        rng_seed=data.draw(words), rng_position=data.draw(words), step=data.draw(words))
    path = tmp_path_factory.mktemp("pin") / "ck.npz"
    save_checkpoint(ck, str(path))
    raw = path.read_bytes()
    with np.load(path) as archive:
        header, tensors = archive["header"], archive["tensors"]
    buf = io.BytesIO()
    np.savez(buf, header=header, tensors=tensors)
    assert raw == buf.getvalue()
    assert json.loads(header.tobytes())["adam"] == dict.fromkeys(trained, t)
    assert tensors.tobytes() == gan._tensor_vector(ck).tobytes()
    assert checkpoint_bytes(load_checkpoint(path)) == raw


def test_save_checkpoint_walks_the_spec_not_the_dicts_order():
    # format 2 lays tensors out in param_shapes order, whatever order the
    # checkpoint's dicts list them in
    ck = load_checkpoint(GOLDEN_CKPT)

    def reverse(tree):
        return {comp: dict(reversed(names.items())) for comp, names in reversed(tree.items())}

    flipped = replace(ck, params=reverse(ck.params),
                      adam=AdamState(reverse(ck.adam.m), reverse(ck.adam.v), ck.adam.t))
    assert list(flipped.params["ensad"]) == list(reversed(ck.params["ensad"]))
    assert list(flipped.adam.v["discriminator"]) == list(reversed(ck.adam.v["discriminator"]))
    assert checkpoint_bytes(flipped) == checkpoint_bytes(ck)


def test_format2_equal_checkpoints_give_equal_bytes(tmp_path):
    ck = load_checkpoint(GOLDEN_CKPT)
    paths = [str(tmp_path / name) for name in ("a.json", "b.json", "c.json")]
    save_checkpoint(ck, paths[0])
    save_checkpoint(ck, paths[1])
    save_checkpoint(load_checkpoint(paths[0]), paths[2])
    contents = []
    for path in paths:
        with open(path, "rb") as fh:
            contents.append(fh.read())
    assert contents[0] == contents[1] == contents[2]


def test_failed_checkpoint_save_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "ck.npz"
    path.write_bytes(b"old checkpoint")

    class FullDisk(io.FileIO):
        """A file whose first write lands and then fails."""
        def write(self, data):
            super().write(data)
            raise OSError("disk full")
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: FullDisk(fd, mode))
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(load_checkpoint(GOLDEN_CKPT), str(path))
    assert path.read_bytes() == b"old checkpoint"
    assert os.listdir(tmp_path) == ["ck.npz"]


def test_init_from_starts_fresh_stream():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    donor = train(ds, ecfg, replace(
        gcfg, steps=10, conditioning="zero_shot",
        trainable=frozenset({"generator", "discriminator"})), 4)
    warm = train(ds, ecfg, replace(
        gcfg, steps=0, trainable=frozenset({"ensad", "discriminator"})), 11,
        init_from=donor.params)
    assert warm.rng_position == 0
    assert warm.step == 0
    for a, b in zip(warm.params["generator"].values(),
                    donor.params["generator"].values()):
        assert np.array_equal(a, b)
    # integer arrays are taken as float64 parameters (they failed at the
    # first Adam update before)
    ints = map_tensors(lambda a: np.rint(4 * a).astype(np.int64), donor.params)
    ck = train(ds, ecfg, replace(
        gcfg, steps=2, trainable=frozenset({"ensad", "discriminator"})), 11,
        init_from=ints)
    assert ck.params["ensad"]["wq"].dtype == np.float64


def step0_checkpoint(ecfg, gcfg, params, seed, position):
    """The step-0 checkpoint of ``params``: zero Adam moments for the
    components ``gcfg`` trains, the stream of ``seed`` at ``position``."""
    zeros = {comp: map_tensors(np.zeros_like, params[comp])
             for comp in TRAINABLE_COMPONENTS if comp in gcfg.trainable}
    return Checkpoint(ecfg, gcfg, params, AdamState(zeros, zeros), seed, position, 0)


# The gan fields of every preset: the one-phase presets, and each phase of
# the pipeline preset.
PRESET_FIELDS = {**{name: f for name, f in PRESETS.items() if name != PIPELINE_PRESET},
                 **{f"{PIPELINE_PRESET}.{i}": f for i, f in enumerate(PIPELINE_PHASES, 1)}}


@pytest.mark.parametrize("preset", PRESET_FIELDS)
def test_fresh_and_init_from_runs_resume_their_step_0_checkpoint(preset):
    # train has one way in: without resume it builds the step-0 checkpoint
    # and resumes it, so the two calls give the same bytes
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    gcfg = replace(gcfg, steps=5, **PRESET_FIELDS[preset])
    donor = init_tensors(param_shapes(ecfg, gcfg), SeededRng(3))
    assert checkpoint_bytes(train(ds, ecfg, gcfg, 11, init_from=donor)) == checkpoint_bytes(
        train(ds, ecfg, gcfg, 11, resume=step0_checkpoint(ecfg, gcfg, donor, 11, 0)))
    rng = SeededRng(11)
    drawn = step0_checkpoint(ecfg, gcfg, init_tensors(param_shapes(ecfg, gcfg), rng), 11,
                             rng.position)
    assert checkpoint_bytes(train(ds, ecfg, gcfg, 11)) == checkpoint_bytes(
        train(ds, ecfg, gcfg, 11, resume=drawn))


def test_pipeline_phase_splice():
    # with zero phase-2 steps the returned checkpoint shows the splice:
    # generator from phase 1, discriminator reset to its pre-phase-1 state
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    ck = finetune_pipeline(ds, ecfg, replace(gcfg, steps=12), 8, phase1_steps=12)

    g1 = replace(gcfg, steps=12, conditioning="zero_shot",
                 trainable=frozenset({"generator", "discriminator"}))
    ck0 = train(ds, ecfg, replace(g1, steps=0), 8)
    ck1 = train(ds, ecfg, g1, 8, resume=ck0)
    for a, b in zip(ck.params["generator"].values(),
                    ck1.params["generator"].values()):
        assert np.array_equal(a, b)
    for a, b in zip(ck.params["discriminator"].values(),
                    ck0.params["discriminator"].values()):
        assert np.array_equal(a, b)


def test_pipeline_determinism_and_logging():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup(steps=12)
    rows = []
    ck1 = finetune_pipeline(ds, ecfg, gcfg, 8, phase1_steps=5, log_fn=rows.append)
    ck2 = finetune_pipeline(ds, ecfg, gcfg, 8, phase1_steps=5)
    assert checkpoint_bytes(ck1) == checkpoint_bytes(ck2)
    assert [r["step"] for r in rows] == list(range(1, 13))
    assert ck1.step == 12


def assert_records(rows):
    """``rows`` are train's log records of steps 1, 2, ... of a run: each
    keyed by exactly CSV_COLUMNS, in order, with an int step and Python
    float losses."""
    assert [row["step"] for row in rows] == list(range(1, len(rows) + 1))
    for row in rows:
        assert tuple(row) == CSV_COLUMNS
        assert type(row["step"]) is int
        assert all(type(row[key]) is float for key in CSV_COLUMNS[1:]), row


@pytest.mark.parametrize("enable_clg", [False, True], ids=["cl", "clg"])
@pytest.mark.parametrize("trainable", [
    frozenset(subset) for n in range(len(TRAINABLE_COMPONENTS) + 1)
    for subset in itertools.combinations(TRAINABLE_COMPONENTS, n)],
    ids=lambda subset: "+".join(sorted(subset)) or "none")
def test_train_log_records_keep_their_contract(trainable, enable_clg):
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    rows = []
    train(ds, ecfg, replace(gcfg, steps=3, trainable=trainable, enable_clg=enable_clg), 5,
          log_fn=rows.append)
    assert len(rows) == 3
    assert_records(rows)


def test_pipeline_log_records_keep_their_contract():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup(steps=4)
    rows = []
    finetune_pipeline(ds, ecfg, gcfg, 8, phase1_steps=2, log_fn=rows.append)
    assert len(rows) == 4
    assert_records(rows)


def nan_on_call(n):
    """A ``step_losses_and_grads`` whose ``n``-th call returns a NaN
    adapter-side loss."""
    calls = []

    def step(*args):
        res = step_losses_and_grads(*args)
        calls.append(None)
        return replace(res, loss_ensad=math.nan) if len(calls) == n else res
    return step


def test_pipeline_divergence_names_the_runs_step(monkeypatch):
    # phase 2's third step gives a NaN loss: the message, the exception and
    # its checkpoint count steps as the log does
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup(steps=9)
    monkeypatch.setattr(gan, "step_losses_and_grads", nan_on_call(7))
    rows = []
    with pytest.raises(TrainingDiverged) as exc:
        finetune_pipeline(ds, ecfg, gcfg, 8, phase1_steps=4, log_fn=rows.append)
    assert [r["step"] for r in rows] == list(range(1, 7))
    assert str(exc.value) == "non-finite adapter-side loss at step 6"
    assert exc.value.step == exc.value.checkpoint.step == 6
    assert exc.value.checkpoint.gan_cfg.trainable == frozenset({"ensad"})


def test_pipeline_phase2_diagnostic_replays_the_run(monkeypatch):
    # resuming the diagnostic checkpoint with its own config and seed, without
    # the NaN, finishes the run as if it had never diverged
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup(steps=9)
    whole_rows = []
    whole = finetune_pipeline(ds, ecfg, gcfg, 8, phase1_steps=4, log_fn=whole_rows.append)
    with monkeypatch.context() as patch:
        patch.setattr(gan, "step_losses_and_grads", nan_on_call(7))
        rows = []
        with pytest.raises(TrainingDiverged) as exc:
            finetune_pipeline(ds, ecfg, gcfg, 8, phase1_steps=4, log_fn=rows.append)
    ck = exc.value.checkpoint
    assert exc.value.step == 6
    replayed = train(ds, ecfg, ck.gan_cfg, ck.rng_seed, resume=ck, log_fn=rows.append)
    assert checkpoint_bytes(replayed) == checkpoint_bytes(whole)
    assert [r["step"] for r in rows] == list(range(1, 10))
    assert rows == whole_rows


@pytest.fixture(scope="module")
def whole_pipeline():
    """The uninterrupted 9-step pipeline, 4 of them in phase 1, on the toy
    corpus, and its log rows."""
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup(steps=9)
    rows = []
    ck = finetune_pipeline(ds, ecfg, gcfg, 8, phase1_steps=4, log_fn=rows.append)
    return ds, ecfg, gcfg, ck, rows


@pytest.mark.parametrize("k", range(9))
def test_pipeline_resumes_a_diagnostic_checkpoint_of_any_step(monkeypatch, whole_pipeline, k):
    # a NaN at the run's step k, in either phase; resuming the diagnostic
    # checkpoint with the same steps finishes the uninterrupted run
    ds, ecfg, gcfg, whole, whole_rows = whole_pipeline
    with monkeypatch.context() as patch:
        patch.setattr(gan, "step_losses_and_grads", nan_on_call(k + 1))
        with pytest.raises(TrainingDiverged) as exc:
            finetune_pipeline(ds, ecfg, gcfg, 8, phase1_steps=4)
    assert exc.value.step == k
    rows = []
    ck = finetune_pipeline(ds, ecfg, gcfg, 8, phase1_steps=4,
                           resume=exc.value.checkpoint, log_fn=rows.append)
    assert checkpoint_bytes(ck) == checkpoint_bytes(whole)
    assert rows == whole_rows[k:]


def test_pipeline_continues_its_finished_checkpoint(whole_pipeline):
    ds, ecfg, gcfg, whole, _ = whole_pipeline
    same = finetune_pipeline(ds, ecfg, gcfg, 8, phase1_steps=4, resume=whole)
    assert checkpoint_bytes(same) == checkpoint_bytes(whole)
    g11 = replace(gcfg, steps=11)
    longer = finetune_pipeline(ds, ecfg, g11, 8, phase1_steps=4, resume=whole)
    fresh = finetune_pipeline(ds, ecfg, g11, 8, phase1_steps=4)
    assert checkpoint_bytes(longer) == checkpoint_bytes(fresh)


def test_pipeline_resume_checks_phase2s_start_and_seed(whole_pipeline):
    ds, ecfg, gcfg, whole, _ = whole_pipeline
    # phase 2 began at step 9 - 5 = 4
    with pytest.raises(ValueError, match="^resume checkpoint's phase 2 began at step 4, not at "
                       "phase1_steps 3$"):
        finetune_pipeline(ds, ecfg, gcfg, 8, phase1_steps=3, resume=whole)
    # phase 2's own seed continues it too; a seed that derives neither fails
    own = finetune_pipeline(ds, ecfg, gcfg, whole.rng_seed, phase1_steps=4, resume=whole)
    assert checkpoint_bytes(own) == checkpoint_bytes(whole)
    with pytest.raises(ValueError, match="^resume checkpoint was created with phase 2's seed "
                                         f"{whole.rng_seed}, which seed 9 does not derive$"):
        finetune_pipeline(ds, ecfg, gcfg, 9, phase1_steps=4, resume=whole)


def test_pipeline_rejects_a_seed_that_is_not_a_uint64(whole_pipeline):
    # 8.5 derived phase 2's seed from 8, so it continued seed 8's checkpoint
    ds, ecfg, gcfg, whole, _ = whole_pipeline
    for resume in (None, whole):
        with pytest.raises(ValueError, match=f"^seed: {UINT_MESSAGE}8.5$"):
            finetune_pipeline(ds, ecfg, gcfg, 8.5, phase1_steps=4, resume=resume)


def test_pipeline_resume_rejects_another_presets_checkpoint(whole_pipeline):
    ds, ecfg, gcfg, _, _ = whole_pipeline
    frozen_g = train(ds, ecfg, replace(gcfg, steps=2), 8)
    with pytest.raises(ValueError, match="different gan config: .*trainable"):
        finetune_pipeline(ds, ecfg, gcfg, 8, phase1_steps=4, resume=frozen_g)


@pytest.mark.parametrize("phase1", [-1, 6])
def test_pipeline_rejects_phase1_steps_outside_the_run(phase1):
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup(steps=5)
    with pytest.raises(ValueError, match=rf"phase1_steps {phase1} must lie in \[0, steps 5\]"):
        finetune_pipeline(ds, ecfg, gcfg, 8, phase1_steps=phase1)
    # either end of the range is a run: all of it in one phase
    for phase1 in (0, 5):
        assert finetune_pipeline(ds, ecfg, gcfg, 8, phase1_steps=phase1).step == 5


def two_budget_pipeline(ds, ecfg, gcfg, seed, phase1_steps, phase2_steps):
    """The pipeline as its two budgets defined it, written out in
    :func:`train` calls: ``phase1_steps`` steps of phase 1 from ``seed``,
    then ``phase2_steps`` more of phase 2 on its derived stream, from the
    tuned generator and the pre-phase-1 discriminator and adapter."""
    g1 = replace(gcfg, steps=phase1_steps, **PIPELINE_PHASES[0])
    g2 = replace(gcfg, steps=phase1_steps + phase2_steps, **PIPELINE_PHASES[1])
    ck0 = train(ds, ecfg, replace(g1, steps=0), seed)
    ck1 = train(ds, ecfg, g1, seed, resume=ck0)
    seed2 = derive_seed(seed, _PHASE2_SALT)
    start = train(ds, ecfg, replace(g2, steps=0), seed2,
                  init_from={**ck0.params, "generator": ck1.params["generator"]})
    return train(ds, ecfg, g2, seed2, resume=replace(start, step=phase1_steps))


def test_pipeline_steps_count_both_phases():
    # steps 5 with phase1_steps 3 is the 3 + 2 run the two budgets gave
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    ck = finetune_pipeline(ds, ecfg, replace(gcfg, steps=5), 8, phase1_steps=3)
    assert checkpoint_bytes(ck) == checkpoint_bytes(two_budget_pipeline(ds, ecfg, gcfg, 8, 3, 2))


def batch_inputs(ds, ecfg, gcfg, seed):
    rng = SeededRng(seed)
    ensembles = ds.rows[: gcfg.batch]
    imgs = ds.images[: gcfg.batch]
    zs = np.stack([rng.gaussian(gcfg.d_z) for _ in range(gcfg.batch)])
    return ensembles, imgs, zs


def test_contrastive_grads_vs_finite_differences():
    from ensad.gan import _contrastive_with_grads
    rng = SeededRng(12)
    a = rng.gaussian(15).reshape(3, 5)
    p = rng.gaussian(15).reshape(3, 5)
    _, (ga, gp_) = _contrastive_with_grads(*unit_rows(np.array([a, p])), 0.5)
    eps = 1e-6
    for mat, grad in ((a, ga), (p, gp_)):
        for i in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                orig = mat[i, j]
                mat[i, j] = orig + eps
                up = loss_contrastive(a, p, 0.5)
                mat[i, j] = orig - eps
                dn = loss_contrastive(a, p, 0.5)
                mat[i, j] = orig
                num = (up - dn) / (2 * eps)
                assert abs(grad[i, j] - num) <= 1e-5 * max(
                    1.0, abs(num)), (i, j)


def reference_contrastive(a, p, tau):
    """The contrastive loss and gradients in the form that normalized both
    matrices inside every term: np.linalg.norm, np.diag and np.mean. A row
    of norm below 1e-12 passes through and gets a zero gradient."""
    n = a.shape[0]
    norm_a = np.linalg.norm(a, axis=1)
    norm_p = np.linalg.norm(p, axis=1)
    ahat = a / np.where(norm_a < 1e-12, 1.0, norm_a)[:, None]
    phat = p / np.where(norm_p < 1e-12, 1.0, norm_p)[:, None]
    inv_a = np.where(norm_a < 1e-12, 0.0, 1.0 / np.maximum(norm_a, 1e-12))
    inv_p = np.where(norm_p < 1e-12, 0.0, 1.0 / np.maximum(norm_p, 1e-12))
    sim = ahat @ phat.T
    x = sim / tau
    mx = x.max(axis=0)
    ex = np.exp(x - mx)
    colsum = ex.sum(axis=0)
    lse = np.log(colsum) + mx
    loss = float(-np.mean(np.diag(x) - lse))
    dsim = ex / colsum
    dsim.ravel()[::n + 1] -= 1.0
    dsim /= n * tau
    rows = (dsim * sim).sum(axis=1)
    cols = (dsim * sim).sum(axis=0)
    grad_a = (dsim @ phat - rows[:, None] * ahat) * inv_a[:, None]
    grad_p = (dsim.T @ ahat - cols[:, None] * phat) * inv_p[:, None]
    return loss, grad_a, grad_p


@pytest.mark.parametrize("n,k", [(1, 3), (4, 5), (16, 16), (16, 7)])
def test_contrastive_matches_the_per_term_normalization_bitwise(n, k):
    from ensad.gan import _contrastive_with_grads
    rng = SeededRng(40 + n + k)
    for trial in range(4):
        a = rng.gaussian_rows(n, k) * (1.0 + trial)
        p = rng.gaussian_rows(n, k)
        if trial >= 2 and n > 1:  # zero rows and a row below the norm epsilon
            a[0] = 0.0
            p[-1] = 1e-13
        for tau in (0.5, 0.07):
            want = reference_contrastive(a, p, tau)
            loss, grads = _contrastive_with_grads(*unit_rows(np.array([a, p])), tau)
            assert loss[0] == want[0]
            assert grads[0].tobytes() == want[1].tobytes()
            assert grads[1].tobytes() == want[2].tobytes()
            assert loss_contrastive(a, p, tau) == want[0]


@pytest.mark.parametrize("enable_clg", [False, True])
def test_step_grads_adapter_end_to_end_vs_fd(enable_clg):
    # gradient of the adapter-side total through G and D, checked against
    # central differences on the exact function train() optimizes
    ds = toy_dataset(d=8, m=3, d_img=6, seed=21)
    ecfg = EnsAdConfig(d=8, d_hid=4, m=3, alpha=0.3)
    gcfg = GanConfig(d=8, d_z=4, d_img=6, gen_hidden=(8, 8),
                     disc_hidden=(8,), batch=4,
                     trainable=frozenset({"ensad", "discriminator"}),
                     enable_clg=enable_clg)
    rng = SeededRng(30)
    gp = init_tensors(param_shapes(ecfg, gcfg), rng)
    ep = gp["ensad"]
    proxy = None
    if enable_clg:
        proxy = SeededRng(99).gaussian(8 * 6).reshape(8, 6) / np.sqrt(6.0)
    ensembles, imgs, zs = batch_inputs(ds, ecfg, gcfg, 31)

    res = step_losses_and_grads(ensembles, imgs, zs, gp, ecfg, _step_plan(gcfg),
                                proxy)
    grads = res.grads["ensad"]

    def value():
        r = step_losses_and_grads(ensembles, imgs, zs, gp, ecfg,
                                  _step_plan(replace(gcfg, trainable=frozenset())),
                                  proxy)
        return r.loss_ensad

    eps = 1e-5
    names = list(ep)
    tensors = list(ep.values())
    for name, tensor, grad in zip(names, tensors, grads.values()):
        flat = tensor.reshape(-1)
        gflat = np.asarray(grad, dtype=float).reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + eps
            up = value()
            flat[i] = orig - eps
            dn = value()
            flat[i] = orig
            num = (up - dn) / (2 * eps)
            scale = max(abs(gflat[i]), abs(num))
            if scale < 1e-7:
                continue
            assert abs(gflat[i] - num) <= 1e-3 * scale, (
                f"{name}[{i}]: analytic {gflat[i]}, numeric {num}")


def test_step_grads_generator_and_disc_vs_fd():
    ds = toy_dataset(d=8, m=3, d_img=6, seed=22)
    ecfg = EnsAdConfig(d=8, d_hid=4, m=3, alpha=0.3)
    gcfg = GanConfig(
        d=8, d_z=4, d_img=6, gen_hidden=(6,), disc_hidden=(6,), batch=3,
        trainable=frozenset({"generator", "discriminator"}),
        conditioning="zero_shot")
    rng = SeededRng(33)
    gp = init_tensors(param_shapes(ecfg, gcfg), rng)
    ensembles, imgs, zs = batch_inputs(ds, ecfg, gcfg, 34)

    res = step_losses_and_grads(ensembles, imgs, zs, gp, ecfg, _step_plan(gcfg))
    frozen = _step_plan(replace(gcfg, trainable=frozenset()))
    eps = 1e-5

    def check(tensors, grads, pick_loss):
        for tensor, grad in zip(tensors, grads):
            flat = tensor.reshape(-1)
            gflat = np.asarray(grad, dtype=float).reshape(-1)
            for i in range(flat.shape[0]):
                orig = flat[i]
                flat[i] = orig + eps
                up = pick_loss(step_losses_and_grads(
                    ensembles, imgs, zs, gp, ecfg, frozen))
                flat[i] = orig - eps
                dn = pick_loss(step_losses_and_grads(
                    ensembles, imgs, zs, gp, ecfg, frozen))
                flat[i] = orig
                num = (up - dn) / (2 * eps)
                scale = max(abs(gflat[i]), abs(num))
                if scale < 1e-7:
                    continue
                assert abs(gflat[i] - num) <= 1e-3 * scale

    check(gp["generator"].values(), res.grads["generator"].values(),
          lambda r: r.loss_ensad)
    check(gp["discriminator"].values(), res.grads["discriminator"].values(),
          lambda r: r.loss_disc)


def test_step_grads_match_train_first_update():
    # with beta1=0 the first Adam step moves each coordinate by exactly
    # lr * g / (|g| + eps'): the applied update must match the gradients
    # this seam reports
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    gcfg = replace(gcfg, steps=1, noise_p0=0.0, noise_pt=0.0,
                   trainable=frozenset({"ensad", "discriminator"}))
    seed = 14
    ck = train(ds, ecfg, gcfg, seed)

    rng = SeededRng(seed)
    p0 = init_tensors(param_shapes(ecfg, gcfg), rng)
    from test_batching import sample_indices
    idx = next(sample_indices(len(ds), gcfg.batch, rng))
    ensembles = ds.rows[idx]
    imgs = ds.images[idx]
    zs = np.stack([rng.gaussian(gcfg.d_z) for _ in range(gcfg.batch)])
    res = step_losses_and_grads(ensembles, imgs, zs, p0, ecfg, _step_plan(gcfg))

    before = [t.copy() for t in p0["ensad"].values()]
    after = [t for t in ck.params["ensad"].values()]
    # beta1=0 at t=1: mhat=g, vhat=g^2, so the update is lr*g/(|g|+eps)
    for b, a, g in zip(before, after, res.grads["ensad"].values()):
        want = b - gcfg.lr * g / (np.abs(g) + 1e-8)
        assert np.allclose(a, want, atol=1e-15, rtol=0)
