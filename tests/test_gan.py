import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from ensad.adapter import EnsAdConfig
from ensad.data import SyntheticSpec, generate_synthetic
from ensad.gan import (
    AdamState,
    Checkpoint,
    GanConfig,
    TrainingDiverged,
    adam_step,
    checkpoint_from_jsonable,
    checkpoint_to_jsonable,
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
from ensad.numkit import SeededRng, init_tensors, l2_normalize, map_tensors


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


def fresh_adam(p):
    return AdamState(map_tensors(np.zeros_like, p), map_tensors(np.zeros_like, p))


def test_adam_zero_grad_keeps_params():
    p = {"a": np.array([1.0, 2.0]), "b": np.array([[3.0]])}
    st = fresh_adam(p)
    before = [t.copy() for t in p.values()]
    adam_step(p, {"a": np.zeros(2), "b": np.zeros((1, 1))}, st, 5e-4, 0.0, 0.99)
    for a, b in zip(p.values(), before):
        assert np.array_equal(a, b)
    assert st.t == 1


def test_adam_single_step_oracle():
    # t=1, beta1=0, beta2=0.99, g=1: mhat=1, vhat=1, update=lr/(1+eps)
    p = {"a": np.array([1.0])}
    st = fresh_adam(p)
    adam_step(p, {"a": np.array([1.0])}, st, 5e-4, 0.0, 0.99)
    want = 1.0 - 5e-4 * (1.0 / (1.0 + 1e-8))
    assert p["a"][0] == want


def test_adam_rejects_mismatched_shapes():
    p = {"a": np.zeros(2)}
    st = fresh_adam(p)
    with pytest.raises(ValueError):
        adam_step(p, {"a": np.zeros(3)}, st, 1e-3, 0.0, 0.99)


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
    assert checkpoint_to_jsonable(ck1) == checkpoint_to_jsonable(ck2)


def test_train_seed_sensitivity():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    gcfg = replace(gcfg, steps=10,
                   trainable=frozenset({"ensad", "discriminator"}))
    ck1 = train(ds, ecfg, gcfg, 9)
    ck2 = train(ds, ecfg, gcfg, 10)
    assert checkpoint_to_jsonable(ck1) != checkpoint_to_jsonable(ck2)


def test_resume_bitwise_equivalence():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    trainable = frozenset({"ensad", "generator", "discriminator"})
    full = train(ds, ecfg, replace(gcfg, steps=25, trainable=trainable), 3)
    part = train(ds, ecfg, replace(gcfg, steps=10, trainable=trainable), 3)
    resumed = train(ds, ecfg, replace(gcfg, steps=25, trainable=trainable), 3,
                    resume=part)
    assert checkpoint_to_jsonable(resumed) == checkpoint_to_jsonable(full)


def test_resume_validates_config_and_seed():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    trainable = frozenset({"discriminator", "generator"})
    gcfg = replace(gcfg, steps=5, trainable=trainable,
                   conditioning="zero_shot")
    ck = train(ds, ecfg, gcfg, 3)
    with pytest.raises(ValueError):
        train(ds, ecfg, gcfg, 4, resume=ck)  # wrong seed
    with pytest.raises(ValueError):
        train(ds, ecfg, replace(gcfg, steps=8, lr=1e-3), 3, resume=ck)
    with pytest.raises(ValueError):
        train(ds, replace(ecfg, alpha=0.9), gcfg, 3, resume=ck)


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


def test_train_requires_ensad_conditioning_for_adapter():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    bad = replace(gcfg, steps=1, trainable=frozenset({"ensad"}),
                  conditioning="zero_shot")
    with pytest.raises(ValueError):
        train(ds, ecfg, bad, 0)


def test_train_validates_dataset_dims():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    with pytest.raises(ValueError):
        train(ds, replace(ecfg, d=7), replace(gcfg, d=7), 0)
    with pytest.raises(ValueError):
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
    assert checkpoint_to_jsonable(back) == checkpoint_to_jsonable(ck)
    assert back.ensad_cfg == ck.ensad_cfg
    assert back.gan_cfg == ck.gan_cfg
    # resume from the reloaded checkpoint is bit-exact too
    cont1 = train(ds, ecfg, replace(gcfg, steps=16), 2, resume=ck)
    cont2 = train(ds, ecfg, replace(gcfg, steps=16), 2, resume=back)
    assert checkpoint_to_jsonable(cont1) == checkpoint_to_jsonable(cont2)


def test_golden_checkpoint_reserializes_to_the_same_bytes():
    # pins checkpoint format 1: the file was written by an earlier version
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "golden", "ckpt_step6.json")
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    ck = load_checkpoint(path)
    assert json.dumps(checkpoint_to_jsonable(ck), sort_keys=True) + "\n" == text


def test_checkpoint_rejects_bad_version():
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    ck = train(ds, ecfg, replace(gcfg, steps=0), 2)
    obj = checkpoint_to_jsonable(ck)
    obj["version"] = 99
    with pytest.raises(ValueError):
        checkpoint_from_jsonable(obj)


GOLDEN_CKPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "ckpt_step6.json")


def tensor_leaves(ck):
    """Every tensor of a checkpoint, parameters and Adam moments, by path."""
    leaves = {("params", comp, name): arr
              for comp, tree in ck.params.items() for name, arr in tree.items()}
    for comp, st in ck.adam.items():
        for key in ("m", "v"):
            leaves.update({(key, comp, name): arr for name, arr in getattr(st, key).items()})
    return leaves


def test_format2_round_trip_is_bit_exact(tmp_path):
    # the golden checkpoint (format 1) trains all three components, so the
    # 0-d bp and ds_b have Adam moments too; a negative zero keeps its sign
    ck = load_checkpoint(GOLDEN_CKPT)
    ck.params["ensad"]["bp"] = np.array(-0.0)
    path = str(tmp_path / "ck.json")
    save_checkpoint(ck, path)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"PK\x03\x04"
    back = load_checkpoint(path)
    want, got = tensor_leaves(ck), tensor_leaves(back)
    assert got.keys() == want.keys()
    assert ("params", "discriminator", "ds_b") in got and ("v", "ensad", "bp") in got
    for key, arr in want.items():
        assert got[key].dtype == np.float64 and got[key].shape == arr.shape, key
        assert got[key].tobytes() == arr.tobytes(), key
    assert {c: st.t for c, st in back.adam.items()} == {c: st.t for c, st in ck.adam.items()}
    assert (back.ensad_cfg, back.gan_cfg, back.rng_seed, back.rng_position, back.step) == (
        ck.ensad_cfg, ck.gan_cfg, ck.rng_seed, ck.rng_position, ck.step)


def test_golden_checkpoint_through_format2_reserializes_to_the_same_bytes(tmp_path):
    with open(GOLDEN_CKPT, encoding="utf-8") as fh:
        text = fh.read()
    path = str(tmp_path / "ck.json")
    save_checkpoint(load_checkpoint(GOLDEN_CKPT), path)
    assert json.dumps(checkpoint_to_jsonable(load_checkpoint(path)), sort_keys=True) + "\n" == text


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
    savez = np.savez

    def savez_then_fail(fh, **members):
        savez(fh, **members)
        raise OSError("disk full")
    monkeypatch.setattr(np, "savez", savez_then_fail)
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


def test_pipeline_phase_splice():
    # with zero phase-2 steps the returned checkpoint shows the splice:
    # generator from phase 1, discriminator reset to its pre-phase-1 state
    ds = toy_dataset()
    ecfg, gcfg, _, _, _ = toy_setup()
    ck = finetune_pipeline(ds, ecfg, gcfg, 8,
                           phase1_steps=12, phase2_steps=0)

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
    ecfg, gcfg, _, _, _ = toy_setup()
    rows = []
    ck1 = finetune_pipeline(ds, ecfg, gcfg, 8, phase1_steps=5,
                            phase2_steps=7, log_fn=rows.append)
    ck2 = finetune_pipeline(ds, ecfg, gcfg, 8, phase1_steps=5,
                            phase2_steps=7)
    assert checkpoint_to_jsonable(ck1) == checkpoint_to_jsonable(ck2)
    assert [r["step"] for r in rows] == list(range(1, 13))
    assert ck1.step == 7


def batch_inputs(ds, ecfg, gcfg, seed):
    rng = SeededRng(seed)
    ensembles = ds.rows[: gcfg.batch]
    imgs = ds.images[: gcfg.batch]
    zs = np.stack([rng.gaussian(gcfg.d_z) for _ in range(gcfg.batch)])
    return ensembles, imgs, zs


def test_contrastive_grads_vs_finite_differences():
    from ensad.gan import _contrastive_with_grads, _unit_rows
    rng = SeededRng(12)
    a = rng.gaussian(15).reshape(3, 5)
    p = rng.gaussian(15).reshape(3, 5)
    _, ga, gp_ = _contrastive_with_grads(_unit_rows(a), _unit_rows(p), 0.5)
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
    matrices inside every term: np.linalg.norm, np.diag and np.mean."""
    n = a.shape[0]
    inv_a = np.linalg.norm(a, axis=1)
    inv_p = np.linalg.norm(p, axis=1)
    inv_a = np.where(inv_a < 1e-12, 0.0, 1.0 / np.maximum(inv_a, 1e-12))
    inv_p = np.where(inv_p < 1e-12, 0.0, 1.0 / np.maximum(inv_p, 1e-12))
    ahat = a * inv_a[:, None]
    phat = p * inv_p[:, None]
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
    from ensad.gan import _contrastive_with_grads, _unit_rows
    rng = SeededRng(40 + n + k)
    for trial in range(4):
        a = rng.gaussian_rows(n, k) * (1.0 + trial)
        p = rng.gaussian_rows(n, k)
        if trial >= 2 and n > 1:  # zero rows and a row below the norm epsilon
            a[0] = 0.0
            p[-1] = 1e-13
        for tau in (0.5, 0.07):
            want = reference_contrastive(a, p, tau)
            got = _contrastive_with_grads(_unit_rows(a), _unit_rows(p), tau)
            assert got[0] == want[0]
            assert got[1].tobytes() == want[1].tobytes()
            assert got[2].tobytes() == want[2].tobytes()
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

    res = step_losses_and_grads(ensembles, imgs, zs, gp, ecfg, gcfg,
                                proxy)
    grads = res.grads["ensad"]

    def value():
        r = step_losses_and_grads(ensembles, imgs, zs, gp, ecfg,
                                  replace(gcfg, trainable=frozenset()),
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

    res = step_losses_and_grads(ensembles, imgs, zs, gp, ecfg, gcfg)
    frozen = replace(gcfg, trainable=frozenset())
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
    from ensad.data import sample_indices
    idx = next(sample_indices(len(ds), gcfg.batch, rng))
    ensembles = ds.rows[idx]
    imgs = ds.images[idx]
    zs = np.stack([rng.gaussian(gcfg.d_z) for _ in range(gcfg.batch)])
    res = step_losses_and_grads(ensembles, imgs, zs, p0, ecfg, gcfg)

    before = [t.copy() for t in p0["ensad"].values()]
    after = [t for t in ck.params["ensad"].values()]
    # beta1=0 at t=1: mhat=g, vhat=g^2, so the update is lr*g/(|g|+eps)
    for b, a, g in zip(before, after, res.grads["ensad"].values()):
        want = b - gcfg.lr * g / (np.abs(g) + 1e-8)
        assert np.allclose(a, want, atol=1e-15, rtol=0)
