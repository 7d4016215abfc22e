"""``train`` against the per-tensor loop it replaced.

``train`` keeps each component's parameters, Adam moments and gradients in
one flat vector and runs Adam once per component. ``reference_train`` below
is the loop it replaced: the same draws and ``step_losses_and_grads``, then
``adam_step`` per tensor on named dicts. Both apply the same elementwise
IEEE operations to the same values, so every parameter, moment and stream
position must agree bit for bit.
"""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from ensad import gan
from ensad.cli import PRESETS
from ensad.data import augment_rows, sample_indices
from ensad.gan import (
    _PHASE2_SALT,
    _PROXY_SALT,
    TRAINABLE_COMPONENTS,
    AdamState,
    TrainingDiverged,
    adam_step,
    finetune_pipeline,
    load_checkpoint,
    param_shapes,
    save_checkpoint,
    step_losses_and_grads,
    train,
)
from ensad.numkit import SeededRng, derive_seed, init_tensors, map_tensors

from test_gan import toy_dataset, toy_setup

STEPS = 24


def reference_train(ds, ecfg, gcfg, seed, resume=None, init_from=None):
    """The per-tensor training loop: returns (params, adam, rng position)."""
    trained = [comp for comp in TRAINABLE_COMPONENTS if comp in gcfg.trainable]
    if resume is not None:
        params = map_tensors(np.copy, resume.params)
        adam = {comp: AdamState(map_tensors(np.copy, st.m), map_tensors(np.copy, st.v), st.t)
                for comp, st in resume.adam.items()}
        rng = SeededRng(seed, resume.rng_position)
        start = resume.step
    else:
        rng = SeededRng(seed)
        if init_from is None:
            params = init_tensors(param_shapes(ecfg, gcfg), rng)
        else:
            params = map_tensors(lambda a: np.array(a, dtype=np.float64), init_from)
        adam = {comp: AdamState(map_tensors(np.zeros_like, params[comp]),
                                map_tensors(np.zeros_like, params[comp]))
                for comp in trained}
        start = 0
    proxy = None
    if gcfg.enable_clg:
        proxy = SeededRng(derive_seed(seed, _PROXY_SALT)).gaussian(
            ecfg.d * gcfg.d_img).reshape(ecfg.d, gcfg.d_img) / np.sqrt(gcfg.d_img)
    batches = sample_indices(len(ds), gcfg.batch, rng)
    for _ in range(start, gcfg.steps):
        idx = next(batches)
        h = augment_rows(ds.rows[idx], gcfg.noise_p0, gcfg.noise_pt, rng)
        zs = rng.gaussian_rows(gcfg.batch, gcfg.d_z)
        res = step_losses_and_grads(h, ds.images[idx], zs, params, ecfg, gcfg, proxy)
        for comp in trained:
            adam_step(params[comp], res.grads[comp], adam[comp],
                      gcfg.lr, gcfg.beta1, gcfg.beta2)
    return params, adam, rng.position


def assert_bitwise(ck, params, adam, position):
    assert ck.rng_position == position
    assert ck.params.keys() == params.keys() and ck.adam.keys() == adam.keys()
    for comp, tree in params.items():
        assert list(ck.params[comp]) == list(tree)
        for name, want in tree.items():
            got = ck.params[comp][name]
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (comp, name)
    for comp, st in adam.items():
        assert ck.adam[comp].t == st.t
        for got_tree, want_tree in ((ck.adam[comp].m, st.m), (ck.adam[comp].v, st.v)):
            assert list(got_tree) == list(want_tree)
            for name, want in want_tree.items():
                assert got_tree[name].tobytes() == want.tobytes(), (comp, name)


def assert_same_checkpoint(a, b):
    assert_bitwise(a, b.params, b.adam, b.rng_position)
    assert a.step == b.step


def preset_cfgs(preset, steps=STEPS):
    ecfg, gcfg, _, _, _ = toy_setup()
    return ecfg, replace(gcfg, steps=steps, **PRESETS[preset])


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("preset", ["ensad_frozen_g", "finetune_g_text", "lafite_setup"])
def test_train_matches_the_per_tensor_loop(preset, block, monkeypatch):
    # toy components fit in one Adam block; block 7 splits each into many,
    # with a short last block, as the paper's shape splits the adapter
    if block is not None:
        monkeypatch.setattr(gan, "_ADAM_BLOCK", block)
    ds = toy_dataset()
    ecfg, gcfg = preset_cfgs(preset)
    assert_bitwise(train(ds, ecfg, gcfg, 5), *reference_train(ds, ecfg, gcfg, 5))


def test_both_pipeline_phases_match_the_per_tensor_loop():
    ds = toy_dataset()
    ecfg, gcfg = preset_cfgs("ensad_plus_finetune_g")
    seed = 8
    g1 = replace(gcfg, steps=STEPS, conditioning="zero_shot",
                 trainable=frozenset({"generator", "discriminator"}))
    ck1 = train(ds, ecfg, g1, seed)
    ref1 = reference_train(ds, ecfg, g1, seed)
    assert_bitwise(ck1, *ref1)

    g2 = replace(gcfg, steps=STEPS, conditioning="ensad", trainable=frozenset({"ensad"}))
    init = {**init_tensors(param_shapes(ecfg, g1), SeededRng(seed)),
            "generator": ref1[0]["generator"]}
    seed2 = derive_seed(seed, _PHASE2_SALT)
    ref2 = reference_train(ds, ecfg, g2, seed2, init_from=init)
    assert_bitwise(train(ds, ecfg, g2, seed2, init_from=init), *ref2)
    assert_bitwise(finetune_pipeline(ds, ecfg, gcfg, seed, phase1_steps=STEPS,
                                     phase2_steps=STEPS), *ref2)


@pytest.mark.parametrize("preset", ["ensad_frozen_g", "finetune_g_text", "lafite_setup"])
def test_resume_split_at_step_7_matches_the_unsplit_run(preset):
    ds = toy_dataset()
    ecfg, gcfg = preset_cfgs(preset)
    whole = train(ds, ecfg, gcfg, 3)
    part = train(ds, ecfg, replace(gcfg, steps=7), 3)
    assert_same_checkpoint(train(ds, ecfg, gcfg, 3, resume=part), whole)
    assert_bitwise(whole, *reference_train(ds, ecfg, gcfg, 3, resume=part))


def checkpoint_arrays(ck):
    arrays = [a for tree in ck.params.values() for a in tree.values()]
    for st in ck.adam.values():
        arrays += [*st.m.values(), *st.v.values()]
    return arrays


def assert_owned(ck):
    # each tensor its own allocation, not a view into a buffer of train's
    arrays = checkpoint_arrays(ck)
    assert len(arrays) == sum(len(spec) for spec in param_shapes(
        ck.ensad_cfg, ck.gan_cfg).values()) + 2 * sum(len(st.m) for st in ck.adam.values())
    assert all(a.flags.owndata for a in arrays)
    for a, b in combinations(arrays, 2):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("preset", ["ensad_frozen_g", "finetune_g_text"])
def test_returned_checkpoints_own_their_arrays(preset):
    ds = toy_dataset()
    ecfg, gcfg = preset_cfgs(preset, steps=6)
    part = train(ds, ecfg, replace(gcfg, steps=3), 2)
    assert_owned(part)
    resumed = train(ds, ecfg, gcfg, 2, resume=part)
    assert_owned(resumed)
    for a in checkpoint_arrays(resumed):
        for b in checkpoint_arrays(part):
            assert not np.shares_memory(a, b)


def test_diverged_checkpoint_owns_its_arrays():
    ds = toy_dataset()
    ecfg, gcfg = preset_cfgs("ensad_frozen_g", steps=50)
    gcfg = replace(gcfg, lr=1e300, trainable=frozenset(TRAINABLE_COMPONENTS))
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as exc:
        train(ds, ecfg, gcfg, 0)
    assert exc.value.checkpoint.adam.keys() == set(TRAINABLE_COMPONENTS)
    assert_owned(exc.value.checkpoint)


def test_mutating_a_returned_checkpoint_changes_no_later_resume(tmp_path):
    ds = toy_dataset()
    ecfg, gcfg = preset_cfgs("ensad_frozen_g", steps=12)
    part = train(ds, ecfg, replace(gcfg, steps=5), 4)
    path = str(tmp_path / "part.npz")
    save_checkpoint(part, path)
    first = train(ds, ecfg, gcfg, 4, resume=part)
    want = (map_tensors(np.copy, first.params), {
        comp: AdamState(map_tensors(np.copy, st.m), map_tensors(np.copy, st.v), st.t)
        for comp, st in first.adam.items()}, first.rng_position)
    for a in checkpoint_arrays(first):
        a[...] = np.nan
    assert_bitwise(train(ds, ecfg, gcfg, 4, resume=part), *want)
    assert_same_checkpoint(part, load_checkpoint(path))
    for a in checkpoint_arrays(part):
        a[...] = np.nan
    assert_bitwise(train(ds, ecfg, gcfg, 4, resume=load_checkpoint(path)), *want)


def test_resume_validates_the_adam_state():
    ds = toy_dataset()
    ecfg, gcfg = preset_cfgs("ensad_frozen_g", steps=6)
    part = train(ds, ecfg, replace(gcfg, steps=3), 2)
    with pytest.raises(ValueError, match="adam.discriminator"):
        train(ds, ecfg, gcfg, 2, resume=replace(part, adam={"ensad": part.adam["ensad"]}))
    st = part.adam["ensad"]
    bad = AdamState(st.m, {**st.v, "wq": -st.v["wq"] - 1.0}, st.t)
    with pytest.raises(ValueError, match="adam.ensad.*negative"):
        train(ds, ecfg, gcfg, 2, resume=replace(part, adam={**part.adam, "ensad": bad}))
