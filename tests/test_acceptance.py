"""Acceptance gate: ten numbered criteria, one verdict line printed per
criterion (visible in the terminal even under output capture)."""

import json
import math
import statistics
import time
from dataclasses import replace

import numpy as np
import pytest

from ensad.adapter import (
    EnsAdConfig,
    attention_scores,
    backward,
    forward,
    init_params,
    param_count,
)
from ensad.data import SyntheticSpec, generate_synthetic
from ensad.evaluation import FrechetStats, compare_strategies, frechet_distance
from ensad.gan import (
    GanConfig,
    LossParts,
    _step_plan,
    loss_adv_disc,
    loss_adv_ensad,
    loss_contrastive,
    step_losses_and_grads,
    total_losses,
    train,
)
from ensad.numkit import SeededRng, l2_normalize, sym_sqrt_psd

from test_adapter import reference_forward
from test_batching import randint_below
from test_gan import checkpoint_bytes


@pytest.fixture
def verdict(request):
    holder = {"n": None, "ok": False, "lines": []}
    yield holder
    if holder["n"] is None:
        return
    status = "PASS" if holder["ok"] else "FAIL"
    tr = request.config.pluginmanager.get_plugin("terminalreporter")
    for line in holder["lines"] + [f"criterion {holder['n']}: {status}"]:
        if tr is not None:
            tr.write_line(line)
        else:
            print(line)


def test_criterion_01_parameter_count(verdict):
    verdict["n"] = 1
    assert param_count(EnsAdConfig(d=512, d_hid=256, m=12)) == 655873
    assert param_count(EnsAdConfig(d=2, d_hid=1, m=4)) == 13
    assert param_count(EnsAdConfig(d=1, d_hid=1, m=1)) == 7
    # the count is m-independent and matches the allocated tensors
    cfg = EnsAdConfig(d=512, d_hid=256, m=3)
    assert param_count(cfg) == 655873
    params = init_params(cfg, SeededRng(0))
    assert sum(a.size for a in params.values()) == 655873
    verdict["ok"] = True


def test_criterion_02_forward_oracle_equivalence(verdict):
    verdict["n"] = 2
    start = time.monotonic()
    cases = 0
    for i in range(12):
        rng = SeededRng(5000 + i)
        d = 2 + randint_below(rng, 11)
        d_hid = 1 + randint_below(rng, 6)
        m = 1 + randint_below(rng, 5)
        alpha = 0.1 + 0.8 * (i / 11.0)
        cfg = EnsAdConfig(d=d, d_hid=d_hid, m=m, alpha=alpha,
                          variant_v_equals_k=bool(i % 2))
        params = init_params(cfg, rng)
        h = np.stack(
            [l2_normalize(rng.gaussian(d)) for _ in range(m + 1)], axis=1)
        h_tilde, trace = forward(params, cfg, h)
        ref_h, ref_s = reference_forward(params, cfg, h)
        assert np.max(np.abs(h_tilde - ref_h)) <= 1e-12
        assert np.max(np.abs(attention_scores(trace) - ref_s)) <= 1e-12
        cases += 1
    assert cases >= 10
    assert time.monotonic() - start < 1.0
    verdict["ok"] = True


def relative_check(analytic, numeric, tol):
    scale = max(abs(analytic), abs(numeric))
    if scale < 1e-7:
        return True
    return abs(analytic - numeric) <= tol * scale


def test_criterion_03_gradients_vs_finite_differences(verdict):
    verdict["n"] = 3
    start = time.monotonic()
    eps = 1e-5

    # module level: every parameter and input coordinate at 3 seeds
    cfg = EnsAdConfig(d=8, d_hid=4, m=3, alpha=0.3)
    for seed in (121, 122, 123):
        rng = SeededRng(seed)
        params = init_params(cfg, rng)
        h = np.stack(
            [l2_normalize(rng.gaussian(8)) for _ in range(4)], axis=1)
        w = rng.gaussian(8)

        def value():
            out, _ = forward(params, cfg, h)
            return float(w @ out)

        _, trace = forward(params, cfg, h)
        grads, grad_h = backward(params, cfg, trace, w)

        for tensor, grad in zip(params.values(), grads.values()):
            flat = tensor.reshape(-1)
            gflat = np.asarray(grad, dtype=float).reshape(-1)
            for i in range(flat.shape[0]):
                orig = flat[i]
                flat[i] = orig + eps
                up = value()
                flat[i] = orig - eps
                dn = value()
                flat[i] = orig
                assert relative_check(gflat[i], (up - dn) / (2 * eps), 1e-4)
        for i in range(h.shape[0]):
            for j in range(h.shape[1]):
                orig = h[i, j]
                h[i, j] = orig + eps
                up = value()
                h[i, j] = orig - eps
                dn = value()
                h[i, j] = orig
                assert relative_check(grad_h[i, j], (up - dn) / (2 * eps),
                                      1e-4)

    # end to end: adapter gradients of the adapter-side total through G and D
    ds = generate_synthetic(SyntheticSpec(
        n_items=16, d=8, m=3, d_img=6, sigma_source=0.2, sigma_trans=0.2,
        seed=50))
    ecfg = EnsAdConfig(d=8, d_hid=4, m=3, alpha=0.3)
    gcfg = GanConfig(d=8, d_z=4, d_img=6, gen_hidden=(8, 8), disc_hidden=(8,),
                     batch=4, trainable=frozenset({"ensad", "discriminator"}))
    rng = SeededRng(51)
    from ensad.gan import param_shapes
    from ensad.numkit import init_tensors
    params = init_tensors(param_shapes(ecfg, gcfg), rng)
    ensembles = ds.rows[:4]
    imgs = ds.images[:4]
    zs = np.stack([rng.gaussian(4) for _ in range(4)])

    res = step_losses_and_grads(ensembles, imgs, zs, params, ecfg, _step_plan(gcfg))
    frozen = _step_plan(replace(gcfg, trainable=frozenset()))

    def loss():
        return step_losses_and_grads(
            ensembles, imgs, zs, params, ecfg, frozen).loss_ensad

    for tensor, grad in zip(params["ensad"].values(),
                            res.grads["ensad"].values()):
        flat = tensor.reshape(-1)
        gflat = np.asarray(grad, dtype=float).reshape(-1)
        for i in range(flat.shape[0]):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss()
            flat[i] = orig - eps
            dn = loss()
            flat[i] = orig
            assert relative_check(gflat[i], (up - dn) / (2 * eps), 1e-3)

    assert time.monotonic() - start < 30.0
    verdict["ok"] = True


def test_criterion_04_identity_invariants(verdict):
    verdict["n"] = 4
    start = time.monotonic()
    rng = SeededRng(77)
    cfg0 = EnsAdConfig(d=6, d_hid=3, m=3, alpha=0.0)
    params = init_params(cfg0, rng)
    h = np.stack([l2_normalize(rng.gaussian(6)) for _ in range(4)], axis=1)

    # alpha = 0: bit-exact passthrough
    out, _ = forward(params, cfg0, h)
    assert np.array_equal(out, h[:, 0])

    # translations identical to the source: passthrough plus uniform weights
    cfg = EnsAdConfig(d=6, d_hid=3, m=3, alpha=0.4)
    params = init_params(cfg, SeededRng(78))
    q = l2_normalize(SeededRng(79).gaussian(6))
    h_same = np.stack([q, q, q, q], axis=1)
    out, trace = forward(params, cfg, h_same)
    assert np.array_equal(out, q)
    assert np.max(np.abs(attention_scores(trace) - 1.0 / 3.0)) <= 1e-12

    # permuting translations permutes the scores and fixes the output
    h = np.stack([l2_normalize(SeededRng(80 + j).gaussian(6))
                  for j in range(4)], axis=1)
    out1, tr1 = forward(params, cfg, h)
    perm = [2, 0, 1]
    h_perm = h.copy()
    h_perm[:, 1:] = h[:, 1:][:, perm]
    out2, tr2 = forward(params, cfg, h_perm)
    assert np.max(np.abs(attention_scores(tr1)[perm] -
                         attention_scores(tr2))) <= 1e-12
    assert np.max(np.abs(out1 - out2)) <= 1e-12

    assert time.monotonic() - start < 1.0
    verdict["ok"] = True


def test_criterion_05_loss_oracles(verdict):
    verdict["n"] = 5
    ln2 = math.log(2.0)
    assert abs(loss_adv_ensad(np.zeros(3)) - ln2) <= 1e-12
    assert abs(loss_adv_disc(np.zeros(3), np.zeros(3)) - 2 * ln2) <= 1e-12

    one = np.array([[1.0, 0.0]])
    assert loss_contrastive(one, one, 0.5) == 0.0
    ortho = np.eye(2)
    assert abs(loss_contrastive(ortho, ortho.copy(), 0.5) -
               math.log(1.0 + math.exp(-2.0))) <= 1e-10
    anti = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert abs(loss_contrastive(anti, anti.copy(), 0.5) -
               math.log(1.0 + math.exp(-4.0))) <= 1e-10

    parts = LossParts(l_ad_ensad=0.5, l_ad_d=0.7, l_cl=0.1,
                      l_cl_d_fake=0.2, l_cl_d_real=0.3)
    le, ld = total_losses(parts, GanConfig(d=4, lambda1=4.0, lambda2=2.0))
    assert le == 0.5 + 4.0 * 0.1 + 2.0 * 0.2
    assert ld == 0.7 + 4.0 * 0.1 + 2.0 * 0.3
    verdict["ok"] = True


def test_criterion_06_frechet_suite(verdict):
    verdict["n"] = 6
    start = time.monotonic()
    rng = SeededRng(81)
    stats = FrechetStats(
        mu=rng.gaussian(4),
        sigma=(lambda x: x @ x.T)(rng.gaussian(16).reshape(4, 4)), n=8)
    assert frechet_distance(stats, stats) <= 1e-8

    one_d = lambda mu, var: FrechetStats(
        mu=np.array([mu]), sigma=np.array([[var]]), n=2)
    assert abs(frechet_distance(one_d(0.0, 1.0), one_d(1.0, 4.0)) - 2.0) \
        <= 1e-8

    a = FrechetStats(mu=np.zeros(2), sigma=np.diag([1.0, 9.0]), n=2)
    b = FrechetStats(mu=np.array([2.0, 0.0]), sigma=np.diag([4.0, 1.0]), n=2)
    per_dim = (4.0 + 1.0 + 4.0 - 2.0 * 2.0) + (9.0 + 1.0 - 2.0 * 3.0)
    assert abs(frechet_distance(a, b) - per_dim) <= 1e-8

    base = rng.gaussian(25).reshape(5, 5)
    psd = base @ base.T
    root = sym_sqrt_psd(psd)
    rel = np.linalg.norm(root @ root - psd) / np.linalg.norm(psd)
    assert rel <= 1e-8

    assert time.monotonic() - start < 5.0
    verdict["ok"] = True


def toy_training_setup():
    ds = generate_synthetic(SyntheticSpec(
        n_items=20, d=6, m=2, d_img=5, sigma_source=0.2, sigma_trans=0.2,
        seed=60))
    ecfg = EnsAdConfig(d=6, d_hid=3, m=2, alpha=0.3)
    gcfg = GanConfig(d=6, d_z=4, d_img=5, gen_hidden=(8,), disc_hidden=(8,),
                     batch=4, steps=25,
                     trainable=frozenset({"ensad", "discriminator"}),
                     conditioning="ensad")
    return ds, ecfg, gcfg


def test_criterion_07_determinism_and_freezing(verdict):
    verdict["n"] = 7
    start = time.monotonic()
    from ensad.gan import param_shapes
    from ensad.numkit import init_tensors

    ds, ecfg, gcfg = toy_training_setup()
    ck1 = train(ds, ecfg, gcfg, 42)
    ck2 = train(ds, ecfg, gcfg, 42)
    assert checkpoint_bytes(ck1) == checkpoint_bytes(ck2)

    # the frozen-G setup must leave every generator tensor bitwise intact
    # while the trainable components move
    rng = SeededRng(42)
    p0 = init_tensors(param_shapes(ecfg, gcfg), rng)
    for a, b in zip(ck1.params["generator"].values(),
                    p0["generator"].values()):
        assert np.array_equal(a, b)
    assert any(
        not np.array_equal(a, b)
        for a, b in zip(ck1.params["ensad"].values(),
                        p0["ensad"].values()))
    assert any(
        not np.array_equal(a, b)
        for a, b in zip(ck1.params["discriminator"].values(),
                        p0["discriminator"].values()))

    assert time.monotonic() - start < 60.0
    verdict["ok"] = True


@pytest.fixture(scope="session")
def desk_scale_runs():
    """Three seeds of the desk-scale protocol: pre-train G and D on
    source-conditioning over a clean corpus, then train the adapter against
    a frozen G on a source-noisy corpus, and score every fusion strategy."""
    corpus_a = generate_synthetic(SyntheticSpec(
        n_items=2000, d=16, m=4, d_img=12,
        sigma_source=0.0, sigma_trans=0.2, seed=100))
    corpus_b = generate_synthetic(SyntheticSpec(
        n_items=2000, d=16, m=4, d_img=12,
        sigma_source=0.4, sigma_trans=0.2, seed=100))
    ecfg = EnsAdConfig(d=16, d_hid=8, m=4, alpha=0.4)
    base = GanConfig(d=16, d_z=16, d_img=12, gen_hidden=(64, 64),
                     disc_hidden=(32, 32), batch=16)

    start = time.monotonic()
    runs = []
    for seed in (11, 12, 13):
        pre_cfg = replace(
            base, steps=2000, lr=5e-4,
            trainable=frozenset({"generator", "discriminator"}),
            conditioning="zero_shot")
        ck_pre = train(corpus_a, ecfg, pre_cfg, seed)

        rows = []
        ft_cfg = replace(
            base, steps=2000, lr=1e-3,
            trainable=frozenset({"ensad", "discriminator"}),
            conditioning="ensad")
        ck = train(corpus_b, ecfg, ft_cfg, seed + 500,
                   init_from=ck_pre.params,
                   log_fn=rows.append)

        all_finite = all(
            math.isfinite(row[key]) for row in rows
            for key in ("loss_ensad", "loss_disc"))
        moved = any(
            not np.array_equal(a, b)
            for a, b in zip(ck.params["ensad"].values(),
                            ck_pre.params["ensad"].values()))
        report = compare_strategies(ck, corpus_b, 512, 777)
        fds = {row["strategy"]: row["fd"] for row in report.results}
        runs.append({"seed": seed, "fds": fds, "all_finite": all_finite,
                     "param_movement": moved})
    return {"runs": runs, "elapsed": time.monotonic() - start}


def test_criterion_08_desk_scale_learning_signal(verdict, desk_scale_runs):
    verdict["n"] = 8
    runs = desk_scale_runs["runs"]
    assert len(runs) == 3
    for run in runs:
        assert run["all_finite"], f"non-finite loss at seed {run['seed']}"
        assert run["param_movement"], f"adapter frozen at seed {run['seed']}"
        assert all(math.isfinite(fd) for fd in run["fds"].values())
    ensad_median = statistics.median(r["fds"]["ensad"] for r in runs)
    zero_shot_median = statistics.median(r["fds"]["zero_shot"] for r in runs)
    verdict["lines"].append(
        f"criterion 8: median fd ensad {ensad_median:.4f} vs "
        f"zero_shot {zero_shot_median:.4f} over seeds "
        f"{[r['seed'] for r in runs]}")
    assert ensad_median <= zero_shot_median
    assert desk_scale_runs["elapsed"] <= 600.0
    verdict["ok"] = True


def test_criterion_09_ablation_plumbing(verdict, tmp_path):
    verdict["n"] = 9
    start = time.monotonic()
    from ensad.cli import main

    data = tmp_path / "corpus.jsonl"
    assert main(["synth", "--out", str(data), "--n-items", "24", "--d", "6",
                 "--m", "2", "--d-img", "5", "--sigma-source", "0.2",
                 "--sigma-trans", "0.2", "--seed", "4"]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "adapter": {"d_hid": 3, "alpha": 0.3},
        "gan": {"d_z": 4, "gen_hidden": [8], "disc_hidden": [8], "batch": 4},
    }))

    def run(preset):
        out = tmp_path / f"{preset}.json"
        rc = main(["train", "--data", str(data), "--out", str(out),
                   "--config", str(cfg), "--preset", preset,
                   "--steps", "6", "--seed", "1"])
        assert rc == 0
        lines = (tmp_path / f"{preset}.csv").read_text().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, ln.split(","))) for ln in lines[1:]]

    for row in run("ablate_no_cl"):
        assert float(row["l_cl"]) == 0.0
        assert float(row["l_cl_d"]) != 0.0
    for row in run("ablate_no_cld"):
        assert float(row["l_cl_d"]) == 0.0
        assert float(row["l_cl"]) != 0.0
    for row in run("ablate_none"):
        assert float(row["l_cl"]) == 0.0
        assert float(row["l_cl_d"]) == 0.0
        assert float(row["l_ad_ensad"]) != 0.0
    for row in run("lafite_setup"):
        assert float(row["l_cl"]) == 0.0
        assert float(row["l_cl_g"]) != 0.0

    assert time.monotonic() - start < 120.0
    verdict["ok"] = True


def test_criterion_10_seed_robustness_echo(verdict, desk_scale_runs):
    verdict["n"] = 10
    runs = desk_scale_runs["runs"]
    scores = [(run["seed"], run["fds"]["ensad"]) for run in runs]
    assert len(scores) == 3
    for _, fd in scores:
        assert math.isfinite(fd)
    for i in range(3):
        for j in range(i + 1, 3):
            si, fdi = scores[i]
            sj, fdj = scores[j]
            verdict["lines"].append(
                f"criterion 10: |fd(seed {si}) - fd(seed {sj})| = "
                f"{abs(fdi - fdj):.6f}")
    verdict["ok"] = True
