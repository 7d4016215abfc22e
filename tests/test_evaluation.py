import itertools
import json
import math
import os
import re
import time
from dataclasses import replace

import numpy as np
import pytest

from ensad import evaluation, gan
from ensad.adapter import STRATEGIES, EnsAdConfig, fuse_batch
from ensad.data import SyntheticSpec, generate_synthetic, load_jsonl, save_jsonl
from ensad.gan import GanConfig, disc_forward_batch, load_checkpoint, save_checkpoint, train
from ensad.evaluation import (
    EvalReport,
    FrechetStats,
    compare_strategies,
    evaluate,
    fit_gaussian,
    frechet_distance,
    save_report,
)
from ensad.numkit import NotPsdError, SeededRng, psd_eigvalsh, sym_sqrt_psd


def stats_1d(mu, var, n=2):
    return FrechetStats(mu=np.array([float(mu)]),
                        sigma=np.array([[float(var)]]), n=n)


def test_fit_gaussian_two_points():
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([2.0, 0.0, 3.0])
    st = fit_gaussian(np.stack([a, b]))
    assert np.allclose(st.mu, (a + b) / 2, atol=1e-15)
    assert np.allclose(st.sigma, np.outer(a - b, a - b) / 2, atol=1e-15)
    assert st.n == 2


def test_fit_gaussian_identical_rows():
    x = np.tile(np.array([0.5, -0.25]), (4, 1))
    st = fit_gaussian(x)
    assert np.allclose(st.sigma, 0.0, atol=1e-15)
    assert st.n == 4


def test_fit_gaussian_large_sample_moments():
    rng = SeededRng(5)
    x = rng.gaussian(30000).reshape(10000, 3)
    st = fit_gaussian(x)
    assert np.all(np.abs(st.mu) < 0.05)
    assert np.all(np.abs(st.sigma - np.eye(3)) < 0.08)


def test_fit_gaussian_rejects_bad_input():
    rows = "^need a 2-D array with at least two rows$"
    with pytest.raises(ValueError, match=rows):
        fit_gaussian(np.zeros(3))
    for stack in [(), (3,)]:  # a matrix, and a stack of them, keep the messages
        with pytest.raises(ValueError, match=rows):
            fit_gaussian(np.zeros((*stack, 1, 3)))
        bad = np.zeros((*stack, 3, 2))
        bad.flat[-2] = np.nan  # in the last slice
        with pytest.raises(ValueError, match="^features contain non-finite entries$"):
            fit_gaussian(bad)


def test_fit_gaussian_of_a_stack_is_each_slices_fit():
    x = SeededRng(6).gaussian_rows(3 * 7, 4).reshape(3, 7, 4) * [1.0, 10.0, 1e-3, 1e3]
    st = fit_gaussian(x)
    assert st.mu.shape == (3, 4) and st.sigma.shape == (3, 4, 4) and st.n == 7
    for k in range(3):
        alone = fit_gaussian(x[k])
        assert st.mu[k].tobytes() == alone.mu.tobytes()
        assert st.sigma[k].tobytes() == alone.sigma.tobytes()


def test_frechet_self_distance_zero():
    rng = SeededRng(8)
    st = fit_gaussian(rng.gaussian(40).reshape(10, 4))
    assert frechet_distance(st, st) <= 1e-8


def test_frechet_1d_closed_form():
    # (mu1-mu2)^2 + s1 + s2 - 2*sqrt(s1*s2) with variances 1 and 4
    got = frechet_distance(stats_1d(0.0, 1.0), stats_1d(1.0, 4.0))
    assert abs(got - 2.0) < 1e-8


def test_frechet_diagonal_separates_per_dimension():
    a = FrechetStats(mu=np.array([0.0, 1.0]),
                     sigma=np.diag([1.0, 9.0]), n=2)
    b = FrechetStats(mu=np.array([2.0, 1.0]),
                     sigma=np.diag([4.0, 1.0]), n=2)
    want = (4.0 + 1.0 + 4.0 - 2.0 * 2.0) + (0.0 + 9.0 + 1.0 - 2.0 * 3.0)
    assert abs(frechet_distance(a, b) - want) < 1e-8


def test_frechet_symmetry():
    rng = SeededRng(9)
    a = fit_gaussian(rng.gaussian(50).reshape(10, 5))
    b = fit_gaussian(rng.gaussian(50).reshape(10, 5) + 0.3)
    assert abs(frechet_distance(a, b) - frechet_distance(b, a)) < 1e-8


def test_frechet_orders_same_vs_shifted():
    rng = SeededRng(10)
    base = fit_gaussian(rng.gaussian(9000).reshape(3000, 3))
    same = fit_gaussian(rng.gaussian(9000).reshape(3000, 3))
    shifted = fit_gaussian(rng.gaussian(9000).reshape(3000, 3) + 3.0)
    assert frechet_distance(base, same) < 0.5
    assert frechet_distance(base, shifted) > 20.0


def test_frechet_commuting_covariances_d256_closed_form():
    # covariances sharing eigenvectors Q: the distance reduces to
    # sum (sqrt(a) - sqrt(b))^2 + |mu_a - mu_b|^2, and d=256 stays fast
    d = 256
    rng = SeededRng(12)
    q, _ = np.linalg.qr(rng.gaussian(d * d).reshape(d, d))
    ev_a = np.exp(0.5 * rng.gaussian(d))
    ev_b = np.exp(0.5 * rng.gaussian(d))
    a = FrechetStats(mu=rng.gaussian(d), sigma=(q * ev_a) @ q.T, n=d)
    b = FrechetStats(mu=rng.gaussian(d), sigma=(q * ev_b) @ q.T, n=d)
    want = np.sum((np.sqrt(ev_a) - np.sqrt(ev_b)) ** 2) + np.sum((a.mu - b.mu) ** 2)
    start = time.monotonic()
    got = frechet_distance(a, b)
    assert time.monotonic() - start < 2.0
    assert abs(got - want) <= 1e-8


def test_frechet_rejects_non_psd_covariance():
    # the cross term's eigenvalues carry the sign of the second covariance
    with pytest.raises(NotPsdError):
        frechet_distance(stats_1d(0.0, 1.0), stats_1d(0.0, -1.0))


def test_frechet_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="^statistics have mismatched shapes$"):
        frechet_distance(stats_1d(0.0, 1.0),
                         FrechetStats(mu=np.zeros(2), sigma=np.eye(2), n=2))


def test_frechet_rejects_an_undershoot_beyond_round_off():
    # Eigenvalues down to -1e-8 pass as round-off, but 128 of them in a
    # covariance's trace sum to -1.152e-6, below the -1e-6 clamp floor
    d = 128
    zero = FrechetStats(mu=np.zeros(d), sigma=np.zeros((d, d)), n=2)
    undershoot = FrechetStats(mu=np.zeros(d), sigma=-0.9e-8 * np.eye(d), n=2)
    with pytest.raises(ValueError, match=r"^frechet distance computed as -1\.15\d*e-06, "
                       "beyond round-off$"):
        frechet_distance(zero, undershoot)


@pytest.mark.parametrize("shape", [(2, 3), (0, 0), (3,)])
def test_square_roots_and_eigenvalues_need_a_nonempty_square_matrix(shape):
    for fn, name in ((sym_sqrt_psd, "sym_sqrt_psd"), (psd_eigvalsh, "psd_eigvalsh")):
        with pytest.raises(ValueError, match=f"^{name} input must be a nonempty square matrix$"):
            fn(np.zeros(shape))
    # statistics of matching but non-square shapes reach the same check
    bad = FrechetStats(mu=np.zeros(2), sigma=np.zeros(shape), n=2)
    with pytest.raises(ValueError, match="^sym_sqrt_psd input must be a nonempty square matrix$"):
        frechet_distance(bad, bad)


def eval_checkpoint(sigma_trans=0.1, sigma_source=0.2, seed=3, d=6):
    ds = generate_synthetic(SyntheticSpec(
        n_items=40, d=d, m=2, d_img=5,
        sigma_source=sigma_source, sigma_trans=sigma_trans, seed=seed))
    ecfg = EnsAdConfig(d=d, d_hid=3, m=2, alpha=0.3)
    gcfg = GanConfig(d=d, d_z=4, d_img=5, gen_hidden=(8,), disc_hidden=(8,),
                     batch=4, steps=5,
                     trainable=frozenset({"ensad", "discriminator"}))
    return train(ds, ecfg, gcfg, 1), ds


def test_evaluate_finite_and_deterministic():
    ck, ds = eval_checkpoint()
    fd1 = evaluate(ck, ds, 32, "ensad", 7)
    fd2 = evaluate(ck, ds, 32, "ensad", 7)
    assert fd1 == fd2
    assert math.isfinite(fd1) and fd1 >= 0.0
    fd3 = evaluate(ck, ds, 32, "ensad", 8)
    assert fd1 != fd3


def test_evaluate_validates_args():
    ck, ds = eval_checkpoint()
    # 32.5 raised numpy's TypeError from the draw
    for n_gen in (1, 32.5):
        message = f"n_gen: expected an integer in [2, 2**64), got {n_gen!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate(ck, ds, n_gen, "ensad", 7)
    with pytest.raises(ValueError, match="unknown strategy 'nearest'"):
        evaluate(ck, ds, 32, "nearest", 7)
    other = generate_synthetic(SyntheticSpec(
        n_items=8, d=7, m=2, d_img=5, seed=0))
    with pytest.raises(ValueError):
        evaluate(ck, other, 32, "ensad", 7)


@pytest.mark.parametrize("seed", [3.5, 3.0, -1])
def test_compare_strategies_rejects_a_seed_that_is_not_a_uint64(seed):
    # 3.5 drew with seed 3 and reported 3.5
    ck, ds = eval_checkpoint()
    message = f"seed: expected an integer in [0, 2**64), got {seed!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        compare_strategies(ck, ds, 32, seed)
    report = compare_strategies(ck, ds, 32, np.uint64(3))
    assert type(report.seed) is int and report == compare_strategies(ck, ds, 32, 3)


def test_a_one_item_dataset_is_rejected_by_its_count():
    ck, _ = eval_checkpoint()
    one = generate_synthetic(SyntheticSpec(n_items=1, d=6, m=2, d_img=5, seed=0))
    with pytest.raises(ValueError, match="dataset has 1 item; need at least 2"):
        compare_strategies(ck, one, 32, 7)


def test_a_strategy_subset_gives_the_full_report_rows_in_its_order():
    ck, ds = eval_checkpoint(sigma_trans=0.3)
    full = {row["strategy"]: row for row in compare_strategies(ck, ds, 32, 7).results}
    subset = ("mean_pool", "ensad")
    report = compare_strategies(ck, ds, 32, 7, subset)
    assert report.results == [full[name] for name in subset]
    assert [row["strategy"] for row in report.results] == list(subset)
    # a one-pass iterable gives the same rows: it is checked, then scored
    assert compare_strategies(ck, ds, 32, 7, iter(subset)).results == report.results


def test_an_unknown_strategy_is_rejected_before_any_features(monkeypatch):
    ck, ds = eval_checkpoint()

    def fail(*args):
        raise AssertionError("features computed before the arguments were checked")
    monkeypatch.setattr(evaluation, "disc_forward_batch", fail)
    with pytest.raises(ValueError, match="'nearest'"):
        compare_strategies(ck, ds, 32, 7, ("ensad", "nearest"))


@pytest.mark.parametrize("strategies", [(), "ensad"], ids=["empty", "string"])
def test_an_empty_or_string_strategies_is_rejected_before_any_features(monkeypatch,
                                                                       strategies):
    # () gave a report with no rows, and "ensad" failed as unknown strategy 'e'
    ck, ds = eval_checkpoint()

    def fail(*args):
        raise AssertionError("features computed before the arguments were checked")
    monkeypatch.setattr(evaluation, "disc_forward_batch", fail)
    message = f"strategies must be a nonempty sequence of names, got {strategies!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        compare_strategies(ck, ds, 32, 7, strategies)


@pytest.mark.parametrize("strategies", [("zero_shot",), ("ensad", "mean_pool"), STRATEGIES])
def test_one_call_fits_the_real_features_once(monkeypatch, strategies):
    ck, ds = eval_checkpoint()
    calls = []

    def counted(*args):
        calls.append(args)
        return disc_forward_batch(*args)
    monkeypatch.setattr(evaluation, "disc_forward_batch", counted)
    compare_strategies(ck, ds, 32, 7, strategies)
    # one pass over the real images, then one over every strategy's fakes
    assert len(calls) == 2


def per_strategy_compare(ck, ds, n_gen, seed, strategies):
    """compare_strategies' rows, and each row's generated-feature moments,
    as they were computed before the strategies shared one stacked pass:
    per strategy its own draws, generator and discriminator pass and
    moment fit, and per row a square root of the real covariance."""
    def fit(x):
        mu = x.mean(axis=0)
        dev = x - mu
        sigma = dev.T @ dev / (x.shape[0] - 1)
        return mu, 0.5 * (sigma + sigma.T)

    real_mu, real_sigma = fit(disc_forward_batch(ck.params, ds.images)[0])
    rows, moments = [], []
    for strategy in strategies:
        rng = SeededRng(seed)
        idx = rng.randints_below(np.full(n_gen, len(ds)))
        zs = rng.gaussian_rows(n_gen, ck.gan_cfg.d_z)
        conds, _ = fuse_batch(ds.rows[idx], ck.params["ensad"], ck.ensad_cfg, strategy)
        fakes, _ = gan._mlp_forward(list(ck.params["generator"].values()),
                                    np.concatenate([conds, zs], axis=1))
        mu, sigma = fit(disc_forward_batch(ck.params, fakes)[0])
        dmu = real_mu - mu
        root = sym_sqrt_psd(real_sigma)
        cross = np.sum(np.sqrt(psd_eigvalsh(root @ sigma @ root)))
        raw = float(dmu @ dmu + np.trace(real_sigma) + np.trace(sigma) - 2.0 * cross)
        rows.append({"strategy": strategy, "fd": max(raw, 0.0), "fd_raw": raw})
        moments.append((mu, sigma))
    return rows, moments


def hexed(rows):
    return [(row["strategy"], row["fd"].hex(), row["fd_raw"].hex()) for row in rows]


# every subset of the strategies in every order, and repeated names
ORDERS = [names for k in range(1, len(STRATEGIES) + 1)
          for names in itertools.permutations(STRATEGIES, k)] + [
    ("ensad", "zero_shot", "ensad"), ("mean_pool", "mean_pool")]
CORPORA = {"noisy": lambda: eval_checkpoint(sigma_trans=0.3),
           "noiseless": lambda: eval_checkpoint(sigma_trans=0.0, sigma_source=0.0),
           "d1": lambda: eval_checkpoint(d=1)}


@pytest.mark.parametrize("n_gen", [2, 33, 512])
@pytest.mark.parametrize("corpus", list(CORPORA))
def test_the_stacked_pass_gives_every_row_of_the_per_strategy_loop(corpus, n_gen):
    ck, ds = CORPORA[corpus]()
    for names in ORDERS:
        rows, _ = per_strategy_compare(ck, ds, n_gen, 7, names)
        assert hexed(compare_strategies(ck, ds, n_gen, 7, names).results) == hexed(rows), names
    _, moments = per_strategy_compare(ck, ds, n_gen, 7, STRATEGIES)
    for strategy, (mu, sigma) in zip(STRATEGIES, moments):
        stats = evaluation._fake_stats(ck, ds, n_gen, strategy, 7)
        assert stats.mu.tobytes() == mu.tobytes() and stats.sigma.tobytes() == sigma.tobytes()
        assert stats.n == n_gen


def test_compare_strategies_rows_and_consistency():
    ck, ds = eval_checkpoint()
    report = compare_strategies(ck, ds, 32, 7)
    assert [row["strategy"] for row in report.results] == list(STRATEGIES)
    assert report.results[0]["strategy"] == "ensad"
    assert report.n_gen == 32
    assert report.n_real == len(ds)
    assert report.seed == 7
    assert report.feature_space == "disc_fd"
    assert report.sampling == "with_replacement"
    for row in report.results:
        # the report keeps the raw value next to the clamped one
        assert row["fd"] == max(row["fd_raw"], 0.0)
        assert math.isfinite(row["fd"])
        # and each row matches the single-strategy entry point exactly
        assert row["fd"] == evaluate(ck, ds, 32, row["strategy"], 7)


def test_compare_strategies_deterministic():
    ck, ds = eval_checkpoint()
    r1 = compare_strategies(ck, ds, 24, 7)
    r2 = compare_strategies(ck, ds, 24, 7)
    assert r1.to_jsonable() == r2.to_jsonable()


def test_noiseless_corpus_collapses_all_strategies():
    # with source and translations all equal to the latent, every fusion
    # rule returns that same vector, so the scores coincide: bitwise for
    # the passthrough strategies, within rounding for the mean pool
    ck, ds = eval_checkpoint(sigma_trans=0.0, sigma_source=0.0)
    report = compare_strategies(ck, ds, 24, 11)
    fds = {row["strategy"]: row["fd"] for row in report.results}
    assert fds["ensad"] == fds["zero_shot"]
    assert fds["translate_test"] == fds["zero_shot"]
    assert fds["mean_pool"] == pytest.approx(fds["zero_shot"], rel=1e-9)


def test_report_jsonable_and_save(tmp_path):
    ck, ds = eval_checkpoint()
    report = compare_strategies(ck, ds, 16, 2)
    obj = report.to_jsonable()
    assert set(obj) == {"feature_space", "n_gen", "n_real", "sampling",
                        "seed", "results"}
    path = str(tmp_path / "report.json")
    save_report(report, path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    assert text.endswith("\n")
    assert json.loads(text) == obj


@pytest.mark.parametrize("writer", ["save_jsonl", "save_checkpoint", "save_report"])
def test_library_writers_create_a_missing_parent(tmp_path, writer):
    ck, ds = eval_checkpoint()
    path = tmp_path / "new" / "dir" / "out"
    if writer == "save_jsonl":
        save_jsonl(ds, str(path))
        assert load_jsonl(str(path)).ids == ds.ids
    elif writer == "save_checkpoint":
        save_checkpoint(ck, str(path))
        assert load_checkpoint(str(path)).step == ck.step
    else:
        save_report(compare_strategies(ck, ds, 16, 2), str(path))
        assert json.loads(path.read_text())["n_gen"] == 16
    assert os.listdir(path.parent) == ["out"]


def test_report_strategy_sensitivity():
    # a corpus with translation noise: the fused condition differs per
    # strategy, so scores must not all coincide
    ck, ds = eval_checkpoint(sigma_trans=0.3)
    report = compare_strategies(ck, ds, 48, 5)
    fds = {row["strategy"]: row["fd"] for row in report.results}
    assert fds["ensad"] != fds["zero_shot"]
