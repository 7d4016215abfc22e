"""The batched training step against one-item references: the adapter
kernels over a whole batch against n separate one-item calls and against
the per-item loop code they replace, and the batched stream draws against
the per-item draw order, and a block of steps' draws against per-step calls.

``sample_indices`` and ``augment_rows`` are those per-step calls: the
training step's index batch and noise augmentation, one step at a time.
``data.step_batches`` draws a block of steps at once and must match them
word for word; ``test_train_reference`` builds its training loop on them."""

import numpy as np
import pytest

from ensad import data, numkit
from ensad.adapter import (
    READ_ROWS, STRATEGIES, EnsAdConfig, backward, backward_batch, forward, fuse_batch,
    init_params,
)
from ensad.data import (
    SyntheticSpec, _fisher_yates, _mix_noise, generate_synthetic, step_batches,
)
from ensad.gan import GanConfig, _step_plan, param_shapes, step_losses_and_grads
from ensad.numkit import SeededRng, init_tensors, l2_normalize


def randint_below(rng: SeededRng, bound: int) -> int:
    """Uniform int in [0, bound) by modulo of one stream word: the one-draw
    reference for ``SeededRng.randints_below``."""
    return rng.next_u64() % bound


def augment_rows(
    h: np.ndarray, p0: float, pt: float, rng: SeededRng
) -> np.ndarray:
    """Noise augmentation of an (n, m+1, d) batch: each row h becomes
    l2n((1-p)h + p l2n(g)) for a fresh Gaussian g, with p = p0 on source
    rows and pt on translation rows. Returns a new array.

    The batch takes all its draws in one stream call, laid out as per-item
    calls would take them: item by item, source first, then translations in
    order, 2*ceil(d/2) words per row. A proportion of 0 leaves its rows
    bit-exact and consumes no words for them.
    """
    n, width, d = h.shape
    p = np.array([p0] + [pt] * (width - 1))
    noisy = p != 0.0
    out = h.copy()
    k = int(np.count_nonzero(noisy))
    if k:
        _mix_noise(out, p, noisy, rng.gaussian_rows(n * k, d).reshape(n, k, d))
    return out


def sample_indices(size: int, n: int, rng: SeededRng):
    """Endless stream of index batches: ``n`` distinct indices in
    [0, size) per batch, independent across batches.

    Each batch is the first n slots of a partial Fisher-Yates shuffle of
    range(size). Slot k takes one stream word, reduced modulo size-k, and
    the n words come from one stream call.
    """
    if not 1 <= n <= size:
        raise ValueError(f"batch size {n} out of range [1, {size}]")
    bounds = np.arange(size, size - n, -1)
    while True:
        yield np.array(_fisher_yates((np.arange(n) + rng.randints_below(bounds)).tolist()))


def close(got, want, tol=1e-12):
    want = np.asarray(want, dtype=float)
    return np.abs(np.asarray(got) - want).max() <= tol * max(1.0, np.abs(want).max())


def mixed_batch(cfg, rng):
    """(n, m+1, d) rows: ordinary items mixed with zero-norm edge cases."""
    def unit():
        return l2_normalize(rng.gaussian(cfg.d))

    def ordinary():
        return np.stack([unit() for _ in range(cfg.m + 1)])

    q, t = unit(), unit()
    return np.stack([
        ordinary(),
        # every translation equals the source: vraw, u and craw all vanish
        np.stack([q] * (cfg.m + 1)),
        ordinary(),
        # identical translations
        np.stack([q] + [t] * cfg.m),
        # one translation equals the source: one vraw row vanishes
        np.stack([q, q] + [unit() for _ in range(cfg.m - 1)]),
        ordinary(),
    ])


def per_item_reference(p, cfg, rows, g):
    """The adapter kernels as they were before batching, for one item: a
    loop over translation rows with an explicit branch for each zero-norm
    convention. ``rows`` is (m+1, d), ``g`` the gradient at the output.
    Returns (h_tilde, s, parameter gradients, gradient w.r.t. rows)."""
    eps, alpha = 1e-12, cfg.alpha
    m = cfg.m

    def unit(x):
        n = np.sqrt(np.sum(x * x))
        return (x.copy() if n < eps else x / n), n

    def unit_backward(grad, u, n):
        return np.zeros_like(grad) if n < eps else (grad - u * np.dot(u, grad)) / n

    q, k = rows[0].copy(), rows[1:].copy()
    v, vraw_n = np.empty_like(k), np.empty(m)
    for j in range(m):
        if cfg.variant_v_equals_k:
            v[j], vraw_n[j] = k[j], np.sqrt(np.sum(k[j] * k[j]))
        else:
            v[j], vraw_n[j] = unit(k[j] - q)
    t = np.tanh(k @ p["wk"].T + v @ p["wv"].T + (p["wq"] @ q + p["b"]))
    logits = t @ p["wp"] + float(p["bp"])
    e = np.exp(logits - logits.max())
    s = e / e.sum()
    u = np.tanh(v @ p["wo"].T)
    uhat, u_n = np.empty_like(u), np.empty(m)
    for j in range(m):
        uhat[j], u_n[j] = unit(u[j])
    vo = (1.0 - alpha) * v + alpha * uhat
    c, craw_n = unit(s @ vo)
    hraw = (1.0 - alpha) * q + alpha * c
    h_tilde, hraw_n = unit(hraw)
    if alpha == 0.0 or craw_n < eps:
        h_tilde = q.copy()

    grad_hraw = unit_backward(g, h_tilde, hraw_n)
    grad_q = (1.0 - alpha) * grad_hraw
    grad_craw = unit_backward(alpha * grad_hraw, c, craw_n)
    grad_vo = np.outer(s, grad_craw)
    grad_s = vo @ grad_craw
    grad_u = np.stack([unit_backward(alpha * grad_vo[j], uhat[j], u_n[j])
                       for j in range(m)])
    grad_wov = grad_u * (1.0 - u * u)
    grad_v = (1.0 - alpha) * grad_vo + grad_wov @ p["wo"]
    grad_logits = s * (grad_s - np.dot(s, grad_s))
    grad_a = np.outer(grad_logits, p["wp"]) * (1.0 - t * t)
    colsum = grad_a.sum(axis=0)
    grad_q = grad_q + colsum @ p["wq"]
    grad_k = grad_a @ p["wk"]
    grad_v = grad_v + grad_a @ p["wv"]
    for j in range(m):
        if cfg.variant_v_equals_k:
            grad_k[j] += grad_v[j]
        else:
            gr = unit_backward(grad_v[j], v[j], vraw_n[j])
            grad_k[j] += gr
            grad_q -= gr
    grads = [np.outer(colsum, q), grad_a.T @ k, grad_a.T @ v, colsum,
             grad_logits @ t, np.asarray(grad_logits.sum()), grad_wov.T @ v]
    return h_tilde, s, grads, np.vstack([grad_q, grad_k])


@pytest.mark.parametrize("cfg", [
    EnsAdConfig(d=7, d_hid=4, m=3, alpha=0.3),
    EnsAdConfig(d=7, d_hid=4, m=3, alpha=0.0),
    EnsAdConfig(d=7, d_hid=4, m=3, alpha=0.3, variant_v_equals_k=True),
], ids=["ordinary", "alpha0", "v_eq_k"])
def test_step_matches_per_item_adapter_calls(cfg):
    rng = SeededRng(61)
    h = mixed_batch(cfg, rng)
    n = h.shape[0]
    gcfg = GanConfig(d=cfg.d, d_z=3, d_img=5, gen_hidden=(6,), disc_hidden=(6,),
                     batch=n, trainable=frozenset({"ensad", "discriminator"}))
    params = init_tensors(param_shapes(cfg, gcfg), rng)
    ep = params["ensad"]
    imgs = np.tanh(rng.gaussian_rows(n, gcfg.d_img))
    zs = rng.gaussian_rows(n, gcfg.d_z)

    res = step_losses_and_grads(h, imgs, zs, params, cfg, _step_plan(gcfg))
    assert "ensad" in res.grads
    _, grad_h_batch = backward_batch(ep, cfg, res.trace, res.grad_conds)

    grad_sum = [np.zeros_like(t) for t in ep.values()]
    ref_sum = [np.zeros_like(t) for t in ep.values()]
    for i in range(n):
        out, tr = forward(ep, cfg, h[i].T)
        grads, grad_h = backward(ep, cfg, tr, res.grad_conds[i])
        ref_out, ref_s, ref_grads, ref_grad_h = per_item_reference(
            ep, cfg, h[i], res.grad_conds[i])
        for got in (res.trace.h_tilde[i], out):
            assert close(got, ref_out), f"item {i}: condition"
        for got in (res.trace.s[i], tr.s):
            assert close(got, ref_s), f"item {i}: attention"
        for got in (grad_h_batch[i], grad_h.T):
            assert close(got, ref_grad_h), f"item {i}: input gradient"
        for acc, g in zip(grad_sum, grads.values()):
            acc += g
        for acc, g in zip(ref_sum, ref_grads):
            acc += g
    for name, got, one, ref in zip(ep, res.grads["ensad"].values(),
                                   grad_sum, ref_sum):
        assert close(got, ref), name
        assert close(one, ref), name

    # passthrough stays bit-exact inside a batch
    if not cfg.variant_v_equals_k:
        assert np.array_equal(res.trace.h_tilde[1], h[1, 0])
    if cfg.alpha == 0.0:
        assert np.array_equal(res.trace.h_tilde, h[:, 0])


def reference_batches(size, n, rng):
    """The list-based partial Fisher-Yates that sample_indices replaces:
    a fresh size-N list per batch, one randint_below draw per slot."""
    while True:
        idx = list(range(size))
        for k in range(n):
            j = k + randint_below(rng, size - k)
            idx[k], idx[j] = idx[j], idx[k]
        yield idx[:n]


@pytest.mark.parametrize("size,n", [(1, 1), (2, 2), (10, 1), (10, 10), (37, 5),
                                    (2000, 16)])
def test_sample_indices_matches_list_fisher_yates(size, n):
    rng, ref_rng = SeededRng(41, 7), SeededRng(41, 7)
    got = sample_indices(size, n, rng)
    want = reference_batches(size, n, ref_rng)
    for b in range(1, 121):
        assert next(got).tolist() == next(want)
        assert rng.position == 7 + b * n
    assert rng.position == ref_rng.position


@pytest.mark.parametrize("d", [1, 4, 7])
def test_gaussian_rows_matches_successive_draws(d):
    a, b = SeededRng(5, 3), SeededRng(5, 3)
    rows = a.gaussian_rows(9, d)
    want = np.stack([b.gaussian(d) for _ in range(9)])
    assert np.array_equal(rows, want)
    assert a.position == b.position == 3 + 9 * 2 * ((d + 1) // 2)


def test_randints_below_matches_successive_draws():
    a, b = SeededRng(8), SeededRng(8)
    bounds = [1, 2, 3, 1000, 2**40, 7]
    assert a.randints_below(bounds).tolist() == [randint_below(b, k) for k in bounds]
    assert a.position == b.position == len(bounds)
    for bad in ([3, 0], [[3]]):
        with pytest.raises(ValueError, match="^bounds must be a 1-D array of positive ints$"):
            a.randints_below(bad)


def reference_augment(rows, p0, pt, rng):
    """Per-vector augmentation as the one-item code drew it: source first,
    then translations, one gaussian(d) call per noisy vector."""
    out = []
    for j, v in enumerate(rows):
        p = p0 if j == 0 else pt
        if p == 0.0:
            out.append(v.copy())
        else:
            g = l2_normalize(rng.gaussian(v.shape[0]))
            out.append(l2_normalize((1.0 - p) * v + p * g))
    return np.stack(out)


@pytest.mark.parametrize("p0,pt", [(0.1, 0.01), (0.0, 0.2), (0.3, 0.0), (0.0, 0.0)])
def test_augment_rows_matches_per_vector_draws(p0, pt):
    rng = SeededRng(70)
    h = np.stack([np.stack([l2_normalize(rng.gaussian(5)) for _ in range(4)])
                  for _ in range(6)])
    a, b = SeededRng(71, 2), SeededRng(71, 2)
    got = augment_rows(h, p0, pt, a)
    want = np.stack([reference_augment(item, p0, pt, b) for item in h])
    assert a.position == b.position
    assert np.abs(got - want).max() <= 1e-14
    if p0 == 0.0:
        assert np.array_equal(got[:, 0], h[:, 0])
    if pt == 0.0:
        assert np.array_equal(got[:, 1:], h[:, 1:])


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_read_rows_are_the_rows_each_fusion_reads(strategy):
    # a strategy's fused conditions move when a row in READ_ROWS moves, and
    # only then: the sampler augments no row a fusion needs, and no other
    cfg = EnsAdConfig(d=5, d_hid=3, m=3, alpha=0.3)
    rng = SeededRng(12)
    params = init_params(cfg, rng)
    h = l2_normalize(rng.gaussian_rows(8, 5)).reshape(2, 4, 5)
    read = np.zeros(4, dtype=bool)
    read[READ_ROWS[strategy]] = True
    fused, _ = fuse_batch(h, params, cfg, strategy)
    for j in range(4):
        moved = h.copy()
        moved[:, j] = l2_normalize(rng.gaussian_rows(2, 5))
        assert (fuse_batch(moved, params, cfg, strategy)[0] != fused).any() == read[j], j


# Steps per block (None: all 8 in one), and the strategy whose rows the steps
# read; ensad's are all m+1 rows.
BLOCKS_AND_READS = [pytest.param(block, strategy,
                                 id=str(block) if strategy == "ensad" else f"{block}-{strategy}")
                    for block in (None, 1, 3) for strategy in STRATEGIES]


@pytest.mark.parametrize("per_block,strategy", BLOCKS_AND_READS)
@pytest.mark.parametrize("d,d_z,p0,pt", [(6, 4, 0.1, 0.01), (5, 3, 0.0, 0.2),
                                         (5, 3, 0.3, 0.0), (4, 1, 0.0, 0.0)])
def test_step_batches_match_per_step_draws(d, d_z, p0, pt, per_block, strategy, monkeypatch):
    ds = generate_synthetic(SyntheticSpec(n_items=9, d=d, m=3, d_img=2, sigma_source=0.2,
                                          sigma_trans=0.1, seed=4))
    n, steps = 4, 8
    noisy = (p0 > 0) + 3 * (pt > 0)
    wd, wz = 2 * ((d + 1) // 2), 2 * ((d_z + 1) // 2)
    words = n + n * noisy * wd + n * wz
    if per_block is not None:  # 3 steps per block ends 8 steps on a short block
        monkeypatch.setattr(numkit, "CACHE_BLOCK", per_block * words)
    read = np.zeros(4, dtype=bool)
    read[READ_ROWS[strategy]] = True
    normals = []  # the words each Box-Muller call transforms

    def box_muller(bits):
        normals.append(bits.size)
        return numkit.box_muller(bits)

    monkeypatch.setattr(data, "box_muller", box_muller)
    a, b = SeededRng(19, 5), SeededRng(19, 5)
    got = step_batches(ds, n, p0, pt, d_z, a, steps, READ_ROWS[strategy])
    indices = sample_indices(len(ds), n, b)
    for s in range(1, steps + 1):
        rows, images, zs = next(got)
        idx = next(indices)
        want = augment_rows(ds.rows[idx], p0, pt, b)
        assert rows[:, read].tobytes() == want[:, read].tobytes()
        assert rows.shape == want.shape and not rows[:, ~read].any()  # unread rows are zero
        assert images.tobytes() == ds.images[idx].tobytes()
        assert zs.tobytes() == b.gaussian_rows(n, d_z).tobytes()
        assert a.position == b.position == 5 + s * words
    assert next(got, None) is None
    assert a.position == 5 + steps * words
    # only the noise words of the rows read, and z's, become normals
    mixed = np.count_nonzero(read & (np.array([p0, pt, pt, pt]) != 0.0))
    assert sum(normals) == steps * n * (mixed * wd + wz)
    if strategy == "zero_shot":
        assert sum(normals) == steps * n * ((wd if p0 > 0 else 0) + wz)


def test_step_batches_check_their_arguments():
    # the noise proportions and d_z are GanConfig's to check
    ds = generate_synthetic(SyntheticSpec(n_items=5, d=3, m=2, d_img=2))
    for batch in (0, 6):
        with pytest.raises(ValueError, match=f"batch size {batch} out of range"):
            next(step_batches(ds, batch, 0.1, 0.0, 2, SeededRng(0), 3, slice(None)))
    assert list(step_batches(ds, 2, 0.1, 0.0, 2, SeededRng(0), 0, slice(None))) == []
