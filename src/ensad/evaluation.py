"""Distribution-level evaluation: Gaussian moment fits in the
discriminator's feature space and the Frechet distance between the real
and generated feature clouds, compared across fusion strategies.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .adapter import STRATEGIES, fuse_batch
from .data import Dataset, save_lines
from .gan import Checkpoint, check_dataset, disc_forward_batch, generate_batch
from .numkit import SeededRng, json_uint, psd_eigvalsh, sym_sqrt_psd

FEATURE_SPACE = "disc_fd"
SAMPLING = "with_replacement"

# Tolerated numerical undershoot of the squared distance before clamping
# to zero; anything lower is treated as a failed computation.
_CLAMP_FLOOR = -1e-6


@dataclass
class FrechetStats:
    mu: np.ndarray
    sigma: np.ndarray
    n: int


def fit_gaussian(feats) -> FrechetStats:
    """Sample mean and unbiased covariance of row vectors; needs n >= 2. An
    (S, n, d) stack gives S fits, each bit for bit that of its slice alone."""
    x = np.asarray(feats, dtype=np.float64)
    if x.ndim < 2 or x.shape[-2] < 2:
        raise ValueError("need a 2-D array with at least two rows")
    if not np.isfinite(x).all():
        raise ValueError("features contain non-finite entries")
    mu = np.add.reduce(x, axis=-2) / x.shape[-2]  # x.mean's arithmetic
    dev = x - mu[..., None, :]
    sigma = dev.swapaxes(-1, -2) @ dev / (x.shape[-2] - 1)
    sigma = 0.5 * (sigma + sigma.swapaxes(-1, -2))
    return FrechetStats(mu=mu, sigma=sigma, n=x.shape[-2])


def _frechet_raw(a: FrechetStats, root_a: np.ndarray, b: FrechetStats) -> float:
    """|mu_a - mu_b|^2 + tr(Sa) + tr(Sb) - 2 tr((Sa^1/2 Sb Sa^1/2)^1/2), given
    ``root_a`` = Sa^1/2, with the last trace taken as the sum of the square
    roots of the eigenvalues; distances from one ``a`` share its root."""
    dmu = a.mu - b.mu
    cross = np.add.reduce(np.sqrt(psd_eigvalsh(root_a @ b.sigma @ root_a)))
    return float(dmu @ dmu + np.trace(a.sigma) + np.trace(b.sigma) - 2.0 * cross)


def _clamped(raw: float) -> float:
    """Clamp tiny negative round-off to zero; reject anything lower."""
    if raw < _CLAMP_FLOOR:
        raise ValueError(f"frechet distance computed as {raw}, beyond round-off")
    return max(raw, 0.0)


def frechet_distance(a: FrechetStats, b: FrechetStats) -> float:
    """Squared Frechet distance between two Gaussians; tiny negative
    round-off is clamped to zero."""
    if a.mu.shape != b.mu.shape or a.sigma.shape != b.sigma.shape:
        raise ValueError("statistics have mismatched shapes")
    return _clamped(_frechet_raw(a, sym_sqrt_psd(a.sigma), b))


@dataclass
class EvalReport:
    n_gen: int
    n_real: int
    seed: int
    results: list
    feature_space: str = FEATURE_SPACE
    sampling: str = SAMPLING

    def to_jsonable(self) -> dict:
        return asdict(self)


def save_report(report: EvalReport, path: str) -> None:
    save_lines([json.dumps(report.to_jsonable(), sort_keys=True, indent=2)], path)


def _fake_features(
    ck: Checkpoint, ds: Dataset, n_gen: int, strategies: tuple, seed: int
) -> np.ndarray:
    """Generated-image features, (S, n_gen, d) for S ``strategies``. The
    stream gives item indices, then one noise vector per item, drawn once
    for all strategies; G and D run once over the stacked conditions."""
    rng = SeededRng(seed)
    idx = rng.randints_below(np.full(n_gen, len(ds)))
    zs = rng.gaussian_rows(n_gen, ck.gan_cfg.d_z)
    rows = ds.rows.take(idx, axis=0)
    conds = np.empty((len(strategies), n_gen, ds.d))
    for k, strategy in enumerate(strategies):
        conds[k] = fuse_batch(rows, ck.params["ensad"], ck.ensad_cfg, strategy)[0]
    fakes, _ = generate_batch(ck.params, conds, zs)
    return disc_forward_batch(ck.params, fakes)[0]


def _fake_stats(
    ck: Checkpoint, ds: Dataset, n_gen: int, strategy: str, seed: int
) -> FrechetStats:
    """One strategy's generated-feature moments: its slice of the stacked pass."""
    return fit_gaussian(_fake_features(ck, ds, n_gen, (strategy,), seed)[0])


def evaluate(
    ck: Checkpoint, ds: Dataset, n_gen: int, strategy: str, seed: int
) -> float:
    """The Frechet distance of one fusion strategy: the one-strategy case
    of :func:`compare_strategies`."""
    return compare_strategies(ck, ds, n_gen, seed, (strategy,)).results[0]["fd"]


def compare_strategies(
    ck: Checkpoint, ds: Dataset, n_gen: int, seed: int, strategies=STRATEGIES
) -> EvalReport:
    """Frechet distance between real-image features over the whole dataset
    and features of n_gen images generated from items sampled with
    replacement, one row per entry of ``strategies`` in the given order.
    Every argument is checked before any features are computed. The rows
    share one draw, one G and D pass and one moment fit of the fakes, and
    the reals' fit and covariance root; each row is bit for bit as if alone."""
    names = () if isinstance(strategies, str) else tuple(strategies)  # iterated twice
    if not names:
        raise ValueError(f"strategies must be a nonempty sequence of names, got {strategies!r}")
    for strategy in names:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    n_gen = json_uint(n_gen, 2, "n_gen")
    seed = json_uint(seed, 0, "seed")
    check_dataset(ds, ck.ensad_cfg, ck.gan_cfg)
    if len(ds) < 2:
        raise ValueError(f"dataset has {len(ds)} item; need at least 2 to fit moments")
    real = fit_gaussian(disc_forward_batch(ck.params, ds.images)[0])
    fakes = fit_gaussian(_fake_features(ck, ds, n_gen, names, seed))
    root = sym_sqrt_psd(real.sigma)
    rows = []
    for strategy, mu, sigma in zip(names, fakes.mu, fakes.sigma):
        raw = _frechet_raw(real, root, FrechetStats(mu, sigma, n_gen))
        rows.append({"strategy": strategy, "fd": _clamped(raw), "fd_raw": raw})
    return EvalReport(n_gen=n_gen, n_real=len(ds), seed=seed, results=rows)
