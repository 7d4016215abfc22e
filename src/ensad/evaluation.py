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
from .numkit import SeededRng, psd_eigvalsh, sym_sqrt_psd

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
    """Sample mean and unbiased covariance of row vectors; needs n >= 2."""
    x = np.asarray(feats, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a 2-D array with at least two rows")
    if not np.all(np.isfinite(x)):
        raise ValueError("features contain non-finite entries")
    mu = x.mean(axis=0)
    dev = x - mu
    sigma = dev.T @ dev / (x.shape[0] - 1)
    sigma = 0.5 * (sigma + sigma.T)
    return FrechetStats(mu=mu, sigma=sigma, n=x.shape[0])


def _frechet_raw(a: FrechetStats, b: FrechetStats) -> float:
    """|mu_a - mu_b|^2 + tr(Sa) + tr(Sb) - 2 tr((Sa^1/2 Sb Sa^1/2)^1/2), with
    the last trace taken as the sum of the square roots of the eigenvalues,
    so each pair needs one matrix square root."""
    if a.mu.shape != b.mu.shape or a.sigma.shape != b.sigma.shape:
        raise ValueError("statistics have mismatched shapes")
    dmu = a.mu - b.mu
    root_a = sym_sqrt_psd(a.sigma)
    cross = np.sum(np.sqrt(psd_eigvalsh(root_a @ b.sigma @ root_a)))
    return float(dmu @ dmu + np.trace(a.sigma) + np.trace(b.sigma) - 2.0 * cross)


def _clamped(raw: float) -> float:
    """Clamp tiny negative round-off to zero; reject anything lower."""
    if raw < _CLAMP_FLOOR:
        raise ValueError(f"frechet distance computed as {raw}, beyond round-off")
    return max(raw, 0.0)


def frechet_distance(a: FrechetStats, b: FrechetStats) -> float:
    """Squared Frechet distance between two Gaussians; tiny negative
    round-off is clamped to zero."""
    return _clamped(_frechet_raw(a, b))


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


def _real_stats(ck: Checkpoint, ds: Dataset) -> FrechetStats:
    fd, _, _ = disc_forward_batch(ck.params, ds.images)
    return fit_gaussian(fd)


def _fake_stats(
    ck: Checkpoint, ds: Dataset, n_gen: int, strategy: str, seed: int
) -> FrechetStats:
    """Generated-feature moments. The stream consumes item indices first,
    then one noise vector per item, so every strategy sees identical draws."""
    rng = SeededRng(seed)
    idx = rng.randints_below(np.full(n_gen, len(ds)))
    zs = rng.gaussian_rows(n_gen, ck.gan_cfg.d_z)
    conds, _ = fuse_batch(ds.rows[idx], ck.params["ensad"], ck.ensad_cfg, strategy)
    fakes, _ = generate_batch(ck.params, conds, zs)
    fd, _, _ = disc_forward_batch(ck.params, fakes)
    return fit_gaussian(fd)


def _check_eval_args(ck: Checkpoint, ds: Dataset, n_gen: int, strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if n_gen < 2:
        raise ValueError("n_gen must be at least 2 to fit moments")
    check_dataset(ds, ck.ensad_cfg, ck.gan_cfg)


def evaluate(
    ck: Checkpoint, ds: Dataset, n_gen: int, strategy: str, seed: int
) -> float:
    """Frechet distance between real-image features over the whole dataset
    and features of n_gen images generated from items sampled with
    replacement, conditioned per the given fusion strategy."""
    _check_eval_args(ck, ds, n_gen, strategy)
    real = _real_stats(ck, ds)
    fake = _fake_stats(ck, ds, n_gen, strategy, seed)
    return frechet_distance(real, fake)


def compare_strategies(ck: Checkpoint, ds: Dataset, n_gen: int, seed: int) -> EvalReport:
    """One evaluation row per fusion strategy, all sharing the same stream
    and the same real-feature statistics."""
    _check_eval_args(ck, ds, n_gen, STRATEGIES[0])
    real = _real_stats(ck, ds)
    rows = []
    for strategy in STRATEGIES:
        fake = _fake_stats(ck, ds, n_gen, strategy, seed)
        raw = _frechet_raw(real, fake)
        rows.append({"strategy": strategy, "fd": _clamped(raw), "fd_raw": raw})
    return EvalReport(n_gen=n_gen, n_real=len(ds), seed=seed, results=rows)
