"""Distribution-level evaluation: Gaussian moment fits in the
discriminator's feature space and the Frechet distance between the real
and generated feature clouds, compared across fusion strategies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .adapter import STRATEGIES
from .data import Dataset, atomic_write_text
from .gan import Checkpoint, _condition_batch, _disc_forward_batch, _generate_batch
from .numkit import SeededRng, sym_sqrt_psd

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
    if a.mu.shape != b.mu.shape or a.sigma.shape != b.sigma.shape:
        raise ValueError("statistics have mismatched shapes")
    dmu = a.mu - b.mu
    root_a = sym_sqrt_psd(a.sigma)
    cross = sym_sqrt_psd(root_a @ b.sigma @ root_a)
    return float(
        dmu @ dmu + np.trace(a.sigma) + np.trace(b.sigma) - 2.0 * np.trace(cross)
    )


def frechet_distance(a: FrechetStats, b: FrechetStats) -> float:
    """Squared Frechet distance between two Gaussians; tiny negative
    round-off is clamped to zero."""
    raw = _frechet_raw(a, b)
    if raw < _CLAMP_FLOOR:
        raise ValueError(f"frechet distance computed as {raw}, beyond round-off")
    return max(raw, 0.0)


@dataclass
class EvalReport:
    n_gen: int
    n_real: int
    seed: int
    results: list
    feature_space: str = FEATURE_SPACE
    sampling: str = SAMPLING

    def to_jsonable(self) -> dict:
        return {
            "feature_space": self.feature_space,
            "n_gen": self.n_gen,
            "n_real": self.n_real,
            "sampling": self.sampling,
            "seed": self.seed,
            "results": [dict(row) for row in self.results],
        }


def save_report(report: EvalReport, path: str) -> None:
    atomic_write_text(
        path, json.dumps(report.to_jsonable(), sort_keys=True, indent=2) + "\n"
    )


def _real_stats(ck: Checkpoint, ds: Dataset) -> FrechetStats:
    fd, _, _ = _disc_forward_batch(ck.gan_params, ds.images)
    return fit_gaussian(fd)


def _fake_stats(
    ck: Checkpoint, ds: Dataset, n_gen: int, strategy: str, seed: int
) -> FrechetStats:
    """Generated-feature moments. The stream consumes item indices first,
    then one noise vector per item, so every strategy sees identical draws."""
    rng = SeededRng(seed)
    idx = rng.randints_below(np.full(n_gen, len(ds)))
    zs = rng.gaussian_rows(n_gen, ck.gan_cfg.d_z)
    conds, _ = _condition_batch(ds.rows[idx], ck.ensad_params, ck.ensad_cfg, strategy)
    fakes, _ = _generate_batch(ck.gan_params, conds, zs)
    fd, _, _ = _disc_forward_batch(ck.gan_params, fakes)
    return fit_gaussian(fd)


def _check_eval_args(ck: Checkpoint, ds: Dataset, n_gen: int, strategy: str) -> None:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGIES}")
    if n_gen < 2:
        raise ValueError("n_gen must be at least 2 to fit moments")
    if len(ds) == 0:
        raise ValueError("dataset is empty")
    if ds.d != ck.ensad_cfg.d or ds.m != ck.ensad_cfg.m or ds.d_img != ck.gan_cfg.d_img:
        raise ValueError(
            f"dataset (d={ds.d}, m={ds.m}, d_img={ds.d_img}) does not match "
            f"checkpoint (d={ck.ensad_cfg.d}, m={ck.ensad_cfg.m}, "
            f"d_img={ck.gan_cfg.d_img})"
        )


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
        if raw < _CLAMP_FLOOR:
            raise ValueError(f"frechet distance computed as {raw}, beyond round-off")
        rows.append({"strategy": strategy, "fd": max(raw, 0.0), "fd_raw": raw})
    return EvalReport(
        n_gen=n_gen, n_real=len(ds), seed=seed, results=rows
    )
