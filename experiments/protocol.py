"""The paper's recipe at desk scale, as acceptance criterion 8 runs it.

``desk_protocol(seed)`` builds two corpora from one corpus seed: ``CLEAN``
(sigma_source 0) and ``NOISY`` (sigma_source 0.4). It pre-trains G and D
on the clean corpus with ``zero_shot`` conditioning (``PRETRAIN``, train
seed ``seed``), then trains the adapter and D against the frozen G on the
noisy corpus (``FINETUNE``, train seed ``seed + 500``), starting from the
pre-trained parameters. Scoring is left to the caller, e.g.
``compare_strategies(run.finetuned, run.noisy, 512, 777)``.

``latents(spec)`` returns the latents u that ``generate_synthetic(spec)``
drew, which no corpus stores.

The script has no command line; tests and other scripts load it by path
(``tests/test_protocol.py::load_experiment``), with ``ensad`` importable
(``PYTHONPATH=src``).
"""

from dataclasses import replace
from typing import NamedTuple

import numpy as np

from ensad.adapter import EnsAdConfig
from ensad.data import Dataset, SyntheticSpec, generate_synthetic
from ensad.gan import Checkpoint, GanConfig, train
from ensad.numkit import SeededRng, derive_seed, l2_normalize

CLEAN = SyntheticSpec(n_items=2000, d=16, m=4, d_img=12,
                      sigma_source=0.0, sigma_trans=0.2, seed=100)
NOISY = replace(CLEAN, sigma_source=0.4)
ADAPTER = EnsAdConfig(d=16, d_hid=8, m=4, alpha=0.4)
GAN = GanConfig(d=16, d_z=16, d_img=12, gen_hidden=(64, 64),
                disc_hidden=(32, 32), batch=16, steps=2000)
PRETRAIN = replace(GAN, lr=5e-4, trainable=frozenset({"generator", "discriminator"}),
                   conditioning="zero_shot")
FINETUNE = replace(GAN, lr=1e-3, trainable=frozenset({"ensad", "discriminator"}),
                   conditioning="ensad")
FINETUNE_SEED_OFFSET = 500


class DeskRun(NamedTuple):
    clean: Dataset
    noisy: Dataset
    pretrained: Checkpoint
    finetuned: Checkpoint
    rows: list  # the fine-tune's log rows, one per step


def latents(spec: SyntheticSpec) -> np.ndarray:
    """The (n_items, d) latents u of ``generate_synthetic(spec)``, bit for
    bit. Its item stream holds, per item, one latent row and then one row
    per nonzero sigma (sigma_source, then sigma_trans for each of the m
    translations), so a sigma_source of 0 shortens the stride, and two
    corpora that differ in it share only item 0's latent."""
    stride = 1 + (spec.sigma_source != 0.0) + spec.m * (spec.sigma_trans != 0.0)
    draws = SeededRng(derive_seed(spec.seed, 1)).gaussian_rows(spec.n_items * stride, spec.d)
    return l2_normalize(draws[::stride])


def desk_protocol(seed: int) -> DeskRun:
    """Criterion 8's pre-training and fine-tune at train seed ``seed``."""
    clean, noisy = generate_synthetic(CLEAN), generate_synthetic(NOISY)
    pretrained = train(clean, ADAPTER, PRETRAIN, seed)
    rows = []
    finetuned = train(noisy, ADAPTER, FINETUNE, seed + FINETUNE_SEED_OFFSET,
                      init_from=pretrained.params, log_fn=rows.append)
    return DeskRun(clean, noisy, pretrained, finetuned, rows)
