"""``experiments/protocol.py``: ``latents`` against the corpus it rebuilds,
and the loader that the tests use for every experiment script."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ensad.data import SyntheticSpec, generate_synthetic
from ensad.numkit import SeededRng, derive_seed, l2_normalize

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"


def load_experiment(name: str):
    """The script ``experiments/<name>.py``, loaded as module ``name``."""
    spec = importlib.util.spec_from_file_location(name, EXPERIMENTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


protocol = load_experiment("protocol")


@pytest.mark.parametrize("sigma_trans", [0.0, 0.2])
@pytest.mark.parametrize("sigma_source", [0.0, 0.4])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_latents_rebuild_the_corpus_bit_for_bit(m, sigma_source, sigma_trans):
    for d in (7, 8):
        spec = SyntheticSpec(n_items=9, d=d, m=m, d_img=5, sigma_source=sigma_source,
                             sigma_trans=sigma_trans, seed=3)
        u = protocol.latents(spec)
        corpus = generate_synthetic(spec)
        # M and the draws as tests/test_data.py::per_vector_synthetic takes them
        mix = SeededRng(derive_seed(spec.seed, 2)).gaussian(d * 5).reshape(5, d)
        rng_items = SeededRng(derive_seed(spec.seed, 1))
        sigmas = [sigma_source] + [sigma_trans] * m
        assert u.shape == (9, d)
        for i in range(9):
            assert np.array_equal(np.tanh(mix @ u[i]), corpus.images[i])
            rng_items.gaussian(d)  # the latent's own draw
            for row, sigma in zip(corpus.rows[i], sigmas):
                want = u[i] if sigma == 0.0 else l2_normalize(u[i] + sigma * rng_items.gaussian(d))
                assert np.array_equal(row, want)
