"""Dataset model: JSONL ingest/export, synthetic generation, noise
augmentation, and batch sampling.

File format (UTF-8, LF): first line is a header
``{"format": "ensad-jsonl", "version": 1, "d": int, "m": int, "d_img": int}``
and every further line is one item
``{"id", "h0", "translations", "image", "source_text"?, "translation_texts"?}``.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numkit import SeededRng, derive_seed, l2_normalize, l2_normalize_rows

FORMAT_NAME = "ensad-jsonl"
FORMAT_VERSION = 1

# Stored embeddings must sit on the unit sphere within this tolerance.
NORM_INVARIANT = 1e-9
# Larger deviations up to this bound are silently renormalized on load;
# beyond it the line is rejected as corrupt.
NORM_REJECT = 1e-6


class DataFormatError(ValueError):
    """Malformed dataset file; message names the offending line."""


@dataclass
class EmbeddingEnsemble:
    """One source embedding plus the embeddings of its m translations."""

    id: str
    h0: np.ndarray
    translations: tuple[np.ndarray, ...]
    source_text: str | None = None
    translation_texts: tuple[str, ...] | None = None

    @property
    def m(self) -> int:
        return len(self.translations)

    def matrix(self) -> np.ndarray:
        """Stack into the (d, m+1) column layout: source first."""
        return np.stack([self.h0, *self.translations], axis=1)


@dataclass
class Dataset:
    d: int
    m: int
    d_img: int
    items: tuple[tuple[EmbeddingEnsemble, np.ndarray], ...]

    def __post_init__(self):
        if self.d < 1 or self.m < 1 or self.d_img < 1:
            raise ValueError("dataset dimensions must be positive")
        if not self.items:
            raise ValueError("dataset must be nonempty")

    def __len__(self) -> int:
        return len(self.items)

    @cached_property
    def rows(self) -> np.ndarray:
        """(N, m+1, d): every item's source row then translation rows,
        stacked once on first use."""
        return stack_rows(ens for ens, _ in self.items)

    @cached_property
    def images(self) -> np.ndarray:
        """(N, d_img): every item's image, stacked once on first use."""
        return np.stack([img for _, img in self.items])


def stack_rows(ensembles) -> np.ndarray:
    """(n, m+1, d) batch of ensembles: per item the source row first."""
    return np.stack([np.stack([e.h0, *e.translations]) for e in ensembles])


@dataclass(frozen=True)
class SyntheticSpec:
    n_items: int
    d: int
    m: int
    d_img: int
    sigma_source: float = 0.0
    sigma_trans: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_items < 1:
            raise ValueError("n_items must be positive")
        if self.d < 1 or self.m < 1 or self.d_img < 1:
            raise ValueError("dimensions must be positive")
        if self.sigma_source < 0 or self.sigma_trans < 0:
            raise ValueError("sigmas must be nonnegative")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory plus atomic rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_embedding(vec, d: int, line_no: int, what: str) -> np.ndarray:
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim != 1 or arr.shape[0] != d:
        raise DataFormatError(f"line {line_no}: {what} has wrong dimension")
    if not np.all(np.isfinite(arr)):
        raise DataFormatError(f"line {line_no}: {what} has non-finite entries")
    dev = abs(math.sqrt(float(np.dot(arr, arr))) - 1.0)
    if dev <= NORM_INVARIANT:
        return arr
    if dev <= NORM_REJECT:
        return l2_normalize(arr)
    raise DataFormatError(f"line {line_no}: {what} norm deviates by {dev:.2e}")


def load_jsonl(path: str) -> Dataset:
    """Read and validate a dataset file; see the module docstring for the
    schema. Embeddings off the sphere by more than 1e-6 are rejected,
    smaller drift is renormalized."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataFormatError("line 1: empty file, expected header")

    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"line 1: bad JSON header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise DataFormatError(f"line 1: expected format {FORMAT_NAME!r}")
    if header.get("version") != FORMAT_VERSION:
        raise DataFormatError(f"line 1: unsupported version {header.get('version')!r}")
    try:
        d = int(header["d"])
        m = int(header["m"])
        d_img = int(header["d_img"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"line 1: header dimensions missing or bad: {exc}") from exc

    items = []
    for offset, line in enumerate(lines[1:], start=2):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"line {offset}: bad JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise DataFormatError(f"line {offset}: expected a JSON object")
        unknown = set(obj) - {
            "id", "h0", "translations", "image", "source_text", "translation_texts",
        }
        if unknown:
            raise DataFormatError(f"line {offset}: unknown keys {sorted(unknown)}")
        try:
            item_id = obj["id"]
            h0_raw = obj["h0"]
            trans_raw = obj["translations"]
            img_raw = obj["image"]
        except KeyError as exc:
            raise DataFormatError(f"line {offset}: missing key {exc}") from exc
        if not isinstance(item_id, str):
            raise DataFormatError(f"line {offset}: id must be a string")
        if not isinstance(trans_raw, list) or len(trans_raw) != m:
            raise DataFormatError(
                f"line {offset}: expected {m} translations, got "
                f"{len(trans_raw) if isinstance(trans_raw, list) else type(trans_raw).__name__}"
            )
        h0 = _check_embedding(h0_raw, d, offset, "h0")
        translations = tuple(
            _check_embedding(t, d, offset, f"translation {i}")
            for i, t in enumerate(trans_raw)
        )
        image = np.asarray(img_raw, dtype=np.float64)
        if image.ndim != 1 or image.shape[0] != d_img:
            raise DataFormatError(f"line {offset}: image has wrong dimension")
        if not np.all(np.isfinite(image)) or np.any(np.abs(image) > 1.0):
            raise DataFormatError(f"line {offset}: image entries must lie in [-1, 1]")
        texts = obj.get("translation_texts")
        if texts is not None:
            if not isinstance(texts, list) or len(texts) != m or not all(
                isinstance(t, str) for t in texts
            ):
                raise DataFormatError(f"line {offset}: translation_texts must be {m} strings")
            texts = tuple(texts)
        source_text = obj.get("source_text")
        if source_text is not None and not isinstance(source_text, str):
            raise DataFormatError(f"line {offset}: source_text must be a string")
        ens = EmbeddingEnsemble(
            id=item_id,
            h0=h0,
            translations=translations,
            source_text=source_text,
            translation_texts=texts,
        )
        items.append((ens, image))
    if not items:
        raise DataFormatError("line 2: file has a header but no items")
    return Dataset(d=d, m=m, d_img=d_img, items=tuple(items))


def dumps_jsonl(ds: Dataset) -> str:
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "d": ds.d,
        "m": ds.m,
        "d_img": ds.d_img,
    }
    out = [json.dumps(header)]
    for ens, image in ds.items:
        obj = {
            "id": ens.id,
            "h0": ens.h0.tolist(),
            "translations": [t.tolist() for t in ens.translations],
            "image": image.tolist(),
        }
        if ens.source_text is not None:
            obj["source_text"] = ens.source_text
        if ens.translation_texts is not None:
            obj["translation_texts"] = list(ens.translation_texts)
        out.append(json.dumps(obj))
    return "\n".join(out) + "\n"


def save_jsonl(ds: Dataset, path: str) -> None:
    atomic_write_text(path, dumps_jsonl(ds))


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic synthetic dataset.

    Each item draws a latent u uniform on the sphere; the source embedding
    and translations are sphere-projected Gaussian perturbations of u at
    scales sigma_source / sigma_trans (a zero sigma copies u bit-exactly,
    consuming no randomness); the paired image is tanh(M u) for one fixed
    seed-derived mixing matrix M shared by the whole dataset.
    """
    rng_items = SeededRng(derive_seed(spec.seed, 1))
    rng_mix = SeededRng(derive_seed(spec.seed, 2))
    mix = rng_mix.gaussian(spec.d_img * spec.d).reshape(spec.d_img, spec.d)

    items = []
    for i in range(spec.n_items):
        u = l2_normalize(rng_items.gaussian(spec.d))
        if spec.sigma_source == 0.0:
            h0 = u.copy()
        else:
            h0 = l2_normalize(u + spec.sigma_source * rng_items.gaussian(spec.d))
        translations = []
        for _ in range(spec.m):
            if spec.sigma_trans == 0.0:
                translations.append(u.copy())
            else:
                translations.append(
                    l2_normalize(u + spec.sigma_trans * rng_items.gaussian(spec.d))
                )
        image = np.tanh(mix @ u)
        ens = EmbeddingEnsemble(
            id=f"syn-{i:06d}", h0=h0, translations=tuple(translations)
        )
        items.append((ens, image))
    return Dataset(d=spec.d, m=spec.m, d_img=spec.d_img, items=tuple(items))


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
    if not 0.0 <= p0 <= 1.0 or not 0.0 <= pt <= 1.0:
        raise ValueError("noise proportions must lie in [0, 1]")
    n, width, d = h.shape
    p = np.array([p0] + [pt] * (width - 1))
    noisy = p != 0.0
    out = h.copy()
    k = int(np.count_nonzero(noisy))
    if k:
        g = l2_normalize_rows(rng.gaussian_rows(n * k, d).reshape(n, k, d))
        pk = p[noisy][:, None]
        out[:, noisy] = l2_normalize_rows((1.0 - pk) * h[:, noisy] + pk * g)
    return out


def augment_noise(
    e: EmbeddingEnsemble, p0: float, pt: float, rng: SeededRng
) -> EmbeddingEnsemble:
    """Blend each embedding with a fresh unit Gaussian direction and
    renormalize: h <- l2n((1-p)h + p l2n(g)). Source uses p0, translations
    pt. Draw order: source first, then translations in order. The one-item
    view of :func:`augment_rows`."""
    rows = augment_rows(stack_rows([e]), p0, pt, rng)[0]
    return EmbeddingEnsemble(
        id=e.id,
        h0=rows[0],
        translations=tuple(rows[1:]),
        source_text=e.source_text,
        translation_texts=e.translation_texts,
    )


def sample_indices(size: int, n: int, rng: SeededRng):
    """Endless stream of index batches: ``n`` distinct indices in
    [0, size) per batch, independent across batches.

    Each batch is the first n slots of a partial Fisher-Yates shuffle of
    range(size). Slot k takes one stream word, reduced modulo size-k, and
    the n words come from one stream call. Only the swapped positions are
    stored, so a batch costs O(n), not O(size).
    """
    if not 1 <= n <= size:
        raise ValueError(f"batch size {n} out of range [1, {size}]")
    bounds = np.arange(size, size - n, -1)
    while True:
        picks = (np.arange(n) + rng.randints_below(bounds)).tolist()
        moved = {}
        batch = []
        for k, j in enumerate(picks):
            # swap slots k and j; slot k is final, slot j keeps k's entry
            batch.append(moved.get(j, j))
            moved[j] = moved.get(k, k)
        yield np.array(batch)


def batch_iter(ds: Dataset, n: int, rng: SeededRng):
    """Endless stream of batches of ``n`` (ensemble, image) items, sampled
    uniformly without replacement within each batch (independent across
    batches), by :func:`sample_indices`."""
    for idx in sample_indices(len(ds.items), n, rng):
        yield [ds.items[i] for i in idx]
