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
from dataclasses import dataclass

import numpy as np

from .numkit import SeededRng, derive_seed, l2_normalize, l2_normalize_rows

FORMAT_NAME = "ensad-jsonl"
FORMAT_VERSION = 1

# Stored embeddings must sit on the unit sphere within this tolerance.
NORM_INVARIANT = 1e-9
# Larger deviations up to this bound are silently renormalized on load;
# beyond it the line is rejected as corrupt.
NORM_REJECT = 1e-6


# The types json.loads gives a number; bool, a subclass of int, is not one.
_NUMBER_TYPES = frozenset({int, float})


# What json.loads raises on text it cannot parse, nesting too deep for its
# recursion limit included.
JSON_ERRORS = (json.JSONDecodeError, RecursionError)


class DataFormatError(ValueError):
    """Malformed dataset file; message names the offending line."""


@dataclass
class Dataset:
    """N items as arrays. ``rows`` (N, m+1, d) holds per item the source
    embedding, then its m translations; ``images`` (N, d_img) the paired
    images. ``source_texts`` and ``translation_texts`` hold one entry per
    item, None where that item has none (every entry, when not given)."""

    ids: tuple
    rows: np.ndarray
    images: np.ndarray
    source_texts: tuple | None = None
    translation_texts: tuple | None = None

    def __post_init__(self):
        self.ids = tuple(self.ids)
        self.rows = np.asarray(self.rows, dtype=np.float64)
        self.images = np.asarray(self.images, dtype=np.float64)
        n = len(self.ids)
        if n == 0:
            raise ValueError("dataset must be nonempty")
        if (self.rows.ndim != 3 or self.images.ndim != 2
                or self.rows.shape[0] != n or self.images.shape[0] != n):
            raise ValueError(f"expected {n} rows of shape (m+1, d) and {n} images")
        if self.d < 1 or self.m < 1 or self.d_img < 1:
            raise ValueError("dataset dimensions must be positive")
        for name in ("source_texts", "translation_texts"):
            texts = getattr(self, name)
            texts = (None,) * n if texts is None else tuple(texts)
            if len(texts) != n:
                raise ValueError(f"expected {n} {name}, got {len(texts)}")
            setattr(self, name, texts)

    @property
    def d(self) -> int:
        return self.rows.shape[2]

    @property
    def m(self) -> int:
        return self.rows.shape[1] - 1

    @property
    def d_img(self) -> int:
        return self.images.shape[1]

    def __len__(self) -> int:
        return len(self.ids)


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
        set_uint_fields(self, {"n_items": 1, "d": 1, "m": 1, "d_img": 1, "seed": 0})
        if self.sigma_source < 0 or self.sigma_trans < 0:
            raise ValueError("sigmas must be nonnegative")


def atomic_write_text(path: str, data) -> None:
    """Write ``data``, a str (as UTF-8) or bytes-like, via a temp file in the
    same directory plus atomic rename. The file is created with mode 0666
    minus the umask, like ``open(path, "w")``."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.getpid()}-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_uint(value, lo: int = 0, name: str | None = None) -> int:
    """``value`` as an int if it is an integer in [lo, 2**64): a JSON one or
    a numpy scalar. Floats such as 9.5 or 6.0, strings and booleans raise
    ValueError, naming ``name`` when given."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        if lo <= int(value) < 1 << 64:
            return int(value)
    prefix = f"{name}: " if name else ""
    raise ValueError(f"{prefix}expected an integer in [{lo}, 2**64), got {value!r}")


def set_uint_fields(cfg, lows: dict) -> None:
    """Check each integer field ``name`` of the frozen dataclass ``cfg`` by
    :func:`json_uint` against its lower bound ``lows[name]``, and store it as
    an int; a tuple field is checked entry by entry."""
    for name, lo in lows.items():
        value = getattr(cfg, name)
        if isinstance(value, tuple):
            value = tuple(json_uint(v, lo, name) for v in value)
        else:
            value = json_uint(value, lo, name)
        object.__setattr__(cfg, name, value)


def _floats(value, line_no: int, what: str) -> np.ndarray:
    """A JSON list of numbers as a float64 vector; strings, booleans and
    nested lists are rejected, not converted."""
    if isinstance(value, list) and _NUMBER_TYPES.issuperset(map(type, value)):
        try:
            return np.asarray(value, dtype=np.float64)
        except OverflowError as exc:  # an integer beyond the float range
            raise DataFormatError(f"line {line_no}: {what} has an entry out of range") from exc
    raise DataFormatError(f"line {line_no}: {what} must be a list of numbers")


def _check_embedding(vec, d: int, line_no: int, what: str) -> np.ndarray:
    arr = _floats(vec, line_no, what)
    if arr.shape[0] != d:
        raise DataFormatError(f"line {line_no}: {what} has wrong dimension")
    peak = float(max(arr.max(), -arr.min()))  # the largest |entry|, or NaN
    if not math.isfinite(peak):
        raise DataFormatError(f"line {line_no}: {what} has non-finite entries")
    if peak > 1.0 + NORM_REJECT:  # off the sphere; its squared norm may overflow
        raise DataFormatError(
            f"line {line_no}: {what} norm deviates by at least {peak - 1.0:.2e}")
    dev = abs(math.sqrt(float(np.dot(arr, arr))) - 1.0)
    if dev <= NORM_INVARIANT:
        return arr
    if dev <= NORM_REJECT:
        return l2_normalize(arr)
    raise DataFormatError(f"line {line_no}: {what} norm deviates by {dev:.2e}")


def _read_lines(path: str) -> list:
    """The file's lines, decoded as UTF-8 with universal newlines like a
    text-mode read; a byte that is not UTF-8 raises DataFormatError naming
    its line."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"line {line_no}: not valid UTF-8: {exc.reason}") from exc
    del raw  # at most two copies of the file at a time, as a text-mode read
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def load_jsonl(path: str) -> Dataset:
    """Read and validate a dataset file; see the module docstring for the
    schema. Embeddings off the sphere by more than 1e-6 are rejected,
    smaller drift is renormalized."""
    lines = _read_lines(path)
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataFormatError("line 1: empty file, expected header")

    try:
        header = json.loads(lines[0])
    except JSON_ERRORS as exc:
        raise DataFormatError(f"line 1: bad JSON header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise DataFormatError(f"line 1: expected format {FORMAT_NAME!r}")
    # a JSON integer: true and 1.0 compare equal to 1 but are not versions
    if type(header.get("version")) is not int or header["version"] != FORMAT_VERSION:
        raise DataFormatError(f"line 1: unsupported version {header.get('version')!r}")
    dims = []
    for key in ("d", "m", "d_img"):
        try:
            dims.append(json_uint(header[key], 1))
        except (KeyError, ValueError) as exc:
            raise DataFormatError(f"line 1: header {key!r} missing or bad: {exc}") from exc
    d, m, d_img = dims
    if len(lines) == 1:
        raise DataFormatError("line 2: file has a header but no items")

    # per-item lists, stacked at the end: the header's dimensions are only
    # trusted once a line has vectors of that size
    ids, rows, images, source_texts, translation_texts = [], [], [], [], []
    for offset, line in enumerate(lines[1:], start=2):
        try:
            obj = json.loads(line)
        except JSON_ERRORS as exc:
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
        item = [_check_embedding(h0_raw, d, offset, "h0")]
        for j, t in enumerate(trans_raw):
            item.append(_check_embedding(t, d, offset, f"translation {j}"))
        image = _floats(img_raw, offset, "image")
        if image.shape[0] != d_img:
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
        ids.append(item_id)
        rows.append(item)
        images.append(image)
        source_texts.append(source_text)
        translation_texts.append(texts)
    return Dataset(ids, np.array(rows), np.array(images), source_texts, translation_texts)


def dumps_jsonl(ds: Dataset) -> str:
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "d": ds.d,
        "m": ds.m,
        "d_img": ds.d_img,
    }
    out = [json.dumps(header)]
    for item_id, rows, image, source_text, texts in zip(
        ds.ids, ds.rows.tolist(), ds.images.tolist(), ds.source_texts, ds.translation_texts
    ):
        obj = {"id": item_id, "h0": rows[0], "translations": rows[1:], "image": image}
        if source_text is not None:
            obj["source_text"] = source_text
        if texts is not None:
            obj["translation_texts"] = list(texts)
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
    Item draws come from one call, in per-vector order: u, source noise,
    translation noises. Vectors are normalized one at a time: the row form
    l2_normalize_rows differs from l2_normalize in the last bit."""
    rng_items = SeededRng(derive_seed(spec.seed, 1))
    rng_mix = SeededRng(derive_seed(spec.seed, 2))
    mix = rng_mix.gaussian(spec.d_img * spec.d).reshape(spec.d_img, spec.d)
    k = 1 + (spec.sigma_source > 0) + spec.m * (spec.sigma_trans > 0)
    draws = rng_items.gaussian_rows(spec.n_items * k, spec.d)

    rows = np.empty((spec.n_items, spec.m + 1, spec.d))
    images = np.empty((spec.n_items, spec.d_img))
    sigmas = [spec.sigma_source] + [spec.sigma_trans] * spec.m
    for i in range(spec.n_items):
        g = iter(draws[i * k:(i + 1) * k])
        u = l2_normalize(next(g))
        for j, sigma in enumerate(sigmas):
            rows[i, j] = u if sigma == 0.0 else l2_normalize(u + sigma * next(g))
        images[i] = np.tanh(mix @ u)
    ids = [f"syn-{i:06d}" for i in range(spec.n_items)]
    return Dataset(ids=ids, rows=rows, images=images)


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

