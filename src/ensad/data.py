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
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import numkit
from .numkit import SeededRng, box_muller, derive_seed, l2_normalize, unit_rows

FORMAT_NAME = "ensad-jsonl"
FORMAT_VERSION = 1

# Stored embeddings must sit on the unit sphere within this tolerance.
NORM_INVARIANT = 1e-9
# Larger deviations up to this bound are silently renormalized on load;
# beyond it the line is rejected as corrupt.
NORM_REJECT = 1e-6


# The types json.loads gives a number; bool, a subclass of int, is not one.
_NUMBER_TYPES = frozenset({int, float})


# What json.loads raises on text it cannot parse (a JSONDecodeError, or a plain
# ValueError for an integer too long for int()) or nests too deeply.
JSON_ERRORS = (ValueError, RecursionError)


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
        m = self.m
        try:
            for i, fields in enumerate(zip(self.ids, self.source_texts, self.translation_texts)):
                check_item_texts(*fields, m)
        except ValueError as exc:
            raise ValueError(f"item {i}: {exc}") from exc

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


def check_item_texts(item_id, source_text, texts, m: int):
    """Raise ValueError unless ``item_id`` is a string, ``source_text`` None
    or a string, and ``texts`` None or a list or tuple of m strings; returns
    ``texts`` as a tuple, or None. Dataset and load_jsonl check every item
    with it, so any Dataset saves as a file that loads."""
    if not isinstance(item_id, str):
        raise ValueError("id must be a string")
    if texts is not None:
        if not isinstance(texts, (list, tuple)) or len(texts) != m or not all(
            isinstance(t, str) for t in texts
        ):
            raise ValueError(f"translation_texts must be {m} strings")
        texts = tuple(texts)
    if source_text is not None and not isinstance(source_text, str):
        raise ValueError("source_text must be a string")
    return texts


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
        check_real_fields(self, {"sigma_source": "[0, inf)", "sigma_trans": "[0, inf)"})


@contextmanager
def atomic_write(path: str):
    """Yield a binary file that becomes ``path``: a temp file in the
    directory of the file ``path`` resolves to (created if missing) with mode
    0666 minus the umask, like ``open(path, "w")``, renamed over that file
    when the block ends and unlinked if it raises. So a symlinked ``path``
    stays a link, and the file it points to is replaced."""
    path = os.path.realpath(path)
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.getpid()}-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_lines(lines, path: str) -> None:
    """Write each string of ``lines`` and a newline, as UTF-8, to ``path``
    through :func:`atomic_write`."""
    with atomic_write(path) as fh:
        for line in lines:
            fh.write(line.encode("utf-8"))
            fh.write(b"\n")


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


def check_real_fields(cfg, ranges: dict) -> None:
    """Raise ValueError naming the field and its value unless each field
    ``name`` of ``cfg`` is a finite number within the float range (an int, a
    float or a numpy scalar, not a boolean) in the interval ``ranges[name]``,
    written as "[0, 1)" or "(0, inf)". The value is kept as given."""
    for name, interval in ranges.items():
        value = getattr(cfg, name)
        real = (isinstance(value, (int, float, np.integer, np.floating))
                and not isinstance(value, bool))
        try:
            real = real and math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            real = False
        if real:
            lo, hi = (float(bound) for bound in interval[1:-1].split(","))
            real = ((lo < value if interval[0] == "(" else lo <= value)
                    and (value < hi if interval[-1] == ")" else value <= hi))
        if not real:
            raise ValueError(f"{name}: expected a finite number in {interval}, got {value!r}")


def _floats(value, size: int, line_no: int, what: str) -> np.ndarray:
    """A JSON list of ``size`` numbers as a float64 vector; strings,
    booleans and nested lists are rejected, not converted."""
    if not isinstance(value, list) or not _NUMBER_TYPES.issuperset(map(type, value)):
        raise DataFormatError(f"line {line_no}: {what} must be a list of numbers")
    try:
        arr = np.asarray(value, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond the float range
        raise DataFormatError(f"line {line_no}: {what} has an entry out of range") from exc
    if arr.shape[0] != size:
        raise DataFormatError(f"line {line_no}: {what} has wrong dimension")
    return arr


def _check_embeddings(vectors: np.ndarray, m: int) -> None:
    """Numeric checks on the embeddings read so far, ``vectors`` with m+1
    rows per line: raise the DataFormatError a vector-by-vector check would
    raise first (non-finite entries, an entry beyond 1 + NORM_REJECT, a
    norm off 1 by more than NORM_REJECT), else renormalize in place the
    vectors whose norm is off by more than NORM_INVARIANT."""
    peak = np.maximum(vectors.max(axis=1), -vectors.min(axis=1))  # NaN where a row has one
    off = np.flatnonzero(~(peak <= 1.0 + NORM_REJECT))
    head = vectors[:off[0]] if off.size else vectors  # no squared norm may overflow
    dev = np.abs(np.sqrt(np.matmul(head[:, None, :], head[:, :, None])[:, 0, 0]) - 1.0)
    far = np.flatnonzero(dev > NORM_REJECT)
    if far.size or off.size:
        e = far[0] if far.size else off[0]
        line, field = divmod(int(e), m + 1)
        what = "h0" if field == 0 else f"translation {field - 1}"
        if far.size:
            msg = f"norm deviates by {dev[e]:.2e}"
        elif math.isfinite(peak[e]):
            msg = f"norm deviates by at least {peak[e] - 1.0:.2e}"
        else:
            msg = "has non-finite entries"
        raise DataFormatError(f"line {line + 2}: {what} {msg}")
    drift = dev > NORM_INVARIANT
    vectors[drift] = l2_normalize(vectors[drift])


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

    # Per line: the structural checks and the image range (one vector).
    # Per-item lists of vectors are stacked at the end (the header's
    # dimensions are only trusted once a line has vectors of that size) and
    # the embeddings' numeric checks run once over the stack; on a fault in
    # the loop, over the vectors read before it, as theirs come first.
    ids, rows, images, source_texts, translation_texts = [], [], [], [], []
    item = None  # the vectors of the line being read, once it has some
    try:
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
            source_text = obj.get("source_text")
            try:
                texts = check_item_texts(item_id, source_text, obj.get("translation_texts"), m)
            except ValueError as exc:
                raise DataFormatError(f"line {offset}: {exc}") from exc
            if not isinstance(trans_raw, list) or len(trans_raw) != m:
                raise DataFormatError(
                    f"line {offset}: expected {m} translations, got "
                    f"{len(trans_raw) if isinstance(trans_raw, list) else type(trans_raw).__name__}"
                )
            item = [_floats(h0_raw, d, offset, "h0")]
            for j, t in enumerate(trans_raw):
                item.append(_floats(t, d, offset, f"translation {j}"))
            image = _floats(img_raw, d_img, offset, "image")
            if not np.all(np.isfinite(image)) or np.any(np.abs(image) > 1.0):
                raise DataFormatError(f"line {offset}: image entries must lie in [-1, 1]")
            ids.append(item_id)
            rows.append(item)
            images.append(image)
            source_texts.append(source_text)
            translation_texts.append(texts)
    except DataFormatError:
        vectors = [v for it in rows for v in it]
        if item is not None and (not rows or item is not rows[-1]):
            vectors += item
        _check_embeddings(np.array(vectors).reshape(-1, d), m)
        raise
    rows, images = np.array(rows), np.array(images)
    _check_embeddings(rows.reshape(-1, d), m)
    return Dataset(ids, rows, images, source_texts, translation_texts)


def jsonl_lines(ds: Dataset):
    """The lines of ``ds``'s JSONL file, without newlines: the header, then
    one per item."""
    yield json.dumps({
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "d": ds.d,
        "m": ds.m,
        "d_img": ds.d_img,
    })
    for item_id, rows, image, source_text, texts in zip(
        ds.ids, ds.rows, ds.images, ds.source_texts, ds.translation_texts
    ):
        rows = rows.tolist()
        obj = {"id": item_id, "h0": rows[0], "translations": rows[1:],
               "image": image.tolist()}
        if source_text is not None:
            obj["source_text"] = source_text
        if texts is not None:
            obj["translation_texts"] = list(texts)
        yield json.dumps(obj)


def save_jsonl(ds: Dataset, path: str) -> None:
    save_lines(jsonl_lines(ds), path)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic synthetic dataset.

    Each item draws a latent u uniform on the sphere; the source embedding
    and translations are sphere-projected Gaussian perturbations of u at
    scales sigma_source / sigma_trans (a zero sigma copies u bit-exactly,
    consuming no randomness); the paired image is tanh(M u) for one fixed
    seed-derived mixing matrix M shared by the whole dataset.
    Item draws come from one call, in per-vector order: u, source noise,
    translation noises. Normalization is the stacked l2_normalize and each
    image one matrix-vector product, so every item is bit for bit what it
    would be if drawn and computed alone."""
    rng_items = SeededRng(derive_seed(spec.seed, 1))
    rng_mix = SeededRng(derive_seed(spec.seed, 2))
    mix = rng_mix.gaussian(spec.d_img * spec.d).reshape(spec.d_img, spec.d)
    sigmas = np.array([spec.sigma_source] + [spec.sigma_trans] * spec.m)
    noisy = sigmas != 0.0
    k = 1 + int(np.count_nonzero(noisy))
    draws = rng_items.gaussian_rows(spec.n_items * k, spec.d).reshape(spec.n_items, k, spec.d)

    u = l2_normalize(draws[:, 0])
    rows = np.repeat(u[:, None, :], spec.m + 1, axis=1)
    rows[:, noisy] = l2_normalize(u[:, None, :] + sigmas[noisy, None] * draws[:, 1:])
    images = np.tanh(np.matmul(mix, u[:, :, None])[..., 0])
    ids = [f"syn-{i:06d}" for i in range(spec.n_items)]
    return Dataset(ids=ids, rows=rows, images=images)


def _mix_noise(h: np.ndarray, p: np.ndarray, noisy: np.ndarray, g: np.ndarray) -> None:
    """Noise augmentation in place on the (n, m+1, d) batch ``h``: each row
    where ``noisy`` holds becomes l2n((1-p)h + p l2n(g)), ``g`` (n, k, d)
    holding one Gaussian draw per such row."""
    pk = p[noisy][:, None]
    h[:, noisy] = unit_rows((1.0 - pk) * h[:, noisy] + pk * unit_rows(g)[0])[0]


def _fisher_yates(picks: list) -> list:
    """The first n = len(picks) slots of a partial Fisher-Yates shuffle of
    range(size), for any size above max(picks): slot k swaps with slot
    picks[k] >= k. Only the swapped positions are stored, so a batch costs
    O(n), not O(size)."""
    moved = {}
    batch = []
    for k, j in enumerate(picks):
        # swap slots k and j; slot k is final, slot j keeps k's entry
        batch.append(moved.get(j, j))
        moved[j] = moved.get(k, k)
    return batch


def step_batches(ds: Dataset, batch: int, p0: float, pt: float, d_z: int,
                 rng: SeededRng, steps: int):
    """The inputs of ``steps`` training steps, one ``(rows, images, zs)``
    per step: the (batch, m+1, d) rows of the first ``batch`` slots of a
    partial Fisher-Yates shuffle of the dataset, after noise augmentation,
    their (batch, d_img) images, and (batch, d_z) generator noise.

    A step takes W words: one index word per item, reduced modulo
    ``len(ds) - k`` for slot k, then ``2*ceil(d/2)`` per augmented row item
    by item, then ``2*ceil(d_z/2)`` per item for z, as the tests' per-step
    samplers (``sample_indices``, ``augment_rows``, ``rng.gaussian_rows``)
    take them.
    The words of as many whole steps as fit in numkit.CACHE_BLOCK words (at
    least one, never past ``steps``) come from one stream fill; their
    normals from one Box-Muller call, their rows and images from one
    gather, their augmentation from one noise mix. After each yield the
    stream stands where the per-step calls would leave it, start + s * W
    after s steps, so a caller can read where a step's draws start.

    GanConfig checks ``p0``, ``pt`` and ``d_z``; only ``batch`` is checked here.
    """
    if not 1 <= batch <= len(ds):
        raise ValueError(f"batch size {batch} out of range [1, {len(ds)}]")
    p = np.array([p0] + [pt] * ds.m)  # each row's mixing proportion
    noisy = p != 0.0
    n, d = batch, ds.d
    k = int(np.count_nonzero(noisy))
    wd, wz = 2 * ((d + 1) // 2), 2 * ((d_z + 1) // 2)
    aug = n * k * wd
    w = n + aug + n * wz
    per_block = max(1, numkit.CACHE_BLOCK // w)
    bounds = np.arange(len(ds), len(ds) - n, -1).astype(np.uint64)
    for first in range(0, steps, per_block):
        size = min(per_block, steps - first)
        # read ahead on a copy, so that rng advances one step per yield
        words = SeededRng(rng.seed, rng.position)._take(size * w).reshape(size, w)
        picks = ((words[:, :n] % bounds).astype(np.int64) + np.arange(n)).tolist()
        idx = np.array([_fisher_yates(row) for row in picks])
        normals = box_muller(words[:, n:])
        rows = ds.rows[idx]
        if k:
            _mix_noise(rows.reshape(size * n, ds.m + 1, d), p, noisy,
                       normals[:, :aug].reshape(size * n, k, wd)[..., :d])
        images = ds.images[idx]
        zs = normals[:, aug:].reshape(size, n, wz)[..., :d_z]
        for i in range(size):
            rng.position += w
            yield rows[i], images[i], zs[i]
