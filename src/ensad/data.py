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
import stat
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

    @classmethod
    def _checked(cls, ids, rows, images, source_texts, translation_texts):
        """A Dataset of fields in the form ``__post_init__`` gives them, which
        load_jsonl has checked line by line: no item is checked again."""
        ds = cls.__new__(cls)
        ds.ids, ds.rows, ds.images = ids, rows, images
        ds.source_texts, ds.translation_texts = source_texts, translation_texts
        return ds

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
    ``texts`` as a tuple, or None. Dataset checks every item with it, and
    load_jsonl every line (once: its Dataset checks none again), so any
    Dataset saves as a file that loads."""
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


def check_output_path(path: str) -> str:
    """The file ``path`` resolves to, which :func:`atomic_write` replaces;
    raise ValueError naming ``path`` if that file exists and is not a
    regular file (a directory, FIFO, socket or device)."""
    real = os.path.realpath(path)
    if os.path.exists(real) and not os.path.isfile(real):
        kind = stat.filemode(os.stat(real).st_mode)[0]
        kind = {"d": "directory", "p": "FIFO", "s": "socket"}.get(kind, "device")
        raise ValueError(f"output path {path} is a {kind}")
    return real


@contextmanager
def atomic_write(path: str):
    """Yield a binary file that becomes ``path``: a temp file in the
    directory of the file ``path`` resolves to (created if missing) with mode
    0666 minus the umask, like ``open(path, "w")``, renamed over that file
    when the block ends and unlinked if it raises. So a symlinked ``path``
    stays a link, and the file it points to is replaced. A ``path`` that is
    not a regular file is refused by :func:`check_output_path` before
    anything is written."""
    path = check_output_path(path)
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


def _decode(raw: bytes, start: int = 0, end: int | None = None) -> str:
    """``raw[start:end]`` decoded as UTF-8; a byte that is not UTF-8 raises
    DataFormatError naming its line, counted by LF bytes."""
    try:
        return raw[start:end].decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, start + exc.start) + 1
        raise DataFormatError(f"line {line_no}: not valid UTF-8: {exc.reason}") from exc


def _text_lines(raw: bytes):
    """Yield the lines of ``raw`` as a text-mode read of it splits them (UTF-8,
    universal newlines), decoding one LF-ended piece at a time, each with its
    LF: a truncated character then fails as it would in the whole text, and
    no copy of the whole text is made."""
    start = 0
    while start < len(raw):
        end = raw.find(b"\n", start) + 1 or len(raw)
        text = _decode(raw, start, end).removesuffix("\n")
        start = end
        if "\r" in text:  # lone CRs end lines too
            yield from text.removesuffix("\r").replace("\r", "\n").split("\n")
        else:
            yield text


def load_jsonl(path: str) -> Dataset:
    """Read and validate a dataset file; see the module docstring for the
    schema. Embeddings off the sphere by more than 1e-6 are rejected,
    smaller drift is renormalized. The file's bytes are held once, and its
    lines decoded and parsed one at a time into arrays sized from the
    header and the bytes. A byte that is not UTF-8 is named before any
    other fault, as a reader that decodes the whole file first names it."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return _parse_jsonl(raw)
    except DataFormatError:
        _decode(raw)
        raise


def _parse_jsonl(raw: bytes) -> Dataset:
    """The dataset whose file holds the bytes ``raw``; see load_jsonl."""
    lines = enumerate(_text_lines(raw), start=1)
    _, line = next(lines, (1, None))
    if line is None:
        raise DataFormatError("line 1: empty file, expected header")
    try:
        header = json.loads(line)
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

    # Items fit in the lines after the header, and a valid item line holds
    # its k numbers in at least 2k bytes; so the arrays take at most 4 bytes
    # per byte of the file whatever the header claims. When not one item
    # fits, no array of the header's sizes is made: none would be written.
    k = (m + 1) * d + d_img
    breaks = raw.count(b"\n")
    if b"\r" in raw:  # lone CRs end lines too
        breaks += raw.count(b"\r") - raw.count(b"\r\n")
    n_max = min(breaks - raw.endswith((b"\n", b"\r")), len(raw) // (2 * k))
    rows = np.empty((n_max, m + 1, d) if n_max else 0)
    images = np.empty((n_max, d_img) if n_max else 0)
    # Per line: the structural checks and the image range (one vector). The
    # embeddings' numeric checks run once over the array; on a fault, over
    # the vectors read before it, as theirs come first.
    ids, source_texts, translation_texts = [], [], []
    n, item = 0, []  # the items read, and the vectors of the line being read
    try:
        for line_no, line in lines:
            try:
                obj = json.loads(line)
            except JSON_ERRORS as exc:
                raise DataFormatError(f"line {line_no}: bad JSON: {exc}") from exc
            if not isinstance(obj, dict):
                raise DataFormatError(f"line {line_no}: expected a JSON object")
            unknown = set(obj) - {
                "id", "h0", "translations", "image", "source_text", "translation_texts",
            }
            if unknown:
                raise DataFormatError(f"line {line_no}: unknown keys {sorted(unknown)}")
            try:
                item_id = obj["id"]
                h0_raw = obj["h0"]
                trans_raw = obj["translations"]
                img_raw = obj["image"]
            except KeyError as exc:
                raise DataFormatError(f"line {line_no}: missing key {exc}") from exc
            source_text = obj.get("source_text")
            try:
                texts = check_item_texts(item_id, source_text, obj.get("translation_texts"), m)
            except ValueError as exc:
                raise DataFormatError(f"line {line_no}: {exc}") from exc
            if not isinstance(trans_raw, list) or len(trans_raw) != m:
                raise DataFormatError(
                    f"line {line_no}: expected {m} translations, got "
                    f"{len(trans_raw) if isinstance(trans_raw, list) else type(trans_raw).__name__}"
                )
            item.append(_floats(h0_raw, d, line_no, "h0"))
            for j, t in enumerate(trans_raw):
                item.append(_floats(t, d, line_no, f"translation {j}"))
            image = _floats(img_raw, d_img, line_no, "image")
            if not (np.abs(image) <= 1.0).all():  # NaN fails too
                raise DataFormatError(f"line {line_no}: image entries must lie in [-1, 1]")
            rows[n], images[n] = item, image
            ids.append(item_id)
            source_texts.append(source_text)
            translation_texts.append(texts)
            n, item = n + 1, []
    except DataFormatError:
        if n or item:
            _check_embeddings(np.vstack([rows[:n].reshape(-1, d), *item]), m)
        raise
    if not n:
        raise DataFormatError("line 2: file has a header but no items")
    rows, images = rows[:n], images[:n]
    _check_embeddings(rows.reshape(-1, d), m)
    return Dataset._checked(tuple(ids), rows, images, tuple(source_texts),
                            tuple(translation_texts))


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
                 rng: SeededRng, steps: int, reads: slice):
    """The inputs of ``steps`` training steps, one ``(rows, images, zs)``
    per step: the (batch, m+1, d) rows of the first ``batch`` slots of a
    partial Fisher-Yates shuffle of the dataset, their (batch, d_img)
    images, and (batch, d_z) generator noise. The rows in ``reads``, a
    slice of the m+1 (adapter.READ_ROWS of the conditioning), are the
    dataset's after noise augmentation; the others are zero.

    A step takes W words: one index word per item, reduced modulo
    ``len(ds) - k`` for slot k, then ``2*ceil(d/2)`` per augmented row item
    by item, then ``2*ceil(d_z/2)`` per item for z, as the tests' per-step
    samplers (``sample_indices``, ``augment_rows``, ``rng.gaussian_rows``)
    take them; of the noise words, only those of the rows in ``reads`` are
    made, and the others are skipped.
    As many whole steps as span numkit.CACHE_BLOCK words (at least one,
    never past ``steps``) take their words from one stream fill, their
    normals from one Box-Muller call, their rows and images from one
    gather, and their augmentation from one noise mix. After each yield the
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
    w = n + n * k * wd + n * wz
    # the offsets in a step's W words of those it uses: the index words, per
    # item the noise words of each read augmented row, and the z words
    mixed = np.zeros(ds.m + 1, dtype=bool)
    mixed[reads] = True
    mixed &= noisy
    slots = np.arange(n)[:, None] * k + (np.cumsum(noisy) - 1)[mixed]
    noise = (n + wd * slots[..., None] + np.arange(wd)).ravel()
    used = np.concatenate([np.arange(n), noise, np.arange(w - n * wz, w)]).astype(np.uint64)
    per_block = max(1, numkit.CACHE_BLOCK // w)
    bounds = np.arange(len(ds), len(ds) - n, -1).astype(np.uint64)
    for first in range(0, steps, per_block):
        size = min(per_block, steps - first)
        # read ahead without moving rng, so that it advances one step per yield
        words = np.add.outer(np.arange(0, size * w, w, dtype=np.uint64), used)
        words += np.uint64(rng.position)
        words = rng.words_at(words)
        picks = ((words[:, :n] % bounds).astype(np.int64) + np.arange(n)).tolist()
        idx = np.array([_fisher_yates(row) for row in picks])
        normals = box_muller(words[:, n:])
        rows = ds.rows[idx, reads]
        if noise.size:
            _mix_noise(rows.reshape(size * n, -1, d), p[reads], noisy[reads],
                       normals[:, :noise.size].reshape(size * n, -1, wd)[..., :d])
        if rows.shape[2] <= ds.m:  # the rows not read are zero
            rows, read = np.zeros((size, n, ds.m + 1, d)), rows
            rows[:, :, reads] = read
        images = ds.images[idx]
        zs = normals[:, noise.size:].reshape(size, n, wz)[..., :d_z]
        for i in range(size):
            rng.position += w
            yield rows[i], images[i], zs[i]
