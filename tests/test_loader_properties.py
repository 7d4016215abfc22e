"""Property tests of the loaders. JSONL: a saved dataset loads back field
for field, a mutated item line raises only DataFormatError, naming that
line, and the loader agrees with a reference loader that decodes the whole
file first and checks each vector as its line is read, on arrays and on
every error message, whatever the line endings. Checkpoints: a corrupted
format-2 archive raises only ValueError, and every one-byte change and
every cut of a saved checkpoint is refused naming the path. The reader
accepts no archive, whole or corrupted, that np.load refuses: it reads a
file only when it is, byte for byte, what save_checkpoint writes for the
members it holds, and refuses the archives np.load reads that are not."""

import io
import itertools
import json
import math
import os
import re
import struct
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ensad.data import (
    JSON_ERRORS,
    NORM_INVARIANT,
    NORM_REJECT,
    DataFormatError,
    Dataset,
    jsonl_lines,
    load_jsonl,
)
from ensad.gan import _checkpoint_from_archive, load_checkpoint
from ensad.numkit import json_uint, l2_normalize
from test_gan import checkpoint_bytes

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

unit = st.floats(-1.0, 1.0, allow_nan=False)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 4))
    d, m, d_img = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    vec = st.lists(unit, min_size=d, max_size=d).filter(
        lambda v: np.linalg.norm(v) > 0.1)
    rows = [[l2_normalize(np.array(draw(vec))) for _ in range(m + 1)] for _ in range(n)]
    images = draw(st.lists(st.lists(unit, min_size=d_img, max_size=d_img),
                           min_size=n, max_size=n))
    source_texts = draw(st.lists(st.none() | st.text(max_size=6), min_size=n, max_size=n))
    translation_texts = draw(st.lists(
        st.none() | st.tuples(*[st.text(max_size=6)] * m), min_size=n, max_size=n))
    ids = draw(st.lists(st.text(max_size=6), min_size=n, max_size=n))
    return Dataset(ids, np.array(rows), np.array(images), source_texts, translation_texts)


def write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


@SETTINGS
@given(ds=datasets())
def test_save_then_load_gives_the_same_dataset(tmp_path, ds):
    back = load_jsonl(write(os.path.join(tmp_path, "ds.jsonl"),
                           "\n".join(jsonl_lines(ds)) + "\n"))
    assert back.ids == ds.ids
    assert back.source_texts == ds.source_texts
    assert back.translation_texts == ds.translation_texts
    for got, want in ((back.rows, ds.rows), (back.images, ds.images)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@st.composite
def mutated_item(draw, obj):
    """One item object, or its line, changed in one place."""
    obj = json.loads(json.dumps(obj))
    kind = draw(st.sampled_from(["set_key", "drop_key", "set_entry", "edit_text"]))
    if kind == "set_key":
        key = draw(st.sampled_from(sorted(obj) + ["source_text", "translation_texts"])
                   | st.text(max_size=4))
        obj[key] = draw(json_values)
    elif kind == "drop_key":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif kind == "set_entry":
        key = draw(st.sampled_from(["h0", "translations", "image"]))
        target = obj[key]
        if key == "translations":
            target = target[draw(st.integers(0, len(target) - 1))]
        target[draw(st.integers(0, len(target) - 1))] = draw(json_values)
    line = json.dumps(obj)
    if kind == "edit_text":
        pos = draw(st.integers(0, len(line)))
        cut = draw(st.integers(0, 3))
        insert = draw(st.text(max_size=3).filter(lambda t: "\n" not in t))
        line = line[:pos] + insert + line[pos + cut:]
    return line


@SETTINGS
@given(data=st.data())
def test_mutated_item_line_raises_only_data_format_error(tmp_path, data):
    ds = data.draw(datasets())
    lines = list(jsonl_lines(ds))
    k = data.draw(st.integers(2, len(lines)))  # 1-based line number of an item
    lines[k - 1] = data.draw(mutated_item(json.loads(lines[k - 1])))
    path = write(os.path.join(tmp_path, "mutated.jsonl"), "\n".join(lines) + "\n")
    try:
        load_jsonl(path)
    except DataFormatError as exc:
        assert str(exc).startswith(f"line {k}: "), str(exc)


@SETTINGS
@given(data=st.data())
def test_mutated_header_raises_only_data_format_error(tmp_path, data):
    ds = data.draw(datasets())
    lines = list(jsonl_lines(ds))
    header = json.loads(lines[0])
    header[data.draw(st.sampled_from(sorted(header)))] = data.draw(json_values)
    lines[0] = json.dumps(header)
    path = write(os.path.join(tmp_path, "mutated.jsonl"), "\n".join(lines) + "\n")
    try:
        load_jsonl(path)
    except DataFormatError:
        pass


@SETTINGS
@given(data=st.data())
def test_non_number_entry_raises_data_format_error(tmp_path, data):
    # numeric strings and booleans used to load as numbers
    ds = data.draw(datasets())
    lines = list(jsonl_lines(ds))
    k = data.draw(st.integers(2, len(lines)))
    obj = json.loads(lines[k - 1])
    key = data.draw(st.sampled_from(["h0", "translations", "image"]))
    target = obj[key]
    if key == "translations":
        target = target[data.draw(st.integers(0, len(target) - 1))]
    target[data.draw(st.integers(0, len(target) - 1))] = data.draw(
        st.booleans() | st.none() | st.text(max_size=4) | unit.map(repr) | st.lists(unit))
    lines[k - 1] = json.dumps(obj)
    path = write(os.path.join(tmp_path, "mutated.jsonl"), "\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match=f"^line {k}: "):
        load_jsonl(path)


# Bytes that are not UTF-8: a stray byte, a lone continuation byte, a lead
# byte followed by ASCII, an encoded surrogate, and a lead byte cut short
# (by the line ending, or at the end of the file)
BAD_UTF8 = [b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xe2\x82"]


@SETTINGS
@given(data=st.data())
def test_invalid_utf8_names_its_line(tmp_path, data):
    ds = data.draw(datasets())
    lines = [line.encode("utf-8") for line in jsonl_lines(ds)]
    k = data.draw(st.integers(1, len(lines)))
    pos = data.draw(st.integers(0, len(lines[k - 1])))
    bad = data.draw(st.sampled_from(BAD_UTF8))
    lines[k - 1] = lines[k - 1][:pos] + bad + lines[k - 1][pos:]
    path = os.path.join(tmp_path, "mutated.jsonl")
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")
    with pytest.raises(DataFormatError, match=f"^line {k}: not valid UTF-8: "):
        load_jsonl(path)


def _per_line_floats(value, line_no, what):
    if isinstance(value, list) and {int, float}.issuperset(map(type, value)):
        try:
            return np.asarray(value, dtype=np.float64)
        except OverflowError as exc:
            raise DataFormatError(f"line {line_no}: {what} has an entry out of range") from exc
    raise DataFormatError(f"line {line_no}: {what} must be a list of numbers")


def _per_line_embedding(vec, d, line_no, what):
    arr = _per_line_floats(vec, line_no, what)
    if arr.shape[0] != d:
        raise DataFormatError(f"line {line_no}: {what} has wrong dimension")
    peak = float(max(arr.max(), -arr.min()))
    if not math.isfinite(peak):
        raise DataFormatError(f"line {line_no}: {what} has non-finite entries")
    if peak > 1.0 + NORM_REJECT:
        raise DataFormatError(
            f"line {line_no}: {what} norm deviates by at least {peak - 1.0:.2e}")
    nrm = math.sqrt(float(np.sum(arr * arr)))  # numkit.unit_rows' pairwise norm
    dev = abs(nrm - 1.0)
    if dev <= NORM_INVARIANT:
        return arr
    if dev <= NORM_REJECT:
        return arr / nrm
    raise DataFormatError(f"line {line_no}: {what} norm deviates by {dev:.2e}")


def read_lines(path):
    """The file's lines, decoded as UTF-8 with universal newlines like a
    text-mode read, from one decode of the whole file; a byte that is not
    UTF-8 raises DataFormatError naming its line, counted by LF bytes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"line {line_no}: not valid UTF-8: {exc.reason}") from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def per_line_load_jsonl(path):
    """The JSONL reader as it was before its numeric checks were batched and
    its lines decoded one at a time: the whole file decoded first, then
    every vector checked, and renormalized, as its line is read."""
    lines = read_lines(path)
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise DataFormatError("line 1: empty file, expected header")
    try:
        header = json.loads(lines[0])
    except JSON_ERRORS as exc:
        raise DataFormatError(f"line 1: bad JSON header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != "ensad-jsonl":
        raise DataFormatError("line 1: expected format 'ensad-jsonl'")
    if type(header.get("version")) is not int or header["version"] != 1:
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
        if not isinstance(trans_raw, list) or len(trans_raw) != m:
            raise DataFormatError(
                f"line {offset}: expected {m} translations, got "
                f"{len(trans_raw) if isinstance(trans_raw, list) else type(trans_raw).__name__}"
            )
        item = [_per_line_embedding(h0_raw, d, offset, "h0")]
        for j, t in enumerate(trans_raw):
            item.append(_per_line_embedding(t, d, offset, f"translation {j}"))
        image = _per_line_floats(img_raw, offset, "image")
        if image.shape[0] != d_img:
            raise DataFormatError(f"line {offset}: image has wrong dimension")
        if not np.all(np.isfinite(image)) or np.any(np.abs(image) > 1.0):
            raise DataFormatError(f"line {offset}: image entries must lie in [-1, 1]")
        ids.append(item_id)
        rows.append(item)
        images.append(image)
        source_texts.append(source_text)
        translation_texts.append(texts)
    return Dataset(ids, np.array(rows), np.array(images), source_texts, translation_texts)


def outcome(load, path):
    """What ``load`` makes of ``path``: the exception's type and message, or
    the dataset's fields with its arrays as dtype, shape and bytes."""
    try:
        ds = load(path)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)
    return (ds.ids, ds.source_texts, ds.translation_texts,
            *((a.dtype, a.shape, a.tobytes()) for a in (ds.rows, ds.images)))


def assert_loaders_agree(tmp_path, lines, data):
    """Both loaders make the same of ``lines`` (each a str or UTF-8 bytes)
    joined by LF, CRLF or CR, with or without a last line ending."""
    newline = data.draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))
    raw = newline.join(line if isinstance(line, bytes) else line.encode("utf-8")
                       for line in lines)
    path = os.path.join(tmp_path, "ds.jsonl")
    with open(path, "wb") as fh:
        fh.write(raw + newline * data.draw(st.booleans()))
    assert outcome(load_jsonl, path) == outcome(per_line_load_jsonl, path)


@st.composite
def on_sphere_variant(draw, vec):
    """``vec`` as stored, or in another form a valid file may hold: a signed
    one-hot vector of JSON integers, or the vector scaled off the sphere by
    a factor inside the band that loading renormalizes."""
    kind = draw(st.sampled_from(["keep", "integers", "band"]))
    if kind == "integers":
        k = draw(st.integers(0, len(vec) - 1))
        return [draw(st.sampled_from([1, -1])) if i == k else 0 for i in range(len(vec))]
    if kind == "band":
        eps = draw(st.floats(2 * NORM_INVARIANT, 0.9 * NORM_REJECT)
                   | st.floats(-0.9 * NORM_REJECT, -2 * NORM_INVARIANT))
        return [x * (1.0 + eps) for x in vec]
    return vec


@SETTINGS
@given(data=st.data())
def test_valid_file_loads_as_the_per_line_reader_loads_it(tmp_path, data):
    ds = data.draw(datasets())
    lines = list(jsonl_lines(ds))
    for k in range(1, len(lines)):
        obj = json.loads(lines[k])
        obj["h0"] = data.draw(on_sphere_variant(obj["h0"]))
        obj["translations"] = [data.draw(on_sphere_variant(t)) for t in obj["translations"]]
        if data.draw(st.booleans()):
            obj["image"] = data.draw(st.lists(st.sampled_from([-1, 0, 1]),
                                              min_size=ds.d_img, max_size=ds.d_img))
        lines[k] = json.dumps(obj)
    path = write(os.path.join(tmp_path, "ds.jsonl"), "\n".join(lines) + "\n")
    assert not isinstance(outcome(load_jsonl, path)[0], type)  # it loads
    assert_loaders_agree(tmp_path, lines, data)


# Entries and scalings that fail the numeric checks, or pass them
numeric_values = st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e200, 1.5,
                                  1.0 + 2e-6, 10 ** 400, 2 ** 70]) | st.floats()


@st.composite
def numeric_fault(draw, obj):
    """``obj`` with one entry of h0, a translation or the image set to a
    number, or one of those vectors scaled by a factor near 1."""
    key = draw(st.sampled_from(["h0", "translations", "image"]))
    target = obj[key]
    if key == "translations":
        target = target[draw(st.integers(0, len(target) - 1))]
    if draw(st.booleans()):
        target[draw(st.integers(0, len(target) - 1))] = draw(numeric_values)
    else:
        scale = 1.0 + draw(st.sampled_from([1e-7, 5e-7, 2e-6, 1e-3, -2e-6, -1e-3]))
        target[:] = [x * scale for x in target]
    return obj


@SETTINGS
@given(data=st.data())
def test_mutated_file_fails_as_the_per_line_reader_fails(tmp_path, data):
    ds = data.draw(datasets())
    lines = list(jsonl_lines(ds))
    kind = data.draw(st.sampled_from(["one_line", "two_lines", "numeric_then_type",
                                      "norm_then_entry", "bad_byte_and_fault"]))
    if kind == "bad_byte_and_fault":
        # a byte that is not UTF-8 on one line and, before or after it, bad
        # JSON, a mutated item or a numeric fault on another: the byte is
        # named first wherever it is
        bad, k = data.draw(st.lists(st.integers(1, len(lines)), min_size=2, max_size=2,
                                    unique=True))
        fault = data.draw(st.sampled_from(["json", "item", "numeric"]) if k > 1 else
                          st.just("json"))
        if fault == "json":
            lines[k - 1] = lines[k - 1][:data.draw(st.integers(0, len(lines[k - 1]) - 1))]
        elif fault == "item":
            lines[k - 1] = data.draw(mutated_item(json.loads(lines[k - 1])))
        else:
            lines[k - 1] = json.dumps(data.draw(numeric_fault(json.loads(lines[k - 1]))))
        line = lines[bad - 1].encode("utf-8")
        pos = data.draw(st.integers(0, len(line)))
        lines[bad - 1] = line[:pos] + data.draw(st.sampled_from(BAD_UTF8)) + line[pos:]
    elif kind == "norm_then_entry":
        # a vector off the sphere by 1e-3 and, later in the file, a bad
        # entry: the first is reported, though only its norm shows it
        objs = [json.loads(line) for line in lines[1:]]
        spots = [(i, key, j) for i in range(len(objs)) for key, j in
                 [("h0", None)] + [("translations", j) for j in range(ds.m)]]
        first, second = sorted(data.draw(st.lists(st.sampled_from(spots), min_size=2,
                                                  max_size=2, unique=True)),
                               key=spots.index)
        for (i, key, j), fault in ((first, "norm"), (second, "entry")):
            vec = objs[i][key] if j is None else objs[i][key][j]
            if fault == "norm":
                vec[:] = [x * (1.0 - 1e-3) for x in vec]
            else:
                vec[data.draw(st.integers(0, ds.d - 1))] = data.draw(
                    st.sampled_from([math.nan, math.inf, 1e200, 1.5]))
        lines[1:] = [json.dumps(obj) for obj in objs]
    elif kind == "numeric_then_type":
        # a numeric fault in h0 and a type fault in a later translation of
        # the same line: the numeric one comes first in the line
        k = data.draw(st.integers(2, len(lines)))
        obj = json.loads(lines[k - 1])
        obj["h0"][data.draw(st.integers(0, ds.d - 1))] = data.draw(numeric_values)
        t = obj["translations"][data.draw(st.integers(0, ds.m - 1))]
        t[data.draw(st.integers(0, ds.d - 1))] = data.draw(
            st.booleans() | st.none() | st.text(max_size=3))
        lines[k - 1] = json.dumps(obj)
    else:
        count = 1 if kind == "one_line" else min(2, len(lines) - 1)
        for k in data.draw(st.lists(st.integers(2, len(lines)), min_size=count,
                                    max_size=count, unique=True)):
            obj = json.loads(lines[k - 1])
            if data.draw(st.booleans()):
                lines[k - 1] = json.dumps(data.draw(numeric_fault(obj)))
            else:
                lines[k - 1] = data.draw(mutated_item(obj))
    assert_loaders_agree(tmp_path, lines, data)


GOLDEN_CKPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "ckpt_step6.npz")


@pytest.fixture(scope="module")
def format2_bytes():
    with open(GOLDEN_CKPT, "rb") as fh:
        return fh.read()


def members(raw) -> dict:
    with np.load(io.BytesIO(raw)) as archive:
        return {name: archive[name] for name in archive.files}


def rewrite(raw, **changes):
    """The archive with the members in ``changes`` replaced."""
    buf = io.BytesIO()
    np.savez(buf, **{**members(raw), **changes})
    return buf.getvalue()


def corrupt(data, raw, kind):
    """``raw`` cut short ("truncate") or with one byte flipped ("flip"):
    anywhere, or in the first 200 bytes of a member (its zip and npy
    headers) or the last 200 (the zip directory)."""
    if kind == "truncate":
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        starts = [info.header_offset for info in archive.infolist()] + [len(raw) - 200]
    near = st.sampled_from(starts).flatmap(
        lambda a: st.integers(max(a, 0), min(a + 199, len(raw) - 1)))
    pos = data.draw(st.integers(0, len(raw) - 1) | near)
    return raw[:pos] + bytes([raw[pos] ^ data.draw(st.integers(1, 255))]) + raw[pos + 1:]


def load_bytes(tmp_path, raw):
    """load_checkpoint of a file holding ``raw``."""
    path = os.path.join(tmp_path, "ck.npz")
    with open(path, "wb") as fh:
        fh.write(raw)
    return load_checkpoint(path)


@SETTINGS
@given(data=st.data())
def test_corrupted_checkpoint_raises_only_value_error(tmp_path, format2_bytes, data):
    raw = format2_bytes
    tensors = members(raw)["tensors"]
    kind = data.draw(st.sampled_from(["truncate", "flip", "dtype", "shape", "header"]))
    if kind in ("truncate", "flip"):
        raw = corrupt(data, raw, kind)
    elif kind == "dtype":
        dtype = data.draw(st.sampled_from(["<f4", ">f8", "<i8", "<c16", "|b1", "|O"]))
        raw = rewrite(raw, tensors=tensors.astype(dtype))
    elif kind == "shape":
        shape = data.draw(st.sampled_from([(tensors.size, 1), (1, tensors.size)])
                          | st.integers(0, 2 * tensors.size).map(lambda n: (n,))
                          .filter(lambda s: s != tensors.shape))
        raw = rewrite(raw, tensors=np.resize(tensors, shape))
    else:
        header = json.loads(members(raw)["header"].tobytes())
        header[data.draw(st.sampled_from(sorted(header)))] = data.draw(json_values)
        raw = rewrite(raw, header=np.frombuffer(json.dumps(header).encode(), np.uint8))
    path = os.path.join(tmp_path, "ck.npz")
    if kind == "header":
        try:
            load_bytes(tmp_path, raw)
        except ValueError:
            pass
        return
    # every one-byte change and every cut of the file is refused by path
    with pytest.raises(ValueError) as exc:
        load_bytes(tmp_path, raw)
    if kind in ("truncate", "flip"):
        assert path in str(exc.value)


def test_no_flipped_bit_and_no_cut_of_a_checkpoint_loads(format2_bytes):
    # bit 0 and bit 7 of each byte of the golden archive, and every length
    # short of it: each file is refused as an archive, before any field
    raw = format2_bytes
    flips = (raw[:at] + bytes([raw[at] ^ bit]) + raw[at + 1:]
             for at in range(len(raw)) for bit in (1, 128))
    for bad in itertools.chain(flips, (raw[:n] for n in range(len(raw)))):
        with pytest.raises(ValueError, match="^checkpoint p: not a readable archive: bytes "):
            _checkpoint_from_archive(bad, "p")


# dtypes np.savez writes as they are, and one it pickles
NPZ_DTYPES = ["<f8", ">f8", "<f2", ">i2", "<u8", "|i1", "|b1", ">c8", "<U2", "|S3",
              "<i4,>f8", "|O"]


@st.composite
def npz_arrays(draw):
    """Arrays of any shape, 0-d and empty included, C or Fortran order,
    with arbitrary bytes; an object array holds ints."""
    dtype = np.dtype(draw(st.sampled_from(NPZ_DTYPES)))
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    if dtype.hasobject:
        return np.arange(math.prod(shape)).astype(object).reshape(shape)
    size = math.prod(shape) * dtype.itemsize
    arr = np.frombuffer(draw(st.binary(min_size=size, max_size=size)), dtype).reshape(shape)
    return np.asfortranarray(arr) if arr.ndim > 1 and draw(st.booleans()) else arr.copy()


# np.savez's own keywords cannot name a member, "\0" ends a zip member
# name, and a surrogate has no UTF-8 bytes
member_names = st.text(st.characters(exclude_categories=["Cs"], exclude_characters="\0"),
                       max_size=6).filter(lambda name: name not in ("file", "allow_pickle"))


def np_load_arrays(raw, names):
    """The arrays np.load reads from ``raw``, in the order of the sorted
    member names ``names``, or None where it refuses the archive or a
    member is not an array."""
    try:
        with np.load(io.BytesIO(raw), allow_pickle=False) as archive:
            if sorted(archive.files) != names:
                return None
            arrays = [archive[name] for name in names]
    except Exception:  # whatever np.load raises is a refusal
        return None
    return arrays if all(isinstance(arr, np.ndarray) for arr in arrays) else None


@SETTINGS
@given(data=st.data())
def test_npz_reader_reads_what_np_load_reads(tmp_path, format2_bytes, data):
    golden = data.draw(st.booleans())
    if golden:
        raw, names = format2_bytes, ["header", "tensors"]
    else:
        arrays = data.draw(st.dictionaries(member_names, npz_arrays(), min_size=1, max_size=3))
        buf = io.BytesIO()
        np.savez(buf, **arrays)
        raw, names = buf.getvalue(), sorted(arrays)
    kind = data.draw(st.sampled_from(["whole", "truncate", "flip"]))
    if kind != "whole":
        raw = corrupt(data, raw, kind)
    want = np_load_arrays(raw, names)
    try:
        got = load_bytes(tmp_path, raw)
    except ValueError:
        got = None
    # of these archives the reader reads the golden checkpoint alone, and
    # what it reads, save_checkpoint writes back byte for byte
    assert (got is not None) == (golden and kind == "whole")
    if got is not None:
        assert want is not None
        assert checkpoint_bytes(got) == raw


def rezip(raw, **replace):
    """The zip archive ``raw`` with the bytes of the members named in
    ``replace`` replaced, each member written as np.savez writes it:
    stored, under a zip64 local header, dated 1980."""
    out = io.BytesIO()
    with zipfile.ZipFile(io.BytesIO(raw)) as src, zipfile.ZipFile(out, "w") as dst:
        for info in src.infolist():
            with dst.open(info.filename, "w", force_zip64=True) as fh:
                fh.write(replace.get(info.filename[:-4], src.read(info)))
    return out.getvalue()


def npy_bytes(arr, version=None):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr, version=version)
    return buf.getvalue()


def savez_compressed(raw):
    buf = io.BytesIO()
    np.savez_compressed(buf, **members(raw))
    return buf.getvalue()


def stored_size_past_data(raw):
    """The last member's compressed size in the zip directory one past its
    uncompressed size; zipfile reads only the uncompressed size."""
    at = raw.rindex(b"PK\x01\x02") + 20
    raw = bytearray(raw)
    struct.pack_into("<I", raw, at, struct.unpack_from("<I", raw, at + 4)[0] + 1)
    return bytes(raw)


def npy_edit(arr, old: bytes, new: bytes) -> bytes:
    """The npy 1.0 bytes of ``arr`` with ``old`` in the header replaced."""
    raw = npy_bytes(arr, (1, 0))
    assert old in raw[:raw.index(b"\n") + 1]
    return raw.replace(old, new, 1)


def npy_length(arr, delta: int) -> bytes:
    """The npy 1.0 bytes of ``arr``, the header length field off by ``delta``."""
    raw = bytearray(npy_bytes(arr, (1, 0)))
    struct.pack_into("<H", raw, 8, struct.unpack_from("<H", raw, 8)[0] + delta)
    return bytes(raw)


def npy_long_shape() -> bytes:
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        buf, {"descr": "|u1", "fortran_order": False, "shape": (10 ** 18,)})
    return buf.getvalue() + b"\0" * 8


VEC = np.arange(5.0)
# The reader's refusal of a tensors member whose zip or npy header is not
# the one save_checkpoint writes for its bytes, anywhere and in the golden
# archive; and of the golden archive's header member
NOT_TENSORS = "(tensors.npy headers) differ from format 2's layout"
TENSORS_NPY = "bytes 767-956 " + NOT_TENSORS
HEADER_NPY = "bytes 0-188 (header.npy headers) differ from format 2's layout"


# The archives np.load reads and load_checkpoint refuses, each with the
# reader's message
NP_LOAD_ONLY = {
    "savez_compressed": (savez_compressed, HEADER_NPY),
    "stored_size_past_data": (stored_size_past_data,
                              "bytes 13364-13499 (zip directory) differ from format 2's layout"),
    "npy_version_3": (lambda raw: rezip(raw, tensors=npy_bytes(members(raw)["tensors"], (3, 0))),
                      TENSORS_NPY),
    "trailing_byte": (lambda raw: rezip(raw, tensors=npy_bytes(members(raw)["tensors"]) + b"\0"),
                      TENSORS_NPY),
    # np.load reads the header and then data from its last byte on
    "npy_length_short": (lambda raw: rezip(raw, tensors=npy_length(VEC, -1)),
                         TENSORS_NPY),
    "zero_itemsize": (lambda raw: rezip(raw, tensors=npy_bytes(np.zeros(3, "V0"))),
                      TENSORS_NPY),
    # np.load gives the bytes of a member that is not an npy file
    "not_npy": (lambda raw: rezip(raw, tensors=b"tensors"), TENSORS_NPY),
    # zipfile finds the end record short of the file's end
    "byte_after_the_end_record": (lambda raw: raw + b"\0",
                                  "bytes 13364-13500 (zip directory) differ from format 2's layout"),
}


@pytest.mark.parametrize("case", sorted(NP_LOAD_ONLY))
def test_npz_reader_refuses_what_np_load_reads(tmp_path, format2_bytes, case):
    mutate, message = NP_LOAD_ONLY[case]
    raw = mutate(format2_bytes)
    with np.load(io.BytesIO(raw), allow_pickle=False) as archive:
        assert sorted(archive.files) == ["header", "tensors"]
        # every member reads: as an array, or as the bytes of one not in npy format
        assert all(isinstance(archive[name], (np.ndarray, bytes)) for name in archive.files)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_bytes(tmp_path, raw)


@pytest.mark.parametrize("length", [0, 1, 9, 10, 99, 100, 1000])
@pytest.mark.parametrize("dtype", ["<f8", ">f8", "|u1", ">i2", "|b1", "<c16", "<f2"])
def test_npz_reader_reads_vectors_without_numpys_header_parser(tmp_path, format2_bytes,
                                                               dtype, length):
    # the golden archive with np.savez's tensors member for a vector of
    # `length` values: the reader lays out that member's npy header itself,
    # and reads a float64 vector of any length, as np.load reads it, up to
    # the field check; any other dtype is refused as an archive
    dtype = np.dtype(dtype)
    vec = np.frombuffer(np.random.default_rng(length).bytes(length * dtype.itemsize), dtype)
    raw = rewrite(format2_bytes, tensors=vec)
    assert np_load_arrays(raw, ["header", "tensors"])[1].shape == (length,)
    message = (f"checkpoint field 'tensors': expected 1551 float64 values, got float64 ({length},)"
               if dtype == np.float64 else NOT_TENSORS)
    with pytest.raises(ValueError, match=re.escape(message)):
        load_bytes(tmp_path, raw)


# npy members whose header differs in one place from the one numpy writes
# for a vector of a bool or numeric dtype, each with whether np.load reads
# it; a length field one byte short is in NP_LOAD_ONLY
NEAR_MISSES = {
    "leading_zero": (lambda: npy_edit(VEC, b"(5,), } ", b"(05,), }"), False),
    "fortran_order": (lambda: npy_edit(VEC, b"False, 'shape': (5,), }", b"True, 'shape': (5,), } "),
                      True),
    "matrix": (lambda: npy_bytes(np.arange(6.0).reshape(2, 3)), True),
    "scalar": (lambda: npy_bytes(np.array(1.5)), True),
    "npy_version_2": (lambda: npy_bytes(VEC, (2, 0)), True),
    "length_long": (lambda: npy_length(VEC, 1), False),
    "tab_in_padding": (lambda: npy_edit(VEC, b" \n", b"\t\n"), True),
    "unknown_descr": (lambda: npy_edit(VEC, b"'<f8'", b"'<f3'"), False),
    "timedelta": (lambda: npy_bytes(np.arange(3).astype("<m8")), True),
    "unicode": (lambda: npy_bytes(np.array(["ab", "c"], "<U2")), True),
    "bytes": (lambda: npy_bytes(np.array([b"abc", b"d"], "|S3")), True),
    "nineteen_digit_length": (npy_long_shape, False),
}


@pytest.mark.parametrize("case", sorted(NEAR_MISSES))
def test_npz_reader_reads_near_misses_as_np_load(tmp_path, format2_bytes, case):
    # rezip writes the header member as save_checkpoint does, so what the
    # reader refuses is the tensors member
    assert rezip(format2_bytes) == format2_bytes
    member, np_load_reads = NEAR_MISSES[case]
    raw = rezip(format2_bytes, tensors=member())
    assert (np_load_arrays(raw, ["header", "tensors"]) is not None) == np_load_reads
    with pytest.raises(ValueError, match=re.escape(NOT_TENSORS)):
        load_bytes(tmp_path, raw)


def test_npz_reader_refuses_local_headers_found_from_the_end(tmp_path, format2_bytes):
    # the directory's offset moved one file length on: every member's offset
    # is negative, and counted from the end it lands on the member's local
    # header; a seek refuses it, so np.load does
    raw = bytearray(format2_bytes)
    at = raw.rindex(b"PK\x05\x06") + 16
    struct.pack_into("<I", raw, at, struct.unpack_from("<I", raw, at)[0] + len(raw))
    raw = bytes(raw)
    assert np_load_arrays(raw, ["header", "tensors"]) is None
    with zipfile.ZipFile(io.BytesIO(raw)) as archive:
        assert all(info.header_offset < 0 for info in archive.infolist())
    with pytest.raises(ValueError, match=re.escape("(zip directory) differ from format 2's")):
        load_bytes(tmp_path, raw)
