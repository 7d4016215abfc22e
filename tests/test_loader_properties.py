"""Property tests of the loaders. JSONL: a saved dataset loads back field
for field, a mutated item line raises only DataFormatError, naming that
line, and the batched loader agrees with a per-line reference loader on
arrays and on every error message. Checkpoints: a corrupted format-2
archive raises only ValueError."""

import io
import json
import math
import os
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
    _read_lines,
    json_uint,
    jsonl_lines,
    load_jsonl,
)
from ensad.gan import load_checkpoint
from ensad.numkit import l2_normalize

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


@SETTINGS
@given(data=st.data())
def test_invalid_utf8_names_its_line(tmp_path, data):
    ds = data.draw(datasets())
    lines = [line.encode("utf-8") for line in jsonl_lines(ds)]
    k = data.draw(st.integers(1, len(lines)))
    pos = data.draw(st.integers(0, len(lines[k - 1])))
    bad = data.draw(st.sampled_from([b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80"]))
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
    nrm = math.sqrt(float(np.dot(arr, arr)))
    dev = abs(nrm - 1.0)
    if dev <= NORM_INVARIANT:
        return arr
    if dev <= NORM_REJECT:
        return arr / nrm
    raise DataFormatError(f"line {line_no}: {what} norm deviates by {dev:.2e}")


def per_line_load_jsonl(path):
    """The JSONL reader as it was before its numeric checks were batched:
    every vector checked, and renormalized, as its line is read."""
    lines = _read_lines(path)
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


def outcome(load, path):
    """What ``load`` makes of ``path``: the exception's type and message, or
    the dataset's fields with its arrays as dtype, shape and bytes."""
    try:
        ds = load(path)
    except Exception as exc:  # noqa: BLE001 - the type is part of the outcome
        return type(exc), str(exc)
    return (ds.ids, ds.source_texts, ds.translation_texts,
            *((a.dtype, a.shape, a.tobytes()) for a in (ds.rows, ds.images)))


def assert_loaders_agree(tmp_path, lines):
    path = write(os.path.join(tmp_path, "ds.jsonl"), "\n".join(lines) + "\n")
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
    assert_loaders_agree(tmp_path, lines)


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
                                      "norm_then_entry"]))
    if kind == "norm_then_entry":
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
    assert_loaders_agree(tmp_path, lines)


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


@SETTINGS
@given(data=st.data())
def test_corrupted_checkpoint_raises_only_value_error(tmp_path, format2_bytes, data):
    raw = format2_bytes
    tensors = members(raw)["tensors"]
    kind = data.draw(st.sampled_from(["truncate", "flip", "dtype", "shape", "header"]))
    if kind == "truncate":
        raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
    elif kind == "flip":
        # anywhere, or in the first 200 bytes of a member (its zip and npy
        # headers) or the last 200 (the zip directory)
        with zipfile.ZipFile(io.BytesIO(raw)) as archive:
            starts = [info.header_offset for info in archive.infolist()] + [len(raw) - 200]
        near = st.sampled_from(starts).flatmap(lambda a: st.integers(a, a + 199))
        pos = data.draw(st.integers(0, len(raw) - 1) | near)
        raw = raw[:pos] + bytes([raw[pos] ^ data.draw(st.integers(1, 255))]) + raw[pos + 1:]
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
    path = os.path.join(tmp_path, "ck.json")
    with open(path, "wb") as fh:
        fh.write(raw)
    if kind == "flip" or kind == "header":
        try:
            load_checkpoint(path)
        except ValueError:
            pass
        return
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    if kind == "truncate":
        assert path in str(exc.value)
