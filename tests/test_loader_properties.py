"""Property tests of the loaders. JSONL: a saved dataset loads back field
for field, and a mutated item line raises only DataFormatError, naming that
line. Checkpoints: a corrupted format-2 archive raises only ValueError."""

import io
import json
import os
import zipfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ensad.data import DataFormatError, Dataset, dumps_jsonl, load_jsonl
from ensad.gan import load_checkpoint, save_checkpoint
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
    back = load_jsonl(write(os.path.join(tmp_path, "ds.jsonl"), dumps_jsonl(ds)))
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
    lines = dumps_jsonl(ds).split("\n")[:-1]
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
    lines = dumps_jsonl(ds).split("\n")[:-1]
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
    lines = dumps_jsonl(ds).split("\n")[:-1]
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
    lines = [line.encode("utf-8") for line in dumps_jsonl(ds).split("\n")[:-1]]
    k = data.draw(st.integers(1, len(lines)))
    pos = data.draw(st.integers(0, len(lines[k - 1])))
    bad = data.draw(st.sampled_from([b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80"]))
    lines[k - 1] = lines[k - 1][:pos] + bad + lines[k - 1][pos:]
    path = os.path.join(tmp_path, "mutated.jsonl")
    with open(path, "wb") as fh:
        fh.write(b"\n".join(lines) + b"\n")
    with pytest.raises(DataFormatError, match=f"^line {k}: not valid UTF-8"):
        load_jsonl(path)


GOLDEN_CKPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "ckpt_step6.json")


@pytest.fixture(scope="module")
def format2_bytes(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("ckpt") / "ck.json")
    save_checkpoint(load_checkpoint(GOLDEN_CKPT), path)
    with open(path, "rb") as fh:
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
    if kind == "truncate" and len(raw) >= 4:
        assert path in str(exc.value)
