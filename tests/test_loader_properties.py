"""Property tests of the JSONL loader: a saved dataset loads back field for
field, and a mutated item line raises only DataFormatError, naming that
line."""

import json
import os

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ensad.data import DataFormatError, Dataset, dumps_jsonl, load_jsonl
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
