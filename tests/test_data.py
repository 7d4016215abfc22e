import json
import os
import re
import stat
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ensad.data import (
    DataFormatError,
    Dataset,
    SyntheticSpec,
    atomic_write,
    generate_synthetic,
    jsonl_lines,
    load_jsonl,
    save_jsonl,
)
from ensad.numkit import SeededRng, derive_seed, l2_normalize

from test_batching import augment_rows, sample_indices


def small_spec(**kw):
    base = dict(n_items=12, d=8, m=3, d_img=6, sigma_source=0.2,
                sigma_trans=0.1, seed=5)
    base.update(kw)
    return SyntheticSpec(**base)


def same_dataset(a, b):
    """Field-for-field equality; arrays must match dtype, shape and bits."""
    return (a.ids == b.ids and a.source_texts == b.source_texts
            and a.translation_texts == b.translation_texts
            and all(x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
                    for x, y in ((a.rows, b.rows), (a.images, b.images))))


def test_synthetic_shapes_and_norms():
    ds = generate_synthetic(small_spec())
    assert (ds.d, ds.m, ds.d_img) == (8, 3, 6)
    assert len(ds) == 12
    assert ds.rows.shape == (12, 4, 8)
    assert ds.images.shape == (12, 6)
    assert np.abs(np.linalg.norm(ds.rows, axis=2) - 1.0).max() < 1e-12
    assert np.all(np.abs(ds.images) < 1.0)  # tanh output


def test_synthetic_determinism():
    a = generate_synthetic(small_spec())
    b = generate_synthetic(small_spec())
    assert same_dataset(a, b)


def per_vector_synthetic(spec):
    """The generator as it drew its item stream before batching: one
    gaussian(d) call per vector."""
    rng_items = SeededRng(derive_seed(spec.seed, 1))
    rng_mix = SeededRng(derive_seed(spec.seed, 2))
    mix = rng_mix.gaussian(spec.d_img * spec.d).reshape(spec.d_img, spec.d)
    rows, images = [], []
    for i in range(spec.n_items):
        u = l2_normalize(rng_items.gaussian(spec.d))
        h0 = u.copy() if spec.sigma_source == 0.0 else l2_normalize(
            u + spec.sigma_source * rng_items.gaussian(spec.d))
        translations = [
            u.copy() if spec.sigma_trans == 0.0 else l2_normalize(
                u + spec.sigma_trans * rng_items.gaussian(spec.d))
            for _ in range(spec.m)]
        rows.append(np.stack([h0, *translations]))
        images.append(np.tanh(mix @ u))
    ids = [f"syn-{i:06d}" for i in range(spec.n_items)]
    return Dataset(ids=ids, rows=np.stack(rows), images=np.stack(images))


@pytest.mark.parametrize("sigma_source, sigma_trans",
                         [(0.0, 0.0), (0.3, 0.0), (0.0, 0.2), (0.4, 0.2)])
def test_synthetic_matches_per_vector_draws(sigma_source, sigma_trans):
    for d in (7, 8):
        spec = small_spec(d=d, sigma_source=sigma_source,
                          sigma_trans=sigma_trans, seed=11)
        assert list(jsonl_lines(generate_synthetic(spec))) == list(jsonl_lines(
            per_vector_synthetic(spec)))


# The benchmark's desk corpora (sigma_source 0.4 and 0.0), d = 1, and the
# paper's shape with a few items
@pytest.mark.parametrize("fields", [
    dict(n_items=2000, d=16, m=4, d_img=12, sigma_source=0.4, sigma_trans=0.2),
    dict(n_items=2000, d=16, m=4, d_img=12, sigma_source=0.0, sigma_trans=0.2),
    dict(n_items=50, d=1, m=3, d_img=2, sigma_source=0.4, sigma_trans=0.2),
    dict(n_items=8, d=512, m=12, d_img=48, sigma_source=0.4, sigma_trans=0.2),
], ids=["desk_finetune", "desk_pretrain", "d1", "paper_shape"])
def test_synthetic_matches_per_vector_draws_at_scale(fields):
    for seed in (0, 7):
        spec = SyntheticSpec(**fields, seed=seed)
        got, want = generate_synthetic(spec), per_vector_synthetic(spec)
        assert got.rows.tobytes() == want.rows.tobytes()
        assert got.images.tobytes() == want.images.tobytes()


def test_synthetic_seed_sensitivity():
    a = generate_synthetic(small_spec(seed=5))
    b = generate_synthetic(small_spec(seed=6))
    assert not np.array_equal(a.rows[0, 0], b.rows[0, 0])


def test_synthetic_zero_noise_collapse():
    # sigma 0 for both: source equals every translation exactly
    ds = generate_synthetic(small_spec(sigma_source=0.0, sigma_trans=0.0))
    for item in ds.rows:
        for t in item[1:]:
            assert np.array_equal(t, item[0])


def test_synthetic_first_item_latent_shared_across_sigmas():
    # noise draws interleave with latent draws in the item stream, so only
    # the FIRST item's latent (drawn before any noise) is shared between
    # corpora with different sigma values; its image, a pure function of
    # the latent, matches bitwise
    clean = generate_synthetic(small_spec(sigma_source=0.0, sigma_trans=0.0))
    noisy = generate_synthetic(small_spec(sigma_source=0.4, sigma_trans=0.2))
    assert np.array_equal(clean.images[0], noisy.images[0])
    assert not np.array_equal(clean.rows[0, 0], noisy.rows[0, 0])
    # later items see shifted streams
    assert not np.array_equal(clean.images[1], noisy.images[1])


def test_synthetic_mean_cosine_band():
    # Monte-Carlo derived band for d=16, sigma 0.1 on both source and
    # translations: measured 0.859..0.877 over seeds. (A naive expectation
    # of >0.9 holds only against the clean latent, not between two noised
    # embeddings.)
    ds = generate_synthetic(SyntheticSpec(
        n_items=400, d=16, m=4, d_img=8,
        sigma_source=0.1, sigma_trans=0.1, seed=3))
    cos = []
    for item in ds.rows:
        for t in item[1:]:
            cos.append(float(item[0] @ t))
    mean = np.mean(cos)
    assert mean > 0.84
    assert mean < 0.95


def test_synthetic_ids():
    ds = generate_synthetic(small_spec())
    assert ds.ids[0] == "syn-000000"
    assert ds.ids[11] == "syn-000011"


def test_jsonl_roundtrip(tmp_path):
    ds = generate_synthetic(small_spec())
    path = str(tmp_path / "corpus.jsonl")
    save_jsonl(ds, path)
    back = load_jsonl(path)
    assert (back.d, back.m, back.d_img) == (ds.d, ds.m, ds.d_img)
    assert len(back) == len(ds)
    assert back.ids == ds.ids
    assert np.allclose(back.rows, ds.rows, atol=1e-12)
    assert np.allclose(back.images, ds.images, atol=1e-12)


def test_jsonl_roundtrip_texts(tmp_path):
    ds = Dataset(ids=["x", "y"], rows=[[[1.0, 0.0], [0.0, 1.0]]] * 2,
                 images=np.zeros((2, 2)), source_texts=("hello", None),
                 translation_texts=(None, ("bonjour",)))
    path = str(tmp_path / "t.jsonl")
    save_jsonl(ds, path)
    back = load_jsonl(path)
    assert back.source_texts == ("hello", None)
    assert back.translation_texts == (None, ("bonjour",))
    without = load_jsonl(write_lines(tmp_path, [HEADER, GOOD_ITEM]))
    assert without.source_texts == without.translation_texts == (None,)


def test_save_is_byte_stable(tmp_path):
    ds = generate_synthetic(small_spec())
    p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    save_jsonl(ds, p1)
    save_jsonl(ds, p2)
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def write_lines(tmp_path, lines):
    path = str(tmp_path / "bad.jsonl")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


HEADER = json.dumps({"format": "ensad-jsonl", "version": 1,
                     "d": 2, "m": 1, "d_img": 2})
GOOD_ITEM = json.dumps({"id": "a", "h0": [1.0, 0.0],
                        "translations": [[0.0, 1.0]], "image": [0.0, 0.0]})
GOLDEN = Path(__file__).resolve().parent / "golden"
# Nesting deeper than the JSON parser's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000
# An integer of more digits than int() converts from text: json.loads raises
# a plain ValueError, not a JSONDecodeError
LONG_INT = "9" * 5000


def test_load_rejects_bad_header(tmp_path):
    for line in ("{not json", DEEP_JSON):
        path = write_lines(tmp_path, [line, GOOD_ITEM])
        with pytest.raises(DataFormatError, match="line 1"):
            load_jsonl(path)
    # the version is the JSON integer 1: true and 1.0 compare equal to it
    for value in (True, 1.0):
        hdr = {**json.loads(HEADER), "version": value}
        path = write_lines(tmp_path, [json.dumps(hdr), GOOD_ITEM])
        with pytest.raises(DataFormatError, match="line 1: unsupported version"):
            load_jsonl(path)
    # dimensions must be positive JSON integers: 9.5 used to load as 9
    for key, value in (("d", 2.5), ("m", "1"), ("d_img", True), ("m", 0)):
        hdr = {**json.loads(HEADER), key: value}
        path = write_lines(tmp_path, [json.dumps(hdr), GOOD_ITEM])
        with pytest.raises(DataFormatError, match=f"line 1: header '{key}'"):
            load_jsonl(path)


def test_load_names_the_header_line_of_an_overlong_integer(tmp_path):
    path = write_lines(tmp_path, [HEADER.replace('"d": 2', f'"d": {LONG_INT}'), GOOD_ITEM])
    with pytest.raises(DataFormatError, match="^line 1: bad JSON header: Exceeds the limit"):
        load_jsonl(path)


def test_load_names_the_item_line_of_an_overlong_integer(tmp_path):
    bad = GOOD_ITEM.replace('"image": [0.0, 0.0]', f'"image": [{LONG_INT}, 0.0]')
    path = write_lines(tmp_path, [HEADER, GOOD_ITEM, bad])
    with pytest.raises(DataFormatError, match="^line 3: bad JSON: Exceeds the limit"):
        load_jsonl(path)


def test_load_rejects_wrong_format_name(tmp_path):
    hdr = json.dumps({"format": "other", "version": 1, "d": 2, "m": 1, "d_img": 2})
    path = write_lines(tmp_path, [hdr, GOOD_ITEM])
    with pytest.raises(DataFormatError, match="line 1"):
        load_jsonl(path)


def test_load_rejects_wrong_version(tmp_path):
    hdr = json.dumps({"format": "ensad-jsonl", "version": 2, "d": 2, "m": 1, "d_img": 2})
    path = write_lines(tmp_path, [hdr, GOOD_ITEM])
    with pytest.raises(DataFormatError, match="version"):
        load_jsonl(path)


def test_load_reports_item_line_number(tmp_path):
    bad = json.dumps({"id": "a", "h0": [1.0, 0.0],
                      "translations": [[0.0, 1.0]]})  # missing image
    for line in (bad, DEEP_JSON):
        path = write_lines(tmp_path, [HEADER, GOOD_ITEM, line])
        with pytest.raises(DataFormatError, match="line 3"):
            load_jsonl(path)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_load_reads_other_line_endings_as_lf(tmp_path, newline):
    lf = GOLDEN / "data.jsonl"
    other = tmp_path / "data.jsonl"
    other.write_bytes(lf.read_bytes().replace(b"\n", newline.encode()))
    assert same_dataset(load_jsonl(str(other)), load_jsonl(str(lf)))


def test_load_rejects_wrong_translation_count(tmp_path):
    bad = json.dumps({"id": "a", "h0": [1.0, 0.0],
                      "translations": [[0.0, 1.0], [1.0, 0.0]],
                      "image": [0.0, 0.0]})
    path = write_lines(tmp_path, [HEADER, bad])
    with pytest.raises(DataFormatError, match="line 2"):
        load_jsonl(path)


def test_load_rejects_off_sphere_embedding(tmp_path):
    bad = json.dumps({"id": "a", "h0": [2.0, 0.0],
                      "translations": [[0.0, 1.0]], "image": [0.0, 0.0]})
    path = write_lines(tmp_path, [HEADER, bad])
    with pytest.raises(DataFormatError, match="line 2"):
        load_jsonl(path)


def test_load_rejects_huge_entry_without_overflow(tmp_path):
    lines = (GOLDEN / "data.jsonl").read_text().splitlines()
    item = json.loads(lines[1])
    item["h0"][0] = 1e200
    lines[1] = json.dumps(item)
    path = write_lines(tmp_path, lines)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataFormatError, match="^line 2: h0 norm deviates"):
            load_jsonl(path)


def test_load_rejects_unknown_keys(tmp_path):
    bad = json.loads(GOOD_ITEM)
    bad["extra"] = 1
    path = write_lines(tmp_path, [HEADER, json.dumps(bad)])
    with pytest.raises(DataFormatError, match="unknown"):
        load_jsonl(path)


@pytest.mark.parametrize("token", ["1.5", "-1.0000001", "NaN", "Infinity"])
def test_load_rejects_an_image_entry_outside_the_unit_interval(tmp_path, token):
    # json.loads reads NaN and Infinity as floats
    bad = GOOD_ITEM.replace('"image": [0.0, 0.0]', f'"image": [0.0, {token}]')
    path = write_lines(tmp_path, [HEADER, GOOD_ITEM, bad])
    with pytest.raises(DataFormatError, match=r"^line 3: image entries must lie in \[-1, 1\]$"):
        load_jsonl(path)


@pytest.mark.parametrize("ids, rows, images, texts, message", [
    ([], np.zeros((0, 2, 2)), np.zeros((0, 2)), {}, "dataset must be nonempty"),
    (["a", "b"], np.zeros((2, 2)), np.zeros((2, 2)), {},
     "expected 2 rows of shape (m+1, d) and 2 images"),
    (["a", "b"], np.zeros((2, 2, 2)), np.zeros((3, 2)), {},
     "expected 2 rows of shape (m+1, d) and 2 images"),
    (["a"], np.zeros((1, 1, 2)), np.zeros((1, 2)), {}, "dataset dimensions must be positive"),
    (["a"], np.zeros((1, 2, 2)), np.zeros((1, 0)), {}, "dataset dimensions must be positive"),
    (["a", "b"], np.zeros((2, 2, 2)), np.zeros((2, 2)), {"source_texts": ["x"]},
     "expected 2 source_texts, got 1"),
    (["a"], np.zeros((1, 2, 2)), np.zeros((1, 2)), {"translation_texts": [("x",), ("y",)]},
     "expected 1 translation_texts, got 2"),
], ids=["empty", "rows_2d", "image_count", "no_translation", "no_image_entry",
        "source_texts", "translation_texts"])
def test_dataset_rejects_inconsistent_arrays(ids, rows, images, texts, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Dataset(ids, rows, images, **texts)


def test_load_rejects_empty_file(tmp_path):
    path = str(tmp_path / "empty.jsonl")
    with open(path, "w"):
        pass
    with pytest.raises(DataFormatError, match="line 1"):
        load_jsonl(path)


def test_load_rejects_header_only(tmp_path):
    path = write_lines(tmp_path, [HEADER])
    with pytest.raises(DataFormatError, match="line 2"):
        load_jsonl(path)


def test_dumps_header_first_line():
    ds = generate_synthetic(small_spec())
    first = next(jsonl_lines(ds))
    hdr = json.loads(first)
    assert hdr["format"] == "ensad-jsonl"
    assert hdr["version"] == 1
    assert (hdr["d"], hdr["m"], hdr["d_img"]) == (8, 3, 6)


def test_augment_noop_at_zero():
    ds = generate_synthetic(small_spec())
    rng = SeededRng(1)
    out = augment_rows(ds.rows, 0.0, 0.0, rng)
    assert np.array_equal(out, ds.rows)
    assert out is not ds.rows
    assert rng.position == 0  # stream untouched


def test_augment_unit_norm_and_determinism():
    ds = generate_synthetic(small_spec())
    out1 = augment_rows(ds.rows, 0.1, 0.05, SeededRng(2))
    out2 = augment_rows(ds.rows, 0.1, 0.05, SeededRng(2))
    assert np.abs(np.linalg.norm(out1, axis=2) - 1.0).max() < 1e-12
    assert np.array_equal(out1, out2)
    assert not np.any(np.all(out1 == ds.rows, axis=2))


def test_augment_cosine_band():
    # Monte-Carlo derived: p=0.1 at d=512 keeps mean cosine to the original
    # in [0.9930, 0.9948] (64-trial measurement: 0.99381..0.99435)
    rng_data = SeededRng(40)
    rng_aug = SeededRng(41)
    v = np.stack([l2_normalize(rng_data.gaussian(512)) for _ in range(64)])
    out = augment_rows(np.stack([v, v], axis=1), 0.1, 0.1, rng_aug)
    mean = np.mean(np.sum(out[:, 0] * v, axis=1))
    assert 0.9930 < mean < 0.9948


def test_sample_indices_contents_and_determinism():
    it1 = sample_indices(12, 4, SeededRng(3))
    it2 = sample_indices(12, 4, SeededRng(3))
    for _ in range(10):
        b1, b2 = next(it1), next(it2)
        assert np.array_equal(b1, b2)
        assert len(b1) == 4
        assert len(set(b1.tolist())) == 4  # no repeats within a batch
        assert set(b1.tolist()) <= set(range(12))


def test_sample_indices_rejects_bad_sizes():
    with pytest.raises(ValueError):
        next(sample_indices(12, 0, SeededRng(0)))
    with pytest.raises(ValueError):
        next(sample_indices(12, 13, SeededRng(0)))


def test_sample_indices_uniform_frequency():
    # 1e4 batches of 2 from 10 items: each index ~ Binomial(1e4, 0.2),
    # expectation 2000, 3 sigma ~ 120; use +-150 for seed robustness
    counts = np.zeros(10, dtype=int)
    it = sample_indices(10, 2, SeededRng(17))
    for _ in range(10_000):
        np.add.at(counts, next(it), 1)
    assert counts.sum() == 20_000
    assert np.all(np.abs(counts - 2000) <= 150)


def test_atomic_write_no_partial_file(tmp_path):
    # target directory contains no stray temp files after a save
    ds = generate_synthetic(small_spec())
    path = str(tmp_path / "out.jsonl")
    save_jsonl(ds, path)
    assert sorted(os.listdir(tmp_path)) == ["out.jsonl"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_atomic_write_honours_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        with atomic_write(str(tmp_path / "out.txt")) as fh:
            fh.write(b"x\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(tmp_path / "out.txt").st_mode) == mode


def test_atomic_write_failure_keeps_the_old_target(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_write(str(path)) as fh:
            fh.write(b"new bytes")
            fh.flush()
            raise RuntimeError("mid-write")
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_save_jsonl_streams_its_lines(tmp_path):
    # the desk corpus is 4.0 MB of text; no copy of it is held while writing
    ds = generate_synthetic(SyntheticSpec(n_items=2000, d=16, m=4, d_img=12,
                                          sigma_source=0.4, sigma_trans=0.2))
    path = str(tmp_path / "desk.jsonl")
    tracemalloc.start()
    try:
        save_jsonl(ds, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert os.path.getsize(path) > 3_000_000
    assert peak < 1_000_000


def test_ensemble_matrix_layout(tmp_path):
    # rows hold per item the source row, then the translations in file
    # order; rows[i].T is the (d, m+1) column layout adapter.forward takes
    item = {"id": "a", "h0": [1.0, 0.0], "translations": [[0.0, 1.0], [0.6, 0.8]],
            "image": [0.5, -0.5]}
    hdr = {**json.loads(HEADER), "m": 2}
    ds = load_jsonl(write_lines(tmp_path, [json.dumps(hdr), json.dumps(item)]))
    assert ds.rows.tolist() == [[item["h0"], *item["translations"]]]
    assert ds.images.tolist() == [item["image"]]
    assert ds.ids == ("a",)
    mat = ds.rows[0].T
    assert mat.shape == (2, 3)
    assert mat[:, 0].tolist() == item["h0"]
    for j, t in enumerate(item["translations"], start=1):
        assert mat[:, j].tolist() == t
