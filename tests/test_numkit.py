import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ensad.numkit import (
    NORM_EPS,
    NotPsdError,
    SeededRng,
    derive_seed,
    l2_normalize,
    sym_sqrt_psd,
    unit_rows,
)
from test_batching import randint_below


def test_l2_normalize_simple():
    out = l2_normalize(np.array([3.0, 4.0]))
    assert np.allclose(out, [0.6, 0.8], atol=1e-15)


def test_l2_normalize_unit_output_norm():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.normal(size=17)
        out = l2_normalize(v)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        # direction preserved
        assert np.dot(out, v) > 0


def test_l2_normalize_zero_vector_unchanged():
    z = np.zeros(5)
    out = l2_normalize(z)
    assert np.array_equal(out, z)
    out is not z  # returns a copy, never aliases


def test_l2_normalize_subeps_unchanged():
    v = np.full(4, 1e-13)
    assert np.linalg.norm(v) < NORM_EPS
    assert np.array_equal(l2_normalize(v), v)


@st.composite
def vector_stacks(draw):
    """An (a, b, d) stack whose rows are Gaussian, scaled per row to unit
    size, to a large or tiny norm, to a norm below NORM_EPS, or to zero."""
    a, b, d = draw(st.integers(1, 4)), draw(st.integers(1, 4)), draw(st.integers(1, 40))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(a, b, d))
    scales = draw(st.lists(st.sampled_from([1.0, 1e3, 1e-6, 1e-13, 3e-14, 0.0]),
                           min_size=a * b, max_size=a * b))
    return x * np.array(scales).reshape(a, b, 1)


@settings(max_examples=150, deadline=None)
@given(x=vector_stacks())
def test_stacked_l2_normalize_matches_each_vector_alone(x):
    out = l2_normalize(x)
    for i, j in np.ndindex(x.shape[:2]):
        v = x[i, j]
        alone = l2_normalize(v)
        nrm = math.sqrt(float(np.dot(v, v)))  # the one-vector definition
        reference = v.copy() if nrm < NORM_EPS else v / nrm
        assert out[i, j].tobytes() == alone.tobytes() == reference.tobytes()


def test_unit_rows_passes_a_row_below_norm_eps_through():
    x = np.array([[3.0, 4.0], [1e-13, 0.0], [0.0, 0.0]])
    unit, norm = unit_rows(x)
    assert norm.tolist() == [5.0, 1e-13, 0.0]
    assert unit[0].tolist() == [0.6, 0.8]
    assert unit[1:].tobytes() == x[1:].tobytes()


@settings(max_examples=150, deadline=None)
@given(x=vector_stacks())
def test_unit_rows_is_the_pairwise_norm_row_by_row(x):
    # the norm is a pairwise np.sum, which a row computes the same way
    # alone as inside a stack
    unit, norm = unit_rows(x)
    assert norm.tobytes() == np.sqrt(np.sum(x * x, axis=-1)).tobytes()
    for i, j in np.ndindex(x.shape[:2]):
        v = x[i, j]
        alone_unit, alone_norm = unit_rows(v)
        assert norm[i, j] == alone_norm
        reference = v.copy() if alone_norm < NORM_EPS else v / alone_norm
        assert unit[i, j].tobytes() == alone_unit.tobytes() == reference.tobytes()


def test_sym_sqrt_identity():
    assert np.allclose(sym_sqrt_psd(np.eye(4)), np.eye(4), atol=1e-12)


def test_sym_sqrt_diagonal():
    out = sym_sqrt_psd(np.diag([4.0, 9.0]))
    assert np.allclose(out, np.diag([2.0, 3.0]), atol=1e-10)


def test_sym_sqrt_reconstruction():
    rng = np.random.default_rng(2)
    b = rng.normal(size=(5, 5))
    a = b @ b.T
    r = sym_sqrt_psd(a)
    rel = np.abs(r @ r - a).max() / np.abs(a).max()
    assert rel < 1e-8
    # result is symmetric
    assert np.abs(r - r.T).max() < 1e-10


def test_sym_sqrt_rejects_negative():
    with pytest.raises(NotPsdError,
                       match=r"^eigenvalue -1\.000e\+00 below PSD tolerance -1e-08$"):
        sym_sqrt_psd(np.diag([1.0, -1.0]))


def test_sym_sqrt_clips_tiny_negative_eigenvalue():
    # within tolerance of zero: clipped, not rejected
    a = np.diag([1.0, -1e-12])
    r = sym_sqrt_psd(a)
    assert np.isfinite(r).all()


def test_derive_seed_is_a_stream_word():
    for seed, salt in ((42, 3), (0, 1), (0, 2), (2**64 - 1, 7)):
        assert derive_seed(seed, salt) == SeededRng(seed, salt).next_u64()
    # pinned values: synthetic corpora and the pipeline's phase-2 seed
    # depend on them
    assert derive_seed(42, 3) == 6349198060258255764
    assert derive_seed(0, 1) == 7960286522194355700
    assert derive_seed(0, 2) == 487617019471545679


def test_splitmix64_is_counter_based():
    # random access must equal the sequential stream
    whole = SeededRng(7)._take(32)
    for k in (0, 1, 5, 31):
        one = SeededRng(7, k)._take(1)
        assert one[0] == whole[k]


def test_gaussian_box_muller_radius():
    # each pair lies on the circle of radius sqrt(-2 ln u1)
    bits = SeededRng(9)._take(64)
    out = SeededRng(9).gaussian(64)
    hi = (bits[0::2] >> np.uint64(11)).astype(np.float64)
    u1 = (hi + 1.0) / 9007199254740992.0
    r2 = out[0::2] ** 2 + out[1::2] ** 2
    assert np.allclose(r2, -2.0 * np.log(u1), rtol=1e-12, atol=1e-12)


def test_derive_seed_salt_sensitivity():
    seeds = {derive_seed(42, s) for s in range(16)}
    assert len(seeds) == 16
    assert derive_seed(42, 3) == derive_seed(42, 3)


def test_rng_determinism():
    a = SeededRng(7).gaussian(64)
    b = SeededRng(7).gaussian(64)
    assert np.array_equal(a, b)


def test_rng_seed_sensitivity():
    a = SeededRng(7).gaussian(64)
    b = SeededRng(8).gaussian(64)
    assert not np.array_equal(a, b)


def test_rng_moments():
    x = SeededRng(0).gaussian(100_000)
    assert abs(x.mean()) < 0.02
    assert abs(x.var() - 1.0) < 0.05


def test_rng_position_resume():
    rng = SeededRng(5)
    first = rng.gaussian(10)
    pos = rng.position
    rest = rng.gaussian(10)
    resumed = SeededRng(5, position=pos)
    assert np.array_equal(resumed.gaussian(10), rest)
    # and replay from zero reproduces the head
    assert np.array_equal(SeededRng(5).gaussian(10), first)


@pytest.mark.parametrize("seed, position, message", [
    (-1, 0, "seed must fit in an unsigned 64-bit integer"),
    (2**64, 0, "seed must fit in an unsigned 64-bit integer"),
    (0, -1, "position must be nonnegative"),
])
def test_rng_rejects_a_seed_or_position_out_of_range(seed, position, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SeededRng(seed, position)


@pytest.mark.parametrize("rows, n, message", [
    (1, 0, "sample count must be positive"),
    (-1, 3, "row count must be nonnegative"),
])
def test_gaussian_rows_rejects_bad_counts(rows, n, message):
    rng = SeededRng(9)
    with pytest.raises(ValueError, match=f"^{message}$"):
        rng.gaussian_rows(rows, n)
    assert rng.position == 0


def test_rng_gaussian_word_consumption():
    # n draws consume 2*ceil(n/2) words: odd n still burns the full pair
    rng = SeededRng(9)
    rng.gaussian(3)
    assert rng.position == 4
    rng.gaussian(4)
    assert rng.position == 8


def test_randint_below_range_and_determinism():
    rng = SeededRng(11)
    vals = [randint_below(rng, 10) for _ in range(1000)]
    assert min(vals) >= 0 and max(vals) <= 9
    rng2 = SeededRng(11)
    assert vals == [randint_below(rng2, 10) for _ in range(1000)]


def test_randint_below_covers_all_values():
    rng = SeededRng(13)
    seen = {randint_below(rng, 4) for _ in range(200)}
    assert seen == {0, 1, 2, 3}


def test_next_u64_matches_position():
    rng = SeededRng(3)
    w0 = rng.next_u64()
    assert rng.position == 1
    assert w0 == SeededRng(3).next_u64()
