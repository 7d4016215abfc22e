"""The stream kernels: counter-based random access into splitmix64, and the
Box-Muller transform of its words."""

import numpy as np

from ensad.kernels import gaussian_from_bits, splitmix64_fill


def test_splitmix64_is_counter_based():
    # random access must equal the sequential stream
    whole = splitmix64_fill(np.uint64(7), np.uint64(0), 32)
    for k in (0, 1, 5, 31):
        one = splitmix64_fill(np.uint64(7), np.uint64(k), 1)
        assert one[0] == whole[k]


def test_gaussian_from_bits_box_muller_radius():
    # each pair lies on the circle of radius sqrt(-2 ln u1)
    bits = splitmix64_fill(np.uint64(9), np.uint64(0), 64)
    out = gaussian_from_bits(bits)
    hi = (bits[0::2] >> np.uint64(11)).astype(np.float64)
    u1 = (hi + 1.0) / 9007199254740992.0
    r2 = out[0::2] ** 2 + out[1::2] ** 2
    assert np.allclose(r2, -2.0 * np.log(u1), rtol=1e-12, atol=1e-12)
