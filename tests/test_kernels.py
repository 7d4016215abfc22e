"""Backend parity: the jitted kernels and their uncompiled CPython
bodies must agree on identical inputs. Under ENSAD_NUMBA=0 both names
bind the same function and these tests reduce to self-consistency."""

import numpy as np
import pytest

from ensad.backend import NUMBA_ENABLED, python_impl
from ensad.kernels import gaussian_from_bits, jacobi_eigh, splitmix64_fill
from ensad.numkit import SeededRng


def test_splitmix64_backends_bit_identical():
    py = python_impl(splitmix64_fill)
    for seed in (0, 1, 2**63, 2**64 - 1):
        a = splitmix64_fill(np.uint64(seed), np.uint64(0), 64)
        b = py(np.uint64(seed), np.uint64(0), 64)
        assert a.dtype == np.uint64
        assert np.array_equal(a, b)


def test_splitmix64_is_counter_based():
    # random access must equal the sequential stream
    whole = splitmix64_fill(np.uint64(7), np.uint64(0), 32)
    for k in (0, 1, 5, 31):
        one = splitmix64_fill(np.uint64(7), np.uint64(k), 1)
        assert one[0] == whole[k]


def test_gaussian_from_bits_backends_agree():
    py = python_impl(gaussian_from_bits)
    bits = splitmix64_fill(np.uint64(3), np.uint64(0), 128)
    a = gaussian_from_bits(bits)
    b = py(bits)
    assert np.allclose(a, b, rtol=1e-14, atol=1e-14)


def test_gaussian_from_bits_box_muller_radius():
    # each pair lies on the circle of radius sqrt(-2 ln u1)
    bits = splitmix64_fill(np.uint64(9), np.uint64(0), 64)
    out = gaussian_from_bits(bits)
    hi = (bits[0::2] >> np.uint64(11)).astype(np.float64)
    u1 = (hi + 1.0) / 9007199254740992.0
    r2 = out[0::2] ** 2 + out[1::2] ** 2
    assert np.allclose(r2, -2.0 * np.log(u1), rtol=1e-12, atol=1e-12)


def test_jacobi_backends_agree():
    py = python_impl(jacobi_eigh)
    rng = SeededRng(31)
    x = rng.gaussian(36).reshape(6, 6)
    sym = 0.5 * (x + x.T)
    w1, v1, sweeps1, off1 = jacobi_eigh(sym.copy(), 1e-12, 64)
    w2, v2, sweeps2, off2 = py(sym.copy(), 1e-12, 64)
    assert sweeps1 == sweeps2
    assert np.allclose(np.sort(w1), np.sort(w2), rtol=1e-12, atol=1e-12)
    assert abs(off1 - off2) < 1e-12


def test_jacobi_reconstructs_matrix():
    rng = SeededRng(32)
    x = rng.gaussian(25).reshape(5, 5)
    sym = 0.5 * (x + x.T)
    w, v, sweeps, off = jacobi_eigh(sym.copy(), 1e-12, 64)
    assert off <= 1e-12
    recon = (v * w) @ v.T
    assert np.allclose(recon, sym, rtol=0, atol=1e-10)
    # eigenvectors orthonormal
    assert np.allclose(v.T @ v, np.eye(5), atol=1e-10)
    # eigenvalues match the reference solver
    assert np.allclose(np.sort(w), np.linalg.eigvalsh(sym), atol=1e-10)


def test_jacobi_diag_is_fixed_point():
    a = np.diag([3.0, -1.0, 0.5])
    w, v, sweeps, off = jacobi_eigh(a.copy(), 1e-12, 64)
    assert sweeps == 0
    assert np.array_equal(np.sort(w), np.array([-1.0, 0.5, 3.0]))


@pytest.mark.skipif(not NUMBA_ENABLED, reason="numba path disabled")
def test_jit_wrapping_active():
    assert python_impl(splitmix64_fill) is not splitmix64_fill
