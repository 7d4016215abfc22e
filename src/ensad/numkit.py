"""Small dense linear-algebra and sampling toolkit.

Vectors and matrices are plain float64 numpy arrays (``Vec``/``Mat`` are
aliases, 1-D and 2-D row-major respectively). Everything here is pure except
:class:`SeededRng`, which owns a mutable stream position.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels

Vec = np.ndarray
Mat = np.ndarray

# Norms below this count as zero; normalization passes the vector through
# and the corresponding Jacobian is zero by convention. Defined once, in
# the kernels.
NORM_EPS = kernels._NORM_EPS

_U64 = 1 << 64
_GOLDEN = 0x9E3779B97F4A7C15


class NotPsdError(ValueError):
    """Matrix has an eigenvalue below the PSD tolerance."""


class ConvergenceError(RuntimeError):
    """Iterative routine failed to reach its tolerance."""


def as_f64(x, name: str = "input") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def l2_normalize(v: Vec) -> Vec:
    """Scale ``v`` to unit Euclidean norm.

    Vectors with norm below 1e-12 are returned unchanged (zero-vector
    convention), so the operation is total.
    """
    arr = as_f64(v, "l2_normalize input")
    if arr.ndim != 1:
        raise ValueError("l2_normalize expects a 1-D vector")
    nrm = math.sqrt(float(np.dot(arr, arr)))
    if nrm < NORM_EPS:
        return arr.copy()
    return arr / nrm


def l2_normalize_rows(x: np.ndarray) -> np.ndarray:
    """:func:`l2_normalize` over the last axis of a stack of vectors, for
    batched hot paths: the same zero-vector convention, no input checks."""
    nrm = np.sqrt(np.sum(x * x, axis=-1, keepdims=True))
    return x / np.where(nrm < NORM_EPS, 1.0, nrm)


def softmax(v: Vec) -> Vec:
    """Stable softmax (max-subtracted). Empty input is an error."""
    arr = as_f64(v, "softmax input")
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("softmax expects a nonempty 1-D vector")
    e = np.exp(arr - np.max(arr))
    return e / np.sum(e)


def sym_sqrt_psd(a: Mat, *, eig_tol: float = -1e-8) -> Mat:
    """Symmetric square root of a PSD matrix via cyclic Jacobi rotations.

    The input is symmetrized as (a + a^T)/2 first. Eigenvalues in
    [eig_tol, 0) clamp to zero; anything lower raises :class:`NotPsdError`.
    Rotations sweep until the off-diagonal Frobenius norm drops below 1e-12.
    """
    arr = as_f64(a, "sym_sqrt_psd input")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("sym_sqrt_psd expects a square matrix")
    n = arr.shape[0]
    if n == 0:
        raise ValueError("sym_sqrt_psd expects a nonempty matrix")
    sym = np.ascontiguousarray((arr + arr.T) / 2.0)
    w, vecs, _, off = kernels.jacobi_eigh(sym, 1e-12, 128)
    if off > 1e-12:
        raise ConvergenceError(
            f"jacobi sweep limit reached with off-diagonal norm {off:.3e}"
        )
    lo = float(np.min(w))
    if lo < eig_tol:
        raise NotPsdError(f"eigenvalue {lo:.3e} below PSD tolerance {eig_tol:.0e}")
    w = np.maximum(w, 0.0)
    root = (vecs * np.sqrt(w)) @ vecs.T
    return (root + root.T) / 2.0


def mix64(x: int) -> int:
    """Finalizer of the splitmix64 generator, on plain Python ints."""
    x &= _U64 - 1
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) % _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) % _U64
    return x ^ (x >> 31)


def derive_seed(seed: int, salt: int) -> int:
    """Independent child seed: word ``salt`` of the parent's stream."""
    return mix64((seed + (salt + 1) * _GOLDEN) % _U64)


class SeededRng:
    """Counter-based splitmix64 stream with Box-Muller normal sampling.

    The state is just ``(seed, position)`` where position counts consumed
    64-bit words, so checkpoints can serialize and resume the stream
    exactly. Integer mixing is platform-stable; the normal transform uses
    ordinary libm, identical across the two kernel backends on one machine.

    Single-owner mutable: share across threads only as disjoint instances.
    """

    ALGORITHM = "splitmix64-boxmuller"

    def __init__(self, seed: int, position: int = 0):
        seed = int(seed)
        position = int(position)
        if not 0 <= seed < _U64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if position < 0:
            raise ValueError("position must be nonnegative")
        self.seed = seed
        self.position = position

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, position={self.position})"

    def _take(self, n: int) -> np.ndarray:
        words = kernels.splitmix64_fill(
            np.uint64(self.seed), np.uint64(self.position), n
        )
        self.position += n
        return words

    def next_u64(self) -> int:
        return int(self._take(1)[0])

    def randint_below(self, bound: int) -> int:
        """Uniform int in [0, bound) by modulo; bias is < bound/2^64."""
        if bound < 1:
            raise ValueError("bound must be positive")
        return self.next_u64() % bound

    def randints_below(self, bounds) -> np.ndarray:
        """One uniform int in [0, bound) per entry of ``bounds``, from one
        stream word each: the same values and words as that many successive
        :meth:`randint_below` calls, in one fill."""
        b = np.asarray(bounds, dtype=np.int64)
        if b.ndim != 1 or np.any(b < 1):
            raise ValueError("bounds must be a 1-D array of positive ints")
        return (self._take(b.shape[0]) % b.astype(np.uint64)).astype(np.int64)

    def gaussian(self, n: int) -> Vec:
        """n i.i.d. standard normals. Consumes 2*ceil(n/2) stream words."""
        return self.gaussian_rows(1, n)[0]

    def gaussian_rows(self, rows: int, n: int) -> Mat:
        """(rows, n) standard normals: the same numbers and stream words as
        ``rows`` successive ``gaussian(n)`` calls, each row consuming
        2*ceil(n/2) words, in one fill."""
        if n < 1:
            raise ValueError("sample count must be positive")
        if rows < 0:
            raise ValueError("row count must be nonnegative")
        width = 2 * ((n + 1) // 2)
        out = kernels.gaussian_from_bits(self._take(rows * width))
        return out.reshape(rows, width)[:, :n]


def gaussian(rng: SeededRng, n: int) -> Vec:
    """Standard-normal samples from ``rng`` (Box-Muller)."""
    return rng.gaussian(n)
