"""Small dense linear-algebra and sampling toolkit.

Vectors and matrices are plain float64 numpy arrays (``Vec``/``Mat`` are
aliases, 1-D and 2-D row-major respectively). Everything here is pure except
:class:`SeededRng`, the counter-based splitmix64 stream with its Box-Muller
normals, which owns a mutable stream position. :data:`NORM_EPS`, the norm
below which a vector counts as zero, is defined here for the whole package.

Parameter sets are ordered ``{name: array}`` mappings, nested per component,
described by matching ``{name: TensorSpec}`` mappings; :func:`init_tensors`,
:func:`map_tensors` and :func:`check_tensors` initialize, copy and validate.
Validation walks the structure (names, order, shapes) per tree; the values
are checked once, over a checkpoint's format-2 tensor vector, which still
names the first bad tensor (``gan._check_state``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

Vec = np.ndarray
Mat = np.ndarray

# Norms below this count as zero; normalization passes the vector through
# and the corresponding derivative is zero by convention.
NORM_EPS = 1e-12

_U64 = 1 << 64

# splitmix64 constants: the state increment and the two finalizer multipliers
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_R30 = np.uint64(30)
_R27 = np.uint64(27)
_R31 = np.uint64(31)
_R11 = np.uint64(11)
_ONE = np.uint64(1)

_TWO_PI = 6.283185307179586
_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53

# Blocked hot loops handle at most this many 8-byte entries at a time, so
# that each block's temporaries stay in cache:
# - ``gan.adam_step`` walks the flat vectors ``gan.train`` passes it in
#   blocks of this size: one block at desk scale. For the 655,873 adapter
#   parameters of the paper's shape an adam_step took 10.7-11.7 ms on one
#   vector, 8.3-8.5 ms per tensor and 6.6-6.9 ms in these 11 blocks
#   (medians of 100, 2-core Xeon VM, numpy 2.4.6).
# - ``data.step_batches`` takes the stream span of as many whole training
#   steps as fit, at least one: 42 steps of 1,552 words at desk shape, one
#   step of 106,768 words at the paper's shape. It makes only the words of
#   the rows a step reads: 528 of the 1,552 on a desk zero_shot step.
#   Blocks of 8,192 words (5 desk steps) kept the desk throughput but
#   raised the p90 step time from 0.93-0.99 to 1.40-1.49 ms (3 benchmark
#   pairs, desk_pretrain, 2-core Xeon VM), as one step in five carried a
#   block's draws.
CACHE_BLOCK = 1 << 16

# Eigenvalues of a PSD matrix in [_EIG_TOL, 0) are round-off; lower ones
# mean the matrix is not PSD.
_EIG_TOL = -1e-8


class NotPsdError(ValueError):
    """Matrix has an eigenvalue below the PSD tolerance."""


def as_f64(x, name: str = "input") -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def l2_normalize(v: np.ndarray) -> np.ndarray:
    """Scale ``v``, or each vector of a stack of them (the last axis), to
    unit Euclidean norm; returns a new array.

    Vectors with norm below 1e-12 are returned unchanged (zero-vector
    convention), so the operation is total. Each squared norm is one
    ``np.matmul`` of a (1, d) by a (d, 1) view, which numpy runs as the
    same dot product as ``np.dot(v, v)``, so every vector of a stack comes
    out bit for bit as it would alone. The synthetic corpora (and so
    ``tests/golden``) and the renormalization on load depend on these bits.
    """
    arr = as_f64(v, "l2_normalize input")
    nrm = np.sqrt(np.matmul(arr[..., None, :], arr[..., :, None])[..., 0])
    return arr / np.where(nrm < NORM_EPS, 1.0, nrm)


def unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows (last axis) of ``x`` scaled to unit norm, and their norms,
    for batched hot paths: the zero-vector convention of
    :func:`l2_normalize`, no input checks. The norm is a pairwise
    ``np.add.reduce`` (``np.sum``'s arithmetic, without its dispatch), not
    a dot product, so a row can differ from :func:`l2_normalize` in the
    last bit; the adapter, mean pooling, augmentation and the stored
    benchmark references depend on this form."""
    norm = np.sqrt(np.add.reduce(x * x, axis=-1))
    return x / np.where(norm < NORM_EPS, 1.0, norm)[..., None], norm


def _symmetrized(a: Mat, name: str) -> Mat:
    arr = as_f64(a, name)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"{name} must be a nonempty square matrix")
    return (arr + arr.T) / 2.0


def _clamp_psd(w: Vec) -> Vec:
    """Eigenvalues in [_EIG_TOL, 0) clamp to zero; anything lower raises
    :class:`NotPsdError`."""
    lo = float(w.min())
    if lo < _EIG_TOL:
        raise NotPsdError(f"eigenvalue {lo:.3e} below PSD tolerance {_EIG_TOL:.0e}")
    return np.maximum(w, 0.0)


def psd_eigvalsh(a: Mat) -> Vec:
    """Eigenvalues of the PSD matrix (a + a^T)/2, by LAPACK, with round-off
    negatives clamped to zero."""
    return _clamp_psd(np.linalg.eigvalsh(_symmetrized(a, "psd_eigvalsh input")))


def sym_sqrt_psd(a: Mat) -> Mat:
    """Symmetric square root of the PSD matrix (a + a^T)/2, by LAPACK
    eigendecomposition, with round-off negative eigenvalues clamped to
    zero."""
    w, vecs = np.linalg.eigh(_symmetrized(a, "sym_sqrt_psd input"))
    root = (vecs * np.sqrt(_clamp_psd(w))) @ vecs.T
    return (root + root.T) / 2.0


def derive_seed(seed: int, salt: int) -> int:
    """Independent child seed: word ``salt`` of the parent's stream."""
    return SeededRng(seed, salt).next_u64()


class SeededRng:
    """Counter-based splitmix64 stream with Box-Muller normal sampling.

    The state is just ``(seed, position)`` where position counts consumed
    64-bit words, so checkpoints can serialize and resume the stream
    exactly. Integer mixing is platform-stable; the normal transform uses
    ordinary libm, so normals are bit-identical on one machine.

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

    def _take(self, n: int) -> np.ndarray:
        """The next ``n`` words of the stream, as uint64."""
        z = np.arange(n, dtype=np.uint64)
        z += np.uint64(self.position)
        self.position += n
        return self.words_at(z)

    def words_at(self, z: np.ndarray) -> np.ndarray:
        """The stream's words at the positions ``z``, a uint64 array that is
        overwritten with them; the stream does not move.

        Counter-based: word ``i`` mixes ``seed + (i+1)*GAMMA`` (uint64 wrap),
        which equals the sequential generator that advances its state by
        GAMMA before each mix, so random access is O(1). The mix runs in
        place in ``z`` and one shift buffer (uint64 arithmetic wraps, so the
        order of the additions does not matter).
        """
        z += _ONE
        z *= _GAMMA
        z += np.uint64(self.seed)
        t = z >> _R30
        z ^= t
        z *= _MIX1
        np.right_shift(z, _R27, out=t)
        z ^= t
        z *= _MIX2
        np.right_shift(z, _R31, out=t)
        z ^= t
        return z

    def next_u64(self) -> int:
        return int(self._take(1)[0])

    def randints_below(self, bounds) -> np.ndarray:
        """One uniform int in [0, bound) per entry of ``bounds``, by modulo
        of one stream word each (bias < bound/2^64), all in one fill: the
        same values and words as that many successive ``next_u64() % bound``
        draws."""
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
        return box_muller(self._take(rows * width)).reshape(rows, width)[:, :n]


def box_muller(bits: np.ndarray) -> np.ndarray:
    """Standard normals from stream words, two per word pair: an array of
    ``bits``' shape, whose last axis pairs words (even, odd). Each pair maps
    by its top 53 bits to (u1, u2) in (0, 1] x [0, 1), u1 excluding zero so
    that the log never sees it, then to r cos(t), r sin(t) with
    r = sqrt(-2 log u1), t = 2 pi u2. Every step is elementwise, in place
    on contiguous temporaries of its own (``bits`` is only read), so a
    normal does not depend on how many words share the call."""
    r = (bits[..., 0::2] >> _R11).astype(np.float64)
    r += 1.0
    r *= _INV_2_53
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    t = (bits[..., 1::2] >> _R11).astype(np.float64)
    t *= _INV_2_53
    t *= _TWO_PI
    out = np.empty(bits.shape)
    cos = np.cos(t)
    cos *= r
    out[..., 0::2] = cos
    np.sin(t, out=t)
    t *= r
    out[..., 1::2] = t
    return out


class TensorSpec(NamedTuple):
    """One parameter tensor: its shape, and whether it starts at zero (a
    bias) instead of i.i.d. N(0, 1/last dim)."""

    shape: tuple
    zero: bool = False


def init_tensors(spec: dict, rng: SeededRng) -> dict:
    """Fresh tensors for a (nested) ``{name: TensorSpec}`` mapping, drawn in
    its order: zeros, or one ``rng.gaussian(size)`` divided by the square
    root of the last dimension."""
    out = {}
    for name, s in spec.items():
        if isinstance(s, dict):
            out[name] = init_tensors(s, rng)
        elif s.zero:
            out[name] = np.zeros(s.shape)
        else:
            flat = rng.gaussian(math.prod(s.shape))
            out[name] = flat.reshape(s.shape) / np.sqrt(s.shape[-1])
    return out


def map_tensors(fn, tree: dict) -> dict:
    """``fn`` applied to every leaf of a (nested) ``{name: array}`` or
    ``{name: TensorSpec}`` mapping, keeping names and order: ``np.copy``
    copies tensors, ``lambda s: np.zeros(s.shape)`` gives a spec's zeros."""
    return {k: map_tensors(fn, v) if isinstance(v, dict) else fn(v)
            for k, v in tree.items()}


def check_tensors(tree: dict, spec: dict, path: str = "") -> None:
    """Raise ValueError naming the first tensor of the ``{name: array}``
    mapping ``tree`` that is not what ``spec`` says: names and order, shape,
    a dtype that casts to float64. Values are not read here but once per
    checkpoint vector (``gan._check_state``)."""
    if list(tree) != list(spec):
        raise ValueError(f"{path or 'tensors'}: names {list(tree)}, expected {list(spec)}")
    for name, s in spec.items():
        where = f"{path}.{name}" if path else name
        if np.shape(tree[name]) != s.shape:
            raise ValueError(f"{where} has shape {np.shape(tree[name])}, expected {s.shape}")
        elif not np.can_cast(dtype := np.asarray(tree[name]).dtype, np.float64, "same_kind"):
            raise ValueError(f"{where} has dtype {dtype}, which does not cast to float64")
