"""Results hold on every BLAS kernel, to a stated tolerance.

numpy's OpenBLAS picks its kernels by CPU type, and ``OPENBLAS_CORETYPE``
makes it run another type's. Outputs are byte-stable on one kernel, but
another kernel sums matrix products in another order. Two child processes
build a synthetic corpus, train one short desk-scale ``ensad_frozen_g`` run
on it and score it with ``compare_strategies``: one on the default core
type, one on another. The corpus's embedding rows are normalized without
BLAS (``numkit.unit_rows``), so they must agree byte for byte; its images
are tanh of a matrix product and are not compared. The tolerances:
- each tensor of the checkpoint (a parameter, or a trained one's first or
  second Adam moment): max|a - b| is at most 1e-9 * max|a|. An elementwise
  rtol would fail on the entries at round-off level;
- each Frechet distance agrees to 1e-9 relative, and the strategies rank
  alike.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ensad.gan import load_checkpoint

ROOT = Path(__file__).resolve().parent.parent

CHILD = '''
import ctypes, glob, hashlib, json, os, sys
import numpy as np
from ensad.adapter import EnsAdConfig
from ensad.data import SyntheticSpec, generate_synthetic
from ensad.evaluation import compare_strategies
from ensad.gan import GanConfig, save_checkpoint, train

libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                              "numpy.libs", "libscipy_openblas*.so"))
corename = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None) if libs else None
if corename is None:
    json.dump({"core": None}, sys.stdout)
    sys.exit()
corename.restype = ctypes.c_char_p
ds = generate_synthetic(SyntheticSpec(n_items=200, d=16, m=4, d_img=12, sigma_source=0.4,
                                      sigma_trans=0.2, seed=100))
ecfg = EnsAdConfig(d=16, d_hid=8, m=4, alpha=0.4)
gcfg = GanConfig(d=16, d_z=16, d_img=12, gen_hidden=(64, 64), disc_hidden=(32, 32),
                 batch=16, steps=50, lr=1e-3, conditioning="ensad",
                 trainable=frozenset({"ensad", "discriminator"}))
ck = train(ds, ecfg, gcfg, 11)
save_checkpoint(ck, sys.argv[1])
report = compare_strategies(ck, ds, 512, 777)
json.dump({"core": corename().decode(), "rows": report.results,
           "corpus_rows": hashlib.sha256(ds.rows.tobytes()).hexdigest()}, sys.stdout)
'''


def run_child(ckpt: Path, core: str | None) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    if core is not None:
        env["OPENBLAS_CORETYPE"] = core
    run = subprocess.run([sys.executable, "-c", CHILD, str(ckpt)], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return json.loads(run.stdout)


def tensors(ck) -> dict:
    """The checkpoint's tensors by field and name: each component's
    parameters, then each trained component's first and second moments."""
    found = {f"params.{comp}": tree for comp, tree in ck.params.items()}
    for part in ("m", "v"):
        found.update((f"adam.{part}.{comp}", tree)
                     for comp, tree in getattr(ck.adam, part).items())
    return {f"{field}.{name}": arr for field, tree in found.items() for name, arr in tree.items()}


def test_results_agree_across_blas_core_types(tmp_path):
    default = run_child(tmp_path / "default.npz", None)
    if default["core"] is None:
        pytest.skip("numpy's bundled OpenBLAS does not report its core type here")
    other_core = "Sandybridge" if default["core"] == "Haswell" else "Haswell"
    other = run_child(tmp_path / "other.npz", other_core)
    assert default["core"] != other["core"] == other_core
    assert default["corpus_rows"] == other["corpus_rows"]

    a = tensors(load_checkpoint(tmp_path / "default.npz"))
    b = tensors(load_checkpoint(tmp_path / "other.npz"))
    assert list(a) == list(b)
    apart = {name: float(np.max(np.abs(a[name] - b[name]))) for name in a
             if np.max(np.abs(a[name] - b[name])) > 1e-9 * np.max(np.abs(a[name]))}
    assert not apart, f"tensors beyond 1e-9 of their largest entry: {apart}"

    rows_a, rows_b = default["rows"], other["rows"]
    assert [r["strategy"] for r in rows_a] == [r["strategy"] for r in rows_b]
    for ra, rb in zip(rows_a, rows_b):
        assert abs(ra["fd"] - rb["fd"]) <= 1e-9 * abs(ra["fd"]), (ra, rb)
    ranking = [sorted(rows, key=lambda r: r["fd"]) for rows in (rows_a, rows_b)]
    assert [r["strategy"] for r in ranking[0]] == [r["strategy"] for r in ranking[1]]
