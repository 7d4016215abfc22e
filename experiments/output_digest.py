"""Digest every output file of a fixed set of CLI runs.

Runs ``ensad.cli.main`` in-process in a temporary directory: a 200-item
synthetic corpus; the seven one-phase presets for 60 steps; a 30-step run
of ``ensad_frozen_g`` resumed in place to 60; the two-phase preset for
80 steps, 40 of them in phase 1, and for 60 steps resumed in place to 80
(``pipeline_resumed``, whose four lines equal ``pipeline``'s); 60-step
runs with ``variant_v_equals_k``, with ``alpha`` 0, and with
``enable_clg`` while all three components train; a saturating
``lafite_setup`` run at ``lr`` 1e300, which diverges at step 1 and exits 3
(its diagnostic checkpoint, its CSV and its stderr, with the output
directory written as ``<out>``); then ``eval --out`` (its report and its
stdout table, also with ``<out>``) and ``inspect-attn --out`` on the
``ensad_frozen_g`` and two-phase checkpoints. It prints one
``<sha256>  <name>`` line per file, and one
``<sha256>  <name>.npz:<member>`` line per member of each ``.npz``
archive (a checkpoint's ``header`` and ``tensors``), so a change to the
header alone reads as one. Lines are sorted by name; it takes no options.

A change that must keep every output byte (a refactor, a speed-up) prints
the same lines as its parent. Point PYTHONPATH at each checkout's ``src``:

    PYTHONPATH=src python experiments/output_digest.py > change.txt
    PYTHONPATH=../parent/src python experiments/output_digest.py > parent.txt
    diff parent.txt change.txt
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import zipfile

from ensad.cli import main

SYNTH = ["--n-items", "200", "--d", "16", "--m", "4", "--d-img", "12",
         "--sigma-source", "0.4", "--sigma-trans", "0.2", "--seed", "0"]
ONE_PHASE_PRESETS = ("ensad_frozen_g", "finetune_g_text", "finetune_g_meanpool",
                     "ablate_no_cl", "ablate_no_cld", "ablate_none", "lafite_setup")
# name: (preset, config)
VARIANTS = {
    "v_equals_k": ("ensad_frozen_g", {"adapter": {"variant_v_equals_k": True}}),
    "alpha0": ("ensad_frozen_g", {"adapter": {"alpha": 0.0}}),
    "all_clg": (None, {"gan": {"trainable": ["ensad", "generator", "discriminator"],
                               "enable_clg": True}}),
}
SEED = ["--seed", "3"]


def cli(*argv: str, expect: int = 0) -> tuple[str, str]:
    """Run one command quietly and return its ``(stdout, stderr)``; raise
    with its stderr when the command exits with another code than
    ``expect``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    if rc != expect:
        raise RuntimeError(f"ensad {' '.join(argv)} exited {rc}: {err.getvalue()}")
    return out.getvalue(), err.getvalue()


def write_config(tmp: str, name: str, config: dict) -> str:
    """Write ``config`` to ``<tmp>/<name>.json`` and return that path."""
    config_path = os.path.join(tmp, f"{name}.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return config_path


def digests() -> dict:
    """``{file name: sha256 hex}`` of every file the runs write, and
    ``{"<file name>:<member>": sha256 hex}`` of every ``.npz`` member."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        os.mkdir(out)

        def path(name: str) -> str:
            return os.path.join(out, name)

        def save_text(name: str, text: str) -> None:
            """Write a captured stream, with the output directory as ``<out>``."""
            with open(path(name), "w", encoding="utf-8") as fh:
                fh.write(text.replace(out, "<out>"))

        data = path("corpus.jsonl")
        cli("synth", "--out", data, *SYNTH)
        train = ["train", "--data", data, *SEED]
        for preset in ONE_PHASE_PRESETS:
            cli(*train, "--preset", preset, "--steps", "60", "--out", path(f"{preset}.npz"))
        resumed = path("resumed.npz")
        cli(*train, "--preset", "ensad_frozen_g", "--steps", "30", "--out", resumed)
        cli(*train, "--preset", "ensad_frozen_g", "--steps", "60", "--out", resumed,
            "--resume", resumed)
        pipeline = [*train, "--preset", "ensad_plus_finetune_g", "--phase1-steps", "40"]
        cli(*pipeline, "--steps", "80", "--out", path("pipeline.npz"))
        pipeline_resumed = path("pipeline_resumed.npz")
        cli(*pipeline, "--steps", "60", "--out", pipeline_resumed)
        cli(*pipeline, "--steps", "80", "--out", pipeline_resumed, "--resume", pipeline_resumed)
        for name, (preset, config) in VARIANTS.items():
            cli(*train, *(["--preset", preset] if preset else []), "--config",
                write_config(tmp, name, config), "--steps", "60", "--out", path(f"{name}.npz"))
        _, stderr = cli(*train, "--preset", "lafite_setup", "--config",
                        write_config(tmp, "saturating", {"gan": {"lr": 1e300}}),
                        "--steps", "60", "--out", path("diverged.npz"), expect=3)
        save_text("diverged.stderr", stderr)
        for name in ("ensad_frozen_g", "pipeline"):
            ckpt = path(f"{name}.npz")
            stdout, _ = cli("eval", "--ckpt", ckpt, "--data", data, *SEED,
                            "--out", path(f"{name}.eval.json"))
            save_text(f"{name}.eval.stdout", stdout)
            cli("inspect-attn", "--ckpt", ckpt, "--data", data, "--out",
                path(f"{name}.attn.jsonl"))
        found = {}
        for name in sorted(os.listdir(out)):
            with open(path(name), "rb") as fh:
                found[name] = hashlib.sha256(fh.read()).hexdigest()
            if name.endswith(".npz"):
                with zipfile.ZipFile(path(name)) as archive:
                    for member in archive.namelist():
                        found[f"{name}:{member.removesuffix('.npy')}"] = hashlib.sha256(
                            archive.read(member)).hexdigest()
        return found


if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit("usage: output_digest.py (takes no options)")
    for name, digest in digests().items():
        print(f"{digest}  {name}")
