"""Resume a checkpoint written by the per-item training step.

``tests/golden`` holds a 24-item dataset (d=9, m=3, d_img=6), a checkpoint
at step 6 of a run that trains the adapter, generator and discriminator
with noise augmentation on (d and d_z odd, so every Gaussian draw is
padded to an even word count), and the losses of steps 7-12 with the
stream position after step 12. These were written by the code before the
training step was batched; the checkpoint as ``ckpt_step6.json``, a JSON
object with each MLP's layers as one list. ``ckpt_step6.npz``, which this
test resumes, is a format-2 re-save of it, first made at commit 92ad9cc and
re-saved without the adapter's score bias ``bp`` and its Adam moments when
the adapter dropped that tensor (``test_gan`` checks, value by value, that
the two hold the same floats, and that the dropped ones are round-off).
A refactor must keep the RNG word stream exactly and the math within
round-off of that code.
"""

import json
import os
from dataclasses import replace

from ensad.data import load_jsonl
from ensad.gan import load_checkpoint, train

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def test_golden_checkpoint_resumes_on_the_same_stream():
    with open(os.path.join(GOLDEN, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    ds = load_jsonl(os.path.join(GOLDEN, "data.jsonl"))
    ck = load_checkpoint(os.path.join(GOLDEN, "ckpt_step6.npz"))
    assert ck.step == expected["resume_step"]
    assert ck.rng_position == expected["rng_position_at_resume"]

    rows = []
    out = train(ds, ck.ensad_cfg, replace(ck.gan_cfg, steps=expected["steps"]),
                expected["seed"], resume=ck, log_fn=rows.append)

    assert out.rng_position == expected["final_rng_position"]
    assert [r["step"] for r in rows] == [r["step"] for r in expected["rows"]]
    for got, want in zip(rows, expected["rows"]):
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-12 * max(1.0, abs(value)), (
                f"step {want['step']} {key}: {got[key]!r} != {value!r}")
