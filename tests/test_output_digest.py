"""Smoke test of ``experiments/output_digest.py``: its runs are deterministic
and write the files it is meant to digest."""

from test_protocol import load_experiment


def test_output_digest_is_repeatable():
    module = load_experiment("output_digest")
    first = module.digests()
    # the corpus; a checkpoint, its header and tensors members, and a CSV
    # for each of the 7 presets, the resumed run, the two-phase run, the
    # resumed two-phase run and the 3 variants; the same four for the
    # diverged run, whose checkpoint is its diagnostic one, and its stderr;
    # an eval report, the eval table on stdout and an attention file for 2
    # checkpoints
    assert len(first) == 1 + 4 * (7 + 1 + 1 + 1 + 3) + (4 + 1) + 2 * 3
    # the two-phase run resumed in place writes the uninterrupted run's files
    for suffix in (".npz", ".npz:header", ".npz:tensors", ".csv"):
        assert first["pipeline_resumed" + suffix] == first["pipeline" + suffix]
    assert module.digests() == first
