import io
import json
import os
import socket
import stat
import struct
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

import ensad
from ensad import gan
from ensad.cli import main
from ensad.data import load_jsonl
from ensad.gan import CSV_COLUMNS, load_checkpoint, save_checkpoint
from ensad.numkit import NotPsdError
from test_gan import nan_on_call
from test_loader_properties import (
    HEADER_NPY, TENSORS_NPY, members, npy_bytes, rezip, savez_compressed,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dataset_path(workdir):
    path = workdir / "corpus.jsonl"
    rc = main(["synth", "--out", str(path), "--n-items", "30", "--d", "6",
               "--m", "2", "--d-img", "5", "--sigma-source", "0.2",
               "--sigma-trans", "0.2", "--seed", "3"])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def train_config(workdir):
    cfg = workdir / "train.json"
    cfg.write_text(json.dumps({
        "adapter": {"d_hid": 3, "alpha": 0.3},
        "gan": {"d_z": 4, "gen_hidden": [8], "disc_hidden": [8], "batch": 4},
    }))
    return cfg


@pytest.fixture(scope="module")
def ckpt_path(workdir, dataset_path, train_config):
    path = workdir / "base.json"
    rc = main(["train", "--data", str(dataset_path), "--out", str(path),
               "--config", str(train_config), "--preset", "ensad_frozen_g",
               "--steps", "5", "--seed", "1"])
    assert rc == 0
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert header == list(CSV_COLUMNS)
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_synth_writes_header_and_items(workdir, dataset_path):
    lines = dataset_path.read_text().splitlines()
    assert len(lines) == 31  # header + 30 items
    header = json.loads(lines[0])
    assert header["d"] == 6 and header["m"] == 2 and header["d_img"] == 5


def test_synth_reruns_byte_identical(workdir, dataset_path):
    other = workdir / "corpus2.jsonl"
    rc = main(["synth", "--out", str(other), "--n-items", "30", "--d", "6",
               "--m", "2", "--d-img", "5", "--sigma-source", "0.2",
               "--sigma-trans", "0.2", "--seed", "3"])
    assert rc == 0
    assert other.read_bytes() == dataset_path.read_bytes()


def test_synth_rejects_bad_dimensions(workdir, capsys):
    rc = main(["synth", "--out", str(workdir / "x.jsonl"),
               "--n-items", "0", "--d", "6", "--m", "2", "--d-img", "5"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_synth_config_section(workdir):
    cfg = workdir / "synth.json"
    cfg.write_text(json.dumps({
        "synth": {"n_items": 30, "d": 6, "m": 2, "d_img": 5,
                  "sigma_source": 0.2, "sigma_trans": 0.2},
        "seed": 3,
    }))
    out = workdir / "corpus3.jsonl"
    rc = main(["synth", "--out", str(out), "--config", str(cfg)])
    assert rc == 0
    assert out.read_bytes() == (workdir / "corpus.jsonl").read_bytes()


def test_train_writes_checkpoint_and_log(workdir, ckpt_path):
    assert ckpt_path.read_bytes().startswith(b"PK\x03\x04")
    assert load_checkpoint(ckpt_path).step == 5
    rows = read_csv(workdir / "base.csv")
    assert [row["step"] for row in rows] == ["1", "2", "3", "4", "5"]
    for row in rows:
        for col in CSV_COLUMNS[1:]:
            assert np.isfinite(float(row[col]))


def test_train_frozen_generator_preset(workdir, dataset_path, train_config, ckpt_path):
    # 0-step run captures the init; the 5-step run with the adapter preset
    # must leave every generator tensor bitwise identical to it
    ck0_path = workdir / "init.json"
    rc = main(["train", "--data", str(dataset_path), "--out", str(ck0_path),
               "--config", str(train_config), "--preset", "ensad_frozen_g",
               "--steps", "0", "--seed", "1"])
    assert rc == 0
    ck0 = load_checkpoint(ck0_path).params
    ck5 = load_checkpoint(ckpt_path).params
    assert ck5["generator"].keys() == ck0["generator"].keys()
    for name, arr in ck5["generator"].items():
        assert np.array_equal(arr, ck0["generator"][name]), name
    assert any(not np.array_equal(arr, ck0["ensad"][name])
               for name, arr in ck5["ensad"].items())


def test_train_ablation_zeroes_contrastive_columns(workdir, dataset_path, train_config):
    out = workdir / "ablate.json"
    rc = main(["train", "--data", str(dataset_path), "--out", str(out),
               "--config", str(train_config), "--preset", "ablate_none",
               "--steps", "4", "--seed", "1"])
    assert rc == 0
    for row in read_csv(workdir / "ablate.csv"):
        assert float(row["l_cl"]) == 0.0
        assert float(row["l_cl_d"]) == 0.0
        assert float(row["l_cl_g"]) == 0.0
        assert float(row["l_ad_ensad"]) != 0.0


def test_train_clg_preset_logs_generator_term(workdir, dataset_path, train_config):
    out = workdir / "clg.json"
    rc = main(["train", "--data", str(dataset_path), "--out", str(out),
               "--config", str(train_config), "--preset", "lafite_setup",
               "--steps", "4", "--seed", "1"])
    assert rc == 0
    for row in read_csv(workdir / "clg.csv"):
        assert float(row["l_cl"]) == 0.0
        assert float(row["l_cl_g"]) != 0.0


def test_train_preset_config_conflict(workdir, dataset_path, capsys):
    cfg = workdir / "conflict.json"
    cfg.write_text(json.dumps({
        "adapter": {"d_hid": 3},
        "gan": {"d_z": 4, "gen_hidden": [8], "disc_hidden": [8],
                "batch": 4, "lambda1": 1.0},
    }))
    rc = main(["train", "--data", str(dataset_path),
               "--out", str(workdir / "x.json"), "--config", str(cfg),
               "--preset", "ablate_no_cl", "--steps", "1"])
    assert rc == 2
    assert "conflict" in capsys.readouterr().err


def test_train_resume_matches_straight_run(workdir, dataset_path, train_config):
    full = workdir / "full.json"
    part = workdir / "part.json"
    cont = workdir / "cont.json"
    base = ["train", "--data", str(dataset_path), "--config", str(train_config),
            "--preset", "ensad_frozen_g", "--seed", "6"]
    assert main(base + ["--out", str(full), "--steps", "8"]) == 0
    assert main(base + ["--out", str(part), "--steps", "3"]) == 0
    assert main(base + ["--out", str(cont), "--steps", "8",
                        "--resume", str(part)]) == 0
    assert cont.read_bytes() == full.read_bytes()



def test_train_pipeline_preset(workdir, dataset_path, train_config, capsys):
    out = workdir / "pipe.json"
    rc = main(["train", "--data", str(dataset_path), "--out", str(out),
               "--config", str(train_config), "--preset", "ensad_plus_finetune_g",
               "--steps", "1", "--seed", "2"])
    assert rc == 2  # no phase 1 length
    assert "--phase1-steps (train.phase1_steps): needed by preset" in capsys.readouterr().err
    rc = main(["train", "--data", str(dataset_path), "--out", str(out),
               "--config", str(train_config), "--preset", "ensad_plus_finetune_g",
               "--phase1-steps", "6", "--steps", "5", "--seed", "2"])
    assert rc == 2
    assert "phase1_steps 6 must lie in [0, steps 5]" in capsys.readouterr().err
    assert not out.exists()

    rc = main(["train", "--data", str(dataset_path), "--out", str(out),
               "--config", str(train_config), "--preset", "ensad_plus_finetune_g",
               "--phase1-steps", "3", "--steps", "7", "--seed", "2"])
    assert rc == 0
    rows = read_csv(workdir / "pipe.csv")
    assert [row["step"] for row in rows] == [str(i) for i in range(1, 8)]
    assert load_checkpoint(out).step == 7
    assert capsys.readouterr().out.startswith("trained to step 7;")


@pytest.mark.parametrize("field, value", [("trainable", ["ensad"]), ("conditioning", "ensad")])
def test_train_pipeline_preset_rejects_a_per_phase_gan_field(
        tmp_path, dataset_path, train_config, capsys, field, value):
    # even a value one of the phases would set: the preset sets it per phase
    config = json.loads(train_config.read_text())
    config["gan"][field] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    rc = main(["train", "--data", str(dataset_path), "--out", str(tmp_path / "pipe.npz"),
               "--config", str(cfg), "--preset", "ensad_plus_finetune_g",
               "--phase1-steps", "2", "--steps", "4", "--seed", "2"])
    assert rc == 2
    assert (f"preset/config conflicts: {field} is controlled by preset ensad_plus_finetune_g "
            "per phase" in capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [cfg]


def test_train_pipeline_preset_takes_the_runs_steps_from_flags_or_config(
        tmp_path, dataset_path, train_config):
    # --steps (gan.steps) is the whole run, --phase1-steps (train.phase1_steps)
    # its first phase: 5 steps, 2 of them in phase 2
    config = json.loads(train_config.read_text())
    config["gan"]["steps"] = 5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "train": {"phase1_steps": 3}}))
    base = ["train", "--data", str(dataset_path), "--preset", "ensad_plus_finetune_g",
            "--seed", "2"]
    flags, configured = tmp_path / "flags.npz", tmp_path / "config.npz"
    assert main(base + ["--config", str(train_config), "--phase1-steps", "3", "--steps", "5",
                        "--out", str(flags)]) == 0
    assert main(base + ["--config", str(cfg), "--out", str(configured)]) == 0
    assert configured.read_bytes() == flags.read_bytes()
    ck = load_checkpoint(flags)
    assert (ck.step, ck.gan_cfg.steps, ck.adam.t) == (5, 5, 2)
    assert [row["step"] for row in read_csv(tmp_path / "flags.csv")] == ["1", "2", "3", "4", "5"]


def _pipeline(dataset_path, train_config, out, phase1, steps):
    return main(["train", "--data", str(dataset_path), "--out", str(out),
                 "--config", str(train_config), "--preset", "ensad_plus_finetune_g",
                 "--phase1-steps", str(phase1), "--steps", str(steps), "--seed", "2"])


def _adapter_only(tmp_path, train_config):
    """The train config with phase 2's trainable set, for resuming phase 2."""
    config = json.loads(train_config.read_text())
    config["gan"]["trainable"] = ["ensad"]
    path = tmp_path / "phase2.json"
    path.write_text(json.dumps(config))
    return path


def test_train_replays_a_pipelines_phase2_divergence(tmp_path, dataset_path, train_config,
                                                    monkeypatch):
    # phase 2's second step gives a NaN loss; resuming the diagnostic
    # checkpoint, which keeps its own seed, finishes the uninterrupted run
    assert _pipeline(dataset_path, train_config, tmp_path / "whole.npz", 3, 7) == 0
    with monkeypatch.context() as patch:
        patch.setattr(gan, "step_losses_and_grads", nan_on_call(5))
        assert _pipeline(dataset_path, train_config, tmp_path / "pipe.npz", 3, 7) == 3
    diag = tmp_path / "pipe.diverged.npz"
    assert load_checkpoint(diag).step == 4
    rc = main(["train", "--data", str(dataset_path), "--out", str(tmp_path / "replay.npz"),
               "--config", str(_adapter_only(tmp_path, train_config)),
               "--resume", str(diag), "--steps", "7", "--log", str(tmp_path / "pipe.csv")])
    assert rc == 0
    assert (tmp_path / "replay.npz").read_bytes() == (tmp_path / "whole.npz").read_bytes()
    assert (tmp_path / "pipe.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_train_continues_a_pipeline(tmp_path, dataset_path, train_config):
    # a 5-step pipeline continued to step 9 is the 9-step pipeline
    assert _pipeline(dataset_path, train_config, tmp_path / "whole.npz", 3, 9) == 0
    half = tmp_path / "half.npz"
    assert _pipeline(dataset_path, train_config, half, 3, 5) == 0
    assert load_checkpoint(half).step == 5
    rc = main(["train", "--data", str(dataset_path), "--out", str(half),
               "--config", str(_adapter_only(tmp_path, train_config)),
               "--resume", str(half), "--steps", "9"])
    assert rc == 0
    assert half.read_bytes() == (tmp_path / "whole.npz").read_bytes()
    assert (tmp_path / "half.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize("given", ["flag", "config"])
def test_train_resume_rejects_another_seed(tmp_path, dataset_path, train_config, capsys,
                                           given):
    part = tmp_path / "part.npz"
    base = ["train", "--data", str(dataset_path), "--preset", "ensad_frozen_g"]
    assert main(base + ["--config", str(train_config), "--out", str(part),
                        "--steps", "3", "--seed", "6"]) == 0
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps({**json.loads(train_config.read_text()), "seed": 7}))
    given = (["--seed", "7", "--config", str(train_config)] if given == "flag"
             else ["--config", str(seeded)])
    out = tmp_path / "cont.npz"
    rc = main(base + ["--out", str(out), "--steps", "5", "--resume", str(part), *given])
    assert rc == 2
    assert "created with seed 6, not 7" in capsys.readouterr().err
    assert not out.exists()


def test_train_resume_rejects_steps_below_the_checkpoint(tmp_path, dataset_path,
                                                         train_config, capsys):
    base = ["train", "--data", str(dataset_path), "--config", str(train_config),
            "--preset", "ensad_frozen_g", "--seed", "6"]
    part, out = tmp_path / "part.npz", tmp_path / "cont.npz"
    assert main(base + ["--out", str(part), "--steps", "6"]) == 0
    assert main(base + ["--out", str(out), "--steps", "4", "--resume", str(part)]) == 2
    assert "resume checkpoint is at step 6, past steps 4" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "cont.csv").exists()


def test_train_resume_names_the_differing_config_fields(tmp_path, dataset_path,
                                                        train_config, capsys):
    base = ["train", "--data", str(dataset_path), "--config", str(train_config), "--seed", "6"]
    part, out = tmp_path / "part.npz", tmp_path / "cont.npz"
    assert main(base + ["--preset", "ensad_frozen_g", "--steps", "3", "--out", str(part)]) == 0
    rc = main(base + ["--preset", "ablate_no_cl", "--steps", "6", "--out", str(out),
                      "--resume", str(part)])
    assert rc == 2
    assert ("resume checkpoint has a different gan config: lambda1: 4.0 in the checkpoint, "
            "0.0 given\n") in capsys.readouterr().err
    assert not out.exists()


def _resume_pipeline(dataset_path, train_config, ckpt, out, phase1, steps, *extra):
    """The pipeline preset resuming ``ckpt``, with the flags ``extra``."""
    return main(["train", "--data", str(dataset_path), "--out", str(out),
                 "--config", str(train_config), "--preset", "ensad_plus_finetune_g",
                 "--phase1-steps", str(phase1), "--steps", str(steps),
                 "--resume", str(ckpt), *extra])


def test_train_pipeline_preset_resumes_a_phase1_divergence(tmp_path, dataset_path,
                                                           train_config, monkeypatch):
    # phase 1's second step gives a NaN loss; the preset resumes the
    # diagnostic checkpoint through both phases, on the checkpoint's seed
    assert _pipeline(dataset_path, train_config, tmp_path / "whole.npz", 3, 7) == 0
    with monkeypatch.context() as patch:
        patch.setattr(gan, "step_losses_and_grads", nan_on_call(2))
        assert _pipeline(dataset_path, train_config, tmp_path / "pipe.npz", 3, 7) == 3
    diag = tmp_path / "pipe.diverged.npz"
    assert load_checkpoint(diag).step == 1
    replay = tmp_path / "replay.npz"
    assert _resume_pipeline(dataset_path, train_config, diag, replay, 3, 7,
                            "--log", str(tmp_path / "pipe.csv")) == 0
    assert replay.read_bytes() == (tmp_path / "whole.npz").read_bytes()
    assert (tmp_path / "pipe.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


@pytest.mark.parametrize("seed", [[], ["--seed", "2"]], ids=["own", "run"])
def test_train_pipeline_preset_extends_phase2_in_place(tmp_path, dataset_path, train_config,
                                                       seed):
    # a phase-2 checkpoint carries phase 2's derived seed: with no seed it
    # resumes on that stream, and the run seed derives it
    assert _pipeline(dataset_path, train_config, tmp_path / "whole.npz", 3, 9) == 0
    half = tmp_path / "half.npz"
    assert _pipeline(dataset_path, train_config, half, 3, 5) == 0
    assert _resume_pipeline(dataset_path, train_config, half, half, 3, 9, *seed) == 0
    assert half.read_bytes() == (tmp_path / "whole.npz").read_bytes()
    assert (tmp_path / "half.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_train_pipeline_preset_resume_rejects_what_it_cannot_continue(
        tmp_path, dataset_path, train_config, ckpt_path, capsys):
    half, out = tmp_path / "half.npz", tmp_path / "out.npz"
    assert _pipeline(dataset_path, train_config, half, 3, 5) == 0
    phase2_seed = load_checkpoint(half).rng_seed
    capsys.readouterr()
    cases = [
        (half, 3, 9, ["--seed", "5"],
         f"phase 2's seed {phase2_seed}, which seed 5 does not derive"),
        (half, 2, 9, [], "phase 2 began at step 3, not at phase1_steps 2"),
        (half, 3, 4, [], "resume checkpoint is at step 5, past steps 4"),
        (half, 6, 5, [], "phase1_steps 6 must lie in [0, steps 5]"),
        # an ensad_frozen_g checkpoint
        (ckpt_path, 2, 4, [], 'trainable: ["discriminator", "ensad"] in the checkpoint, '
                              '["discriminator", "generator"] given'),
    ]
    for ckpt, phase1, steps, extra, message in cases:
        assert _resume_pipeline(dataset_path, train_config, ckpt, out, phase1, steps,
                                *extra) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "out.csv").exists()


def test_train_divergence_exit_code(workdir, dataset_path, capsys):
    cfg = workdir / "diverge.json"
    cfg.write_text(json.dumps({
        "adapter": {"d_hid": 3},
        "gan": {"d_z": 4, "gen_hidden": [8], "disc_hidden": [8],
                "batch": 4, "lr": 1e300},
    }))
    out = workdir / "boom.json"
    rc = main(["train", "--data", str(dataset_path), "--out", str(out),
               "--config", str(cfg), "--preset", "ensad_frozen_g",
               "--steps", "30", "--seed", "1"])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err
    assert (workdir / "boom.diverged.json").exists()
    assert not out.exists()
    assert load_checkpoint(workdir / "boom.diverged.json").step >= 1



@pytest.mark.parametrize("out, diag", [("boom.ckpt", "boom.diverged.ckpt"),
                                       ("boom", "boom.diverged")])
def test_train_divergence_path_keeps_extension(tmp_path, dataset_path, capsys, out, diag):
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps({
        "adapter": {"d_hid": 3},
        "gan": {"d_z": 4, "gen_hidden": [8], "disc_hidden": [8],
                "batch": 4, "lr": 1e300},
    }))
    rc = main(["train", "--data", str(dataset_path), "--out", str(tmp_path / out),
               "--config", str(cfg), "--preset", "ensad_frozen_g",
               "--steps", "30", "--seed", "1"])
    assert rc == 3
    assert str(tmp_path / diag) in capsys.readouterr().err
    assert load_checkpoint(tmp_path / diag).step >= 1
    assert not (tmp_path / out).exists()

def test_eval_prints_and_saves(workdir, dataset_path, ckpt_path, capsys):
    report_path = workdir / "report.json"
    rc = main(["eval", "--ckpt", str(ckpt_path), "--data", str(dataset_path),
               "--n-gen", "24", "--seed", "9", "--out", str(report_path)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert "strategy" in lines[0]
    assert len([ln for ln in lines[1:] if ln and "report" not in ln]) == 4
    report = json.loads(report_path.read_text())
    assert [row["strategy"] for row in report["results"]] == [
        "ensad", "zero_shot", "translate_test", "mean_pool"]
    # printed rows are sorted ascending by score
    printed = [ln.split()[-1] for ln in lines[1:5]]
    assert printed == sorted(printed, key=float)

    rc = main(["eval", "--ckpt", str(ckpt_path), "--data", str(dataset_path),
               "--n-gen", "24", "--seed", "9",
               "--out", str(workdir / "report2.json")])
    assert rc == 0
    assert (workdir / "report2.json").read_bytes() == report_path.read_bytes()


def test_eval_rejects_tiny_sample(workdir, dataset_path, ckpt_path, capsys):
    rc = main(["eval", "--ckpt", str(ckpt_path), "--data", str(dataset_path),
               "--n-gen", "1", "--seed", "9"])
    assert rc == 2
    assert "error: eval n_gen: expected an integer in [2, 2**64), got 1" in capsys.readouterr().err

    # the count is checked before any file is read
    rc = main(["eval", "--ckpt", str(workdir / "missing.npz"),
               "--data", str(workdir / "missing.jsonl"), "--n-gen", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: eval n_gen: expected an integer in [2, 2**64), got 1" in err
    assert "missing" not in err


def test_eval_rejects_a_one_item_dataset_by_its_count(workdir, ckpt_path, capsys):
    one = workdir / "one.jsonl"
    assert main(["synth", "--out", str(one), "--n-items", "1", "--d", "6", "--m", "2",
                 "--d-img", "5", "--seed", "3"]) == 0
    report_path = workdir / "one_report.json"
    rc = main(["eval", "--ckpt", str(ckpt_path), "--data", str(one), "--n-gen", "8",
               "--out", str(report_path)])
    assert rc == 2
    assert "dataset has 1 item; need at least 2 to fit moments" in capsys.readouterr().err
    assert not report_path.exists()


def test_inspect_attn_outputs_sorted_weights(workdir, dataset_path,
                                             ckpt_path, capsys):
    rc = main(["inspect-attn", "--ckpt", str(ckpt_path),
               "--data", str(dataset_path), "--limit", "5"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5
    for line in lines:
        rec = json.loads(line)
        scores = rec["scores"]
        assert len(scores) == 2
        assert scores == sorted(scores, reverse=True)
        assert abs(sum(scores) - 1.0) < 1e-9


def test_inspect_attn_write_and_limit_validation(workdir, dataset_path,
                                                 ckpt_path, capsys):
    out = workdir / "attn.jsonl"
    rc = main(["inspect-attn", "--ckpt", str(ckpt_path),
               "--data", str(dataset_path), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    assert len(out.read_text().splitlines()) == 30

    rc = main(["inspect-attn", "--ckpt", str(ckpt_path),
               "--data", str(dataset_path), "--limit", "0"])
    assert rc == 2
    assert "error: limit must be positive" in capsys.readouterr().err

    # the flag is checked before any file is read
    rc = main(["inspect-attn", "--ckpt", str(workdir / "missing.npz"),
               "--data", str(workdir / "missing.jsonl"), "--limit", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error: limit must be positive" in err and "missing" not in err


def test_param_count_defaults_and_small(capsys):
    assert main(["param-count"]) == 0
    assert capsys.readouterr().out.strip() == "655872"
    assert main(["param-count", "--d", "2", "--d-hid", "1", "--m", "5"]) == 0
    assert capsys.readouterr().out.strip() == "12"


def test_param_count_rejects_bad_dims(capsys):
    assert main(["param-count", "--d", "0"]) == 2
    assert "error" in capsys.readouterr().err


GOLDEN = Path(__file__).resolve().parent / "golden"
# Nesting deeper than the JSON parser's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000
# A 401-digit integer, beyond the float range
HUGE = 10 ** 400


def _members(mutate):
    """A format-2 mutation that rewrites the archive: ``mutate`` takes the
    header (a dict) and the tensor vector, and returns the members to write;
    a dict header is encoded back to JSON bytes."""
    def apply(raw):
        with np.load(io.BytesIO(raw)) as archive:
            header = json.loads(archive["header"].tobytes())
            tensors = archive["tensors"]
        members = mutate(header, tensors)
        if isinstance(members.get("header"), dict):
            members["header"] = np.frombuffer(json.dumps(members["header"]).encode(), np.uint8)
        buf = io.BytesIO()
        np.savez(buf, **members)
        return buf.getvalue()
    return apply


def _header(mutate):
    def edit(header, tensors):
        mutate(header)
        return {"header": header, "tensors": tensors}
    return _members(edit)


def _tensors(mutate):
    return _members(lambda header, tensors: {"header": header, "tensors": mutate(tensors.copy())})


def _set_entry(i, value):
    def mutate(tensors):
        tensors[i] = value
        return tensors
    return mutate


def _poke(signature, offset, change):
    """Change the byte ``offset`` bytes after the last ``signature``."""
    def apply(raw):
        at = raw.rindex(signature) + offset
        return raw[:at] + bytes([change(raw[at])]) + raw[at + 1:]
    return apply


_CENTRAL_DIR = b"PK\x01\x02"
_END_OF_DIR = b"PK\x05\x06"


def _in_tensors(mutate):
    """A change to the tensors member's npy bytes, the zip CRC-32 kept
    matching, so that the npy header is what differs."""
    def apply(raw):
        with zipfile.ZipFile(io.BytesIO(raw)) as archive:
            npy = archive.read("tensors.npy")
        return rezip(raw, tensors=mutate(npy))
    return apply


def _overlong_tensors(raw):
    """The tensor vector claims more values, and its member more bytes, than
    the file holds."""
    at = raw.rindex(b"'shape': (") + len(b"'shape': (")
    raw = raw[:at] + b"9" + raw[at + 1:]
    at = raw.rindex(_CENTRAL_DIR) + 20  # compressed, then uncompressed size
    return raw[:at] + struct.pack("<II", len(raw), len(raw)) + raw[at + 8:]


def _with_score_bias(raw):
    """The golden archive as written before the adapter dropped its score
    bias ``bp``: bp's trained value and Adam moments back after ``wp`` in
    the adapter's parameters, ``m`` and ``v``, framed by ``gan._archive``."""
    got = members(raw)
    params = load_checkpoint(GOLDEN / "ckpt_step6.npz").params
    n_params = sum(t.size for tree in params.values() for t in tree.values())
    wp_end = sum(params["ensad"][name].size for name in ("wq", "wk", "wv", "b", "wp"))
    at = n_params + wp_end  # the adapter's m comes first among the moments
    n_ensad = sum(t.size for t in params["ensad"].values())
    tensors = np.insert(got["tensors"], [wp_end, at, at + n_ensad],
                        [2.016616038407186e-12, -1.214306433183765e-17, 1.1995363431062412e-35])
    return b"".join(gan._archive(got["header"].tobytes(), tensors))


def _raise_generator_t(header):
    """One trained component's Adam step count one past the others'."""
    header["adam"]["generator"] += 1


# (mutation of the archive's bytes, the message: "checkpoint field '<field>': ...",
# or the reason after "checkpoint <path>: not a readable archive: ", or, for
# None, that prefix and "bytes ")
FORMAT2_CASES = {
    "truncated": (lambda raw: raw[: len(raw) // 2], None),
    "magic_only": (lambda raw: raw[:4], None),
    # a changed byte of the header's JSON changes its CRC-32
    "crc_mismatch": (lambda raw: raw[:200] + bytes([raw[200] ^ 1]) + raw[201:], HEADER_NPY),
    "local_name_differs": (lambda raw: raw.replace(b"tensors.npy", b"tensorz.npy", 1),
                           TENSORS_NPY),
    # np.load reads these two; the first crashed the loader
    "member_not_npy": (lambda raw: rezip(raw, tensors=b"tensors"), None),
    "compressed": (savez_compressed, HEADER_NPY),
    # faults in the zip directory and the npy header
    "encrypted_flag": (_poke(_CENTRAL_DIR, 8, lambda b: b | 1),
                       "bytes 13364-13499 (zip directory) differ from format 2's layout"),
    "zip_version_10_9": (_poke(_CENTRAL_DIR, 6, lambda b: 109), None),
    "directory_offset_plus_1": (_poke(_END_OF_DIR, 16, lambda b: b + 1), None),
    "npy_header_cut_short": (_in_tensors(_poke(b"\x93NUMPY", 8, lambda b: 54)), None),
    "npy_descr_syntax": (_in_tensors(lambda npy: npy.replace(b"'<f8'", b"',f8'")), None),
    "member_past_end": (_overlong_tensors, None),
    "missing_header": (_members(lambda h, t: {"tensors": t}), None),
    "extra_member": (_members(lambda h, t: {"header": h, "tensors": t, "x": t}), None),
    # np.load reads these; the reader reads only the members' npy 1.0
    # headers save_checkpoint writes: a uint8 header and a float64 tensors
    # vector
    "pickled_tensors": (_members(lambda h, t: {"header": h, "tensors": t.astype(object)}),
                        TENSORS_NPY),
    "tensors_2d": (_tensors(lambda t: t.reshape(1, -1)), TENSORS_NPY),
    "npy_version_2": (lambda raw: rezip(raw, tensors=npy_bytes(members(raw)["tensors"], (2, 0))),
                      TENSORS_NPY),
    "header_not_json": (_members(lambda h, t: {"header": np.frombuffer(b"{", np.uint8),
                                               "tensors": t}), "checkpoint field 'header'"),
    "header_float64": (_members(lambda h, t: {"header": np.zeros(3), "tensors": t}),
                       HEADER_NPY),
    "version_1": (_header(lambda h: h.update(version=1)),
                  "checkpoint field 'version': unsupported checkpoint version 1"),
    "version_float": (_header(lambda h: h.update(version=2.0)),
                      "checkpoint field 'version': unsupported checkpoint version 2.0"),
    "header_deeply_nested": (_members(lambda h, t: {
        "header": np.frombuffer(DEEP_JSON.encode(), np.uint8), "tensors": t}),
        "checkpoint field 'header'"),
    "missing_step": (_header(lambda h: h.pop("step")),
                     "checkpoint field 'step': missing key 'step'"),
    "negative_rng_position": (_header(lambda h: h["rng"].update(position=-3)),
                              "checkpoint field 'rng.position': expected an integer in "
                              "[0, 2**64), got -3"),
    "unknown_rng_algorithm": (_header(lambda h: h["rng"].update(algorithm="mt19937")),
                              "checkpoint field 'rng.algorithm': unknown rng algorithm "
                              "'mt19937'"),
    "unknown_gan_key": (_header(lambda h: h["configs"]["gan"].update(width=3)),
                        "checkpoint field 'configs.gan'"),
    # the golden checkpoint trains the adapter
    "adapter_without_ensad_conditioning": (
        _header(lambda h: h["configs"]["gan"].update(conditioning="zero_shot")),
        "checkpoint field 'configs.gan'"),
    "variant_not_boolean": (
        _header(lambda h: h["configs"]["adapter"].update(variant_v_equals_k="false")),
        "checkpoint field 'configs.adapter': variant_v_equals_k: expected a boolean, got 'false'"),
    "enable_clg_not_boolean": (_header(lambda h: h["configs"]["gan"].update(enable_clg=1)),
                               "checkpoint field 'configs.gan': enable_clg: expected a boolean, "
                               "got 1"),
    **{f"{name}_not_a_list": (_header(lambda h, name=name: h["configs"]["gan"].update({name: 8})),
                              f"checkpoint field 'configs.gan': {name}: expected a list, got 8")
       for name in ("gen_hidden", "disc_hidden", "trainable")},
    "missing_adam_component": (_header(lambda h: h["adam"].pop("generator")),
                               "checkpoint field 'adam': optimizer state for ['discriminator', "
                               "'ensad'], expected the trainable ['discriminator', 'ensad', "
                               "'generator']"),
    "negative_adam_t": (_header(lambda h: h["adam"].update(ensad=-1)),
                        "checkpoint field 'adam.ensad'"),
    "unequal_adam_t": (_header(_raise_generator_t),
                       "checkpoint field 'adam': step counts differ: "
                       "{'discriminator': 6, 'ensad': 6, 'generator': 7}"),
    "tensors_float32": (_tensors(lambda t: t.astype(np.float32)), TENSORS_NPY),
    "tensors_short": (_tensors(lambda t: t[:-1]),
                      "checkpoint field 'tensors': expected 1551 float64 values, "
                      "got float64 (1550,)"),
    # an archive written while the adapter had a score bias: no migration
    "score_bias_bp": (_with_score_bias,
                      "checkpoint field 'tensors': expected 1551 float64 values, "
                      "got float64 (1554,)"),
    "nan_parameter": (_tensors(_set_entry(0, np.nan)), "checkpoint field 'params.ensad'"),
    "inf_generator": (_tensors(_set_entry(200, np.inf)), "checkpoint field 'params.generator'"),
    # the vector ends with the discriminator's v
    "negative_adam_v": (_tensors(_set_entry(-1, -1.0)), "checkpoint field 'adam.discriminator'"),
}


@pytest.mark.parametrize("case", sorted(FORMAT2_CASES))
def test_eval_rejects_malformed_format2_checkpoint(tmp_path, capsys, case):
    mutate, expected = FORMAT2_CASES[case]
    bad = tmp_path / "bad.json"
    bad.write_bytes(mutate((GOLDEN / "ckpt_step6.npz").read_bytes()))
    rc = main(["eval", "--ckpt", str(bad), "--data", str(GOLDEN / "data.jsonl"),
               "--n-gen", "8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert (expected or f"checkpoint {bad}: not a readable archive: bytes ") in err, err


def _on_bytes(mutate):
    """A case that writes ``mutate`` of the golden archive's bytes."""
    return lambda path: path.write_bytes(mutate((GOLDEN / "ckpt_step6.npz").read_bytes()))


def _on_checkpoint(mutate):
    """A case that edits the loaded golden checkpoint in place and saves it:
    save_checkpoint writes what it is given without checking it."""
    def write(path):
        ck = load_checkpoint(GOLDEN / "ckpt_step6.npz")
        mutate(ck)
        save_checkpoint(ck, str(path))
    return write


def _truncate_adam_m(ck):
    m = ck.adam.m["ensad"]
    name = next(iter(m))
    m[name] = m[name].ravel()[:-1]


def _negate_adam_v(ck):
    next(iter(ck.adam.v["generator"].values())).flat[0] = -1.0


# (writer of the bad file, the field the message names; None: the path)
MALFORMED_CASES = {
    "missing_step": (_on_bytes(_header(lambda h: h.pop("step"))), "step"),
    "missing_params": (_on_bytes(_members(lambda h, t: {"header": h})), None),
    "missing_rng_seed": (_on_bytes(_header(lambda h: h["rng"].pop("seed"))), "rng.seed"),
    "unknown_adapter_key": (
        _on_bytes(_header(lambda h: h["configs"]["adapter"].update(width=3))),
        "configs.adapter"),
    "truncated_adam_m": (_on_checkpoint(_truncate_adam_m), "tensors"),
    "negative_adam_v": (_on_checkpoint(_negate_adam_v), "adam.generator"),
    "negative_step": (_on_bytes(_header(lambda h: h.update(step=-5))), "step"),
    "negative_rng_position": (
        _on_bytes(_header(lambda h: h["rng"].update(position=-3))), "rng.position"),
    "version_true": (_on_bytes(_header(lambda h: h.update(version=True))), "version"),
    "version_float": (_on_bytes(_header(lambda h: h.update(version=2.0))), "version"),
    "deeply_nested": (lambda path: path.write_text(DEEP_JSON), None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CASES))
def test_eval_rejects_malformed_checkpoint(tmp_path, capsys, case):
    """The checkpoint's field rules, on both readers of a checkpoint: eval
    refuses the file, and train --resume refuses it before writing anything."""
    write, field = MALFORMED_CASES[case]
    bad = tmp_path / "bad.npz"
    write(bad)
    expected = f"checkpoint field '{field}'" if field else str(bad)
    rc = main(["eval", "--ckpt", str(bad), "--data", str(GOLDEN / "data.jsonl"),
               "--n-gen", "8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert expected in err, err
    out = tmp_path / "out.npz"
    rc = main(["train", "--data", str(GOLDEN / "data.jsonl"), "--out", str(out),
               "--steps", "8", "--resume", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert expected in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.npz"]


def _npy(path):
    np.save(path, np.zeros(3))


def _huge_bias(path):
    obj = json.loads((GOLDEN / "ckpt_step6.json").read_text())
    obj["params"]["ensad"]["bp"] = HUGE
    path.write_text(json.dumps(obj))


@pytest.mark.parametrize("write", [None, _npy, lambda path: path.write_bytes(b""),
                                   _huge_bias],
                         ids=["golden_json", "npy", "empty", "json_huge_integer"])
def test_eval_rejects_a_file_that_is_not_an_archive(tmp_path, capsys, write):
    """Only format 2 loads: the JSON view of the golden checkpoint, as is
    or with a bias beyond the float range, an .npy array and an empty file
    are refused by path."""
    bad = GOLDEN / "ckpt_step6.json"
    if write is not None:
        bad = tmp_path / "bad.npy"
        write(bad)
    rc = main(["eval", "--ckpt", str(bad), "--data", str(GOLDEN / "data.jsonl"),
               "--n-gen", "8"])
    assert rc == 2
    assert f"checkpoint {bad}: not a format-2 archive" in capsys.readouterr().err


@pytest.mark.parametrize("config, field", [
    ({"gan": {"lr": HUGE}}, "lr"),
    ({"gan": {"lr": float("nan")}}, "lr"),
    ({"gan": {"lambda1": float("nan")}}, "lambda1"),
    ({"gan": {"tau": float("inf")}}, "tau"),
    ({"gan": {"lr": True}}, "lr"),
], ids=["lr_huge", "lr_nan", "lambda1_nan", "tau_inf", "lr_bool"])
def test_float_config_fields_rejected(dataset_path, tmp_path, capsys, config, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.npz"
    rc = main(["train", "--data", str(dataset_path), "--out", str(out), "--config", str(cfg),
               "--preset", "ensad_frozen_g", "--steps", "3"])
    assert rc == 2
    assert f"bad gan config: {field}: expected a finite number in " in capsys.readouterr().err
    assert not out.exists()


def test_resume_rejects_a_float_header_field_beyond_the_float_range(
        dataset_path, train_config, ckpt_path, tmp_path, capsys):
    bad = tmp_path / "bad.npz"
    bad.write_bytes(_header(lambda h: h["configs"]["gan"].update(lr=HUGE))(
        ckpt_path.read_bytes()))
    out = tmp_path / "out.npz"
    rc = main(["train", "--data", str(dataset_path), "--out", str(out),
               "--config", str(train_config), "--preset", "ensad_frozen_g",
               "--steps", "8", "--seed", "1", "--resume", str(bad)])
    assert rc == 2
    assert ("checkpoint field 'configs.gan': lr: expected a finite number"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("section, field, value, expected", [
    ("gan", "disc_hidden", [], "at least one hidden layer"),
    ("gan", "tau", 0, "a finite number in (0, inf)"),
    ("gan", "lambda1", -1, "a finite number in [0, inf)"),
    ("gan", "lambda2", -0.5, "a finite number in [0, inf)"),
    ("gan", "lr", 0.0, "a finite number in (0, inf)"),
    ("gan", "beta1", 1, "a finite number in [0, 1)"),
    ("gan", "beta2", -0.1, "a finite number in [0, 1)"),
    ("gan", "noise_p0", 1.5, "a finite number in [0, 1]"),
    ("gan", "noise_pt", -0.01, "a finite number in [0, 1]"),
    ("gan", "d_z", 0, "an integer in [1, 2**64)"),
    ("gan", "gen_hidden", 8, "a list"),
    ("gan", "disc_hidden", 8, "a list"),
    ("gan", "enable_clg", 1, "a boolean"),
    ("adapter", "alpha", 1.5, "a finite number in [0, 1]"),
    ("adapter", "variant_v_equals_k", "false", "a boolean"),
    ("synth", "sigma_source", -0.1, "a finite number in [0, inf)"),
    ("synth", "sigma_trans", -1, "a finite number in [0, inf)"),
], ids=["disc_hidden", "tau", "lambda1", "lambda2", "lr", "beta1", "beta2", "noise_p0",
        "noise_pt", "d_z", "gen_hidden_int", "disc_hidden_int", "enable_clg_int", "alpha",
        "variant_v_equals_k_str", "sigma_source", "sigma_trans"])
def test_out_of_range_config_fields_rejected(dataset_path, tmp_path, capsys, section, field,
                                             value, expected):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {field: value}}))
    out = tmp_path / "out.npz"
    argv = (["synth", "--n-items", "3", "--d", "6", "--m", "2", "--d-img", "5"]
            if section == "synth" else
            ["train", "--data", str(dataset_path), "--preset", "ensad_frozen_g", "--steps", "3"])
    assert main(argv + ["--out", str(out), "--config", str(cfg)]) == 2
    shown = tuple(value) if isinstance(value, list) else value
    assert (f"error: bad {section} config: {field}: expected {expected}, got {shown!r}\n"
            == capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("gan, expected", [
    ({"trainable": ["ensad", "x"]},
     "trainable: expected a subset of ('ensad', 'generator', 'discriminator'), got ['x']"),
    ({"conditioning": "x"}, "conditioning: expected one of ('ensad', 'zero_shot', "
     "'translate_test', 'mean_pool'), got 'x'"),
    ({"conditioning": "zero_shot"},
     "conditioning: training the adapter requires 'ensad', got 'zero_shot'"),
], ids=["trainable_unknown", "conditioning_unknown", "adapter_without_ensad"])
def test_gan_config_membership_rules_rejected(dataset_path, tmp_path, capsys, gan, expected):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gan": {**gan, "steps": 3}}))
    rc = main(["train", "--data", str(dataset_path), "--out", str(tmp_path / "out.npz"),
               "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == f"error: bad gan config: {expected}\n"
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("extra", [[], ["--preset", "ensad_plus_finetune_g",
                                        "--phase1-steps", "2"]], ids=["train", "pipeline"])
def test_train_requires_a_run_length(dataset_path, ckpt_path, tmp_path, capsys, monkeypatch,
                                     extra):
    def fail(*args, **kwargs):
        raise AssertionError("an input was read")
    monkeypatch.setattr("ensad.cli.load_jsonl", fail)
    monkeypatch.setattr("ensad.cli.load_checkpoint", fail)
    rc = main(["train", "--data", str(dataset_path), "--out", str(tmp_path / "out.npz"),
               "--resume", str(ckpt_path), *extra])
    assert rc == 2
    assert capsys.readouterr().err == "error: --steps (gan.steps): needed to train\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_unreadable_config_rejected(tmp_path, capsys, where):
    cfg = tmp_path / "cfg.json"
    if where == "directory":
        cfg.mkdir()
    rc = main(["synth", "--out", str(tmp_path / "out.jsonl"), "--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read config {cfg}: ")
    assert not (tmp_path / "out.jsonl").exists()


def test_train_rejects_a_dataset_line_that_is_not_an_object(tmp_path, capsys):
    data = tmp_path / "data.jsonl"
    header = (GOLDEN / "data.jsonl").read_text().splitlines()[0]
    data.write_text(header + "\n[1, 2]\n")
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "out.npz"),
               "--steps", "1"])
    assert rc == 2
    assert capsys.readouterr().err == "error: line 2: expected a JSON object\n"
    assert list(tmp_path.iterdir()) == [data]


def test_synth_rejects_a_nan_sigma(tmp_path, capsys):
    out = tmp_path / "corpus.jsonl"
    rc = main(["synth", "--out", str(out), "--n-items", "3", "--d", "6", "--m", "2",
               "--d-img", "5", "--sigma-source", "nan"])
    assert rc == 2
    assert "bad synth config: sigma_source: expected a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("which", ["ckpt", "data"])
def test_eval_rejects_directory_path(tmp_path, capsys, which):
    paths = {"ckpt": str(GOLDEN / "ckpt_step6.npz"),
             "data": str(GOLDEN / "data.jsonl"), which: str(tmp_path)}
    rc = main(["eval", "--ckpt", paths["ckpt"], "--data", paths["data"],
               "--n-gen", "8"])
    assert rc == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_linalg_failure_exits_3(workdir, dataset_path, ckpt_path, capsys,
                                monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr("ensad.cli.compare_strategies", fail)
    rc = main(["eval", "--ckpt", str(ckpt_path), "--data", str(dataset_path),
               "--n-gen", "8"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_a_covariance_that_is_not_psd_exits_3(workdir, dataset_path, ckpt_path, capsys,
                                             monkeypatch):
    # NotPsdError is a ValueError, and it must not take the exit 2 branch
    def fail(*args, **kwargs):
        raise NotPsdError("eigenvalue -1.000e-03 below PSD tolerance 1e-08")
    monkeypatch.setattr("ensad.cli.compare_strategies", fail)
    rc = main(["eval", "--ckpt", str(ckpt_path), "--data", str(dataset_path),
               "--n-gen", "8"])
    assert rc == 3
    assert capsys.readouterr().err == ("numerical failure: eigenvalue -1.000e-03 below PSD "
                                       "tolerance 1e-08\n")


def test_config_errors(workdir, dataset_path, capsys):
    bad = workdir / "bad.json"
    bad.write_text("{not json")
    rc = main(["train", "--data", str(dataset_path),
               "--out", str(workdir / "x.json"), "--config", str(bad),
               "--steps", "1"])
    assert rc == 2

    unknown = workdir / "unknown.json"
    unknown.write_text(json.dumps({"optimizer": {}}))
    rc = main(["train", "--data", str(dataset_path),
               "--out", str(workdir / "x.json"), "--config", str(unknown),
               "--steps", "1"])
    assert rc == 2
    assert (f"config {unknown} has unknown sections ['optimizer']; known sections are "
            in capsys.readouterr().err)

    deep = workdir / "deep.json"
    deep.write_text(DEEP_JSON)
    rc = main(["train", "--data", str(dataset_path),
               "--out", str(workdir / "x.json"), "--config", str(deep),
               "--steps", "1"])
    assert rc == 2
    assert f"config {deep} is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, message", [
    ("train", "[1, 2]", "config {cfg} must be a JSON object"),
    ("train", '{"gan": [1]}', "config section 'gan' must be a JSON object"),
    ("eval", '{"eval": {"n_gem": 8}}', "unknown eval-section keys ['n_gem']"),
    ("pipeline", '{"train": {"phase1_steps": 2, "phase2_steps": 2}}',
     "unknown train-section keys ['phase2_steps']"),
    ("train", '{"adapter": {"d": 7}}', "adapter config d=7 conflicts with dataset d=6"),
], ids=["not_an_object", "section_not_an_object", "unknown_eval_key",
        "train_phase2_steps", "adapter_d_not_the_datasets"])
def test_config_errors_name_the_field_or_path(dataset_path, ckpt_path, tmp_path, capsys,
                                              command, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "out.npz"
    train = ["train", "--data", str(dataset_path), "--steps", "4"]
    argv = {
        "train": train,
        "pipeline": train + ["--preset", "ensad_plus_finetune_g"],
        "eval": ["eval", "--ckpt", str(ckpt_path), "--data", str(dataset_path)],
    }[command]
    assert main(argv + ["--out", str(out), "--config", str(cfg)]) == 2
    assert message.format(cfg=cfg) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


def test_config_with_an_overlong_integer_names_the_file(dataset_path, tmp_path, capsys):
    # json.loads raises a plain ValueError for an integer of more than 4,300
    # digits, not a JSONDecodeError
    cfg = tmp_path / "big.json"
    cfg.write_text('{"gan": {"lr": %s}}' % ("9" * 5000))
    out = tmp_path / "out.npz"
    rc = main(["train", "--data", str(dataset_path), "--out", str(out), "--config", str(cfg),
               "--preset", "ensad_frozen_g", "--steps", "3"])
    assert rc == 2
    assert f"error: config {cfg} is not valid JSON: Exceeds the limit" in capsys.readouterr().err
    assert not out.exists()


def test_resume_rejects_unequal_adam_step_counts(dataset_path, train_config, tmp_path,
                                                 capsys):
    base = ["train", "--data", str(dataset_path), "--config", str(train_config),
            "--preset", "finetune_g_text", "--seed", "6"]
    part = tmp_path / "part.npz"
    assert main(base + ["--out", str(part), "--steps", "3"]) == 0
    bad = tmp_path / "bad.npz"
    bad.write_bytes(_header(_raise_generator_t)(part.read_bytes()))
    capsys.readouterr()
    out = tmp_path / "out.npz"
    inputs = ["--ckpt", str(bad), "--data", str(dataset_path)]
    for args in (base + ["--out", str(out), "--steps", "5", "--resume", str(bad)],
                 ["eval", *inputs, "--n-gen", "8"],
                 ["inspect-attn", *inputs]):
        assert main(args) == 2, args
        assert "checkpoint field 'adam': step counts differ" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.npz", "part.csv", "part.npz"]


@pytest.mark.parametrize("command, config, field", [
    ("train", {"gan": {"steps": 3.5}}, "steps"),
    ("train", {"gan": {"batch": 4.5, "steps": 3}}, "batch"),
    ("train", {"adapter": {"d_hid": 4.5}, "gan": {"steps": 3}}, "d_hid"),
    ("train", {"gan": {"gen_hidden": [8.7], "steps": 3}}, "gen_hidden"),
    ("train", {"seed": True, "gan": {"steps": 3}}, "seed"),
    ("train", {"gan": {"steps": True}}, "steps"),
    ("pipeline", {"train": {"phase1_steps": 2.9}, "gan": {"steps": 3}}, "phase1_steps"),
    ("eval", {"eval": {"n_gen": 9.5}}, "n_gen"),
    ("eval", {"eval": {"n_gen": "12"}}, "n_gen"),
    ("synth", {"synth": {"n_items": 3.0, "d": 6, "m": 2, "d_img": 5}}, "n_items"),
], ids=["steps_float", "batch_float", "d_hid_float", "gen_hidden_float",
        "seed_bool", "steps_bool", "phase1_float", "n_gen_float", "n_gen_string",
        "n_items_float"])
def test_integer_config_fields_rejected(workdir, dataset_path, ckpt_path,
                                        tmp_path, capsys, command, config, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out.json"
    argv = {
        "train": ["train", "--data", str(dataset_path), "--out", str(out),
                  "--preset", "ensad_frozen_g"],
        "pipeline": ["train", "--data", str(dataset_path), "--out", str(out),
                     "--preset", "ensad_plus_finetune_g"],
        "eval": ["eval", "--ckpt", str(ckpt_path), "--data", str(dataset_path)],
        "synth": ["synth", "--out", str(out)],
    }[command]
    rc = main(argv + ["--config", str(cfg)])
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("where", ["out_is_directory", "log_is_directory",
                                   "parent_is_file"])
def test_train_rejects_unwritable_output_before_training(
        workdir, dataset_path, tmp_path, capsys, monkeypatch, where):
    def fail(*args, **kwargs):
        raise AssertionError("training started")
    monkeypatch.setattr("ensad.cli.load_jsonl", fail)
    monkeypatch.setattr("ensad.cli.train", fail)
    (tmp_path / "file").write_text("")
    out, log = tmp_path / "run.json", tmp_path / "run.csv"
    if where == "out_is_directory":
        out.mkdir()
    elif where == "log_is_directory":
        log.mkdir()
    else:
        out, log = tmp_path / "file" / "run.json", tmp_path / "file" / "run.csv"
    rc = main(["train", "--data", str(dataset_path), "--out", str(out),
               "--log", str(log), "--steps", "30"])
    assert rc == 2
    assert {"out_is_directory": f"output path {out} is a directory",
            "log_is_directory": f"output path {log} is a directory",
            "parent_is_file": f"cannot write {out}: {tmp_path / 'file'} is not a writable "
                              "directory"}[where] in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["file", *(["run.json"] * (where == "out_is_directory")),
         *(["run.csv"] * (where == "log_is_directory"))])


SMALL_SYNTH = ["--n-items", "3", "--d", "3", "--m", "2", "--d-img", "2"]


def test_output_in_missing_directories_is_written(tmp_path):
    # the check walks up to the nearest existing ancestor; the writer makes the rest
    out = tmp_path / "new" / "deeper" / "c.jsonl"
    assert main(["synth", "--out", str(out), *SMALL_SYNTH]) == 0
    assert len(load_jsonl(out)) == 3


def test_output_below_a_file_is_rejected(tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    out = afile / "sub" / "c.jsonl"
    assert main(["synth", "--out", str(out), *SMALL_SYNTH]) == 2
    assert (f"error: cannot write {out}: {afile} is not a writable directory\n"
            == capsys.readouterr().err)
    assert list(tmp_path.iterdir()) == [afile] and afile.read_text() == ""


def test_a_symlinked_output_updates_its_target_and_keeps_the_link(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    target = tmp_path / "b" / "target.jsonl"
    target.write_text("old\n")
    link = tmp_path / "a" / "link.jsonl"
    link.symlink_to(Path("..") / "b" / "target.jsonl")
    assert main(["synth", "--out", str(link), *SMALL_SYNTH]) == 0
    assert link.is_symlink() and os.readlink(link) == os.path.join("..", "b", "target.jsonl")
    assert len(load_jsonl(target)) == 3
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["a", "b", "link.jsonl",
                                                         "target.jsonl"]


@pytest.mark.parametrize("kind", ["FIFO", "socket"])
def test_an_output_that_is_not_a_regular_file_exits_2(tmp_path, capsys, monkeypatch, kind):
    monkeypatch.chdir(tmp_path)  # a short socket address
    out = "out.jsonl"
    with socket.socket(socket.AF_UNIX) as sock:
        if kind == "FIFO":
            os.mkfifo(out)
        else:
            sock.bind(out)
        assert main(["synth", "--out", out, *SMALL_SYNTH]) == 2
        assert capsys.readouterr().err == f"error: output path {out} is a {kind}\n"
        assert [p.name for p in tmp_path.iterdir()] == [out]
        is_kind = stat.S_ISFIFO if kind == "FIFO" else stat.S_ISSOCK
        assert is_kind(os.lstat(out).st_mode)


@pytest.mark.parametrize("command", ["eval", "synth", "train"])
def test_a_size_beyond_memory_exits_2(dataset_path, ckpt_path, tmp_path, capsys, command):
    # each first array needs 1-1.5 EiB: numpy raises MemoryError before allocating
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"adapter": {"d_hid": 2 ** 55}}))  # d 6: 6 * 2**55 words
    out = tmp_path / "out"
    argv = {
        "eval": ["eval", "--ckpt", str(ckpt_path), "--data", str(dataset_path),
                 "--n-gen", str(2 ** 57)],
        "synth": ["synth", "--out", str(out), "--n-items", str(2 ** 56), "--d", "2",
                  "--m", "1", "--d-img", "1"],
        "train": ["train", "--data", str(dataset_path), "--config", str(cfg),
                  "--out", str(out), "--steps", "1"],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}: out of memory: Unable to allocate ")
    assert "shape (" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [cfg]


def _exit_code(argv):
    """main's return code, or argparse's exit code for an undeclared option."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("case", [
    "param_count_seed", "param_count_config", "inspect_attn_seed",
    "inspect_attn_config", "one_phase_phase1_steps", "one_phase_config_phase1_steps",
    "one_phase_phase2_steps", "pipeline_phase2_steps"])
def test_ignored_options_rejected_before_any_file(dataset_path, ckpt_path, tmp_path,
                                                  capsys, monkeypatch, case):
    def fail(*args, **kwargs):
        raise AssertionError("a file was read")
    for name in ("load_jsonl", "load_checkpoint", "train", "finetune_pipeline"):
        monkeypatch.setattr(f"ensad.cli.{name}", fail)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gan": {"steps": 5}, "train": {"phase1_steps": 2}}))
    out = tmp_path / "out.npz"
    inspect = ["inspect-attn", "--ckpt", str(ckpt_path), "--data", str(dataset_path)]
    train = ["train", "--data", str(dataset_path), "--out", str(out)]
    pipeline = train + ["--preset", "ensad_plus_finetune_g"]
    argv, flag = {
        "param_count_seed": (["param-count", "--seed", "5"], "--seed"),
        "param_count_config": (["param-count", "--config", str(cfg)], "--config"),
        "inspect_attn_seed": (inspect + ["--seed", "9"], "--seed"),
        "inspect_attn_config": (inspect + ["--config", str(cfg)], "--config"),
        "one_phase_phase1_steps": (train + ["--preset", "ensad_frozen_g", "--steps", "3",
                                            "--phase1-steps", "7"], "--phase1-steps"),
        "one_phase_config_phase1_steps": (train + ["--preset", "ensad_frozen_g",
                                                   "--config", str(cfg)], "--phase1-steps"),
        "one_phase_phase2_steps": (train + ["--steps", "3", "--phase2-steps", "7"],
                                   "--phase2-steps"),
        "pipeline_phase2_steps": (pipeline + ["--steps", "4", "--phase1-steps", "2",
                                              "--phase2-steps", "2"], "--phase2-steps"),
    }[case]
    assert _exit_code(argv) == 2
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("spelling", ["newdir/", "", "nd/."])
@pytest.mark.parametrize("command, role", [("synth", "dataset"), ("train", "checkpoint"),
                                           ("eval", "report"), ("inspect-attn", "records")])
def test_output_without_a_file_name_rejected_before_any_file(
        dataset_path, ckpt_path, tmp_path, capsys, monkeypatch, command, role, spelling):
    def fail(*args, **kwargs):
        raise AssertionError("a file was read or a dataset made")
    for name in ("load_jsonl", "load_checkpoint", "train", "finetune_pipeline",
                 "generate_synthetic"):
        monkeypatch.setattr(f"ensad.cli.{name}", fail)
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    inputs = ["--ckpt", str(ckpt_path), "--data", str(dataset_path)]
    argv = {
        "synth": ["synth", "--n-items", "5", "--d", "3", "--m", "2", "--d-img", "2"],
        "train": ["train", "--data", str(dataset_path), "--steps", "30"],
        "eval": ["eval", *inputs],
        "inspect-attn": ["inspect-attn", *inputs],
    }[command]
    assert main(argv + ["--out", spelling]) == 2
    err = capsys.readouterr().err
    assert f"{role} path {spelling!r} does not end in a file name" in err
    assert [str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")] == ["work"]


@pytest.mark.parametrize("out, log, named", [
    ("run.npz", "run.npz", ["run.npz", "run.npz"]),
    ("run.csv", None, ["run.csv", "run.csv"]),
    ("run.npz", "run.diverged.npz", ["run.diverged.npz", "run.diverged.npz"]),
    ("run.npz", "sub/../run.npz", ["run.npz", "sub/../run.npz"]),
])
def test_train_rejects_coinciding_output_paths(dataset_path, tmp_path, capsys,
                                               monkeypatch, out, log, named):
    """``named``: the two paths the message names, in order."""
    def fail(*args, **kwargs):
        raise AssertionError("training started")
    monkeypatch.setattr("ensad.cli.load_jsonl", fail)
    argv = ["train", "--data", str(dataset_path), "--out", str(tmp_path / out),
            "--steps", "3"]
    if log is not None:
        (tmp_path / "sub").mkdir()
        argv += ["--log", str(tmp_path / log)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    first, second = (str(tmp_path / name) for name in named)
    assert f"path {first} and " in err
    assert (f"path {second} are the same file; an output may not overwrite another output "
            "or an input") in err
    assert not (tmp_path / out).exists()


@pytest.mark.parametrize("argv, clash, roles", [
    (["train", "--data", "c.jsonl", "--out", "c.jsonl", "--steps", "2"],
     "c.jsonl", ("checkpoint", "dataset")),
    (["train", "--data", "c.jsonl", "--out", "x.npz", "--log", "c.jsonl", "--steps", "2"],
     "c.jsonl", ("loss CSV", "dataset")),
    (["train", "--data", "c.jsonl", "--out", "x.npz", "--log", "p.npz", "--steps", "8",
      "--resume", "p.npz"], "p.npz", ("loss CSV", "resumed checkpoint")),
    (["train", "--data", "c.jsonl", "--out", "p.npz", "--steps", "8",
      "--resume", "p.diverged.npz"], "p.diverged.npz",
     ("diagnostic checkpoint", "resumed checkpoint")),
    (["train", "--data", "c.jsonl", "--out", "x.npz", "--log", "cfg.json",
      "--config", "cfg.json", "--steps", "2"], "cfg.json", ("loss CSV", "config")),
    (["eval", "--ckpt", "p.npz", "--data", "c.jsonl", "--out", "c.jsonl"],
     "c.jsonl", ("report", "dataset")),
    (["eval", "--ckpt", "p.npz", "--data", "c.jsonl", "--out", "sub/../p.npz"],
     "p.npz", ("report", "checkpoint")),
    (["eval", "--ckpt", "p.npz", "--data", "c.jsonl", "--out", "cfg.json",
      "--config", "cfg.json"], "cfg.json", ("report", "config")),
    (["inspect-attn", "--ckpt", "p.npz", "--data", "c.jsonl", "--out", "c.jsonl"],
     "c.jsonl", ("records", "dataset")),
    (["inspect-attn", "--ckpt", "p.npz", "--data", "c.jsonl", "--out", "p.npz"],
     "p.npz", ("records", "checkpoint")),
    (["synth", "--config", "cfg.json", "--out", "cfg.json", "--n-items", "5"],
     "cfg.json", ("dataset", "config")),
], ids=["train_out_data", "train_log_data", "train_log_resume",
        "train_diag_resume", "train_log_config", "eval_out_data", "eval_out_ckpt",
        "eval_out_config", "inspect_out_data", "inspect_out_ckpt", "synth_out_config"])
def test_output_may_not_overwrite_an_input(dataset_path, ckpt_path, train_config,
                                           tmp_path, monkeypatch, capsys, argv, clash,
                                           roles):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "c.jsonl").write_bytes(dataset_path.read_bytes())
    save_checkpoint(load_checkpoint(ckpt_path), str(tmp_path / "p.npz"))
    (tmp_path / "p.diverged.npz").write_bytes((tmp_path / "p.npz").read_bytes())
    (tmp_path / "cfg.json").write_bytes(train_config.read_bytes())
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}

    def fail(*args, **kwargs):
        raise AssertionError("an input was read")
    for name in ("load_jsonl", "load_checkpoint", "_load_config"):
        monkeypatch.setattr(f"ensad.cli.{name}", fail)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{roles[0]} path " in err and f" and {roles[1]} path " in err, err
    assert "same file" in err
    after = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
    assert after == before  # the input is untouched and nothing was written
    assert clash in after


def test_train_resumes_in_place(dataset_path, train_config, tmp_path):
    base = ["train", "--data", str(dataset_path), "--config", str(train_config),
            "--preset", "ensad_frozen_g", "--seed", "6"]
    full, ck = tmp_path / "full.npz", tmp_path / "ck.npz"
    assert main(base + ["--out", str(full), "--steps", "8"]) == 0
    assert main(base + ["--out", str(ck), "--steps", "3"]) == 0
    assert main(base + ["--out", str(ck), "--steps", "8", "--resume", str(ck)]) == 0
    assert ck.read_bytes() == full.read_bytes()


def test_resume_keeps_the_log_up_to_the_checkpoint(dataset_path, train_config, tmp_path):
    base = ["train", "--data", str(dataset_path), "--config", str(train_config),
            "--preset", "ensad_frozen_g", "--seed", "6"]
    full, ck = tmp_path / "full.npz", tmp_path / "ck.npz"
    assert main(base + ["--out", str(full), "--steps", "8"]) == 0
    # in place: rows 1-5 of the first run, then 6-8
    assert main(base + ["--out", str(ck), "--steps", "5"]) == 0
    assert main(base + ["--out", str(ck), "--steps", "8", "--resume", str(ck)]) == 0
    assert (tmp_path / "ck.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()
    # a log that runs past the checkpoint loses its later rows
    part = tmp_path / "part.npz"
    assert main(base + ["--out", str(part), "--steps", "3"]) == 0
    assert main(base + ["--out", str(ck), "--steps", "8", "--resume", str(part)]) == 0
    assert (tmp_path / "ck.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()
    assert ck.read_bytes() == full.read_bytes()


@pytest.mark.parametrize("log, message", [
    ("step,loss\n1,0.5\n", "does not start with the header"),
    ("", "does not start with the header"),
    (",".join(CSV_COLUMNS) + "\nx,0.5\n", "line 2: no step number"),
    (",".join(CSV_COLUMNS) + "\n1,0.5\xff\n", "is not UTF-8 text: 'utf-8' codec can't decode"),
], ids=["other_header", "empty", "bad_step", "not_utf8"])
def test_resume_rejects_a_foreign_log(dataset_path, train_config, tmp_path, capsys,
                                      log, message):
    base = ["train", "--data", str(dataset_path), "--config", str(train_config),
            "--preset", "ensad_frozen_g", "--seed", "6"]
    ck, csv = tmp_path / "ck.npz", tmp_path / "ck.csv"
    assert main(base + ["--out", str(ck), "--steps", "3"]) == 0
    capsys.readouterr()
    csv.write_bytes(log.encode("latin-1"))  # the last case's \xff is not UTF-8
    before = ck.read_bytes()
    assert main(base + ["--out", str(ck), "--steps", "5", "--resume", str(ck)]) == 2
    err = capsys.readouterr().err
    assert f"loss CSV {csv}" in err and message in err, err
    assert ck.read_bytes() == before and csv.read_bytes() == log.encode("latin-1")


@pytest.mark.parametrize("preset", [None, "ensad_frozen_g"])
def test_train_rejects_non_list_trainable(dataset_path, tmp_path, capsys, preset):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gan": {"trainable": 5}}))
    argv = ["train", "--data", str(dataset_path), "--out", str(tmp_path / "x.npz"),
            "--config", str(cfg), "--steps", "1"]
    assert main(argv + (["--preset", preset] if preset else [])) == 2
    assert ("error: bad gan config: trainable: 'int' object is not iterable"
            in capsys.readouterr().err)


def test_missing_data_file(workdir, capsys):
    rc = main(["train", "--data", str(workdir / "nope.jsonl"),
               "--out", str(workdir / "x.json"), "--steps", "1"])
    assert rc == 2


def test_module_entry_point(workdir):
    # the child imports the package this process imported, installed or not
    pkg_root = str(Path(ensad.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [pkg_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "ensad.cli", "param-count",
         "--d", "1", "--d-hid", "1", "--m", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stdout.strip() == "6"
