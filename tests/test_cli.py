import json
import subprocess
import sys

import numpy as np
import pytest

from ensad.cli import CSV_COLUMNS, main


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
def ckpt_path(workdir, dataset_path):
    path = workdir / "base.json"
    cfg = workdir / "train.json"
    cfg.write_text(json.dumps({
        "adapter": {"d_hid": 3, "alpha": 0.3},
        "gan": {"d_z": 4, "gen_hidden": [8], "disc_hidden": [8], "batch": 4},
    }))
    rc = main(["train", "--data", str(dataset_path), "--out", str(path),
               "--config", str(cfg), "--preset", "ensad_frozen_g",
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
    ck = json.loads(ckpt_path.read_text())
    assert ck["version"] == 1
    assert ck["step"] == 5
    rows = read_csv(workdir / "base.csv")
    assert [row["step"] for row in rows] == ["1", "2", "3", "4", "5"]
    for row in rows:
        for col in CSV_COLUMNS[1:]:
            assert np.isfinite(float(row[col]))


def test_train_frozen_generator_preset(workdir, dataset_path, ckpt_path):
    # 0-step run captures the init; the 5-step run with the adapter preset
    # must leave every generator tensor bitwise identical to it
    cfg = workdir / "train.json"
    ck0_path = workdir / "init.json"
    rc = main(["train", "--data", str(dataset_path), "--out", str(ck0_path),
               "--config", str(cfg), "--preset", "ensad_frozen_g",
               "--steps", "0", "--seed", "1"])
    assert rc == 0
    ck0 = json.loads(ck0_path.read_text())
    ck5 = json.loads(ckpt_path.read_text())
    assert ck5["params"]["gan"]["gen_w"] == ck0["params"]["gan"]["gen_w"]
    assert ck5["params"]["gan"]["gen_b"] == ck0["params"]["gan"]["gen_b"]
    assert ck5["params"]["ensad"] != ck0["params"]["ensad"]


def test_train_ablation_zeroes_contrastive_columns(workdir, dataset_path):
    cfg = workdir / "train.json"
    out = workdir / "ablate.json"
    rc = main(["train", "--data", str(dataset_path), "--out", str(out),
               "--config", str(cfg), "--preset", "ablate_none",
               "--steps", "4", "--seed", "1"])
    assert rc == 0
    for row in read_csv(workdir / "ablate.csv"):
        assert float(row["l_cl"]) == 0.0
        assert float(row["l_cl_d"]) == 0.0
        assert float(row["l_cl_g"]) == 0.0
        assert float(row["l_ad_ensad"]) != 0.0


def test_train_clg_preset_logs_generator_term(workdir, dataset_path):
    cfg = workdir / "train.json"
    out = workdir / "clg.json"
    rc = main(["train", "--data", str(dataset_path), "--out", str(out),
               "--config", str(cfg), "--preset", "lafite_setup",
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


def test_train_resume_matches_straight_run(workdir, dataset_path):
    cfg = workdir / "train.json"
    full = workdir / "full.json"
    part = workdir / "part.json"
    cont = workdir / "cont.json"
    base = ["train", "--data", str(dataset_path), "--config", str(cfg),
            "--preset", "ensad_frozen_g", "--seed", "6"]
    assert main(base + ["--out", str(full), "--steps", "8"]) == 0
    assert main(base + ["--out", str(part), "--steps", "3"]) == 0
    assert main(base + ["--out", str(cont), "--steps", "8",
                        "--resume", str(part)]) == 0
    assert json.loads(cont.read_text()) == json.loads(full.read_text())


def test_train_pipeline_preset(workdir, dataset_path, capsys):
    cfg = workdir / "train.json"
    out = workdir / "pipe.json"
    rc = main(["train", "--data", str(dataset_path), "--out", str(out),
               "--config", str(cfg), "--preset", "ensad_plus_finetune_g",
               "--steps", "1", "--seed", "2"])
    assert rc == 2  # missing phase budgets
    assert "phase" in capsys.readouterr().err

    rc = main(["train", "--data", str(dataset_path), "--out", str(out),
               "--config", str(cfg), "--preset", "ensad_plus_finetune_g",
               "--phase1-steps", "3", "--phase2-steps", "4", "--seed", "2"])
    assert rc == 0
    rows = read_csv(workdir / "pipe.csv")
    assert [row["step"] for row in rows] == [str(i) for i in range(1, 8)]
    assert json.loads(out.read_text())["step"] == 4


def test_train_pipeline_preset_rejects_resume(workdir, dataset_path, ckpt_path,
                                             capsys):
    out = workdir / "pipe_resumed.json"
    rc = main(["train", "--data", str(dataset_path), "--out", str(out),
               "--config", str(workdir / "train.json"),
               "--preset", "ensad_plus_finetune_g",
               "--phase1-steps", "2", "--phase2-steps", "2",
               "--resume", str(ckpt_path), "--seed", "2"])
    assert rc == 2
    assert "--resume" in capsys.readouterr().err
    assert not out.exists()


def test_train_divergence_exit_code(workdir, dataset_path, capsys):
    cfg = workdir / "diverge.json"
    cfg.write_text(json.dumps({
        "adapter": {"d_hid": 3},
        "gan": {"d_z": 4, "gen_hidden": [8], "disc_hidden": [8],
                "batch": 4, "lr": 1e300},
    }))
    out = workdir / "boom.json"
    with np.errstate(all="ignore"):
        rc = main(["train", "--data", str(dataset_path), "--out", str(out),
                   "--config", str(cfg), "--preset", "ensad_frozen_g",
                   "--steps", "30", "--seed", "1"])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err
    assert (workdir / "boom.diverged.json").exists()
    assert not out.exists()
    diag = json.loads((workdir / "boom.diverged.json").read_text())
    assert diag["step"] >= 1


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
    assert "n_gen" in capsys.readouterr().err


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


def test_param_count_defaults_and_small(capsys):
    assert main(["param-count"]) == 0
    assert capsys.readouterr().out.strip() == "655873"
    assert main(["param-count", "--d", "2", "--d-hid", "1", "--m", "5"]) == 0
    assert capsys.readouterr().out.strip() == "13"


def test_param_count_rejects_bad_dims(capsys):
    assert main(["param-count", "--d", "0"]) == 2
    assert "error" in capsys.readouterr().err


def test_threads_flag_validation(capsys):
    assert main(["param-count", "--threads", "0"]) == 2
    assert "threads" in capsys.readouterr().err


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
    assert "unknown sections" in capsys.readouterr().err


def test_missing_data_file(workdir, capsys):
    rc = main(["train", "--data", str(workdir / "nope.jsonl"),
               "--out", str(workdir / "x.json"), "--steps", "1"])
    assert rc == 2


def test_module_entry_point(workdir):
    proc = subprocess.run(
        [sys.executable, "-m", "ensad.cli", "param-count",
         "--d", "1", "--d-hid", "1", "--m", "1"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "7"
