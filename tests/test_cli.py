import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ensad
from ensad.cli import main
from ensad.gan import CSV_COLUMNS, checkpoint_to_jsonable, load_checkpoint, save_checkpoint


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
    ck = checkpoint_to_jsonable(load_checkpoint(ckpt_path))
    assert ck["step"] == 5
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
    ck0 = checkpoint_to_jsonable(load_checkpoint(ck0_path))
    ck5 = checkpoint_to_jsonable(load_checkpoint(ckpt_path))
    assert ck5["params"]["gan"]["gen_w"] == ck0["params"]["gan"]["gen_w"]
    assert ck5["params"]["gan"]["gen_b"] == ck0["params"]["gan"]["gen_b"]
    assert ck5["params"]["ensad"] != ck0["params"]["ensad"]


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
    assert (checkpoint_to_jsonable(load_checkpoint(cont))
            == checkpoint_to_jsonable(load_checkpoint(full)))



def test_resume_from_format1_and_format2_agree(workdir, dataset_path, train_config,
                                               ckpt_path):
    base = ["train", "--data", str(dataset_path), "--config", str(train_config),
            "--preset", "ensad_frozen_g", "--seed", "6"]
    part2 = workdir / "part_f2.json"
    assert main(base + ["--out", str(part2), "--steps", "3"]) == 0
    part1 = workdir / "part_f1.json"
    part1.write_text(json.dumps(checkpoint_to_jsonable(load_checkpoint(part2)),
                                sort_keys=True) + "\n")
    outs = [workdir / f"resumed_from_{part.stem}.json" for part in (part1, part2)]
    for part, out in zip((part1, part2), outs):
        assert main(base + ["--out", str(out), "--steps", "8", "--resume", str(part)]) == 0
    assert (workdir / "resumed_from_part_f1.csv").read_bytes() == (
        workdir / "resumed_from_part_f2.csv").read_bytes()
    assert (checkpoint_to_jsonable(load_checkpoint(outs[0]))
            == checkpoint_to_jsonable(load_checkpoint(outs[1])))
    assert outs[0].read_bytes() == outs[1].read_bytes()

def test_train_pipeline_preset(workdir, dataset_path, train_config, capsys):
    out = workdir / "pipe.json"
    rc = main(["train", "--data", str(dataset_path), "--out", str(out),
               "--config", str(train_config), "--preset", "ensad_plus_finetune_g",
               "--steps", "1", "--seed", "2"])
    assert rc == 2  # missing phase budgets
    assert "phase" in capsys.readouterr().err

    rc = main(["train", "--data", str(dataset_path), "--out", str(out),
               "--config", str(train_config), "--preset", "ensad_plus_finetune_g",
               "--phase1-steps", "3", "--phase2-steps", "4", "--seed", "2"])
    assert rc == 0
    rows = read_csv(workdir / "pipe.csv")
    assert [row["step"] for row in rows] == [str(i) for i in range(1, 8)]
    assert checkpoint_to_jsonable(load_checkpoint(out))["step"] == 4


def test_train_pipeline_preset_rejects_resume(workdir, dataset_path, train_config,
                                             ckpt_path, capsys):
    out = workdir / "pipe_resumed.json"
    rc = main(["train", "--data", str(dataset_path), "--out", str(out),
               "--config", str(train_config),
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
    rc = main(["train", "--data", str(dataset_path), "--out", str(out),
               "--config", str(cfg), "--preset", "ensad_frozen_g",
               "--steps", "30", "--seed", "1"])
    assert rc == 3
    assert "diverged" in capsys.readouterr().err
    assert (workdir / "boom.diverged.json").exists()
    assert not out.exists()
    diag = checkpoint_to_jsonable(load_checkpoint(workdir / "boom.diverged.json"))
    assert diag["step"] >= 1



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


GOLDEN = Path(__file__).resolve().parent / "golden"
# Nesting deeper than the JSON parser's recursion limit
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def _drop(path):
    def mutate(obj):
        *parents, last = path
        for key in parents:
            obj = obj[key]
        del obj[last]
    return mutate


def _set(path, value):
    def mutate(obj):
        *parents, last = path
        for key in parents:
            obj = obj[key]
        obj[last] = value
    return mutate


def _truncate_adam_m(obj):
    obj["adam"]["ensad"]["m"] = obj["adam"]["ensad"]["m"][:-1]


def _negate_adam_v(obj):
    obj["adam"]["generator"]["v"][0][0][0] = -1.0


def _deeply_nested(obj):
    """Replaces the whole file."""
    return DEEP_JSON


@pytest.mark.parametrize("mutate, field", [
    (_drop(["step"]), "step"),
    (_drop(["params"]), "params.ensad"),
    (_drop(["rng", "seed"]), "rng.seed"),
    (_set(["configs", "adapter", "width"], 3), "configs.adapter"),
    (_truncate_adam_m, "adam.ensad"),
    (_negate_adam_v, "adam.generator"),
    (_set(["step"], -5), "step"),
    (_set(["rng", "position"], -3), "rng.position"),
    (_set(["version"], True), "version"),
    (_set(["version"], 1.0), "version"),
    (_deeply_nested, None),
], ids=["missing_step", "missing_params", "missing_rng_seed",
        "unknown_adapter_key", "truncated_adam_m", "negative_adam_v",
        "negative_step",
        "negative_rng_position", "version_true", "version_float", "deeply_nested"])
def test_eval_rejects_malformed_checkpoint(tmp_path, capsys, mutate, field):
    """``mutate`` edits the checkpoint object, or returns the file's text;
    ``field`` is the field the message names, None: the path."""
    obj = json.loads((GOLDEN / "ckpt_step6.json").read_text())
    text = mutate(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj) if text is None else text)
    rc = main(["eval", "--ckpt", str(bad), "--data", str(GOLDEN / "data.jsonl"),
               "--n-gen", "8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert (f"checkpoint field '{field}'" if field else str(bad)) in err, err



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


def _overlong_tensors(raw):
    """The tensor vector claims more values, and its member more bytes, than
    the file holds."""
    at = raw.rindex(b"'shape': (") + len(b"'shape': (")
    raw = raw[:at] + b"9" + raw[at + 1:]
    at = raw.rindex(_CENTRAL_DIR) + 20  # compressed, then uncompressed size
    return raw[:at] + struct.pack("<II", len(raw), len(raw)) + raw[at + 8:]

# (mutation of the archive's bytes, the field the message names; None: the path)
FORMAT2_CASES = {
    "truncated": (lambda raw: raw[: len(raw) // 2], None),
    "magic_only": (lambda raw: raw[:4], None),
    "crc_mismatch": (lambda raw: raw[:200] + bytes([raw[200] ^ 1]) + raw[201:], None),
    # what the zip and npy readers raise besides BadZipFile and ValueError
    "encrypted_flag": (_poke(_CENTRAL_DIR, 8, lambda b: b | 1), None),
    "zip_version_10_9": (_poke(_CENTRAL_DIR, 6, lambda b: 109), None),
    "directory_offset_plus_1": (_poke(_END_OF_DIR, 16, lambda b: b + 1), None),
    "npy_header_cut_short": (_poke(b"\x93NUMPY", 8, lambda b: 54), None),
    "npy_descr_syntax": (lambda raw: raw.replace(b"'<f8'", b"',f8'", 1), None),
    "member_past_end": (_overlong_tensors, None),
    "missing_header": (_members(lambda h, t: {"tensors": t}), None),
    "extra_member": (_members(lambda h, t: {"header": h, "tensors": t, "x": t}), None),
    "pickled_tensors": (_members(lambda h, t: {"header": h, "tensors": t.astype(object)}),
                        None),
    "header_not_json": (_members(lambda h, t: {"header": np.frombuffer(b"{", np.uint8),
                                               "tensors": t}), "header"),
    "header_float64": (_members(lambda h, t: {"header": np.zeros(3), "tensors": t}),
                       "header"),
    "version_1": (_header(lambda h: h.update(version=1)), "version"),
    "version_float": (_header(lambda h: h.update(version=2.0)), "version"),
    "header_deeply_nested": (_members(lambda h, t: {
        "header": np.frombuffer(DEEP_JSON.encode(), np.uint8), "tensors": t}), "header"),
    "missing_step": (_header(lambda h: h.pop("step")), "step"),
    "negative_rng_position": (_header(lambda h: h["rng"].update(position=-3)),
                              "rng.position"),
    "unknown_gan_key": (_header(lambda h: h["configs"]["gan"].update(width=3)),
                        "configs.gan"),
    "missing_adam_component": (_header(lambda h: h["adam"].pop("generator")), "adam"),
    "negative_adam_t": (_header(lambda h: h["adam"].update(ensad=-1)), "adam.ensad"),
    "tensors_float32": (_tensors(lambda t: t.astype(np.float32)), "tensors"),
    "tensors_short": (_tensors(lambda t: t[:-1]), "tensors"),
    "tensors_2d": (_tensors(lambda t: t.reshape(1, -1)), "tensors"),
    "nan_parameter": (_tensors(_set_entry(0, np.nan)), "params.ensad"),
    "inf_generator": (_tensors(_set_entry(200, np.inf)), "params.gan"),
    # the vector ends with the discriminator's v
    "negative_adam_v": (_tensors(_set_entry(-1, -1.0)), "adam.discriminator"),
}


@pytest.mark.parametrize("case", sorted(FORMAT2_CASES))
def test_eval_rejects_malformed_format2_checkpoint(tmp_path, capsys, case):
    mutate, field = FORMAT2_CASES[case]
    good = tmp_path / "good.json"
    save_checkpoint(load_checkpoint(GOLDEN / "ckpt_step6.json"), str(good))
    bad = tmp_path / "bad.json"
    bad.write_bytes(mutate(good.read_bytes()))
    rc = main(["eval", "--ckpt", str(bad), "--data", str(GOLDEN / "data.jsonl"),
               "--n-gen", "8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert (f"checkpoint field '{field}'" if field else str(bad)) in err, err

@pytest.mark.parametrize("which", ["ckpt", "data"])
def test_eval_rejects_directory_path(tmp_path, capsys, which):
    paths = {"ckpt": str(GOLDEN / "ckpt_step6.json"),
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

    deep = workdir / "deep.json"
    deep.write_text(DEEP_JSON)
    rc = main(["train", "--data", str(dataset_path),
               "--out", str(workdir / "x.json"), "--config", str(deep),
               "--steps", "1"])
    assert rc == 2
    assert f"config {deep} is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, field", [
    ("train", {"gan": {"steps": 3.5}}, "steps"),
    ("train", {"gan": {"batch": 4.5}}, "batch"),
    ("train", {"adapter": {"d_hid": 4.5}}, "d_hid"),
    ("train", {"gan": {"gen_hidden": [8.7]}}, "gen_hidden"),
    ("train", {"seed": True}, "seed"),
    ("train", {"gan": {"steps": True}}, "steps"),
    ("pipeline", {"train": {"phase1_steps": 2.9, "phase2_steps": 1}}, "phase1_steps"),
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
    assert str(log if where == "log_is_directory" else out) in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["file", *(["run.json"] * (where == "out_is_directory")),
         *(["run.csv"] * (where == "log_is_directory"))])


def _exit_code(argv):
    """main's return code, or argparse's exit code for an undeclared option."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("case", [
    "param_count_seed", "param_count_config", "inspect_attn_seed",
    "inspect_attn_config", "one_phase_phase1_steps", "one_phase_phase2_steps",
    "pipeline_steps", "pipeline_config_gan_steps"])
def test_ignored_options_rejected_before_any_file(dataset_path, ckpt_path, tmp_path,
                                                  capsys, monkeypatch, case):
    def fail(*args, **kwargs):
        raise AssertionError("a file was read")
    for name in ("load_jsonl", "load_checkpoint", "train", "finetune_pipeline"):
        monkeypatch.setattr(f"ensad.cli.{name}", fail)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gan": {"steps": 5},
                               "train": {"phase1_steps": 2, "phase2_steps": 2}}))
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
        "one_phase_phase2_steps": (train + ["--steps", "3", "--phase2-steps", "7"],
                                   "--phase2-steps"),
        "pipeline_steps": (pipeline + ["--steps", "999", "--phase1-steps", "2",
                                       "--phase2-steps", "2"], "--steps"),
        "pipeline_config_gan_steps": (pipeline + ["--config", str(cfg)], "steps"),
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
    assert f"{role} path {spelling!r}" in err
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
    assert f"path {first} and " in err and f"path {second} are the same file" in err
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
], ids=["other_header", "empty", "bad_step"])
def test_resume_rejects_a_foreign_log(dataset_path, train_config, tmp_path, capsys,
                                      log, message):
    base = ["train", "--data", str(dataset_path), "--config", str(train_config),
            "--preset", "ensad_frozen_g", "--seed", "6"]
    ck, csv = tmp_path / "ck.npz", tmp_path / "ck.csv"
    assert main(base + ["--out", str(ck), "--steps", "3"]) == 0
    capsys.readouterr()
    csv.write_text(log)
    before = ck.read_bytes()
    assert main(base + ["--out", str(ck), "--steps", "5", "--resume", str(ck)]) == 2
    err = capsys.readouterr().err
    assert f"loss CSV {csv}" in err and message in err, err
    assert ck.read_bytes() == before and csv.read_text() == log


@pytest.mark.parametrize("preset", [None, "ensad_frozen_g"])
def test_train_rejects_non_list_trainable(dataset_path, tmp_path, capsys, preset):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gan": {"trainable": 5}}))
    argv = ["train", "--data", str(dataset_path), "--out", str(tmp_path / "x.npz"),
            "--config", str(cfg), "--steps", "1"]
    assert main(argv + (["--preset", preset] if preset else [])) == 2
    assert "trainable" in capsys.readouterr().err


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
    assert proc.stdout.strip() == "7"
