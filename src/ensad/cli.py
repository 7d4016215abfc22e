"""Command-line interface.

Commands: synth (make a synthetic dataset), train (adversarial-contrastive
training), eval (Frechet-distance comparison across fusion strategies),
inspect-attn (per-item attention weights), param-count (adapter size).

Each subcommand declares only the options it reads. synth, train and eval
take --config and --seed; each setting is its config section with the
flags that were given written over it (_section). A preset writes its
gan fields over the gan section and rejects a config that sets them to
other values. train needs --steps (gan.steps), the length of the whole run
for every preset; the pipeline preset also needs --phase1-steps
(train.phase1_steps), the steps its first phase takes, and every other
preset rejects it. The config classes check their own fields. Every
preset takes --resume, and with it the checkpoint's seed unless one is
given. No output path may resolve to another output or to an input
(_check_paths).

Exit codes: 0 success, 2 usage or configuration error or a size beyond
memory, 3 runtime failure. All file outputs are written atomically.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

import numpy as np

from .adapter import (
    EnsAdConfig,
    attention_export_record,
    attention_scores,
    forward_batch,
    param_count,
)
from .data import (
    JSON_ERRORS,
    SyntheticSpec,
    check_output_path,
    generate_synthetic,
    load_jsonl,
    save_jsonl,
    save_lines,
)
from .evaluation import compare_strategies, save_report
from .gan import (
    CSV_COLUMNS,
    PIPELINE_PHASES,
    GanConfig,
    TrainingDiverged,
    check_dataset,
    finetune_pipeline,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .numkit import NotPsdError, json_uint

# Named training setups, each a set of gan-config fields written over the
# config file's gan section; a section that sets one of them to another
# value is rejected before training starts.
_FROZEN_G_BASE = {
    "trainable": frozenset({"ensad", "discriminator"}),
    "conditioning": "ensad",
}
# The two-phase recipe (gan.finetune_pipeline): it sets the _PHASE_FIELDS
# per phase, and its first phase runs the train section's phase1_steps.
PIPELINE_PRESET = "ensad_plus_finetune_g"
_PHASE_FIELDS = tuple(dict.fromkeys(key for phase in PIPELINE_PHASES for key in phase))
PRESETS = {
    "ensad_frozen_g": _FROZEN_G_BASE,
    "finetune_g_text": PIPELINE_PHASES[0],  # the pipeline's phase 1 on its own
    "finetune_g_meanpool": {
        "trainable": frozenset({"generator", "discriminator"}),
        "conditioning": "mean_pool",
    },
    PIPELINE_PRESET: {},
    "ablate_no_cl": {**_FROZEN_G_BASE, "lambda1": 0.0},
    "ablate_no_cld": {**_FROZEN_G_BASE, "lambda2": 0.0},
    "ablate_none": {**_FROZEN_G_BASE, "lambda1": 0.0, "lambda2": 0.0},
    "lafite_setup": {**_FROZEN_G_BASE, "enable_clg": True},
}

_CONFIG_SECTIONS = ("adapter", "gan", "train", "synth", "eval", "seed")


class UsageError(Exception):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    except JSON_ERRORS as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise UsageError(f"config {path} must be a JSON object")
    unknown = set(obj) - set(_CONFIG_SECTIONS)
    if unknown:
        raise UsageError(
            f"config {path} has unknown sections {sorted(unknown)}; "
            f"known sections are {list(_CONFIG_SECTIONS)}"
        )
    for key in ("adapter", "gan", "train", "synth", "eval"):
        if key in obj and not isinstance(obj[key], dict):
            raise UsageError(f"config section {key!r} must be a JSON object")
    return obj


def _section(config: dict, name: str, args, flags) -> dict:
    """Config section ``name`` with every flag in ``flags`` (argparse dests,
    which are the section's keys) that was given written over it."""
    section = dict(config.get(name, {}))
    for key in flags:
        if getattr(args, key) is not None:
            section[key] = getattr(args, key)
    return section


def _only(section: dict, name: str, keys) -> None:
    unknown = set(section) - set(keys)
    if unknown:
        raise UsageError(f"unknown {name}-section keys {sorted(unknown)}")


def _from_dataset(section: dict, name: str, dims: dict) -> dict:
    """``section`` with the dataset's dimensions ``dims``; a section that
    sets one of them to another value is rejected."""
    for key, value in dims.items():
        if key in section and section[key] != value:
            raise UsageError(
                f"{name} config {key}={section[key]} conflicts with dataset "
                f"{key}={value}"
            )
    return {**section, **dims}


def _build(cls, section: dict, name: str):
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad {name} config: {exc}") from exc


def _apply_preset(section: dict, preset: str | None) -> dict:
    """The gan section with the preset's fields written over it; a field
    the section sets to another value, or any field the pipeline preset
    sets per phase, is a conflict."""
    if "trainable" in section:
        try:
            section = {**section, "trainable": frozenset(section["trainable"])}
        except TypeError as exc:
            raise UsageError(f"bad gan config: trainable: {exc}") from exc
    if preset is None:
        return section
    conflicts = [
        f"{key}: preset {preset} wants {value!r}, config sets {section[key]!r}"
        for key, value in PRESETS[preset].items()
        if key in section and section[key] != value
    ]
    if preset == PIPELINE_PRESET:
        conflicts += [f"{key} is controlled by preset {preset} per phase"
                      for key in _PHASE_FIELDS if key in section]
    if conflicts:
        raise UsageError("preset/config conflicts: " + "; ".join(conflicts))
    return {**section, **PRESETS[preset]}


def _check_paths(outputs: dict, inputs: dict, in_place=()) -> None:
    """Before any file is read or written, reject an output path (``outputs``
    and ``inputs`` map a role to a path, or None when not given) that names
    no file (its last component is empty, "." or ".."), that
    check_output_path refuses, whose resolved path has no writable directory
    as its nearest existing ancestor, or that is the same file as another
    output or an input. The (output role, input role)
    pairs in ``in_place`` may share a file."""
    outputs = {role: path for role, path in outputs.items() if path is not None}
    inputs = {role: path for role, path in inputs.items() if path is not None}
    for role, path in outputs.items():
        if os.path.basename(path) in ("", ".", ".."):
            raise UsageError(f"{role} path {path!r} does not end in a file name")
        real = check_output_path(path)
        parent = os.path.dirname(real)
        while not os.path.exists(parent):
            parent = os.path.dirname(parent)
        if not os.path.isdir(parent) or not os.access(parent, os.W_OK | os.X_OK):
            raise UsageError(f"cannot write {path}: {parent} is not a writable directory")
    pairs = itertools.chain(itertools.combinations(outputs.items(), 2),
                            itertools.product(outputs.items(), inputs.items()))
    for (role_a, a), (role_b, b) in pairs:
        if (role_a, role_b) not in in_place and os.path.realpath(a) == os.path.realpath(b):
            raise UsageError(f"{role_a} path {a} and {role_b} path {b} are the same "
                             "file; an output may not overwrite another output or an input")


def _pick_seed(args, config: dict, default=0):
    if args.seed is not None:
        return json_uint(args.seed, 0, "--seed")
    return json_uint(config["seed"], 0, "config seed") if "seed" in config else default


def _cmd_synth(args) -> int:
    _check_paths({"dataset": args.out}, {"config": args.config})
    config = _load_config(args.config)
    section = _section(config, "synth", args,
                       ("n_items", "d", "m", "d_img", "sigma_source", "sigma_trans"))
    section["seed"] = _pick_seed(args, {**config, **section})
    ds = generate_synthetic(_build(SyntheticSpec, section, "synth"))
    save_jsonl(ds, args.out)
    print(
        f"wrote {len(ds)} items (d={ds.d}, m={ds.m}, d_img={ds.d_img}) to {args.out}"
    )
    return 0


def _resumed_log(path: str, step: int) -> list:
    """The loss CSV lines a run resumed at ``step`` starts from: the header
    and the rows of the log at ``path`` up to that step, or the header
    alone when there is no file at ``path``."""
    header = ",".join(CSV_COLUMNS)
    if not os.path.exists(path):
        return [header]
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise UsageError(f"loss CSV {path} is not UTF-8 text: {exc}") from exc
    if lines[:1] != [header]:
        raise UsageError(f"loss CSV {path} does not start with the header {header}")
    kept = [header]
    for number, line in enumerate(lines[1:], 2):
        try:
            row_step = int(line.partition(",")[0])
        except ValueError:
            raise UsageError(f"loss CSV {path}, line {number}: no step number") from None
        if row_step <= step:
            kept.append(line)
    return kept


def _cmd_train(args) -> int:
    stem, ext = os.path.splitext(args.out)
    csv_path = args.log if args.log else stem + ".csv"
    diag_path = f"{stem}.diverged{ext}"
    # --resume equal to --out continues a run in place
    _check_paths({"checkpoint": args.out, "loss CSV": csv_path,
                  "diagnostic checkpoint": diag_path},
                 {"dataset": args.data, "resumed checkpoint": args.resume,
                  "config": args.config},
                 in_place={("checkpoint", "resumed checkpoint")})
    config = _load_config(args.config)
    gan_section = _apply_preset(_section(config, "gan", args, ("steps",)), args.preset)
    if "steps" not in gan_section:
        raise UsageError("--steps (gan.steps): needed to train")
    phases = _section(config, "train", args, ("phase1_steps",))
    _only(phases, "train", ("phase1_steps",))
    pipeline = args.preset == PIPELINE_PRESET
    if pipeline != ("phase1_steps" in phases):
        raise UsageError("--phase1-steps (train.phase1_steps): " + (
            "needed by" if pipeline else "only for") + f" preset {PIPELINE_PRESET}")
    phases = {key: json_uint(value, 0, key) for key, value in phases.items()}
    seed = _pick_seed(args, config, None)  # a given seed is checked before any file
    resume = load_checkpoint(args.resume) if args.resume else None
    if seed is None:
        seed = resume.rng_seed if resume else 0
    lines = _resumed_log(csv_path, resume.step) if resume else [",".join(CSV_COLUMNS)]
    ds = load_jsonl(args.data)
    adapter_cfg = _build(EnsAdConfig, _from_dataset(
        config.get("adapter", {}), "adapter", {"d": ds.d, "m": ds.m}), "adapter")
    gan_cfg = _build(GanConfig, _from_dataset(
        gan_section, "gan", {"d": ds.d, "d_img": ds.d_img}), "gan")

    def log_row(row):
        lines.append(",".join(str(row["step"]) if col == "step" else repr(float(row[col]))
                              for col in CSV_COLUMNS))
    run = finetune_pipeline if pipeline else train
    try:
        ck = run(ds, adapter_cfg, gan_cfg, seed, **phases, resume=resume, log_fn=log_row)
    except TrainingDiverged as exc:
        save_checkpoint(exc.checkpoint, diag_path)
        save_lines(lines, csv_path)
        print(f"training diverged: {exc}; diagnostic checkpoint at {diag_path}",
              file=sys.stderr)
        return 3
    save_checkpoint(ck, args.out)
    save_lines(lines, csv_path)
    print(f"trained to step {ck.step}; checkpoint {args.out}, log {csv_path}")
    return 0


def _cmd_eval(args) -> int:
    _check_paths({"report": args.out},
                 {"checkpoint": args.ckpt, "dataset": args.data, "config": args.config})
    config = _load_config(args.config)
    section = _section(config, "eval", args, ("n_gen",))
    _only(section, "eval", ("n_gen",))
    n_gen = json_uint(section.get("n_gen", 512), 2, "eval n_gen")
    seed = _pick_seed(args, config)
    ck = load_checkpoint(args.ckpt)
    ds = load_jsonl(args.data)
    report = compare_strategies(ck, ds, n_gen, seed)
    if args.out:
        save_report(report, args.out)
    width = max(len(r["strategy"]) for r in report.results)
    print(f"{'strategy'.ljust(width)}  frechet_distance")
    for row in sorted(report.results, key=lambda r: r["fd"]):
        print(f"{row['strategy'].ljust(width)}  {row['fd']:.6f}")
    if args.out:
        print(f"report written to {args.out}")
    return 0


def _cmd_inspect_attn(args) -> int:
    if args.limit is not None and args.limit < 1:
        raise UsageError("limit must be positive")
    _check_paths({"records": args.out}, {"checkpoint": args.ckpt, "dataset": args.data})
    ck = load_checkpoint(args.ckpt)
    ds = load_jsonl(args.data)
    check_dataset(ds, ck.ensad_cfg, ck.gan_cfg)
    _, trace = forward_batch(ck.params["ensad"], ck.ensad_cfg, ds.rows[:args.limit])
    lines = [json.dumps(attention_export_record(item_id, scores, texts))
             for item_id, scores, texts
             in zip(ds.ids, attention_scores(trace), ds.translation_texts)]
    for line in lines:
        print(line)
    if args.out:
        save_lines(lines, args.out)
        print(f"wrote {len(lines)} records to {args.out}", file=sys.stderr)
    return 0


def _cmd_param_count(args) -> int:
    section = {"d": args.d, "d_hid": args.d_hid, "m": args.m}
    print(param_count(_build(EnsAdConfig, section, "adapter")))
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override the run seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensad",
        description="Translation-ensemble adapter: train, evaluate, inspect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic embedding dataset")
    _add_common(p)
    p.add_argument("--out", required=True, help="output dataset path (.jsonl)")
    p.add_argument("--n-items", dest="n_items", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--d-img", dest="d_img", type=int)
    p.add_argument("--sigma-source", dest="sigma_source", type=float)
    p.add_argument("--sigma-trans", dest="sigma_trans", type=float)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="run adversarial-contrastive training")
    _add_common(p)
    p.add_argument("--data", required=True, help="dataset path (.jsonl)")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--preset", choices=sorted(PRESETS), help="named training setup")
    p.add_argument("--steps", type=int, help="training steps of the whole run")
    p.add_argument("--log", help="loss CSV path (default: checkpoint sibling)")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--phase1-steps", dest="phase1_steps", type=int,
                   help=f"steps of the first phase of preset {PIPELINE_PRESET}")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="compare fusion strategies by Frechet distance")
    _add_common(p)
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset path (.jsonl)")
    p.add_argument("--n-gen", dest="n_gen", type=int, help="generated sample count")
    p.add_argument("--out", help="report JSON path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("inspect-attn", help="dump per-item attention weights")
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset path (.jsonl)")
    p.add_argument("--limit", type=int, help="number of items (default: all)")
    p.add_argument("--out", help="output records path (.jsonl)")
    p.set_defaults(func=_cmd_inspect_attn)

    p = sub.add_parser("param-count", help="print the adapter parameter count")
    p.add_argument("--d", type=int, default=512, help="embedding dimension")
    p.add_argument("--d-hid", dest="d_hid", type=int, default=256,
                   help="attention hidden width")
    p.add_argument("--m", type=int, default=12, help="translation count")
    p.set_defaults(func=_cmd_param_count)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotPsdError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # numpy's message names the size and shape it could not allocate
        print(f"error: {args.command}: out of memory: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, OSError) as exc:
        # DataFormatError and bad checkpoints are ValueErrors; OSErrors name the path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
