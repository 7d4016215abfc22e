"""Command-line interface.

Commands: synth (make a synthetic dataset), train (adversarial-contrastive
training), eval (Frechet-distance comparison across fusion strategies),
inspect-attn (per-item attention weights), param-count (adapter size).

Exit codes: 0 success, 2 usage or configuration error, 3 runtime failure.
All file outputs are written atomically.
"""

from __future__ import annotations

import argparse
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
    Dataset,
    SyntheticSpec,
    atomic_write_text,
    generate_synthetic,
    json_uint,
    load_jsonl,
    save_jsonl,
)
from .evaluation import compare_strategies, save_report
from .gan import (
    GanConfig,
    TrainingDiverged,
    check_dataset,
    finetune_pipeline,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .numkit import NotPsdError

CSV_COLUMNS = (
    "step",
    "loss_ensad",
    "loss_disc",
    "l_ad_ensad",
    "l_ad_d",
    "l_cl",
    "l_cl_d",
    "l_cl_g",
)

# Named training setups. Each maps to explicit gan-config fields; a config
# file that sets one of these fields to a different value is rejected
# before training starts. "pipeline" marks the two-phase recipe, which
# owns trainable/conditioning itself.
_FROZEN_G_BASE = {
    "trainable": frozenset({"ensad", "discriminator"}),
    "conditioning": "ensad",
}
PRESETS = {
    "ensad_frozen_g": dict(_FROZEN_G_BASE),
    "finetune_g_text": {
        "trainable": frozenset({"generator", "discriminator"}),
        "conditioning": "zero_shot",
    },
    "finetune_g_meanpool": {
        "trainable": frozenset({"generator", "discriminator"}),
        "conditioning": "mean_pool",
    },
    "ensad_plus_finetune_g": {"pipeline": True},
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


def _ensure_parent(path: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)


def _check_writable(path: str) -> None:
    """Reject an output path that is a directory, or whose nearest existing
    ancestor is not a writable directory, before any work is done."""
    if os.path.isdir(path):
        raise UsageError(f"output path {path} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if not os.path.isdir(parent) or not os.access(parent, os.W_OK | os.X_OK):
        raise UsageError(f"cannot write {path}: {parent} is not a writable directory")


def _pick_seed(args, config: dict) -> int:
    if getattr(args, "seed", None) is not None:
        return json_uint(args.seed, 0, "--seed")
    return json_uint(config.get("seed", 0), 0, "config seed")


def _build_adapter_cfg(section: dict, ds: Dataset) -> EnsAdConfig:
    section = dict(section)
    for key, value in (("d", ds.d), ("m", ds.m)):
        if key in section and section[key] != value:
            raise UsageError(
                f"adapter config {key}={section[key]} conflicts with dataset "
                f"{key}={value}"
            )
        section[key] = value
    try:
        return EnsAdConfig(**section)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad adapter config: {exc}") from exc


def _build_gan_cfg(section: dict, ds: Dataset, preset: str | None, steps) -> tuple:
    """Returns (GanConfig or None, pipeline flag). Applies the preset over
    the explicit config and rejects conflicts between the two."""
    explicit = dict(section)
    if "trainable" in explicit:
        explicit["trainable"] = frozenset(explicit["trainable"])
    for key, value in (("d", ds.d), ("d_img", ds.d_img)):
        if key in explicit and explicit[key] != value:
            raise UsageError(
                f"gan config {key}={explicit[key]} conflicts with dataset "
                f"{key}={value}"
            )
        explicit[key] = value

    pipeline = False
    if preset is not None:
        overrides = PRESETS[preset]
        pipeline = overrides.get("pipeline", False)
        conflicts = []
        if pipeline:
            for key in ("trainable", "conditioning"):
                if key in section:
                    conflicts.append(
                        f"{key} is controlled by preset {preset} per phase"
                    )
        else:
            for key, value in overrides.items():
                if key in section:
                    have = explicit[key]
                    if have != value:
                        conflicts.append(
                            f"{key}: preset {preset} wants {value!r}, "
                            f"config sets {have!r}"
                        )
                explicit[key] = value
        if conflicts:
            raise UsageError(
                "preset/config conflicts: " + "; ".join(conflicts)
            )
    if steps is not None:
        explicit["steps"] = steps
    try:
        return GanConfig(**explicit), pipeline
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad gan config: {exc}") from exc


def _format_csv(rows) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(
                str(row["step"]) if col == "step" else repr(float(row[col]))
                for col in CSV_COLUMNS
            )
        )
    return "\n".join(lines) + "\n"


def _cmd_synth(args) -> int:
    config = _load_config(args.config)
    section = dict(config.get("synth", {}))
    for key in ("n_items", "d", "m", "d_img", "sigma_source", "sigma_trans"):
        flag = getattr(args, key)
        if flag is not None:
            section[key] = flag
    section["seed"] = _pick_seed(args, {**config, **section})
    try:
        spec = SyntheticSpec(**section)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad synth config: {exc}") from exc
    ds = generate_synthetic(spec)
    _ensure_parent(args.out)
    save_jsonl(ds, args.out)
    print(
        f"wrote {len(ds)} items (d={ds.d}, m={ds.m}, d_img={ds.d_img}) to {args.out}"
    )
    return 0


def _cmd_train(args) -> int:
    if args.resume and args.preset and PRESETS[args.preset].get("pipeline"):
        raise UsageError(
            f"--resume cannot be combined with preset {args.preset}: the "
            "two-phase pipeline always starts from fresh parameters"
        )
    stem, ext = os.path.splitext(args.out)
    csv_path = args.log if args.log else stem + ".csv"
    diag_path = f"{stem}.diverged{ext}"
    for path in (args.out, csv_path, diag_path):
        _check_writable(path)
    config = _load_config(args.config)
    ds = load_jsonl(args.data)
    seed = _pick_seed(args, config)
    adapter_cfg = _build_adapter_cfg(config.get("adapter", {}), ds)
    gan_cfg, pipeline = _build_gan_cfg(
        config.get("gan", {}), ds, args.preset, args.steps
    )
    train_section = dict(config.get("train", {}))
    unknown = set(train_section) - {"phase1_steps", "phase2_steps"}
    if unknown:
        raise UsageError(f"unknown train-section keys {sorted(unknown)}")
    if args.phase1_steps is not None:
        train_section["phase1_steps"] = args.phase1_steps
    if args.phase2_steps is not None:
        train_section["phase2_steps"] = args.phase2_steps

    rows = []
    _ensure_parent(args.out)
    _ensure_parent(csv_path)

    try:
        if pipeline:
            missing = {"phase1_steps", "phase2_steps"} - set(train_section)
            if missing:
                raise UsageError(
                    f"preset {args.preset} needs {sorted(missing)} in the "
                    "train config section (or the matching flags)"
                )
            ck = finetune_pipeline(
                ds,
                adapter_cfg,
                gan_cfg,
                seed,
                phase1_steps=json_uint(train_section["phase1_steps"], 0, "phase1_steps"),
                phase2_steps=json_uint(train_section["phase2_steps"], 0, "phase2_steps"),
                log_fn=rows.append,
            )
        else:
            resume = load_checkpoint(args.resume) if args.resume else None
            ck = train(
                ds, adapter_cfg, gan_cfg, seed, resume=resume, log_fn=rows.append
            )
    except TrainingDiverged as exc:
        save_checkpoint(exc.checkpoint, diag_path)
        atomic_write_text(csv_path, _format_csv(rows))
        print(f"training diverged: {exc}; diagnostic checkpoint at {diag_path}",
              file=sys.stderr)
        return 3
    save_checkpoint(ck, args.out)
    atomic_write_text(csv_path, _format_csv(rows))
    print(f"trained to step {ck.step}; checkpoint {args.out}, log {csv_path}")
    return 0


def _cmd_eval(args) -> int:
    config = _load_config(args.config)
    ck = load_checkpoint(args.ckpt)
    ds = load_jsonl(args.data)
    seed = _pick_seed(args, config)
    eval_section = dict(config.get("eval", {}))
    unknown = set(eval_section) - {"n_gen"}
    if unknown:
        raise UsageError(f"unknown eval-section keys {sorted(unknown)}")
    n_gen = args.n_gen
    if n_gen is None:
        n_gen = json_uint(eval_section.get("n_gen", 512), 0, "eval n_gen")
    report = compare_strategies(ck, ds, n_gen, seed)
    if args.out:
        _ensure_parent(args.out)
        save_report(report, args.out)
    width = max(len(r["strategy"]) for r in report.results)
    print(f"{'strategy'.ljust(width)}  frechet_distance")
    for row in sorted(report.results, key=lambda r: r["fd"]):
        print(f"{row['strategy'].ljust(width)}  {row['fd']:.6f}")
    if args.out:
        print(f"report written to {args.out}")
    return 0


def _cmd_inspect_attn(args) -> int:
    ck = load_checkpoint(args.ckpt)
    ds = load_jsonl(args.data)
    check_dataset(ds, ck.ensad_cfg, ck.gan_cfg)
    limit = args.limit if args.limit is not None else len(ds)
    if limit < 1:
        raise UsageError("limit must be positive")
    _, trace = forward_batch(ck.params["ensad"], ck.ensad_cfg, ds.rows[:limit])
    records = [attention_export_record(item_id, scores, texts) for item_id, scores, texts
               in zip(ds.ids, attention_scores(trace), ds.translation_texts)]
    for rec in records:
        print(json.dumps(rec))
    if args.out:
        _ensure_parent(args.out)
        atomic_write_text(
            args.out, "\n".join(json.dumps(r) for r in records) + "\n"
        )
        print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    return 0


def _cmd_param_count(args) -> int:
    try:
        cfg = EnsAdConfig(d=args.d, d_hid=args.d_hid, m=args.m)
    except ValueError as exc:
        raise UsageError(f"bad adapter dimensions: {exc}") from exc
    print(param_count(cfg))
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
    p.add_argument("--steps", type=int, help="training steps")
    p.add_argument("--log", help="loss CSV path (default: checkpoint sibling)")
    p.add_argument("--resume", help="checkpoint to continue from")
    p.add_argument("--phase1-steps", dest="phase1_steps", type=int)
    p.add_argument("--phase2-steps", dest="phase2_steps", type=int)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="compare fusion strategies by Frechet distance")
    _add_common(p)
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset path (.jsonl)")
    p.add_argument("--n-gen", dest="n_gen", type=int, help="generated sample count")
    p.add_argument("--out", help="report JSON path")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("inspect-attn", help="dump per-item attention weights")
    _add_common(p)
    p.add_argument("--ckpt", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset path (.jsonl)")
    p.add_argument("--limit", type=int, help="number of items (default: all)")
    p.add_argument("--out", help="output records path (.jsonl)")
    p.set_defaults(func=_cmd_inspect_attn)

    p = sub.add_parser("param-count", help="print the adapter parameter count")
    _add_common(p)
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
    except (UsageError, ValueError, OSError) as exc:
        # DataFormatError and bad checkpoints are ValueErrors; OSErrors name the path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
