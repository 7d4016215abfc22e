#!/usr/bin/env python3
"""The ensad benchmark: one workload per run, driven through the public API.

    python3 perfbench/run.py --workload desk_finetune --seed 0 --seconds 20 --trace 0

A run is one single-threaded closed-loop caller. It synthesises a corpus
from ``--seed``, writes it as JSONL and loads it back through the validating
reader, and initialises parameters (the setup). Then it works in rounds. A
round is a few chunks of training steps (each chunk a train() call that
resumes the last, bit for bit), each followed by checkpoint save/load round
trips, with a fixed number of scorings spread over the chunks, and then one
more setup. There are as many rounds as fit in ``--seconds`` at the
workload's nominal training time per round, and at least ten; no count
depends on how fast the code runs. Every output is checked; a check that
does not hold counts as a failed operation.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` trains
untraced for half the rounds' chunks, then runs one setup, the same steps,
one scoring and one round trip with a span around every layer in
``layers.json``; it checks that both passes give bit-identical results and
reports per-layer call counts and self times plus the tracing overhead.

The last line of standard output is the JSON result; the lines above it
give the machine, the settings and every metric with its unit.
"""

import os
import sys

# One BLAS thread: the caller is single-threaded, and a fixed thread count
# keeps runs comparable on a shared machine. Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import resource
import shutil
import signal
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, fields, is_dataclass, replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

if not os.path.isfile(os.path.join(SRC, "ensad", "__init__.py")):
    sys.exit(f"run.py: no ensad package under {SRC}; run from a repository checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from ensad import adapter, data, evaluation, gan  # noqa: E402

import machine  # noqa: E402
import tracer  # noqa: E402

REFERENCES_FILE = os.path.join(HERE, "references.json")
REFERENCE_RTOL = 1e-9
# Steps at the start of a run left out of the step-latency samples.
WARMUP_STEPS = 10
# A run has at least this many rounds. A round is a few training chunks,
# each followed by checkpoint round trips, with the round's scorings spread
# over its chunks, and then one more setup. Interleaved like this, a burst
# of load from elsewhere on the machine touches every phase a little rather
# than one phase wholly. Every count follows from the workload and
# --seconds alone, never from how fast the code runs, so each metric is
# always the same statistic. Ten rounds of at least 20 steps give the step
# p90 well over ten samples beyond it.
MIN_ROUNDS = 10
# Nominal training seconds of one round on one 2.1 GHz Xeon core; --seconds
# divided by this gives the number of rounds.
ROUND_S = 2.4
SMOKE_STEPS = 12
SMOKE_WARMUP = 2
SMOKE_ROUNDS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "step_ms_p90": "ms",
    "train_items_per_s": "items/s",
    "eval_s": "s",
    "ckpt_save_s": "s",
    "ckpt_load_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    corpus: dict  # SyntheticSpec fields except the seed
    adapter: dict  # EnsAdConfig fields
    gan: dict  # GanConfig fields except d and d_img
    chunk: int  # steps per train() call
    chunks: int  # train() calls per round
    score: str  # "compare_strategies", "evaluate_zero_shot" or "fake_stats"
    n_gen: int
    scorings: int  # scoring calls per round, spread evenly over its chunks
    round_trips: int  # checkpoint save/load pairs after each chunk


# Acceptance criterion 8's shapes: d=16, m=4, d_hid=8, d_img=12, 2000 items.
_DESK_CORPUS = dict(n_items=2000, d=16, m=4, d_img=12, sigma_trans=0.2)
_DESK_ADAPTER = dict(d=16, d_hid=8, m=4, alpha=0.4)
_DESK_GAN = dict(d_z=16, gen_hidden=(64, 64), disc_hidden=(32, 32), batch=16)

WORKLOADS = {
    # The paper's main setup (ensad_frozen_g, criterion 8's second phase):
    # per-item adapter dispatch and augmentation RNG dominate the step.
    "desk_finetune": Workload(
        corpus={**_DESK_CORPUS, "sigma_source": 0.4},
        adapter=_DESK_ADAPTER,
        gan={**_DESK_GAN, "lr": 1e-3,
             "trainable": ("ensad", "discriminator"), "conditioning": "ensad"},
        chunk=50, chunks=4, score="compare_strategies", n_gen=512,
        scorings=1, round_trips=3,
    ),
    # finetune_g_text (criterion 8's first phase): G + D on the source
    # embedding; the adapter is never called, in training or in scoring.
    "desk_pretrain": Workload(
        corpus={**_DESK_CORPUS, "sigma_source": 0.0},
        adapter=_DESK_ADAPTER,
        gan={**_DESK_GAN, "lr": 5e-4,
             "trainable": ("generator", "discriminator"), "conditioning": "zero_shot"},
        chunk=100, chunks=4, score="evaluate_zero_shot", n_gen=512,
        scorings=4, round_trips=3,
    ),
    # ensad_frozen_g at the paper's shapes (EnsAdConfig and GanConfig
    # defaults): the adapter is bound by arithmetic, and the 49 MB
    # checkpoint and the JSONL corpus make serialisation costly. A Frechet
    # distance is out of reach here (pure-Python Jacobi on 512-d features
    # runs for hours), so scoring stops at the generated-feature moments
    # compare_strategies fits for its ensad row.
    "paper_shape": Workload(
        corpus=dict(n_items=200, d=512, m=12, d_img=48, sigma_source=0.4, sigma_trans=0.2),
        adapter=dict(d=512, d_hid=256, m=12),
        gan={"trainable": ("ensad", "discriminator"), "conditioning": "ensad"},
        chunk=20, chunks=1, score="fake_stats", n_gen=64,
        scorings=1, round_trips=1,
    ),
}


class Ledger:
    """Operations attempted and failed. Operations are setup calls, training
    steps, scoring calls, checkpoint saves and loads, and correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def done(self, n=1):
        self.attempted += n

    def check(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{name}: {detail}" if detail else name)


def same(a, b) -> bool:
    """Structural equality; arrays must match in dtype, shape and every element."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        )
    if type(a) is not type(b):
        return False
    if is_dataclass(a):
        return all(same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def _gaussian_words(n: int) -> int:
    """Stream words one SeededRng.gaussian(n) call consumes."""
    return 2 * ((n + 1) // 2)


def init_words(ecfg, gcfg) -> int:
    """Stream words parameter initialisation draws: every weight matrix
    and projection vector, in the draw order of init_params and
    init_gan_params; biases are zeros."""
    d, dh = ecfg.d, ecfg.d_hid
    words = 3 * _gaussian_words(dh * d) + _gaussian_words(dh) + _gaussian_words(d * d)
    gen = [d + gcfg.d_z, *gcfg.gen_hidden, gcfg.d_img]
    disc = [gcfg.d_img, *gcfg.disc_hidden]
    for sizes in (gen, disc):
        words += sum(_gaussian_words(a * b) for a, b in zip(sizes, sizes[1:]))
    return words + _gaussian_words(d * disc[-1]) + _gaussian_words(disc[-1])


def step_words(ecfg, gcfg) -> int:
    """Stream words one training step draws: a Fisher-Yates slot per batch
    item, a noise vector per augmented embedding, and one z per item."""
    n = gcfg.batch
    augmented = (gcfg.noise_p0 > 0) + ecfg.m * (gcfg.noise_pt > 0)
    return n + n * augmented * _gaussian_words(ecfg.d) + n * _gaussian_words(gcfg.d_z)


@dataclass
class Plan:
    """What one run does, derived from the workload and the arguments."""

    name: str
    wl: Workload
    seed: int
    spec: data.SyntheticSpec
    ecfg: adapter.EnsAdConfig
    gcfg: gan.GanConfig
    chunk: int
    chunks: int
    warmup: int
    rounds: int
    scorings: int
    round_trips: int

    @property
    def round_steps(self):
        return self.chunk * self.chunks

    @property
    def train_seed(self):
        return self.seed + 1

    @property
    def eval_seed(self):
        return self.seed + 2


def make_plan(name: str, seed: int, seconds: float, smoke: bool) -> Plan:
    wl = WORKLOADS[name]
    spec = data.SyntheticSpec(seed=seed, **wl.corpus)
    ecfg = adapter.EnsAdConfig(**wl.adapter)
    gan_fields = {**wl.gan, "trainable": frozenset(wl.gan["trainable"])}
    gcfg = gan.GanConfig(d=spec.d, d_img=spec.d_img, **gan_fields)
    if smoke:
        return Plan(name=name, wl=wl, seed=seed, spec=spec, ecfg=ecfg, gcfg=gcfg,
                    chunk=SMOKE_STEPS, chunks=2, warmup=SMOKE_WARMUP, rounds=SMOKE_ROUNDS,
                    scorings=1, round_trips=1)
    return Plan(name=name, wl=wl, seed=seed, spec=spec, ecfg=ecfg, gcfg=gcfg,
                chunk=wl.chunk, chunks=wl.chunks, warmup=WARMUP_STEPS,
                rounds=max(MIN_ROUNDS, round(seconds / ROUND_S)),
                scorings=wl.scorings, round_trips=wl.round_trips)


def setup(plan: Plan, tmp: str, ledger: Ledger):
    """Corpus synthesis, JSONL write, validated load and parameter init:
    everything before the first training step. Returns (seconds, dataset,
    step-0 checkpoint, JSONL bytes)."""
    path = os.path.join(tmp, "corpus.jsonl")
    gc.collect()
    start = time.perf_counter()
    generated = data.generate_synthetic(plan.spec)
    data.save_jsonl(generated, path)
    ds = data.load_jsonl(path)
    ck0 = gan.train(ds, plan.ecfg, replace(plan.gcfg, steps=0), plan.train_seed)
    elapsed = time.perf_counter() - start
    ledger.done(4)
    ledger.check("JSONL round trip", same(ds, generated), "loaded corpus differs")
    expected = init_words(plan.ecfg, plan.gcfg)
    ledger.check("init rng position", ck0.rng_position == expected,
                 f"{ck0.rng_position} != {expected}")
    return elapsed, ds, ck0, os.path.getsize(path)


class Trainer:
    """Trains from a step-0 checkpoint in chunks of plan.chunk steps, each
    chunk a train() call resuming the last one (resumes are bit-exact).
    Step time is read between successive log_fn calls."""

    def __init__(self, plan: Plan, ds, ck0, ledger: Ledger):
        self.plan, self.ds, self.ledger = plan, ds, ledger
        self.ck = ck0
        self.steps = 0
        self.chunk_walls = []  # wall time of each train() call
        self.intervals = []  # seconds per step, past the warm-up
        self.ref_row = None  # log row of the first round's last step
        self.last_row = None

    def chunk(self):
        plan, stamps, rows = self.plan, [], []

        def log_fn(row):
            stamps.append(time.perf_counter())
            rows.append(row)

        target = self.steps + plan.chunk
        gc.collect()
        start = time.perf_counter()
        self.ck = gan.train(self.ds, plan.ecfg, replace(plan.gcfg, steps=target),
                            plan.train_seed, resume=self.ck, log_fn=log_fn)
        self.chunk_walls.append(time.perf_counter() - start)
        self.ledger.done(len(rows))
        self.ledger.check("one log row per step", len(rows) == plan.chunk,
                          f"{len(rows)} rows for {plan.chunk} steps")
        bad = [(row["step"], key) for row in rows for key, value in row.items()
               if key != "step" and not math.isfinite(value)]
        self.ledger.check("logged losses finite", not bad, f"first at {bad[:1]}")
        # stamps[i + 1] - stamps[i] is the time of step self.steps + i + 2
        self.intervals += [b - a for i, (a, b) in enumerate(zip(stamps, stamps[1:]))
                           if self.steps + i + 2 > plan.warmup]
        self.steps = target
        self.last_row = rows[-1]
        if self.steps == plan.round_steps:
            self.ref_row = rows[-1]

    def check_rng(self):
        plan = self.plan
        expected = (init_words(plan.ecfg, plan.gcfg)
                    + self.steps * step_words(plan.ecfg, plan.gcfg))
        self.ledger.check("rng position after training", self.ck.rng_position == expected,
                          f"{self.ck.rng_position} != {expected}")


def score(plan: Plan, ck, ds) -> dict:
    """Score the checkpoint the workload's way; returns name -> value."""
    if plan.wl.score == "compare_strategies":
        report = evaluation.compare_strategies(ck, ds, plan.wl.n_gen, plan.eval_seed)
        return {row["strategy"]: row["fd"] for row in report.results}
    if plan.wl.score == "evaluate_zero_shot":
        return {"zero_shot": evaluation.evaluate(ck, ds, plan.wl.n_gen, "zero_shot",
                                                 plan.eval_seed)}
    # fake_stats: what compare_strategies computes for its ensad row (item
    # draws, adapter, generator, discriminator features, moment fit), short
    # of the Frechet distance.
    stats = evaluation._fake_stats(ck, ds, plan.wl.n_gen, "ensad", plan.eval_seed)
    return {"fake_mu_sq": float(stats.mu @ stats.mu),
            "fake_sigma_trace": float(np.trace(stats.sigma))}


def scorings(plan: Plan, ck, ds, ledger: Ledger, repeats: int):
    """Score ``ck`` ``repeats`` times; every repeat must give the same
    values. Returns (durations, scores)."""
    times, first = [], None
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        scores = score(plan, ck, ds)
        times.append(time.perf_counter() - start)
        ledger.done()
        # Frechet distances, squared norms and traces alike are >= 0.
        ok = all(math.isfinite(v) and v >= 0.0 for v in scores.values())
        ledger.check("scores finite and >= 0", ok, repr(scores))
        if first is None:
            first = scores
        else:
            ledger.check("scores repeat exactly", scores == first, f"{scores} != {first}")
    return times, first


def round_trips(ck, tmp: str, ledger: Ledger, repeats: int):
    """save_checkpoint then load_checkpoint ``repeats`` times; each load
    must equal ``ck``. Returns (saves, loads, bytes)."""
    path = os.path.join(tmp, "checkpoint.json")
    saves, loads = [], []
    for _ in range(repeats):
        gc.collect()
        start = time.perf_counter()
        gan.save_checkpoint(ck, path)
        saves.append(time.perf_counter() - start)
        gc.collect()
        start = time.perf_counter()
        loaded = gan.load_checkpoint(path)
        loads.append(time.perf_counter() - start)
        ledger.done(2)
        ledger.check("checkpoint round trip", same(loaded, ck), "loaded checkpoint differs")
    return saves, loads, os.path.getsize(path)


def check_references(plan: Plan, ref_row: dict, scores: dict, ledger: Ledger) -> dict:
    """Compare the first round's last losses and the scores of its
    checkpoint with the values stored for this workload and seed, when
    there are any for the same number of steps. Returns the values."""
    values = {"steps": plan.round_steps, "loss_ensad": ref_row["loss_ensad"],
              "loss_disc": ref_row["loss_disc"], "scores": scores}
    with open(REFERENCES_FILE, encoding="utf-8") as fh:
        ref = json.load(fh).get(plan.name, {}).get(str(plan.seed))
    if ref is not None and ref["steps"] == plan.round_steps:
        want = {"loss_ensad": ref["loss_ensad"], "loss_disc": ref["loss_disc"],
                **ref["scores"]}
        got = {"loss_ensad": values["loss_ensad"], "loss_disc": values["loss_disc"],
               **scores}
        off = {k: (got.get(k), v) for k, v in want.items()
               if got.get(k) is None or not math.isclose(got[k], v, rel_tol=REFERENCE_RTOL)}
        ledger.check("matches stored references", not off, repr(off))
    return values


def quantile(samples, q: float) -> float:
    """The ``q`` quantile of ``samples`` (at least two), interpolated.

    The time metrics report a slow tail, not the median. On a shared 2-core
    Xeon VM, other tenants slow this process by up to half for most of the
    time, with quiet spells that come and go at random: identical 50-step
    desk_finetune chunks took 6.7 to 13.8 ms per step. How much of a run
    falls in a quiet spell moves its median and fast tail, while its slow
    tail stays put. Cut into 20 s runs, a 240 s recording of desk_pretrain
    rounds gave these spreads (quartile distance over median) for the 90th
    percentile, the median and the 10th percentile: steps 0.07, 0.17, 0.13;
    scoring calls 0.07, 0.25, 0.37; checkpoint saves 0.08, 0.25, 0.18.
    """
    return statistics.quantiles(samples, n=10, method="inclusive")[round(10 * q) - 1]


def end_to_end(plan: Plan, tmp: str, ledger: Ledger, report: dict):
    elapsed, ds, ck0, _ = setup(plan, tmp, ledger)
    setup_times, eval_times, saves, loads = [elapsed], [], [], []
    trainer = Trainer(plan, ds, ck0, ledger)
    score_every = plan.chunks // plan.scorings
    for _ in range(plan.rounds):
        for k in range(1, plan.chunks + 1):
            trainer.chunk()
            if k % score_every == 0:
                # The first round ends on a repeat, to check that scores repeat.
                first = trainer.steps == plan.round_steps
                times, scores = scorings(plan, trainer.ck, ds, ledger, 2 if first else 1)
                eval_times += times
                if first:
                    report["reference_values"] = check_references(
                        plan, trainer.ref_row, scores, ledger)
            chunk_saves, chunk_loads, _ = round_trips(trainer.ck, tmp, ledger, plan.round_trips)
            saves += chunk_saves
            loads += chunk_loads
        setup_times.append(setup(plan, tmp, ledger)[0])
    trainer.check_rng()

    steps_ms = [1e3 * s for s in trainer.intervals]
    report["step_ms_p50"] = statistics.median(steps_ms)
    report["settings"].update(
        rounds=plan.rounds, steps=trainer.steps, step_samples=len(steps_ms),
        setups=len(setup_times), scorings=len(eval_times), round_trips=len(saves))
    return {
        "setup_s": statistics.median(setup_times),
        "step_ms_p90": quantile(steps_ms, 0.9),
        "train_items_per_s": quantile(
            [plan.gcfg.batch * plan.chunk / wall for wall in trainer.chunk_walls], 0.1),
        "eval_s": quantile(eval_times, 0.9),
        "ckpt_save_s": quantile(saves, 0.9),
        "ckpt_load_s": quantile(loads, 0.9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(plan: Plan, tmp: str, ledger: Ledger, report: dict):
    """Train untraced for half the run's chunks, then repeat the workload
    with every layer spanned for the same number of steps."""
    _, ds, ck0, _ = setup(plan, tmp, ledger)
    plain = Trainer(plan, ds, ck0, ledger)
    for _ in range(max(1, plan.rounds // 2) * plan.chunks):
        plain.chunk()
    plain.check_rng()

    layers = tracer.load_layers()
    spans = tracer.Tracer([layer["name"] for layer in layers])
    with tracer.installed(spans, layers):
        _, ds, ck0, jsonl_bytes = setup(plan, tmp, ledger)
        spanned = Trainer(plan, ds, ck0, ledger)
        for _ in range(plan.chunks):
            spanned.chunk()
        _, scores = scorings(plan, spanned.ck, ds, ledger, 1)
        while spanned.steps < plain.steps:
            spanned.chunk()
        _, _, ckpt_bytes = round_trips(spanned.ck, tmp, ledger, 1)
    spanned.check_rng()
    check_references(plan, spanned.ref_row, scores, ledger)
    ledger.check("traced run bit-identical to untraced",
                 same(spanned.ck, plain.ck) and same(spanned.last_row, plain.last_row),
                 f"rng {spanned.ck.rng_position} vs {plain.ck.rng_position}")

    report["settings"].update(steps=plain.steps)
    metrics = {}
    for name in spans.calls:
        metrics[f"{name}.calls"] = spans.calls[name]
        metrics[f"{name}.self_s"] = spans.self_s[name]
    fills = spans.calls["kernels.splitmix64_fill"]
    metrics["numkit.rng_words_per_fill"] = (
        spans.output_items["kernels.splitmix64_fill"] / fills if fills else 0.0)
    metrics["numkit.rng_words_per_step"] = (
        (spanned.ck.rng_position - ck0.rng_position) / spanned.steps)
    metrics["data.jsonl_bytes"] = jsonl_bytes
    metrics["gan.ckpt_bytes"] = ckpt_bytes
    metrics["trace_overhead"] = sum(spanned.chunk_walls) / sum(plain.chunk_walls)
    return metrics


def per_layer_units() -> dict:
    units = {}
    for layer in tracer.load_layers():
        units[f"{layer['name']}.calls"] = "count"
        units[f"{layer['name']}.self_s"] = "s"
    units.update({
        "numkit.rng_words_per_fill": "words",
        "numkit.rng_words_per_step": "words",
        "data.jsonl_bytes": "bytes",
        "gan.ckpt_bytes": "bytes",
        "trace_overhead": "ratio",
    })
    return units


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="nominal training time: sets the number of rounds (at least "
                    f"{MIN_ROUNDS}), not a deadline")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help=f"{SMOKE_ROUNDS} rounds of two {SMOKE_STEPS}-step chunks, one repeat each")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 1 << 63:
        ap.error("--seed must lie in [0, 2**63)")
    if args.seconds < 0:
        ap.error("--seconds must be nonnegative")

    plan = make_plan(args.workload, args.seed, args.seconds, args.smoke)
    report = {
        "machine": machine.machine_info(ROOT),
        "settings": {"workload": args.workload, "seed": args.seed,
                     "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
                     "chunk": plan.chunk, "chunks": plan.chunks, "warmup": plan.warmup,
                     "rounds": plan.rounds},
    }
    ledger = Ledger()
    metrics = {}
    # A terminated run still removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        measure = traced if args.trace else end_to_end
        metrics = measure(plan, tmp, ledger, report)
    except Exception:  # reported as a failed operation in the result
        ledger.check("run completed", False, traceback.format_exc())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    complete = metrics.keys() == units.keys()
    for key in ("machine", "settings"):
        print(json.dumps({key: report[key]}, sort_keys=True))
    if "reference_values" in report:
        print(json.dumps({"reference_values": report["reference_values"]}, sort_keys=True))
    for error in ledger.errors:
        print(f"FAILED {error}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value!r} {units[name]}")
    if "step_ms_p50" in report:
        print(f"{args.workload} step_ms_p50 {report['step_ms_p50']!r} ms (not gated)")
    error_rate = ledger.failed / max(ledger.attempted, 1)
    print(f"{args.workload} error_rate {error_rate!r} "
          f"({ledger.failed} failed / {ledger.attempted} attempted)")
    correct = complete and ledger.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
