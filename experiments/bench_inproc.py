#!/usr/bin/env python3
"""Time two checkouts' training steps in one process, in paired blocks.

    python3 experiments/bench_inproc.py --parent ../parent --change . --workload desk_pretrain
    python3 experiments/bench_inproc.py --parent ../parent --change . --workload desk_finetune \\
        --blocks 40 --same-bits

Imports each checkout's ``src/ensad`` under a module name of its own (the
package imports itself only by relative imports), and builds each side's
corpus and step-0 checkpoint at the shapes of the workload in
``perfbench/run.py``'s ``WORKLOADS``, as a benchmark run with ``--seed 0``
does. Then each side trains one chunk untimed, and ``--blocks`` N blocks
follow (40 unless given). A block is one chunk of the workload's
``chunk`` steps per side, each a ``train(resume=)`` call that continues
that side's last, timed by ``time.process_time`` and
``time.perf_counter``; the parent trains first in even blocks, the change
in odd ones. Timed side by side, both trees see the same machine, which
varies far more between processes than within a few seconds.

It prints, per timer, the median of the per-block change/parent chunk time
ratios and a bootstrap 95% interval of that median. With ``--same-bits``
it also checks after every block that the two sides hold equal
checkpoints (parameters, Adam state, stream position and step), for
changes that keep every bit, and exits 1 at the first chunk after which
they differ.
"""

import os

# One BLAS thread, as perfbench/run.py sets it. Must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import importlib.util
import random
import statistics
import sys
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BOOTSTRAP = 2000
TIMERS = {"process_time": time.process_time, "perf_counter": time.perf_counter}


def load_workloads() -> dict:
    """``WORKLOADS`` of this checkout's ``perfbench/run.py``."""
    bench = os.path.join(ROOT, "perfbench")
    sys.path.insert(0, bench)  # run.py imports its neighbours by name
    spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(bench, "run.py"))
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.WORKLOADS


def import_tree(checkout: str, name: str) -> dict:
    """The ``adapter``, ``data`` and ``gan`` modules of
    ``checkout/src/ensad``, imported as the package ``name``."""
    package = os.path.join(checkout, "src", "ensad")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"), submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {m: importlib.import_module(f"{name}.{m}") for m in ("adapter", "data", "gan")}


class Side:
    """One checkout's corpus, configs and latest checkpoint."""

    def __init__(self, checkout: str, name: str, wl):
        self.mod = mod = import_tree(checkout, name)
        spec = mod["data"].SyntheticSpec(seed=0, **wl.corpus)
        self.ds = mod["data"].generate_synthetic(spec)
        self.ecfg = mod["adapter"].EnsAdConfig(**wl.adapter)
        self.gcfg = mod["gan"].GanConfig(d=spec.d, d_img=spec.d_img, **{
            **wl.gan, "trainable": frozenset(wl.gan["trainable"])})
        self.chunk = wl.chunk
        self.seed = 1  # perfbench's train seed for --seed 0
        self.ck = mod["gan"].train(self.ds, self.ecfg, replace(self.gcfg, steps=0), self.seed)

    def train_chunk(self) -> dict:
        """Train one more chunk; returns its time by each timer."""
        gcfg = replace(self.gcfg, steps=self.ck.step + self.chunk)
        gc.collect()
        start = {name: clock() for name, clock in TIMERS.items()}
        self.ck = self.mod["gan"].train(self.ds, self.ecfg, gcfg, self.seed, resume=self.ck)
        return {name: clock() - start[name] for name, clock in TIMERS.items()}

    def state(self) -> tuple:
        """Everything a checkpoint holds that training moves, as bytes."""
        ck = self.ck
        trees = {"params": ck.params, "adam.m": ck.adam.m, "adam.v": ck.adam.v}
        return (ck.step, ck.rng_position, ck.adam.t,
                [(key, comp, name, a.shape, a.tobytes()) for key, tree in trees.items()
                 for comp, tensors in tree.items() for name, a in tensors.items()])


def interval(ratios: list) -> tuple:
    """The median of ``ratios`` and a bootstrap 95% interval of it."""
    rng = random.Random(0)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(BOOTSTRAP))
    return (statistics.median(ratios), medians[int(0.025 * BOOTSTRAP)],
            medians[int(0.975 * BOOTSTRAP) - 1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout of the parent commit")
    ap.add_argument("--change", required=True, help="checkout of the change")
    workloads = load_workloads()
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--blocks", type=int, default=40, help="timed blocks, at least 2")
    ap.add_argument("--same-bits", action="store_true",
                    help="check that both sides hold equal checkpoints after every block")
    args = ap.parse_args(argv)
    if args.blocks < 2:
        ap.error("--blocks must be at least 2")
    wl = workloads[args.workload]
    parent = Side(args.parent, "ensad_parent", wl)
    change = Side(args.change, "ensad_change", wl)
    print(f"{args.workload}: {args.blocks} blocks of one {wl.chunk}-step chunk per side, "
          "the parent first in even blocks")
    ratios = {name: [] for name in TIMERS}
    for block in range(-1, args.blocks):  # block -1 warms both sides up, untimed
        first, second = (parent, change) if block % 2 == 0 else (change, parent)
        times = {side: side.train_chunk() for side in (first, second)}
        if args.same_bits and parent.state() != change.state():
            print(f"same bits: the checkpoints differ at step {parent.ck.step}")
            return 1
        if block >= 0:
            for name in TIMERS:
                ratios[name].append(times[change][name] / times[parent][name])
    for name, values in ratios.items():
        median, lo, hi = interval(values)
        print(f"{name}: change/parent chunk time median {median:.3f}, "
              f"95% interval [{lo:.3f}, {hi:.3f}]")
    if args.same_bits:
        print(f"same bits: equal checkpoints after every block (step {parent.ck.step})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
