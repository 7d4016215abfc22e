"""Per-layer spans for the traced benchmark run.

The layers are the public functions listed in ``layers.json``. Each is
wrapped on the attribute its caller actually resolves (``ensad.gan``
imports ``forward`` by name, so the wrapper goes on ``ensad.gan.forward``),
from outside the package: nothing in ``src/`` is edited. A span's self time
is its duration minus the time of the spans it encloses. A function that no
longer exists reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from contextlib import contextmanager

LAYERS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json")


def load_layers() -> list[dict]:
    with open(LAYERS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


class Tracer:
    """Call counts, self time and output sizes per span name, in memory."""

    def __init__(self, names):
        self.calls = {name: 0 for name in names}
        self.self_s = {name: 0.0 for name in names}
        self.output_items = {name: 0 for name in names}
        # One accumulator of enclosed-span time per open span.
        self._open: list[float] = []

    def timed(self, name, fn, count_output=False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                enclosed = self._open.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - enclosed
                if self._open:
                    self._open[-1] += elapsed
            if count_output:
                self.output_items[name] += len(out)
            return out

        return wrapper

    def timed_generator(self, name, fn):
        """Spans each ``next`` of the generator ``fn`` returns."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            advance = self.timed(name, fn(*args, **kwargs).__next__)
            while True:
                try:
                    item = advance()
                except StopIteration:
                    return
                yield item

        return wrapper


def _resolve(target: str):
    """(owner, attribute name) for ``module:attr.path``; None when the
    module or an enclosing attribute no longer exists."""
    module_name, _, path = target.partition(":")
    *parents, attr = path.split(".")
    try:
        owner = importlib.import_module(module_name)
        for part in parents:
            owner = getattr(owner, part)
    except (ImportError, AttributeError):
        return None
    return owner, attr


# Kernels whose output length is the work done: RNG words per fill.
COUNT_OUTPUT = frozenset({"kernels.splitmix64_fill"})


@contextmanager
def installed(spans: Tracer, layers):
    """Wrap every layer in ``layers`` with ``spans`` for the duration of
    the block, then restore the original attributes."""
    saved = []
    try:
        for layer in layers:
            name = layer["name"]
            for target in layer["attach"]:
                resolved = _resolve(target)
                if resolved is None:
                    continue
                owner, attr = resolved
                original = vars(owner).get(attr)
                if original is None:
                    continue
                if inspect.isgeneratorfunction(original):
                    wrapper = spans.timed_generator(name, original)
                else:
                    wrapper = spans.timed(name, original, count_output=name in COUNT_OUTPUT)
                saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        yield spans
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
