"""Per-layer span timing for weaklab, installed from outside the package.

A span is one public function of one weaklab module, named
`<module>.<function>`. The tracer replaces every module-level binding of
that function object with one timing wrapper, so calls through a copied
binding (`from .model import train` in harness and estimation, for
example) are counted too. It keeps one aggregate per span (calls, total
seconds, self seconds) rather than one record per call; self time is the
span's time minus the time of traced calls made inside it. A span whose
function no longer exists is reported as absent, not as an error.
"""

from __future__ import annotations

import functools
import importlib
import time

# the layers are weaklab's modules; each span belongs to the module that
# defines the function
LAYERS = ("cli", "harness", "model", "losses", "datagen", "labelspace",
          "estimation", "correction")

SPANS = (
    "cli.main",
    "harness.run_experiment", "harness.overall_accuracy", "harness.write_run_dir",
    "model.train", "model.lookahead_parameters", "model.forward_batch",
    "model.batch_weighting", "model.backward_batch", "model.step", "model.predict_batch",
    "losses.loss_derivative",
    "datagen.generate_blobs", "datagen.build_multisource", "datagen.save_dataset",
    "datagen.load_dataset", "datagen.corruption_report",
    "labelspace.sample_weak_labels",
    "estimation.estimate_per_source", "estimation.estimate_single",
    "estimation.confusion_counts",
    "correction.weight_proposed", "correction.numerical_score_gradient",
    "correction.corrected_loss",
)


def _weaklab_modules() -> list:
    return [importlib.import_module("weaklab")] + [
        importlib.import_module(f"weaklab.{name}") for name in LAYERS]


class Tracer:
    """Context manager that times every call into the given spans while
    active and restores the original bindings on exit. Aggregates persist
    across activations."""

    def __init__(self, spans=SPANS):
        modules = _weaklab_modules()
        self.stats = {name: [0, 0.0, 0.0] for name in spans}  # calls, total_s, self_s
        self.absent = []
        self._stack = []  # traced time of the children of each open span
        self._patches = []  # (module, attribute, original, wrapper)
        for name in spans:
            layer, func = name.split(".")
            original = getattr(importlib.import_module(f"weaklab.{layer}"), func, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(self.stats[name], original)
            for module in modules:
                for attr, value in vars(module).items():
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))

    def _wrap(self, stat, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
        return traced

    def __enter__(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        return False

    def calls(self, name: str) -> int:
        return self.stats[name][0]

    def metrics(self, ops: int) -> dict:
        """Calls and self seconds per traced operation, per span and per
        layer; absent spans read zero."""
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, (calls, _, self_s) in self.stats.items():
            out[f"{name}.calls"] = (calls / ops, "count")
            out[f"{name}.self_s"] = (self_s / ops, "s")
            layer_self[name.split(".")[0]] += self_s / ops
        for layer, self_s in layer_self.items():
            out[f"{layer}.self_s"] = (self_s, "s")
        return out
