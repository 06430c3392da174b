"""Span tracing around calls into the public functions of the `adq` modules.

The benchmark does not touch the program: it replaces each traced function at
every module binding callers look it up through (``from x import f`` copies a
binding, so ``adq.cli.save_checkpoint`` and ``adq.scheduler.save_checkpoint``
are patched alongside ``adq.nn.checkpoint.save_checkpoint``). Methods are
patched once on their class. Spans are kept in memory as
``[name, start, end, parent]`` records and aggregated when a traced unit (one
set-up plus one job) ends; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

# (span name, module, attribute path). A dotted attribute path names a method.
SPANS = (
    ("layers.conv2d_forward", "adq.nn.layers", "conv2d_forward"),
    ("layers.conv2d_backward", "adq.nn.layers", "conv2d_backward"),
    ("layers.batchnorm_forward", "adq.nn.layers", "batchnorm_forward"),
    ("layers.batchnorm_backward", "adq.nn.layers", "batchnorm_backward"),
    ("layers.maxpool_forward", "adq.nn.layers", "maxpool_forward"),
    ("layers.maxpool_backward", "adq.nn.layers", "maxpool_backward"),
    ("layers.avgpool_forward", "adq.nn.layers", "avgpool_forward"),
    ("layers.avgpool_backward", "adq.nn.layers", "avgpool_backward"),
    ("layers.linear_forward", "adq.nn.layers", "linear_forward"),
    ("layers.linear_backward", "adq.nn.layers", "linear_backward"),
    ("layers.relu_forward", "adq.nn.layers", "relu_forward"),
    ("layers.relu_backward", "adq.nn.layers", "relu_backward"),
    ("engine.forward", "adq.nn.engine", "forward"),
    ("engine.backward", "adq.nn.engine", "backward"),
    ("engine.optimizer_step", "adq.nn.engine", "optimizer_step"),
    ("engine.loss_softmax_xent", "adq.nn.engine", "loss_softmax_xent"),
    ("engine.accuracy", "adq.nn.engine", "accuracy"),
    ("arch.arch_hash", "adq.nn.arch", "NetworkArch.arch_hash"),
    ("arch.infer_shapes", "adq.nn.arch", "NetworkArch.infer_shapes"),
    ("quant.fake_quant", "adq.quant", "fake_quant"),
    ("quant.ste_mask", "adq.quant", "ste_mask"),
    ("quant.RangeTracker.observe", "adq.quant", "RangeTracker.observe"),
    ("admon.ADHistory.record", "adq.admon", "ADHistory.record"),
    ("admon.ADHistory.is_saturated", "adq.admon", "ADHistory.is_saturated"),
    ("scheduler.run_schedule", "adq.scheduler", "run_schedule"),
    ("scheduler.rebuild_pruned", "adq.scheduler", "rebuild_pruned"),
    ("scheduler.select_pruned_channels", "adq.scheduler",
     "select_pruned_channels"),
    ("scheduler.propagate_skip_bitwidths", "adq.scheduler",
     "propagate_skip_bitwidths"),
    ("checkpoint.save_checkpoint", "adq.nn.checkpoint", "save_checkpoint"),
    ("checkpoint.load_checkpoint", "adq.nn.checkpoint", "load_checkpoint"),
    ("data.synthetic_dataset", "adq.nn.data", "synthetic_dataset"),
    ("config.ExperimentConfig.from_json", "adq.config",
     "ExperimentConfig.from_json"),
    ("energy.layer_shapes", "adq.energy", "layer_shapes"),
    ("energy.pim_network_energy", "adq.energy", "pim_network_energy"),
    ("energy.analytical_network_energy", "adq.energy",
     "analytical_network_energy"),
    ("energy.EnergyReport.to_json", "adq.energy", "EnergyReport.to_json"),
    ("presets.Preset.build_arch", "adq.presets", "Preset.build_arch"),
    ("reproduce.compute_table", "adq.reproduce", "compute_table"),
    ("cli.main", "adq.cli", "main"),
)


def _conv_forward_flop(args, kwargs):
    x, weight = args[0], args[1]
    stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
    padding = kwargs.get("padding", args[4] if len(args) > 4 else 0)
    b, _, h, w = x.shape
    cout, cin, p, _ = weight.shape
    ho = (h + 2 * padding - p) // stride + 1
    wo = (w + 2 * padding - p) // stride + 1
    return 2 * b * cout * ho * wo * cin * p * p


def _conv_backward_flop(args, kwargs):
    x_shape, _cols, weight, _stride, _padding, ho, wo = args[0]
    cout, cin, p, _ = weight.shape
    # weight gradient and input-column gradient: one forward's MACs each
    return 2 * 2 * x_shape[0] * cout * ho * wo * cin * p * p


def _checkpoint_bytes(args, kwargs):
    return os.path.getsize(args[0])


# span name -> (counter name, function of the call's arguments), evaluated
# after the call returns
COUNTERS = {
    "layers.conv2d_forward": ("layers.conv2d.flop", _conv_forward_flop),
    "layers.conv2d_backward": ("layers.conv2d.flop", _conv_backward_flop),
    "checkpoint.save_checkpoint": ("checkpoint.save_checkpoint.bytes",
                                   _checkpoint_bytes),
}


class Tracer:
    """Records nested spans around the functions named in SPANS."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self._stack = []
        self.bindings = {}   # span name -> patched "module.attribute" names

    def begin_unit(self):
        """Start a new traced unit (one set-up plus one timed job)."""
        self.counters = Counter()
        self.spans.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                key, count = counter
                self.counters[key] += count(args, kwargs)
            return out

        return traced

    def install(self):
        """Patch every traced function at every `adq` module binding."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "adq" or n.startswith("adq."))]
        for name, modname, attr in SPANS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                setattr(cls, meth, new)
                self.bindings[name] = [f"{modname}.{attr}"]
                continue
            fn = getattr(owner, attr)
            traced = self._wrap(name, fn)
            self.bindings[name] = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)
                        self.bindings[name].append(f"{mod.__name__}.{key}")

    def end_unit(self, job_start: float, job_end: float):
        """Aggregate the current unit's spans and drop them.

        Returns ({span name: {"calls", "total_s", "self_s"}}, counters, the
        summed self time of the spans inside [job_start, job_end]).
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        stats, attributed = {}, 0.0
        for rec, inner in zip(spans, child):
            dur = rec[2] - rec[1]
            s = stats.setdefault(rec[0], {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - inner
            if rec[1] >= job_start and rec[2] <= job_end:
                attributed += dur - inner
        spans.clear()
        return stats, self.counters, attributed
