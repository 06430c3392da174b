"""Experiment configuration: one JSON file fully determines a run."""

from __future__ import annotations

import inspect
import json
import os
from dataclasses import dataclass

import numpy as np

from adq.errors import ConfigurationError, check_field_types, check_type
from adq.nn.arch import NetworkArch
from adq.nn.data import Dataset, load_directory, synthetic_dataset
from adq.nn.engine import OptimConfig
from adq.presets import build_toy_cnn
from adq.scheduler import ScheduleConfig

# the keys of a config file's top-level object
_TOP_LEVEL_KEYS = ("seed", "output_dir", "arch", "dataset", "schedule",
                   "optimizer", "energy_model", "baseline_epoch_total")

# argument name -> (what a valid value must be, its test), for the dataset
# and arch arguments, checked after their types
_VALID = {
    "num_classes": ("be >= 1", lambda v: v >= 1),
    "train_per_class": ("be >= 1", lambda v: v >= 1),
    "test_per_class": ("be >= 1", lambda v: v >= 1),
    "image_shape": ("be three positive integers",
                    lambda v: len(v) == 3 and min(v) >= 1),
    "test_fraction": ("lie in (0, 1)", lambda v: 0 < v < 1),
    "seed": ("be >= 0", lambda v: v >= 0),
}


def _typed_args(name, spec, fn):
    """The object spec of config field `name` without its "kind", checked
    as arguments of fn: each key must name a parameter of fn, hold the type
    of its annotation (see check_type) and pass its _VALID test."""
    params = inspect.signature(fn).parameters
    args = {k: v for k, v in spec.items() if k != "kind"}
    for key, value in args.items():
        if key not in params:
            raise ConfigurationError(f"unknown config field '{name}.{key}'")
        check_type(f"{name}.{key}", value, params[key].annotation)
        if key in _VALID and not _VALID[key][1](value):
            raise ConfigurationError(
                f"{name}.{key} must {_VALID[key][0]}, got {value!r}")
    return args


@dataclass
class ExperimentConfig:
    seed: int
    output_dir: str
    arch_spec: dict
    dataset_spec: dict
    schedule: ScheduleConfig
    optimizer: OptimConfig
    energy_model: str = "analytical"  # 'analytical' | 'pim' | 'both' | 'none'
    baseline_epoch_total: float | None = None

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as f:
                raw = json.load(f)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from exc
        except ValueError as exc:  # not UTF-8
            raise ConfigurationError(f"cannot read config {path!r}: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigurationError("config must be a JSON object")
        unknown = [key for key in raw if key not in _TOP_LEVEL_KEYS]
        if unknown:
            raise ConfigurationError(f"unknown config field {unknown[0]!r}")

        def need(key):
            if key not in raw:
                raise ConfigurationError(f"config field {key!r} is required")
            return raw[key]

        sched_raw = raw.get("schedule", {})
        opt_raw = raw.get("optimizer", {})
        for key, value in (("schedule", sched_raw), ("optimizer", opt_raw)):
            if not isinstance(value, dict):
                raise ConfigurationError(
                    f"config field {key!r} must be a JSON object")
        try:
            schedule = ScheduleConfig(**sched_raw)
        except TypeError as exc:
            raise ConfigurationError(f"config field 'schedule': {exc}") from exc
        try:
            optimizer = OptimConfig(**opt_raw)
        except TypeError as exc:
            raise ConfigurationError(f"config field 'optimizer': {exc}") from exc
        schedule.validate()
        optimizer.validate()
        model = raw.get("energy_model", "analytical")
        if model not in ("analytical", "pim", "both", "none"):
            raise ConfigurationError(
                f"config field 'energy_model': unknown model {model!r}")
        # environment variables may override output paths only
        out = os.environ.get("ADQ_OUTPUT_DIR") or need("output_dir")
        cfg = cls(
            seed=raw.get("seed", 0),
            output_dir=out,
            arch_spec=need("arch"),
            dataset_spec=need("dataset"),
            schedule=schedule,
            optimizer=optimizer,
            energy_model=model,
            baseline_epoch_total=raw.get("baseline_epoch_total"),
        )
        check_field_types(cfg)
        if cfg.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {cfg.seed!r}")
        arch = cfg.resolve_arch()  # fail fast on bad references
        if schedule.remove_layers:
            arch.drop_layers(schedule.remove_layers)
        _fn, args = cfg._dataset_source()
        if "path" in args and not os.path.isdir(args["path"]):
            raise ConfigurationError(
                f"dataset directory {args['path']!r} not found")
        return cfg

    def resolve_arch(self) -> NetworkArch:
        spec = self.arch_spec
        if isinstance(spec, str):
            if not os.path.exists(spec):
                raise ConfigurationError(f"architecture file {spec!r} not found")
            return NetworkArch.load(spec)
        if not isinstance(spec, dict):
            raise ConfigurationError("config field 'arch': expected path or object")
        kind = spec.get("kind", "inline")
        if kind == "toy_cnn":
            return build_toy_cnn(**_typed_args("arch", spec, build_toy_cnn))
        if kind == "file":
            path = spec.get("path")
            if not path or not os.path.exists(path):
                raise ConfigurationError(f"architecture file {path!r} not found")
            return NetworkArch.load(path)
        if kind == "inline" and "layers" in spec:
            return NetworkArch.from_dict(spec)
        raise ConfigurationError(f"config field 'arch': unknown kind {kind!r}")

    def _dataset_source(self):
        """The function that makes the dataset, and its checked arguments."""
        spec = self.dataset_spec
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigurationError("config field 'dataset': expected object with 'kind'")
        if spec["kind"] == "synthetic":
            fn = synthetic_dataset
        elif spec["kind"] == "directory":
            if "path" not in spec:
                raise ConfigurationError("dataset kind 'directory' needs 'path'")
            fn = load_directory
        else:
            raise ConfigurationError(
                f"config field 'dataset': unknown kind {spec['kind']!r}")
        return fn, {"seed": self.seed, **_typed_args("dataset", spec, fn)}

    def resolve_dataset(self) -> Dataset:
        """The dataset, checked against the architecture: it must have a
        training sample, the architecture's image shape and labels in
        [0, num_classes)."""
        fn, args = self._dataset_source()
        ds = fn(**args)
        if not len(ds.y_train):
            raise ConfigurationError("dataset has no training samples")
        arch = self.resolve_arch()
        labels = np.concatenate([ds.y_train, ds.y_test])
        if ds.image_shape != arch.input_shape:
            raise ConfigurationError(
                f"dataset images have shape {ds.image_shape}, the "
                f"architecture takes {arch.input_shape}")
        if labels.min() < 0 or labels.max() >= arch.num_classes:
            raise ConfigurationError(
                f"dataset labels span [{labels.min()}, {labels.max()}], the "
                f"architecture has {arch.num_classes} classes")
        return ds
