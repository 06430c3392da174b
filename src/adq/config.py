"""Experiment configuration: one JSON file fully determines a run."""

from __future__ import annotations

import inspect
import json
import os
from dataclasses import dataclass

from adq.errors import ConfigurationError, check_field_types, check_type
from adq.nn.arch import NetworkArch
from adq.nn.data import Dataset, load_directory, synthetic_dataset
from adq.nn.engine import OptimConfig
from adq.presets import build_toy_cnn
from adq.scheduler import ScheduleConfig

# the keys of a config file's top-level object
_TOP_LEVEL_KEYS = ("seed", "output_dir", "arch", "dataset", "schedule",
                   "optimizer", "energy_model", "baseline_epoch_total")


def _typed_args(name, spec, fn):
    """The object spec of config field `name` without its "kind", checked
    as arguments of fn: each key must name a parameter of fn and hold the
    type of its annotation (see check_type)."""
    params = inspect.signature(fn).parameters
    args = {k: v for k, v in spec.items() if k != "kind"}
    for key, value in args.items():
        if key not in params:
            raise ConfigurationError(f"unknown config field '{name}.{key}'")
        check_type(f"{name}.{key}", value, params[key].annotation)
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
    source_path: str | None = None

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
        return cls.from_dict(raw, source_path=str(path))

    @classmethod
    def from_dict(cls, raw: dict, source_path=None) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigurationError("config must be a JSON object")
        unknown = [key for key in raw if key not in _TOP_LEVEL_KEYS]
        if unknown:
            raise ConfigurationError(f"unknown config field {unknown[0]!r}")

        def need(key):
            if key not in raw:
                raise ConfigurationError(f"config field {key!r} is required")
            return raw[key]

        sched_raw = dict(raw.get("schedule", {}))
        opt_raw = dict(raw.get("optimizer", {}))
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
            source_path=source_path,
        )
        check_field_types(cfg)
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
        fn, args = self._dataset_source()
        return fn(**args)
