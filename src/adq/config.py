"""Experiment configuration: one JSON file fully determines a run."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from adq.errors import ConfigurationError, check_field_types
from adq.nn.arch import NetworkArch
from adq.nn.data import Dataset, load_directory, synthetic_dataset
from adq.nn.engine import OptimConfig
from adq.presets import build_toy_cnn
from adq.scheduler import ScheduleConfig


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
        cfg.resolve_arch()  # fail fast on bad references
        ds = cfg.dataset_spec
        if isinstance(ds, dict) and ds.get("kind") == "directory":
            if not os.path.isdir(ds.get("path", "")):
                raise ConfigurationError(
                    f"dataset directory {ds.get('path')!r} not found")
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
            return build_toy_cnn(
                num_classes=spec.get("num_classes", 10),
                image_shape=tuple(spec.get("image_shape", (1, 8, 8))),
                widths=tuple(spec.get("widths", (8, 8, 16, 16))))
        if kind == "file":
            path = spec.get("path")
            if not path or not os.path.exists(path):
                raise ConfigurationError(f"architecture file {path!r} not found")
            return NetworkArch.load(path)
        if kind == "inline" and "layers" in spec:
            return NetworkArch.from_dict(spec)
        raise ConfigurationError(f"config field 'arch': unknown kind {kind!r}")

    def resolve_dataset(self) -> Dataset:
        spec = self.dataset_spec
        if not isinstance(spec, dict) or "kind" not in spec:
            raise ConfigurationError("config field 'dataset': expected object with 'kind'")
        if spec["kind"] == "synthetic":
            return synthetic_dataset(
                num_classes=spec.get("num_classes", 10),
                image_shape=tuple(spec.get("image_shape", (1, 8, 8))),
                train_per_class=spec.get("train_per_class", 60),
                test_per_class=spec.get("test_per_class", 20),
                noise=spec.get("noise", 0.5),
                seed=spec.get("seed", self.seed))
        if spec["kind"] == "directory":
            if "path" not in spec:
                raise ConfigurationError("dataset kind 'directory' needs 'path'")
            return load_directory(spec["path"],
                                  test_fraction=spec.get("test_fraction", 0.2),
                                  seed=spec.get("seed", self.seed))
        raise ConfigurationError(
            f"config field 'dataset': unknown kind {spec['kind']!r}")
