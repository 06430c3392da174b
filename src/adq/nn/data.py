"""Bundled synthetic dataset and a loader for directories of raw-float images.

The synthetic generator draws one Gaussian prototype image per class and adds
i.i.d. noise per sample, so the task difficulty is controlled by the noise
scale. Everything is seeded and reproducible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from adq.errors import InputError


@dataclass
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    @property
    def image_shape(self):
        return tuple(self.x_train.shape[1:])


def synthetic_dataset(num_classes: int = 10,
                      image_shape: tuple[int, ...] = (1, 8, 8),
                      train_per_class: int = 60, test_per_class: int = 20,
                      noise: float = 0.5, seed: int = 0) -> Dataset:
    rng = np.random.Generator(np.random.PCG64(seed))
    protos = rng.normal(0.0, 1.0, (num_classes,) + tuple(image_shape))

    def draw(per_class):
        xs, ys = [], []
        for c in range(num_classes):
            xs.append(protos[c] + noise * rng.normal(
                0.0, 1.0, (per_class,) + tuple(image_shape)))
            ys.append(np.full(per_class, c, dtype=np.int64))
        x = np.concatenate(xs).astype(np.float64)
        y = np.concatenate(ys)
        order = rng.permutation(len(y))
        return x[order], y[order]

    x_train, y_train = draw(train_per_class)
    x_test, y_test = draw(test_per_class)
    return Dataset(x_train, y_train, x_test, y_test)


def load_directory(path: str, test_fraction: float = 0.2,
                   seed: int = 0) -> Dataset:
    """Load a dataset from ``path/<label>/*.npy`` (one array per image).

    Labels are the integer subdirectory names; arrays must share one shape.
    """
    if not os.path.isdir(path):
        raise InputError(f"dataset directory {path!r} does not exist")
    xs, ys = [], []
    labels = sorted(d for d in os.listdir(path)
                    if os.path.isdir(os.path.join(path, d)))
    if not labels:
        raise InputError(f"no class subdirectories under {path!r}")
    for name in labels:
        try:
            label = int(name)
        except ValueError as exc:
            raise InputError(
                f"class directory {name!r} is not an integer label") from exc
        for fn in sorted(os.listdir(os.path.join(path, name))):
            if not fn.endswith(".npy"):
                continue
            image = os.path.join(path, name, fn)
            try:
                xs.append(np.load(image).astype(np.float64))
            except (OSError, ValueError) as exc:
                raise InputError(f"cannot read image {image!r}: {exc}") from exc
            ys.append(label)
    if not xs:
        raise InputError(f"no .npy images found under {path!r}")
    shapes = {a.shape for a in xs}
    if len(shapes) != 1:
        raise InputError(f"images have inconsistent shapes: {sorted(shapes)}")
    x = np.stack(xs)
    y = np.asarray(ys, dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(seed))
    order = rng.permutation(len(y))
    x, y = x[order], y[order]
    n_test = max(1, int(round(test_fraction * len(y))))
    return Dataset(x[n_test:], y[n_test:], x[:n_test], y[:n_test])


def iter_batches(x, y, batch_size, rng=None):
    """Yield (batch_x, batch_y); shuffled when an rng is given."""
    idx = np.arange(len(y))
    if rng is not None:
        rng.shuffle(idx)
    for i in range(0, len(y), batch_size):
        sel = idx[i:i + batch_size]
        yield x[sel], y[sel]
