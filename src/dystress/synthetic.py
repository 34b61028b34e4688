"""Labeled synthetic datasets on the unit sphere with two-view augmentation.

Class centers are normalized Gaussians; samples are normalize(center +
sigma_c * g). Augmentation is additive Gaussian noise plus renormalization,
which preserves the two-views-of-one-sample positive contract and makes the
true-positive similarity distribution directly controllable via sigma_a.
Centers are not forced apart: with ambient dimension >= 8 they land nearly
orthogonal on their own, so experiments should pick D_in accordingly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import ValidationError, check_float, check_int
from .geometry import check_label, l2_normalize, read_vector_records, unit_rows
from .numeric import Rng

HOLDOUT_STRIDE = 5  # the test splits hold about a fifth of each class


@dataclass(frozen=True)
class SyntheticSpec:
    num_classes: int = 10
    samples_per_class: int = 100
    ambient_dim: int = 32
    intra_class_sigma: float = 0.2
    augment_sigma: float = 0.15
    long_tail_rho: float = 1.0

    def __post_init__(self):
        check_int("num_classes", self.num_classes, 2)
        check_int("samples_per_class", self.samples_per_class, 1)
        check_int("ambient_dim", self.ambient_dim, 2)
        check_float("intra_class_sigma", self.intra_class_sigma, 0.0, open_low=True)
        check_float("augment_sigma", self.augment_sigma, 0.0)
        check_float("long_tail_rho", self.long_tail_rho, 0.0, 1.0, open_low=True)

    def class_sizes(self) -> list[int]:
        """M_c = max(1, round(M * rho^c)); rho = 1 gives balanced classes."""
        return [
            max(1, int(round(self.samples_per_class * self.long_tail_rho**c)))
            for c in range(self.num_classes)
        ]


@dataclass
class Dataset:
    inputs: np.ndarray  # N x D raw (unit-norm) vectors
    labels: np.ndarray  # N class ids
    class_centers: Optional[np.ndarray]  # C x D unit vectors; None when loaded
    sample_ids: list[str]

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


def sample_class_points(
    centers: np.ndarray, sizes: list[int], sigma: float, rng: Rng, id_prefix: str = "s"
) -> Dataset:
    """Draw normalize(center + sigma * g) points, `sizes[c]` per class."""
    rows, labels, ids = [], [], []
    counter = 0
    for c, size in enumerate(sizes):
        noise = sigma * rng.normal((size, centers.shape[1]))
        rows.append(l2_normalize(centers[c][None, :] + noise))
        labels.extend([c] * size)
        ids.extend(f"{id_prefix}{counter + i:05d}" for i in range(size))
        counter += size
    return Dataset(
        inputs=np.vstack(rows),
        labels=np.array(labels, dtype=np.int64),
        class_centers=centers,
        sample_ids=ids,
    )


def generate(spec: SyntheticSpec, seed: int) -> Dataset:
    """Deterministic dataset for a spec: centers and samples from the seed."""
    rng = Rng(seed).substream("data")
    centers = l2_normalize(rng.normal((spec.num_classes, spec.ambient_dim)))
    return sample_class_points(centers, spec.class_sizes(), spec.intra_class_sigma, rng)


def generate_eval_split(spec: SyntheticSpec, centers: np.ndarray, rng: Rng) -> Dataset:
    """Fresh draws around the same centers for probing; ~M/HOLDOUT_STRIDE per class."""
    sizes = [max(1, m // HOLDOUT_STRIDE) for m in spec.class_sizes()]
    return sample_class_points(centers, sizes, spec.intra_class_sigma, rng, id_prefix="t")


def holdout_split(dataset: Dataset) -> tuple[Dataset, Dataset]:
    """Per-class holdout for datasets without known centers: every HOLDOUT_STRIDE-th sample, from the first."""
    test_mask = np.zeros(dataset.size, dtype=bool)
    for c in np.unique(dataset.labels):
        idx = np.flatnonzero(dataset.labels == c)
        test_mask[idx[::HOLDOUT_STRIDE]] = True
    if test_mask.all():
        raise ValidationError("holdout would consume the whole dataset")

    def subset(mask: np.ndarray) -> Dataset:
        return Dataset(
            inputs=dataset.inputs[mask],
            labels=dataset.labels[mask],
            class_centers=dataset.class_centers,
            sample_ids=[dataset.sample_ids[i] for i in np.flatnonzero(mask)],
        )

    return subset(~test_mask), subset(test_mask)


def augment_views(inputs: np.ndarray, sigma_a: float, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """Two independent noisy views of each input row, renormalized to the sphere.

    Draws per-view noise blocks in a fixed order so the stream is stable:
    view 1's noise, view 2's, then the rows of view 1 and of view 2 whose
    noisy norm fell to 1e-12 or below are drawn again.
    """
    if sigma_a == 0.0:
        base = l2_normalize(inputs)
        return base, base.copy()
    v1 = inputs + sigma_a * rng.normal(inputs.shape)
    v2 = inputs + sigma_a * rng.normal(inputs.shape)
    views = []
    for v in (v1, v2):
        norms = np.linalg.norm(v, axis=1)
        redrawn = np.flatnonzero(norms <= 1e-12)
        for bad in redrawn:
            v[bad] = inputs[bad] + sigma_a * rng.normal(inputs.shape[1])
        if redrawn.size:  # rare: all norms again, as `l2_normalize` takes them
            norms = np.linalg.norm(v, axis=1)
        views.append(unit_rows(v, norms))
    return tuple(views)


def make_batches(dataset: Dataset, batch_size: int, rng: Rng) -> list[np.ndarray]:
    """Shuffled index batches for one epoch; a final batch of size < 2 is dropped."""
    check_int("batch size", batch_size, 2)
    perm = rng.permutation(dataset.size)
    batches = [perm[i : i + batch_size] for i in range(0, dataset.size, batch_size)]
    if batches and len(batches[-1]) < 2:
        batches.pop()
    return batches


def write_dataset(path: str | Path, dataset: Dataset) -> None:
    """JSON-lines dump: {"id", "label", "x"} per sample (centers not stored)."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for i in range(dataset.size):
            record = {
                "id": dataset.sample_ids[i],
                "label": int(dataset.labels[i]),
                "x": [float(v) for v in dataset.inputs[i]],
            }
            fh.write(json.dumps(record) + "\n")


def read_dataset(path: str | Path) -> Dataset:
    records = list(read_vector_records(
        path, "dataset", "x", lambda record: (check_label(record["label"]), str(record["id"]))
    ))
    if not records:
        raise ValidationError(f"dataset file {path} is empty")
    inputs, labels, ids = zip(*records)
    return Dataset(
        inputs=np.array(inputs, dtype=np.float64),
        labels=np.array(labels, dtype=np.int64),
        class_centers=None,
        sample_ids=list(ids),
    )
