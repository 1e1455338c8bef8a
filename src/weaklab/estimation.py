"""Transition-matrix estimation from a clean-trained baseline classifier.

The pipeline: train a baseline on the small clean source, let its
predictions stand in for the unknown true labels, count the per-source
confusion between predictions and the source's labels, and row-normalise
the counts into estimated transition matrices. The estimates only need to
capture the relationships between classes, not be exact.
"""

from __future__ import annotations

import numpy as np

from .datagen import Dataset, MultisourceDataset
from .labelspace import TransitionMatrix, check_labels
from .model import ModelParameters, TrainConfig, predict_batch, train

DEFAULT_SMOOTHING = 0.5


def train_baseline(clean: Dataset, config: TrainConfig, epoch_callback=None) -> ModelParameters:
    """Train the baseline classifier on clean-source data (vanilla only:
    given no transition matrices, train rejects any other strategy)."""
    if len(clean) == 0:
        raise ValueError("clean dataset is empty")
    source_ids = np.zeros(len(clean), dtype=np.int64)
    return train(clean.features, clean.labels, source_ids, clean.c, config,
                 epoch_callback=epoch_callback)


def confusion_counts(baseline: ModelParameters, features: np.ndarray,
                     labels: np.ndarray, c: int) -> np.ndarray:
    """Counts[j, k] = instances the baseline assigns to class j whose source
    label is k; the baseline prediction plays the role of the true label.

    Raises ValueError on empty data, on features and labels of different
    lengths, and on a label outside [0, c), naming the first bad row.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.shape[0] == 0:
        raise ValueError("source data is empty")
    if len(labels) != features.shape[0]:
        raise ValueError(f"row {min(len(labels), features.shape[0])}: {features.shape[0]} "
                         f"feature rows but {len(labels)} labels")
    labels = check_labels(labels, c, "source labels")
    preds = predict_batch(baseline, features)
    counts = np.bincount(preds * c + labels, minlength=c * c)
    return counts.reshape(c, c).astype(np.float64)


def estimate_transition(counts: np.ndarray, smoothing: float = DEFAULT_SMOOTHING) -> TransitionMatrix:
    """Row-normalise a count matrix into a transition-matrix estimate.

    `smoothing` is added to every cell before normalisation so finite
    samples cannot produce hard zeros; a row with no counts at all falls
    back to the identity row (the no-noise assumption).
    """
    counts = np.asarray(counts, dtype=np.float64)
    rows = counts + smoothing
    # empty rows are skipped by the division and keep the identity row
    nonempty = (counts.sum(axis=1) != 0)[:, None]
    out = np.divide(rows, rows.sum(axis=1, keepdims=True), out=np.eye(counts.shape[0]),
                    where=nonempty)
    return TransitionMatrix(out)


def estimate_per_source(baseline: ModelParameters, ms: MultisourceDataset,
                        smoothing: float = DEFAULT_SMOOTHING) -> dict:
    """Estimated transition matrix of every weak source (id >= 1)."""
    return {blk.source_id: estimate_transition(
                confusion_counts(baseline, blk.features, blk.labels, ms.c), smoothing)
            for blk in ms.sources if blk.source_id != 0}


def estimate_single(baseline: ModelParameters, ms: MultisourceDataset,
                    smoothing: float = DEFAULT_SMOOTHING) -> TransitionMatrix:
    """One matrix estimated on the entire training set, ignoring sources."""
    feats, labels, _ = ms.stacked()
    return estimate_transition(confusion_counts(baseline, feats, labels, ms.c), smoothing)
