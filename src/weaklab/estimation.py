"""Transition-matrix estimation from a clean-trained baseline classifier.

The pipeline: train a baseline on the small clean source, let its
predictions stand in for the unknown true labels, count the per-source
confusion between predictions and the source's labels, and row-normalise
the counts into estimated transition matrices. The estimates only need to
capture the relationships between classes, not be exact.
"""

from __future__ import annotations

import numpy as np

from .datagen import MultisourceDataset, SourceBlock
from .labelspace import TransitionMatrix, check_labels
from .model import ModelParameters, TrainConfig, predict_batch, train

DEFAULT_SMOOTHING = 0.5


def train_baseline(clean: SourceBlock, c: int, config: TrainConfig,
                   epoch_callback=None) -> ModelParameters:
    """Train the baseline classifier of c classes on clean-source data (vanilla
    only: given no transition matrices, train rejects any other strategy)."""
    source_ids = np.zeros(len(clean), dtype=np.int64)
    return train(clean.features, clean.labels, source_ids, c, config,
                 epoch_callback=epoch_callback)


def confusion_counts(baseline: ModelParameters, blocks: list, c: int) -> np.ndarray:
    """Counts[j, k] = instances of the source blocks that the baseline
    assigns to class j and whose source label is k; the baseline prediction
    plays the role of the true label. Counted block by block, so the rows
    are never joined into one copy.

    Raises ValueError when the baseline predicts other than c classes, when
    no block has rows, when a block's feature width is not the baseline's,
    and on a label outside [0, c) or not whole, naming the source and the
    row within its block (each block checked its row count when built).
    """
    if baseline.c != c:
        raise ValueError(f"baseline predicts {baseline.c} classes, expected c = {c}")
    if not any(len(blk) for blk in blocks):
        raise ValueError("source data is empty")
    counts = np.zeros(c * c, dtype=np.int64)
    for blk in blocks:
        where = f"source {blk.source_id}"
        if blk.features.shape[1] != baseline.d:
            raise ValueError(f"{where}: {blk.features.shape[1]} features per row, but the "
                             f"baseline takes {baseline.d}")
        labels = check_labels(blk.labels, c, where)
        counts += np.bincount(predict_batch(baseline, blk.features) * c + labels,
                              minlength=c * c)
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
                confusion_counts(baseline, [blk], ms.c), smoothing)
            for blk in ms.sources if blk.source_id != 0}


def estimate_single(baseline: ModelParameters, ms: MultisourceDataset,
                    smoothing: float = DEFAULT_SMOOTHING) -> TransitionMatrix:
    """One matrix estimated on the entire training set, ignoring sources."""
    return estimate_transition(confusion_counts(baseline, ms.sources, ms.c), smoothing)
