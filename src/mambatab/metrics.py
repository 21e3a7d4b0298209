"""Evaluation metrics: ranking AUROC, thresholded accuracy, seed aggregation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import _sigmoid


class UndefinedMetricError(ValueError):
    """AUROC needs at least one positive and one negative label."""


@dataclass
class EvalResult:
    auroc: float
    accuracy: float
    n_pos: int
    n_neg: int
    seed: int


def _positives(labels) -> np.ndarray:
    """The flattened 0/1 ``labels`` as a mask of the 1s; any other value raises."""
    labels = np.asarray(labels).reshape(-1)
    pos = labels == 1
    binary = (labels == 0) | pos
    if not binary.all():
        raise ValueError(f"labels must be 0 or 1, got {np.unique(labels[~binary]).tolist()}")
    return pos


def auroc(scores, labels) -> float:
    """Probability a random positive outscores a random negative, ties counting half.

    The Mann-Whitney pair count U / (n_pos * n_neg), in O(m log m): per
    positive, two binary searches over the sorted negatives count those
    below it and those at or below it, and over all positives these sum
    to 2U. 2U is an integer below 2**53, so exact in float64, and the one
    correctly rounded division equals pairwise counting to the last bit.
    """
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    pos = _positives(labels)
    if scores.shape != pos.shape:
        raise ValueError("scores and labels must have equal length")
    n_pos = int(pos.sum())
    n_neg = int(pos.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUROC undefined with {n_pos} positives and {n_neg} negatives")
    # sorting the positives too keeps the searches cache-friendly
    neg_sorted, pos_sorted = np.sort(scores[~pos]), np.sort(scores[pos])
    twice_u = (np.searchsorted(neg_sorted, pos_sorted, "left").sum()
               + np.searchsorted(neg_sorted, pos_sorted, "right").sum())
    return float(twice_u / (2.0 * n_pos * n_neg))


def accuracy(scores, labels) -> float:
    scores = np.asarray(scores, dtype=np.float64).reshape(-1)
    return float(np.mean((scores >= 0.5) == _positives(labels)))


def evaluate(logits, labels, seed: int = 0) -> EvalResult:
    """AUROC of the logits themselves, accuracy of their probabilities.

    Ranking the logits keeps the order that float64 probabilities lose
    above a logit of about 36.7, where the sigmoid rounds to 1.0. The 0.5
    threshold stays on the probabilities, because the rounded sigmoid of a
    logit just below 0 can be exactly 0.5.
    """
    labels = np.asarray(labels).reshape(-1)
    return EvalResult(
        auroc=auroc(logits, labels),
        accuracy=accuracy(_sigmoid(np.asarray(logits, dtype=np.float64)), labels),
        n_pos=int((labels == 1).sum()),
        n_neg=int((labels == 0).sum()),
        seed=seed,
    )


def aggregate(results: list[EvalResult]) -> tuple[float, float]:
    """Mean and sample standard deviation of AUROC over seeded runs."""
    if not results:
        raise ValueError("cannot aggregate zero results")
    vals = np.array([r.auroc for r in results], dtype=np.float64)
    mean = float(vals.mean())
    if vals.size == 1 or np.all(vals == vals[0]):
        return mean, 0.0
    return mean, float(vals.std(ddof=1))
