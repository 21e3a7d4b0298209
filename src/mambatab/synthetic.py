"""Synthetic tables with known ground truth, for tests and demos."""

from __future__ import annotations

import csv

import numpy as np

from .tabular import Table


def _bernoulli_logistic(rng, x, weights, scale):
    logits = (x - 0.5) @ weights * scale
    return (rng.random(len(x)) < 1.0 / (1.0 + np.exp(-logits))).astype(np.int64)


def logistic_table(n_rows: int, n_informative: int, n_noise: int, seed: int,
                   scale: float = 14.0) -> Table:
    """Features ~ U(0,1); labels Bernoulli of a logistic in the first block.

    ``scale`` controls signal strength; the default gives a strongly
    learnable problem (ideal-ranking AUROC well above 0.95).
    """
    rng = np.random.default_rng(seed)
    n = n_informative + n_noise
    x = rng.random((n_rows, n))
    w = rng.choice([-1.0, 1.0], size=n_informative)
    labels = _bernoulli_logistic(rng, x[:, :n_informative], w, scale)
    return _to_table(x, labels)


def noise_table(n_rows: int, n_features: int, seed: int) -> Table:
    """Features ~ U(0,1); labels are fair coin flips, independent of features."""
    rng = np.random.default_rng(seed)
    x = rng.random((n_rows, n_features))
    labels = (rng.random(n_rows) < 0.5).astype(np.int64)
    return _to_table(x, labels)


def staged_signal_table(n_rows: int, n_features: int, signal_columns: list[int],
                        seed: int, scale: float = 14.0) -> Table:
    """Labels depend only on the listed columns; everything else is noise."""
    rng = np.random.default_rng(seed)
    x = rng.random((n_rows, n_features))
    w = rng.choice([-1.0, 1.0], size=len(signal_columns))
    labels = _bernoulli_logistic(rng, x[:, signal_columns], w, scale)
    return _to_table(x, labels)


def _to_table(x: np.ndarray, labels: np.ndarray) -> Table:
    names = [f"f{j}" for j in range(x.shape[1])]
    return Table(names, [list(x[:, j]) for j in range(x.shape[1])], labels)


def _cell_text(c):
    return "" if c is None else repr(float(c)) if isinstance(c, float) else c


def write_csv(table: Table, path) -> None:
    """Write a Table to disk in the format `load_csv` reads back, label last.

    Each column is built once, so writing a row view gathers each column once.
    """
    columns = [list(map(_cell_text, col)) for col in table.columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.column_names + ["label"])
        writer.writerows(zip(*columns, table.labels.tolist()))
