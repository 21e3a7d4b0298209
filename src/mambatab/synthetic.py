"""Synthetic tables with known ground truth, for tests and demos."""

from __future__ import annotations

import csv

import numpy as np

from .tabular import Table


def logistic_table(n_rows: int, n_informative: int, n_noise: int, seed: int,
                   scale: float = 14.0) -> Table:
    """Features ~ U(0,1); labels Bernoulli of a logistic in the first block.

    ``scale`` controls signal strength; the default gives a strongly
    learnable problem (ideal-ranking AUROC well above 0.95).
    """
    return staged_signal_table(n_rows, n_informative + n_noise, list(range(n_informative)),
                               seed, scale)


def noise_table(n_rows: int, n_features: int, seed: int) -> Table:
    """Features ~ U(0,1); labels are fair coin flips, independent of features."""
    return staged_signal_table(n_rows, n_features, [], seed)


def staged_signal_table(n_rows: int, n_features: int, signal_columns: list[int],
                        seed: int, scale: float = 14.0) -> Table:
    """Labels depend only on the listed columns; everything else is noise."""
    rng = np.random.default_rng(seed)
    x = rng.random((n_rows, n_features))
    w = rng.choice([-1.0, 1.0], size=len(signal_columns))
    logits = (x[:, signal_columns] - 0.5) @ w * scale
    labels = (rng.random(n_rows) < 1.0 / (1.0 + np.exp(-logits))).astype(np.int64)
    return Table([f"f{j}" for j in range(n_features)],
                 [list(x[:, j]) for j in range(n_features)], labels)


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
