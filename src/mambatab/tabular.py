"""CSV ingestion, encoding, scaling, splits, and feature-subset plans.

Columns are typed automatically: anything that parses entirely as
numbers is numerical, everything else (including binary yes/no style
columns) is categorical and gets an ordinal code. Missing cells are
imputed with the column mode, then every column is min-max scaled to
[0, 1] using statistics fitted on the training split only. A numerical
column with an ``inf`` or ``nan`` cell is a schema error; a categorical
column keeps such text as an ordinary category.

A loaded table reads each column once, and every split of every seed
shares that read: ``split`` returns row views (the cells plus an index
array), ``fit`` counts a categorical column's codes with ``np.bincount``
and takes a numerical column's statistics with ``np.unique``, and
``transform`` encodes a categorical column through one lookup table
indexed by its codes. ``load_csv`` moves rows into columns a block at a
time, and equal texts of a column in one block share one ``str`` object.
"""

from __future__ import annotations

import copy
import csv
import io
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from itertools import compress, repeat
from operator import index as int_index, is_not

import numpy as np

from .tensor import InputError

MISSING_TOKENS = {"", "?"}
KINDS = ("categorical", "numerical")
MIN_ROWS = 10   # the fewest rows ``split`` accepts
MIN_INCREMENTAL_FEATURES = 3   # one per group of ``make_incremental_plan``
# Rows ``load_csv`` holds before moving them into columns. A block of 256
# row lists and its temporaries stays under CPython's gen-0 collection
# threshold (700 container allocations), so filling one triggers no cyclic
# GC. Blocks of 1,024 rows made the GC walk the live rows about 90 times per
# 50k-row file, about 80 ms on a 2-core x86-64 host under Python 3.11. The
# block also bounds the memo that makes a column's equal texts share one str.
LOAD_BLOCK_ROWS = 256


class SchemaError(InputError):
    """Dataset shape or schema does not match what was fitted or declared."""


@dataclass
class SchemaConfig:
    """Declares the label column and, optionally, forced column kinds.

    An empty ``label_column`` means the last CSV column is the label.
    """

    label_column: str
    positive_label: str
    kinds: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_file(cls, path) -> "SchemaConfig":
        values = read_kv_file(path, lambda key: key in ("label_column", "positive_label")
                              or key.startswith("kind."))
        if "positive_label" not in values:
            raise SchemaError(f"schema file {path} missing 'positive_label'")
        if values["positive_label"] in MISSING_TOKENS:
            raise SchemaError(f"schema file {path}: 'positive_label' is "
                              f"{values['positive_label']!r}, which marks a missing cell")
        kinds = {}
        for key, val in values.items():
            if key.startswith("kind."):
                if val not in KINDS:
                    raise SchemaError(f"unknown column kind '{val}' for {key}")
                kinds[key[len("kind."):]] = val
        return cls(values.get("label_column", ""), values["positive_label"], kinds)


def read_kv_file(path, known) -> dict[str, str]:
    """Parse a plain ``key = value`` text file; '#' starts a comment line.

    A key that ``known(key)`` rejects, or a key given twice, is a
    SchemaError naming the key and its line.
    """
    values: dict[str, str] = {}
    for lineno, raw in enumerate(io.StringIO(_read_text(path), newline=None), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SchemaError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, val = (part.strip() for part in line.partition("="))
        if not known(key):
            raise SchemaError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise SchemaError(f"{path}:{lineno}: key {key!r} is given a second time")
        values[key] = val
    return values


def _read_text(path) -> str:
    """A UTF-8 file's text without a BOM; other bytes are a SchemaError naming the line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise SchemaError(f"{path}:{line}: byte {e.start} is not UTF-8 ({e.reason})") from None


class Table:
    """Raw tabular data: per-column cells plus binary labels, or a row view of them.

    A table from ``load_csv`` or the constructor owns its cells. ``split``
    and ``select_rows`` return row views: the owner's cells and reads plus
    an index array, so no cell is copied. The owner reads each column at
    most once, when first asked, and every view and every seed's split
    shares the read: the observed-cell mask, and the float64 values (one
    ``float()`` per observed cell, stopping at the first cell that is not
    a number) or the codes into the column's distinct cell texts in
    first-seen order, whichever its kind needs. A view of a column whose
    whole-table parse failed parses its own rows each time it is asked,
    so its kind and its errors depend on its rows alone. Cells must not
    change after a first read.
    """

    def __init__(self, column_names: list[str], columns: list[list], labels: np.ndarray,
                 split: str = ""):
        self.column_names, self.labels, self.split = column_names, labels, split
        self._cells = columns   # the owner's cells: str | float | None
        self._rows = None       # this table's rows of _cells, or None for all in order
        self._reads: dict = {}  # (what, j) -> the owner's read of column j
        if len(column_names) != len(columns):
            raise SchemaError(f"{len(column_names)} column names for {len(columns)} columns")
        m = len(labels)
        for name, col in zip(column_names, columns):
            if len(col) != m:
                raise SchemaError(f"column '{name}' has {len(col)} rows, labels have {m}")
        if m and not np.isin(labels, (0, 1)).all():
            raise SchemaError("labels must contain only 0 and 1")

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return len(self._cells)

    @property
    def columns(self) -> Sequence[list]:
        """Each column's cells in this table's row order.

        A view's columns build column j when it is read: they take an int
        index only (a slice is a TypeError) and compare by identity.
        """
        return self._cells if self._rows is None else _RowColumns(self._cells, self._rows)

    def select_rows(self, indices, split: str = "") -> "Table":
        """A row view of ``indices``, in that order, sharing this table's cells and reads."""
        view, rows = copy.copy(self), np.asarray(indices, dtype=np.intp)
        view._rows = rows if self._rows is None else self._rows[rows]
        view.labels, view.split = self.labels[rows], split or self.split
        return view

    def _read(self, what: str, j: int, read):
        """``read(cells)`` of the owner's column j, made on first use."""
        if (what, j) not in self._reads:
            self._reads[what, j] = read(self._cells[j])
        return self._reads[what, j]

    def _mine(self, whole: np.ndarray) -> np.ndarray:
        return whole if self._rows is None else whole[self._rows]

    def _observed(self, j: int) -> np.ndarray:
        return self._mine(self._read("observed", j, _observed_mask))

    def _numbers(self, j: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Column j's observed mask and float64 cells (0.0 where missing); None if not all numbers."""
        observed = self._read("observed", j, _observed_mask)
        values = self._read("values", j, lambda col: _parse(col, observed))
        if values is None and self._rows is not None:   # the failing cell may be another view's
            observed = observed[self._rows]
            values = _parse(map(self._cells[j].__getitem__, self._rows.tolist()), observed)
            return None if values is None else (observed, values)
        return None if values is None else (self._mine(observed), self._mine(values))

    def _codes(self, j: int) -> tuple[list[str], np.ndarray]:
        """Column j's distinct cell texts, first seen first, and its codes into them (-1: missing)."""
        texts, codes = self._read("codes", j, _first_seen_codes)
        return texts, self._mine(codes)


class _RowColumns(Sequence):
    """A view's columns: column j is built from the owner's cells when it is read."""

    def __init__(self, cells: list[list], rows: np.ndarray):
        self._cells, self._rows = cells, rows

    def __len__(self) -> int:
        return len(self._cells)

    def __getitem__(self, j: int) -> list:
        return list(map(self._cells[int_index(j)].__getitem__, self._rows.tolist()))


def _observed_mask(col: list) -> np.ndarray:
    return np.fromiter(map(is_not, col, repeat(None)), dtype=bool, count=len(col))


def _parse(cells, observed: np.ndarray) -> np.ndarray | None:
    """float() of each observed cell, 0.0 where missing; None at the first cell that fails."""
    try:
        parsed = np.fromiter(map(float, compress(cells, observed.tolist())), dtype=np.float64,
                             count=int(observed.sum()))
    except ValueError:
        return None
    values = np.zeros(len(observed))
    values[observed] = parsed
    return values


def _first_seen_codes(col: list) -> tuple[list[str], np.ndarray]:
    distinct = dict.fromkeys(col)
    if not all(type(c) is str for c in distinct if c is not None):
        col = [c if c is None else str(c) for c in col]   # in-memory cells: 0.0 and -0.0 differ
        distinct = dict.fromkeys(col)
    texts = [c for c in distinct if c is not None]
    index = {None: -1} | {c: i for i, c in enumerate(texts)}
    return texts, np.fromiter(map(index.__getitem__, col), dtype=np.intp, count=len(col))


def load_csv(path, schema: SchemaConfig) -> Table:
    """Read a comma-separated file with a header row into a Table.

    Cells equal to '' or '?' are missing. Label cells equal to the
    schema's positive value map to 1, everything else to 0. A UTF-8 byte
    order mark is skipped. A repeated header name, a ``kind.*`` key
    naming no feature column, one-class labels and non-UTF-8 bytes are errors.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next((row for row in reader if row), None)   # blank lines are skipped
            if header is None:
                raise SchemaError(f"{path}: empty file")
            header = [h.strip() for h in header]
            repeated = sorted(name for name, n in Counter(header).items() if n > 1)
            if repeated:
                raise SchemaError(f"{path}: header repeats the column names {repeated}")
            if schema.label_column:
                if schema.label_column not in header:
                    raise SchemaError(
                        f"{path}: label column '{schema.label_column}' not in header {header}")
                label_idx = header.index(schema.label_column)
            else:
                label_idx = len(header) - 1
            feature_names = [h for i, h in enumerate(header) if i != label_idx]
            unknown = sorted(set(schema.kinds) - set(feature_names))
            if unknown:
                raise SchemaError(f"{path}: schema keys {['kind.' + k for k in unknown]} "
                                  f"name no feature column of {feature_names}")
            columns: list[list] = [[] for _ in feature_names]
            labels: list[int] = []
            block: list[list[str]] = []
            for row in reader:
                if not row:
                    continue
                if len(row) != len(header):
                    raise SchemaError(f"{path}:{reader.line_num}: row with {len(row)} cells, "
                                      f"expected {len(header)}")
                block.append(row)
                if len(block) == LOAD_BLOCK_ROWS:
                    _move_block(block, label_idx, schema.positive_label, columns, labels)
                    block = []
            _move_block(block, label_idx, schema.positive_label, columns, labels)
    except UnicodeDecodeError:
        _read_text(path)   # raises the SchemaError that names the line
        raise
    except csv.Error as e:   # such as a cell longer than csv.field_size_limit()
        raise SchemaError(f"{path}:{reader.line_num}: {e}") from None
    n_pos = sum(labels)
    if n_pos in (0, len(labels)):
        raise SchemaError(
            f"{path}: label_column '{header[label_idx]}' holds {n_pos} rows equal to "
            f"positive_label '{schema.positive_label}' and {len(labels) - n_pos} other rows; "
            f"both classes are needed")
    return Table(feature_names, columns, np.asarray(labels, dtype=np.int64))


def _move_block(block: list[list[str]], label_idx: int, positive: str,
                columns: list[list], labels: list[int]) -> None:
    """Append a block of parsed rows to the columns and labels, one column at a time.

    Cells are stripped; '' and '?' become None. Every other cell becomes the
    first object of its text in the block's column, through a memo that lives
    for that column of that block only, so equal texts in a block share one ``str``.
    """
    if not block:
        return
    cells = list(zip(*block))
    labels.extend([1 if c.strip() == positive else 0 for c in cells.pop(label_idx)])
    for col, cell_col in zip(columns, cells):
        stripped = list(map(str.strip, cell_col))
        memo = dict.fromkeys(MISSING_TOKENS)   # '' and '?' map to None, other texts to themselves
        col.extend(map(memo.setdefault, stripped, stripped))


def infer_column_kinds(table: Table, overrides: dict[str, str] | None = None) -> list[str]:
    """'numerical' when every observed cell parses as a number, else 'categorical'."""
    overrides = overrides or {}
    kinds = []
    for j, name in enumerate(table.column_names):
        if not table._observed(j).any():
            raise SchemaError(f"column '{name}' has no observed values")
        if name in overrides:
            kinds.append(overrides[name])
        else:
            kinds.append("categorical" if table._numbers(j) is None else "numerical")
    return kinds


def _finite_numbers(table: Table, j: int, stage: str) -> tuple[np.ndarray, np.ndarray]:
    """``table._numbers(j)`` of a numerical column; SchemaError unless all finite."""
    parsed = table._numbers(j)
    name = table.column_names[j]
    if parsed is None:
        raise SchemaError(f"column '{name}' is numerical but has non-numeric cells at {stage} time")
    finite = np.isfinite(parsed[1])   # missing cells hold 0.0
    if not finite.all():
        cell = table.columns[j][np.argmin(finite)]
        raise SchemaError(f"column '{name}' is numerical but has the non-finite cell "
                          f"{cell!r} at {stage} time")
    return parsed


def _first_equal(values: np.ndarray, v) -> float:
    """The first element of ``values`` equal to ``v``, so -0.0 and 0 keep the sign first seen."""
    return values[np.argmax(values == v)].item()


def _is_real(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


@dataclass
class Preprocessor:
    """Fitted per-column encoding state; immutable after fit."""

    column_names: list[str]
    kinds: list[str]
    categories: list[list[str] | None]   # sorted category list per categorical column
    modes: list                           # raw-space mode per column
    mins: list[float]                     # post-encoding minima
    maxs: list[float]

    @classmethod
    def from_dict(cls, d: dict) -> "Preprocessor":
        """Rebuild from ``asdict`` output; ValueError names the first bad key."""
        keys = [f.name for f in fields(cls)]
        if not isinstance(d, dict):
            raise ValueError("preprocessor is not an object")
        wrong = sorted(set(keys) ^ set(d))
        if wrong:
            raise ValueError(f"preprocessor has missing or unknown keys {wrong}")
        n = len(d["column_names"]) if isinstance(d["column_names"], list) else -1
        for key in keys:
            if not isinstance(d[key], list) or len(d[key]) != n:
                raise ValueError(f"preprocessor '{key}' must be a list as long as 'column_names'")
        for j, kind in enumerate(d["kinds"]):
            cats, mode, lo, hi = (d[key][j] for key in ("categories", "modes", "mins", "maxs"))
            ok = {"column_names": isinstance(d["column_names"][j], str), "kinds": kind in KINDS,
                  "mins": _is_real(lo), "maxs": _is_real(hi)}
            if kind == "categorical":
                # sorted and distinct, as ``fit`` writes them: a code is an index in the list
                ok["categories"] = (isinstance(cats, list) and all(isinstance(c, str) for c in cats)
                                    and cats == sorted(set(cats)))
                ok["modes"] = ok["categories"] and mode in cats
                ok["mins"] = ok["mins"] and lo == 0   # the range of codes 0 .. len(cats) - 1
                ok["maxs"] = ok["maxs"] and ok["categories"] and hi == len(cats) - 1
            else:
                ok["categories"] = cats is None
                ok["maxs"] = ok["maxs"] and ok["mins"] and lo <= hi
                ok["modes"] = _is_real(mode) and ok["maxs"] and lo <= mode <= hi
            # a range is named before the mode it leaves out
            bad = [key for key in ("column_names", "kinds", "categories", "mins", "maxs", "modes")
                   if not ok[key]]
            if bad:
                raise ValueError(f"preprocessor '{bad[0]}' has a bad entry {j}")
        return cls(
            column_names=list(d["column_names"]),
            kinds=list(d["kinds"]),
            categories=[list(c) if c is not None else None for c in d["categories"]],
            modes=list(d["modes"]),
            mins=[float(v) for v in d["mins"]],
            maxs=[float(v) for v in d["maxs"]],
        )


@dataclass
class EncodedMatrix:
    """Fully numeric rows scaled into [0, 1], ready for the model."""

    values: np.ndarray           # [m, n] float64
    labels: np.ndarray           # [m] int {0, 1}
    column_names: list[str]
    split: str = ""

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]


def fit(table: Table, overrides: dict[str, str] | None = None) -> Preprocessor:
    """Fit encoding state on the training split only."""
    kinds = infer_column_kinds(table, overrides)
    categories: list = []
    modes: list = []
    mins: list[float] = []
    maxs: list[float] = []
    for j, kind in enumerate(kinds):
        if kind == "categorical":
            texts, codes = table._codes(j)
            counts = np.bincount(codes[codes >= 0], minlength=len(texts))
            cats = sorted(texts[i] for i in np.flatnonzero(counts).tolist())
            categories.append(cats)
            modes.append(min(texts[i] for i in np.flatnonzero(counts == counts.max()).tolist()))
            mins.append(0.0)
            maxs.append(len(cats) - 1.0)
        else:
            # Mode ties go to the smallest value: np.unique sorts, argmax takes the first.
            observed, values = _finite_numbers(table, j, "fit")
            values = values[observed]
            uniq, counts = np.unique(values, return_counts=True)
            categories.append(None)
            modes.append(_first_equal(values, uniq[np.argmax(counts)]))
            mins.append(_first_equal(values, uniq[0]))
            maxs.append(_first_equal(values, uniq[-1]))
    return Preprocessor(list(table.column_names), kinds, categories, modes, mins, maxs)


def transform(pre: Preprocessor, table: Table) -> EncodedMatrix:
    """Encode and scale a table with fitted state, one numpy pass per column.

    The table must hold exactly the fitted columns, in the fitted order.
    Unseen categories map to the training mode's index, out-of-range
    numericals clip to [0, 1], and constant columns scale to 0.
    """
    if table.column_names != pre.column_names:
        raise SchemaError(f"table columns {table.column_names} differ from the fitted "
                          f"columns {pre.column_names}")
    out = np.zeros((table.n_rows, table.n_features), dtype=np.float64)
    for j, (kind, cats, mode, lo, hi) in enumerate(zip(
            pre.kinds, pre.categories, pre.modes, pre.mins, pre.maxs)):
        if kind == "categorical":
            texts, codes = table._codes(j)
            index = {c: i for i, c in enumerate(cats)}
            mode_idx = index[mode]
            # one entry per distinct text, then the missing cells' (code -1)
            lookup = np.array([index.get(c, mode_idx) for c in texts] + [mode_idx],
                              dtype=np.float64)
            codes = lookup[codes]
        else:
            observed, values = _finite_numbers(table, j, "transform")
            codes = np.where(observed, values, mode)
        if hi > lo:   # a constant column keeps its zeros
            with np.errstate(over="ignore"):   # a tiny range overflows to inf, clipped to 1
                out[:, j] = np.clip((codes - lo) / (hi - lo), 0.0, 1.0)
    return EncodedMatrix(out, table.labels.copy(), list(table.column_names), table.split)


def split(table: Table, seed: int) -> tuple[Table, Table, Table]:
    """Seeded shuffle into train 70% / validation 10% / test 20%, as row views."""
    train_idx, val_idx, test_idx = split_rows(table.n_rows, seed)
    return (
        table.select_rows(train_idx, split="train"),
        table.select_rows(val_idx, split="val"),
        table.select_rows(test_idx, split="test"),
    )


def split_rows(m: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row indices of ``split``'s train, validation and test parts.

    Train and validation sizes round down; the test split takes the
    remaining rows.
    """
    if m < MIN_ROWS:
        raise ValueError(f"need at least {MIN_ROWS} rows to split, got {m}")
    perm = np.random.default_rng(seed).permutation(m)
    n_train = m * 7 // 10   # integer arithmetic: int(m * 0.7) misrounds e.g. m=690
    n_val = m // 10
    return perm[:n_train], perm[n_train:n_train + n_val], perm[n_train + n_val:]


@dataclass
class FeatureSubsetPlan:
    """Three disjoint column-index groups and their cumulative unions."""

    s1: list[int]
    s2: list[int]
    s3: list[int]

    def cumulative(self) -> list[list[int]]:
        """The sorted unions s1, s1 + s2 and s1 + s2 + s3: one column set per stage."""
        return [sorted(self.s1), sorted(self.s1 + self.s2), sorted(self.s1 + self.s2 + self.s3)]


def make_incremental_plan(n_features: int, seed: int) -> FeatureSubsetPlan:
    """Seeded partition into three near-equal disjoint groups.

    Remainder columns go to the earliest groups (``np.array_split``), e.g.
    10 -> 4/3/3.
    """
    if n_features < MIN_INCREMENTAL_FEATURES:
        raise ValueError(f"need at least {MIN_INCREMENTAL_FEATURES} features for an "
                         f"incremental plan, got {n_features}")
    perm = np.random.default_rng(seed).permutation(n_features)
    return FeatureSubsetPlan(*(group.tolist() for group in np.array_split(perm, 3)))
