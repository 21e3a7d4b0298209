"""The benchmark's four workloads: input generation, set-up, timed body, checks.

``generate`` runs in the parent and needs only numpy. Everything else runs in
a child process after ``import mambatab``; the mambatab modules are imported
inside methods so that the parent never loads the package.

Each workload's body is one operation: a ``mambatab train`` run through
``cli.main``, one ingest pass, or one scoring pass. ``measure`` turns its
outcome into rows processed, whether the operation failed, and what its
output checks found wrong.
"""

from __future__ import annotations

import csv
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class Measured:
    rows: float                                        # work units this repeat processed
    failed: bool = False                               # the operation itself did not complete
    problems: list[str] = field(default_factory=list)  # failed output checks
    info: dict = field(default_factory=dict)           # values printed beside the metrics


# -- input generation ---------------------------------------------------------

def logistic_rows(n_rows: int, n_informative: int, n_noise: int, seed: int,
                  scale: float = 14.0) -> tuple[np.ndarray, np.ndarray]:
    """Features ~ U(0,1), labels Bernoulli of a logistic in the first block.

    The same draws, in the same order, as ``synthetic.logistic_table``, so
    seed 0 with 1000 rows and 6 + 6 columns is the criterion-7 table.
    """
    rng = np.random.default_rng(seed)
    x = rng.random((n_rows, n_informative + n_noise))
    w = rng.choice([-1.0, 1.0], size=n_informative)
    logits = (x[:, :n_informative] - 0.5) @ w * scale
    labels = (rng.random(n_rows) < 1.0 / (1.0 + np.exp(-logits))).astype(np.int64)
    return x, labels


def cell(value) -> str:
    """CSV text of one cell; floats as plain decimals that parse back exactly."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: list[str], rows) -> None:
    """Write rows of cells already formatted as text."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_schema(path: Path, label_column: str, positive_label: str) -> None:
    path.write_text(f"label_column = {label_column}\npositive_label = {positive_label}\n",
                    encoding="utf-8")


INGEST_ROWS = 50_000
INGEST_NUMERIC = 14
INGEST_CATEGORIES = (2, 3, 4, 7, 12, 26)   # cardinality of each categorical column
INGEST_MISSING = 0.02
INGEST_INTEGER_COLUMNS = range(4, 8)      # written without a decimal point


def ingest_arrays(n_rows: int, seed: int):
    """Generator arrays of the ingest table.

    Returns (num, num_missing, cat, labels): ``num`` [m, 14] float64 with
    ``num_missing`` marking cells written empty or '?'; ``cat`` [m, 6]
    strings, '' where missing; ``labels`` [m] 0/1. Column n0 is never
    missing and its values are distinct, so it identifies a row after the
    split. Numeric columns mix continuous, integer-valued and two-decimal
    values; categories are drawn with skewed frequencies.
    """
    rng = np.random.default_rng(seed)
    m = n_rows
    num = np.empty((m, INGEST_NUMERIC))
    num[:, 0] = rng.random(m)
    num[:, 1:4] = rng.normal(0.0, 1.0, (m, 3)) * np.array([1.0, 10.0, 1000.0])
    num[:, 4:8] = rng.integers(0, [2, 10, 100, 1000], size=(m, 4))
    num[:, 8:11] = np.round(rng.lognormal(3.0, 1.0, (m, 3)), 2)
    num[:, 11:14] = rng.exponential(1.0, (m, 3))
    if len(np.unique(num[:, 0])) != m:
        raise RuntimeError("key column n0 has repeated values; pick another seed")
    cat = np.empty((m, len(INGEST_CATEGORIES)), dtype="<U3")
    for j, k in enumerate(INGEST_CATEGORIES):
        p = 1.0 / np.arange(1, k + 1)
        cat[:, j] = np.array([f"v{i:02d}" for i in range(k)])[rng.choice(k, size=m, p=p / p.sum())]
    logits = 4.0 * (num[:, 0] - 0.5) + 0.8 * num[:, 1] + 1.5 * (cat[:, 0] == "v00") - 0.75
    labels = (rng.random(m) < 1.0 / (1.0 + np.exp(-logits))).astype(np.int64)
    missing = rng.random((m, INGEST_NUMERIC + len(INGEST_CATEGORIES))) < INGEST_MISSING
    missing[:, 0] = False
    num_missing = missing[:, :INGEST_NUMERIC]
    cat[missing[:, INGEST_NUMERIC:]] = ""
    return num, num_missing, cat, labels


def ingest_columns() -> list[str]:
    return [f"n{j}" for j in range(INGEST_NUMERIC)] + [f"c{j}" for j in range(len(INGEST_CATEGORIES))]


def _mode(values: np.ndarray):
    """Most frequent value, the smallest on ties."""
    uniq, counts = np.unique(values, return_counts=True)
    return uniq[np.argmax(counts)]


def expected_encoding(num, num_missing, cat, train_rows, rows) -> np.ndarray:
    """Encoded [rows, 20] matrix recomputed from the generator arrays.

    Fitted on ``train_rows``: numeric columns impute the mode and min-max
    scale; categorical columns impute the mode, code by sorted category and
    scale by the largest code. Values clip to [0, 1].
    """
    out = np.zeros((len(rows), num.shape[1] + cat.shape[1]))
    for j in range(num.shape[1]):
        seen = num[train_rows, j][~num_missing[train_rows, j]]
        lo, hi = seen.min(), seen.max()
        v = np.where(num_missing[rows, j], _mode(seen), num[rows, j])
        if hi > lo:
            out[:, j] = np.clip((v - lo) / (hi - lo), 0.0, 1.0)
    for j in range(cat.shape[1]):
        seen = cat[train_rows, j][cat[train_rows, j] != ""]
        cats = np.unique(seen)
        mode_code = np.searchsorted(cats, _mode(seen))
        v = cat[rows, j]
        code = np.minimum(np.searchsorted(cats, v), len(cats) - 1)
        code = np.where(cats[code] == v, code, mode_code).astype(np.float64)
        hi = float(len(cats) - 1)
        if hi > 0:
            out[:, num.shape[1] + j] = np.clip(code / hi, 0.0, 1.0)
    return out


# -- workloads -----------------------------------------------------------------

class Workload:
    """One named workload. ``work`` is the run's scratch directory."""

    name = ""
    needs_build = False   # whether build() must run once, in its own child, before measuring
    probe_kernel = "tensor"   # child.KERNELS entry that samples machine speed during the body

    def __init__(self, work: Path):
        self.work = work
        self.spec = json.loads((work / "spec.json").read_text(encoding="utf-8"))

    @classmethod
    def generate(cls, seed: int, work: Path) -> None:
        raise NotImplementedError

    def build(self) -> list[str]:
        """Make inputs that need mambatab itself; returns failed checks."""
        return []

    def prepare(self) -> None:
        """Set-up after ``import mambatab``, before the first timed call."""

    def run(self, k: int):
        raise NotImplementedError

    def measure(self, outcome) -> Measured:
        raise NotImplementedError


class TrainC7(Workload):
    """``mambatab train`` on the criterion-7 table, default hyperparameters."""

    name = "train_c7"
    extra_args: list[str] = []

    @classmethod
    def generate(cls, seed: int, work: Path) -> None:
        x, y = logistic_rows(1000, 6, 6, seed)
        header = [f"f{j}" for j in range(x.shape[1])] + ["label"]
        write_csv(work / "table.csv", header,
                  ([cell(v) for v in r] + [str(l)] for r, l in zip(x.tolist(), y.tolist())))
        write_schema(work / "table.schema", "label", "1")
        (work / "spec.json").write_text(json.dumps({"seed": seed, "rows": len(y)}))

    def prepare(self) -> None:
        from mambatab import cli
        self.cli = cli

    def run(self, k: int):
        out = self.work / f"out_{k}"
        code = self.cli.main(["train", "--dataset", str(self.work / "table.csv"),
                              "--schema", str(self.work / "table.schema"), "--out", str(out),
                              "--seeds", "0", "--quiet", *self.extra_args])
        return code, out

    def measure(self, outcome) -> Measured:
        from mambatab import model as model_mod
        code, out = outcome
        try:
            if code != 0:
                return Measured(0.0, failed=True, problems=[f"exit code {code}"])
            payload = json.loads((out / "seed_0" / "report.json").read_text(encoding="utf-8"))
            _, meta = model_mod.load_with_metadata(out / "seed_0" / "model.ckpt")
        finally:
            shutil.rmtree(out, ignore_errors=True)
        kinds = meta["preprocessor"]["kinds"]
        auroc = payload["eval"]["auroc"]
        epochs = [payload["report"]["epochs_run"]]
        if payload.get("pretrain_report"):
            epochs.insert(0, payload["pretrain_report"]["epochs_run"])
        problems = [f"column {n} inferred {k}, generated numerical"
                    for n, k in zip(meta["columns"], kinds) if k != "numerical"]
        problems += self.check_auroc(auroc)
        train_rows = self.spec["rows"] * 7 // 10   # tabular.split's 70% train share
        return Measured(train_rows * sum(epochs), problems=problems,
                        info={"test_auroc": auroc, "epochs": "+".join(map(str, epochs)),
                              "kinds": _kinds_summary(kinds)})

    def check_auroc(self, auroc: float) -> list[str]:
        return [] if auroc >= 0.90 else [f"seed-0 test AUROC {auroc:.4f} < 0.90"]


class SslC7(TrainC7):
    """Criterion-9 SSL run: reconstruction pretraining then fine-tuning, 40-epoch cap."""

    name = "ssl_c7"
    extra_args = ["--regime", "ssl", "--max-epochs", "40"]

    def check_auroc(self, auroc: float) -> list[str]:
        return [] if 0.0 <= auroc <= 1.0 else [f"test AUROC {auroc} outside [0, 1]"]


class Ingest50k(Workload):
    """load_csv, split, fit and transform of all three splits on a 50k-row CSV."""

    name = "ingest_50k"
    probe_kernel = "parse"

    @classmethod
    def generate(cls, seed: int, work: Path) -> None:
        num, num_missing, cat, labels = ingest_arrays(INGEST_ROWS, seed)
        tokens = np.where(np.random.default_rng([seed, 1]).random(
            (len(labels), num.shape[1] + cat.shape[1])) < 0.5, "", "?").tolist()
        columns = [[str(int(v)) for v in num[:, j]] if j in INGEST_INTEGER_COLUMNS
                   else [cell(v) for v in num[:, j].tolist()] for j in range(num.shape[1])]
        columns += [cat[:, j].tolist() for j in range(cat.shape[1])]
        for j, col in enumerate(columns):
            blank = num_missing[:, j] if j < num.shape[1] else cat[:, j - num.shape[1]] == ""
            for i in np.flatnonzero(blank).tolist():
                col[i] = tokens[i][j]
        columns.append(["yes" if v else "no" for v in labels.tolist()])
        write_csv(work / "table.csv", ingest_columns() + ["label"], zip(*columns))
        write_schema(work / "table.schema", "label", "yes")
        np.savez(work / "arrays.npz", num=num, num_missing=num_missing, cat=cat, labels=labels)
        (work / "spec.json").write_text(json.dumps({"seed": seed, "split_seed": seed}))

    def prepare(self) -> None:
        from mambatab import tabular
        self.schema = tabular.SchemaConfig.from_file(self.work / "table.schema")
        with np.load(self.work / "arrays.npz") as z:
            self.num, self.num_missing = z["num"], z["num_missing"]
            self.cat, self.labels = z["cat"], z["labels"]
        self.key_order = np.argsort(self.num[:, 0])
        self.sorted_keys = self.num[self.key_order, 0]

    def run(self, k: int):
        from mambatab import tabular
        table = tabular.load_csv(self.work / "table.csv", self.schema)
        parts = tabular.split(table, self.spec["split_seed"])
        pre = tabular.fit(parts[0])
        return parts, pre, [tabular.transform(pre, p) for p in parts]

    def _rows_of(self, part) -> np.ndarray:
        """Generator row index of each row of a split, found through key column n0."""
        keys = np.array(part.columns[part.column_names.index("n0")], dtype=np.float64)
        pos = np.minimum(np.searchsorted(self.sorted_keys, keys), len(self.sorted_keys) - 1)
        if not np.array_equal(self.sorted_keys[pos], keys):
            raise ValueError("split holds a key that the generator never wrote")
        return self.key_order[pos]

    def measure(self, outcome) -> Measured:
        parts, pre, encoded = outcome
        m = len(self.labels)
        expected_kinds = ["numerical"] * INGEST_NUMERIC + ["categorical"] * len(INGEST_CATEGORIES)
        problems = [f"column {n} inferred {k}, generated {e}"
                    for n, k, e in zip(pre.column_names, pre.kinds, expected_kinds) if k != e]
        if pre.column_names != ingest_columns():
            problems.append(f"columns {pre.column_names} differ from the generated header")
        sizes = [p.n_rows for p in parts]
        if sizes != [m * 7 // 10, m // 10, m - m * 7 // 10 - m // 10]:
            problems.append(f"split sizes {sizes} are not 70/10/20 of {m}")
        rows = [self._rows_of(p) for p in parts]
        if not np.array_equal(np.sort(np.concatenate(rows)), np.arange(m)):
            problems.append("splits do not partition the generated rows")
        if not problems:
            for part_rows, enc in zip(rows, encoded):
                want = expected_encoding(self.num, self.num_missing, self.cat, rows[0], part_rows)
                err = float(np.max(np.abs(enc.values - want)))
                if err > 1e-12:
                    problems.append(f"{enc.split} encoding differs from the recomputation by {err:.3g}")
                if not np.array_equal(enc.labels, self.labels[part_rows]):
                    problems.append(f"{enc.split} labels differ from the generated labels")
        return Measured(float(m), problems=problems, info={"kinds": _kinds_summary(pre.kinds)})


class Score50k(Workload):
    """Load a trained checkpoint, predict_proba over 50k rows, AUROC of the scores."""

    name = "score_50k"
    needs_build = True
    TRAIN_ROWS, VAL_ROWS, SCORE_ROWS = 1600, 400, 50_000

    @classmethod
    def generate(cls, seed: int, work: Path) -> None:
        x, y = logistic_rows(cls.TRAIN_ROWS + cls.VAL_ROWS + cls.SCORE_ROWS, 6, 6, seed)
        np.savez(work / "arrays.npz", x=x, y=y)
        (work / "spec.json").write_text(json.dumps({"seed": seed}))

    def build(self) -> list[str]:
        """Train a fixed 20 epochs, save the checkpoint, check the reload is exact."""
        from mambatab import model as model_mod, training
        from mambatab.model import MambaTabModel, ModelConfig
        from mambatab.tabular import EncodedMatrix
        with np.load(self.work / "arrays.npz") as z:
            x, y = z["x"], z["y"]
        a, b = self.TRAIN_ROWS, self.TRAIN_ROWS + self.VAL_ROWS
        names = [f"f{j}" for j in range(x.shape[1])]
        seed = self.spec["seed"]
        cfg = training.TrainConfig(max_epochs=20, patience=20, lr=1e-3, seed=seed)
        model, _ = training.train_supervised(
            MambaTabModel(ModelConfig(x.shape[1]), rng=seed),
            EncodedMatrix(x[:a], y[:a], names), EncodedMatrix(x[a:b], y[a:b], names), cfg)
        model_mod.save(model, self.work / "model.ckpt")
        reloaded = model_mod.load(self.work / "model.ckpt").state_dict()
        return [f"checkpoint reload changed {name}" for name, arr in model.state_dict().items()
                if not np.array_equal(arr, reloaded[name])]

    def prepare(self) -> None:
        with np.load(self.work / "arrays.npz") as z:
            start = self.TRAIN_ROWS + self.VAL_ROWS
            self.x, self.y = z["x"][start:], z["y"][start:]
        self.checkpoint = self.work / "model.ckpt"

    def run(self, k: int):
        from mambatab import metrics, model as model_mod
        scores = model_mod.load(self.checkpoint).predict_proba(self.x)
        return scores, metrics.auroc(scores, self.y)

    def measure(self, outcome) -> Measured:
        scores, auroc = outcome
        problems = []
        if scores.shape != (len(self.y),):
            problems.append(f"scores shape {scores.shape}, expected ({len(self.y)},)")
        if not np.all(np.isfinite(scores)):
            return Measured(0.0, failed=True, problems=["non-finite probabilities"])
        # Closed interval: float64 expit rounds logits beyond about +-36.7 to
        # exactly 0 or 1, which the info line counts.
        if not (np.all(scores >= 0.0) and np.all(scores <= 1.0)):
            problems.append("probabilities outside [0, 1]")
        if auroc < 0.95:
            problems.append(f"AUROC {auroc:.4f} < 0.95 on the scored rows")
        saturated = int(np.sum((scores == 0.0) | (scores == 1.0)))
        return Measured(float(len(scores)), problems=problems,
                        info={"auroc": auroc, "probabilities at exactly 0 or 1": saturated})


def _kinds_summary(kinds: list[str]) -> str:
    return f"{kinds.count('numerical')} numerical / {kinds.count('categorical')} categorical"


WORKLOADS = {w.name: w for w in (TrainC7, SslC7, Ingest50k, Score50k)}
