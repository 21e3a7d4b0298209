"""Command-line entry point: train, evaluate, and sweep hyperparameters.

    mambatab train --dataset d.csv --schema d.schema --out runs/d
    mambatab eval  --checkpoint runs/d/seed_0/model.ckpt --dataset d.csv --schema d.schema
    mambatab sweep --dataset d.csv --schema d.schema --knob state-size --values 4,8,16 --out runs/sweep

Every artifact under the output directory is a pure function of the
resolved run spec and seed; wall-clock timings and the numpy, BLAS and
OpenBLAS settings they ran under go to a separate timing.json so reports
and checkpoints are byte-reproducible.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import metrics, model as model_mod, tabular, training
from .model import MambaTabModel, ModelConfig
from .tabular import SchemaConfig, SchemaError, Table
from .tensor import InputError, NumericsError
from .training import TRAINING_VECTORS, TrainConfig, child_seed

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
# ``train`` refuses a model whose TRAINING_VECTORS and one scoring chunk's
# workspace would pass this many bytes, about 16.7M parameters without the
# workspace (the default has 13,665).
MAX_TRAINING_BYTES = 1 << 30

REGIMES = ("supervised", "incremental", "ssl")
SWEEP_KNOBS = {
    "block-expansion": "expand",
    "state-size": "state_size",
    "embed-dim": "embed_dim",
    "m-blocks": "n_blocks",
}


class UsageError(InputError):
    pass


def _repeats(values: list) -> list:
    return sorted(v for v, n in Counter(values).items() if n > 1)


@dataclass
class RunSpec:
    dataset: str
    schema: str
    out_dir: str
    regime: str = "supervised"
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    embed_dim: int = ModelConfig.embed_dim
    state_size: int = ModelConfig.state_size
    expand: int = ModelConfig.expand
    d_conv: int = ModelConfig.d_conv
    n_blocks: int = ModelConfig.n_blocks
    use_layer_norm: bool = ModelConfig.use_layer_norm
    max_epochs: int = TrainConfig.max_epochs
    patience: int = TrainConfig.patience
    lr: float = TrainConfig.lr
    batch_size: int = TrainConfig.batch_size

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise UsageError(f"unknown regime '{self.regime}', expected one of {REGIMES}")
        if not self.seeds:
            raise UsageError("need at least one seed")
        if repeated := _repeats(self.seeds):
            raise UsageError(f"seeds repeat {repeated}; each seed needs its own run")
        if negative := sorted(s for s in self.seeds if s < 0):
            raise UsageError(f"seeds must be non-negative, got {negative}")
        try:   # reject bad model and training fields before any output is written
            self.model_config(1)
            self.train_config(0)
        except ValueError as e:
            raise UsageError(str(e)) from None

    def _shared(self, config_cls) -> dict:
        """This spec's values of the fields it shares with ``config_cls``."""
        own = {f.name for f in fields(self)}
        return {f.name: getattr(self, f.name) for f in fields(config_cls) if f.name in own}

    def model_config(self, n_features: int, head: str = "classification") -> ModelConfig:
        return ModelConfig(n_features=n_features, head=head, **self._shared(ModelConfig))

    def train_config(self, seed: int) -> TrainConfig:
        return TrainConfig(seed=seed, **self._shared(TrainConfig))


@dataclass
class SeedOutcome:
    result: metrics.EvalResult
    report_payload: dict
    checkpoint_metadata: dict
    model: MambaTabModel
    wall_time_s: float


def run_one_seed(spec: RunSpec, table: Table, schema: SchemaConfig, seed: int) -> SeedOutcome:
    """Split, preprocess, train under the requested regime, evaluate on test."""
    t0 = time.perf_counter()
    split_seed = child_seed(seed, training.STREAM_SPLIT)
    init_seed = child_seed(seed, training.STREAM_INIT)
    train_seed = child_seed(seed, training.STREAM_TRAIN)
    train_t, val_t, test_t = tabular.split(table, split_seed)
    pre = tabular.fit(train_t, overrides=schema.kinds)
    cfg = spec.train_config(train_seed)
    base_meta = {
        "regime": spec.regime,
        "seed": seed,
        "split_seed": split_seed,
        "preprocessor": asdict(pre),
        "columns": list(table.column_names),
        "schema": {"label_column": schema.label_column,
                   "positive_label": schema.positive_label},
    }

    enc_test = tabular.transform(pre, test_t)
    enc_train = tabular.transform(pre, train_t)
    enc_val = tabular.transform(pre, val_t)
    payload = {"report": None, "stage_reports": None, "pretrain_report": None}

    if spec.regime == "supervised":
        model = MambaTabModel(spec.model_config(table.n_features), rng=init_seed)
        best, main_report = training.train_supervised(model, enc_train, enc_val, cfg)

    elif spec.regime == "ssl":
        recon = MambaTabModel(spec.model_config(table.n_features, head="reconstruction"),
                              rng=init_seed)
        body, pre_report = training.pretrain_ssl(recon, enc_train, enc_val, cfg)
        best, main_report = training.finetune_after_ssl(body, enc_train, enc_val, cfg)
        payload["pretrain_report"] = asdict(pre_report)

    else:  # incremental
        plan_seed = child_seed(seed, training.STREAM_PLAN)
        plan = tabular.make_incremental_plan(table.n_features, plan_seed)
        stages = training.incremental_stages(enc_train, enc_val, plan.cumulative())
        best, stage_reports = training.train_incremental(
            stages, spec.model_config(table.n_features), cfg, init_rng=init_seed)
        payload["stage_reports"] = [asdict(r) for r in stage_reports]
        main_report = stage_reports[-1]
        base_meta["plan"] = {"s1": plan.s1, "s2": plan.s2, "s3": plan.s3}

    result = metrics.evaluate(best.predict_logits(enc_test.values), enc_test.labels, seed=seed)
    main_report.test_auroc = result.auroc
    main_report.test_accuracy = result.accuracy
    payload["report"] = asdict(main_report)
    payload["eval"] = asdict(result)
    return SeedOutcome(
        result=result,
        report_payload=payload,
        checkpoint_metadata=base_meta,
        model=best,
        wall_time_s=time.perf_counter() - t0,
    )


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, rows: list[dict]) -> None:
    """A header of the first row's keys, then one line of values per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(rows[0]))
        writer.writerows(list(row.values()) for row in rows)


def _check_test_classes(table: Table, split_seed: int, whose: str) -> None:
    """Reject a split whose test part lacks a class: its AUROC is undefined."""
    labels = table.labels[tabular.split_rows(table.n_rows, split_seed)[2]]
    n_pos = int(labels.sum())
    if n_pos in (0, len(labels)):
        raise SchemaError(f"{whose} test split holds {n_pos} positive and "
                          f"{len(labels) - n_pos} negative rows; test AUROC needs both")


def _load_checked(specs: list[RunSpec]) -> tuple[SchemaConfig, Table]:
    """Load the CSV that ``specs`` share (a sweep's differ only in sizes and
    output), and check that each can train on it before any output exists."""
    spec = specs[0]
    schema = SchemaConfig.from_file(spec.schema)
    table = tabular.load_csv(spec.dataset, schema)
    # split, ModelConfig and the incremental plan reject these too, but only
    # after output exists, and without naming the file
    min_features = tabular.MIN_INCREMENTAL_FEATURES if spec.regime == "incremental" else 1
    if table.n_rows < tabular.MIN_ROWS or table.n_features < min_features:
        raise SchemaError(f"{spec.dataset}: {table.n_rows} data rows and {table.n_features} "
                          f"feature columns; {spec.regime} training needs at least "
                          f"{tabular.MIN_ROWS} and {min_features}")
    _, val_rows, test_rows = tabular.split_rows(table.n_rows, 0)
    # each incremental stage, one per feature group, validates on its own
    # consecutive share of the table's m // 10 validation rows
    stages = tabular.MIN_INCREMENTAL_FEATURES
    if spec.regime == "incremental" and len(val_rows) < stages:
        raise SchemaError(f"{spec.dataset}: {table.n_rows} data rows give {len(val_rows)} "
                          f"validation rows for {stages} stages; incremental training needs "
                          f"at least {10 * stages} data rows")
    head = "reconstruction" if spec.regime == "ssl" else "classification"
    # validation and scoring forward a chunk at a time, through one workspace;
    # the test split is the largest part they forward
    rows = min(model_mod.CHUNK_ROWS, len(test_rows))
    for sub in specs:
        config = sub.model_config(table.n_features, head)
        n_params = config.param_count
        chunk = 8 * rows * sum(model_mod._workspace_widths(config).values())
        if n_params * 8 * TRAINING_VECTORS + chunk > MAX_TRAINING_BYTES:
            raise UsageError(f"a {head} model of {n_params} parameters on {table.n_features} "
                             f"features needs {TRAINING_VECTORS} float64 vectors of "
                             f"{n_params * 8} bytes and a {rows}-row scoring workspace of "
                             f"{chunk} bytes to train; the cap is {MAX_TRAINING_BYTES} bytes")
    for seed in spec.seeds:
        _check_test_classes(table, child_seed(seed, training.STREAM_SPLIT),
                            f"{spec.dataset}: seed {seed}'s")
    return schema, table


def _environment() -> dict:
    """numpy, its BLAS build and OpenBLAS's settings (None when unset): what
    byte-identity of the artifacts depends on besides the run spec."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy_version": np.__version__, "blas_name": blas["name"],
            "blas_version": blas["version"],
            **{key: os.environ.get(key) for key in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE")}}


def cmd_train(spec: RunSpec, quiet: bool = False, _loaded=None) -> dict:
    """Run every seed, write per-seed artifacts and the aggregate summary.
    ``cmd_sweep`` passes ``_loaded``, its ``_load_checked`` result."""
    schema, table = _loaded or _load_checked([spec])
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "runspec.json", asdict(spec))

    # each seed keeps its per_seed.csv row, result and wall time; its model
    # goes once written, so the next seed trains alone
    rows, results, wall_times = [], [], {}
    for seed in spec.seeds:
        outcome = run_one_seed(spec, table, schema, seed)
        seed_dir = out / f"seed_{seed}"
        seed_dir.mkdir(exist_ok=True)
        _write_json(seed_dir / "report.json", outcome.report_payload)
        model_mod.save(outcome.model, seed_dir / "model.ckpt",
                       metadata=outcome.checkpoint_metadata)
        result, report = outcome.result, outcome.report_payload["report"]
        results.append(result)
        rows.append({"seed": seed, "auroc": result.auroc, "accuracy": result.accuracy,
                     "best_epoch": report["best_epoch"], "epochs_run": report["epochs_run"]})
        wall_times[str(seed)] = outcome.wall_time_s
        if not quiet:
            print(f"seed {seed}: test AUROC {result.auroc:.4f} "
                  f"accuracy {result.accuracy:.4f} ({outcome.wall_time_s:.1f}s)")
        del outcome

    mean, std = metrics.aggregate(results)
    acc_mean = float(np.mean([r.accuracy for r in results]))
    param_count = report["param_count"]
    summary = {
        "regime": spec.regime,
        "n_seeds": len(spec.seeds),
        "auroc_mean": mean,
        "auroc_std": std,
        "accuracy_mean": acc_mean,
        "param_count": param_count,
        "use_layer_norm": spec.use_layer_norm,
    }
    _write_csv(out / "summary.csv", [summary])
    _write_csv(out / "per_seed.csv", rows)
    lines = [
        f"regime:          {spec.regime}",
        f"dataset:         {spec.dataset}",
        f"seeds:           {len(spec.seeds)}",
        f"layer norm:      {'on' if spec.use_layer_norm else 'off'}",
        f"test AUROC:      {mean:.4f} +/- {std:.4f}",
        f"test accuracy:   {acc_mean:.4f}",
        f"parameters:      {param_count}",
    ]
    (out / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_json(out / "timing.json", {"per_seed_s": wall_times, "environment": _environment()})
    if not quiet:
        print("\n".join(lines))
    return summary


def cmd_eval(checkpoint_path: str, dataset: str, schema_path: str,
             quiet: bool = False) -> metrics.EvalResult:
    """Re-derive the checkpoint's own test split and score it. No training."""
    model, meta = model_mod.load_with_metadata(checkpoint_path)
    missing = sorted({"schema", "columns", "split_seed", "preprocessor"} - set(meta))
    if missing:
        raise model_mod.CheckpointError(
            f"{checkpoint_path} has no training metadata: lacks keys {missing}")
    saved = meta["schema"]
    if not (isinstance(saved, dict) and isinstance(saved.get("label_column"), str)
            and isinstance(saved.get("positive_label"), str)
            and saved["positive_label"] not in tabular.MISSING_TOKENS):
        raise model_mod.CheckpointError(f"{checkpoint_path}: metadata 'schema' needs string "
                                        f"'label_column' and 'positive_label', the latter not "
                                        f"a missing-cell token {sorted(tabular.MISSING_TOKENS)}")
    if type(meta["split_seed"]) is not int or meta["split_seed"] < 0:
        raise model_mod.CheckpointError(f"{checkpoint_path}: metadata 'split_seed' must be a "
                                        f"non-negative int, got {meta['split_seed']!r}")
    try:
        pre = tabular.Preprocessor.from_dict(meta["preprocessor"])
    except ValueError as e:
        raise model_mod.CheckpointError(f"{checkpoint_path}: metadata {e}") from None
    # the model, its preprocessor and its column list must agree before any data is read
    config, n_columns = model.config, len(pre.column_names)
    if config.head != "classification":
        raise model_mod.CheckpointError(f"{checkpoint_path}: model has a {config.head} head; "
                                        f"eval needs a classification head")
    if n_columns != config.n_features:
        raise model_mod.CheckpointError(f"{checkpoint_path}: preprocessor has {n_columns} "
                                        f"columns, model config n_features={config.n_features}")
    if pre.column_names != meta["columns"]:
        raise model_mod.CheckpointError(f"{checkpoint_path}: metadata 'columns' {meta['columns']} "
                                        f"differ from the preprocessor's {pre.column_names}")
    schema = SchemaConfig(saved["label_column"], saved["positive_label"])
    if schema_path:
        schema = SchemaConfig.from_file(schema_path)
    table = tabular.load_csv(dataset, schema)
    if table.column_names != meta["columns"]:
        raise SchemaError(
            f"dataset columns {table.column_names} differ from checkpoint's {meta['columns']}")
    whose = f"{dataset} under {checkpoint_path}:"
    if table.n_rows < tabular.MIN_ROWS:
        raise SchemaError(f"{whose} {table.n_rows} data rows; evaluation splits need at "
                          f"least {tabular.MIN_ROWS}")
    _check_test_classes(table, meta["split_seed"], f"{whose} the")
    # eval reads only the test rows, so they become a table of their own: a view
    # would parse each numerical column of the whole table, five times the cells
    test_v = table.select_rows(tabular.split_rows(table.n_rows, meta["split_seed"])[2])
    test_t = Table(table.column_names, list(test_v.columns), test_v.labels, "test")
    enc_test = tabular.transform(pre, test_t)
    result = metrics.evaluate(model.predict_logits(enc_test.values), enc_test.labels,
                              seed=meta.get("seed", 0))
    if not quiet:
        print(f"test AUROC {result.auroc:.4f}")
        print(f"test accuracy {result.accuracy:.4f}")
    return result


def cmd_sweep(spec: RunSpec, knob: str, values: list[int], quiet: bool = False) -> list[dict]:
    """One full seeded run per knob value; emits a machine-readable table."""
    if knob not in SWEEP_KNOBS:
        raise UsageError(f"unknown sweep knob '{knob}', expected one of {sorted(SWEEP_KNOBS)}")
    if not values:
        raise UsageError("sweep needs at least one value")
    if repeated := _repeats(values):
        raise UsageError(f"sweep values repeat {repeated}; each value needs its own run")
    attr = SWEEP_KNOBS[knob]
    out = Path(spec.out_dir)
    # every value's spec is checked before the first run writes anything
    subs = [replace(spec, out_dir=str(out / f"{attr}_{value}"), **{attr: value})
            for value in values]
    loaded = _load_checked(subs)
    rows = []
    for value, sub in zip(values, subs):
        summary = cmd_train(sub, quiet=True, _loaded=loaded)
        row = {"knob": knob, "value": value,
               "auroc_mean": summary["auroc_mean"], "auroc_std": summary["auroc_std"],
               "param_count": summary["param_count"]}
        rows.append(row)
        if not quiet:
            print(f"{knob}={value}: AUROC {row['auroc_mean']:.4f} "
                  f"+/- {row['auroc_std']:.4f}, {row['param_count']} params")
    _write_csv(out / "sweep.csv", rows)
    return rows


# -- argument plumbing --------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise UsageError(message)


# Config-file keys parsed by the type of their default; seeds and
# no_layer_norm have syntax of their own.
_SPEC_FIELDS = {f.name: type(f.default) for f in fields(RunSpec)
                if type(f.default) in (str, int, float)}
_FLAG_WORDS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _parse_ints(text: str, source: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s.strip() != ""]
    except ValueError:
        raise UsageError(f"bad {source} list: {text!r}") from None


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", required=True, help="CSV file with a header row")
    p.add_argument("--schema", required=True, help="key=value schema file")
    p.add_argument("--out", required=True, dest="out_dir", help="output directory")
    p.add_argument("--config", help="key=value run defaults; flags override")
    p.add_argument("--regime", choices=REGIMES)
    p.add_argument("--seeds", help="comma-separated seed list (default 0..9)")
    p.add_argument("--embed-dim", type=int, dest="embed_dim")
    p.add_argument("--state-size", type=int, dest="state_size")
    p.add_argument("--expand", type=int)
    p.add_argument("--d-conv", type=int, dest="d_conv")
    p.add_argument("--m-blocks", type=int, dest="n_blocks")
    p.add_argument("--no-layer-norm", action="store_true")
    p.add_argument("--max-epochs", type=int, dest="max_epochs")
    p.add_argument("--patience", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--quiet", action="store_true")


def _build_spec(args) -> RunSpec:
    file_values: dict[str, str] = {}
    if args.config:
        file_values = tabular.read_kv_file(
            args.config, lambda key: key in _SPEC_FIELDS or key in ("seeds", "no_layer_norm"))
    kwargs = {"dataset": args.dataset, "schema": args.schema, "out_dir": args.out_dir}
    for name, typ in _SPEC_FIELDS.items():
        cli_val = getattr(args, name, None)
        if cli_val is not None:
            kwargs[name] = cli_val
        elif name in file_values:
            try:
                kwargs[name] = typ(file_values[name])
            except ValueError:
                raise UsageError(f"bad value for config key {name}: {file_values[name]!r}") from None
    if args.seeds is not None:
        kwargs["seeds"] = _parse_ints(args.seeds, "--seeds")
    elif "seeds" in file_values:
        kwargs["seeds"] = _parse_ints(file_values["seeds"], "config key seeds")
    if args.no_layer_norm:
        kwargs["use_layer_norm"] = False
    elif "no_layer_norm" in file_values:
        word = file_values["no_layer_norm"]
        if word.lower() not in _FLAG_WORDS:
            raise UsageError(f"bad value for config key no_layer_norm: {word!r}, "
                             f"expected one of {sorted(_FLAG_WORDS)}")
        kwargs["use_layer_norm"] = not _FLAG_WORDS[word.lower()]
    return RunSpec(**kwargs)


def build_parser() -> _Parser:
    parser = _Parser(prog="mambatab", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train and evaluate over seeds")
    _add_run_options(p_train)

    p_eval = sub.add_parser("eval", help="score a saved checkpoint, no training")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.add_argument("--schema", default="", help="optional schema override")
    p_eval.add_argument("--quiet", action="store_true")

    p_sweep = sub.add_parser("sweep", help="repeat training across one knob")
    _add_run_options(p_sweep)
    p_sweep.add_argument("--knob", required=True, choices=sorted(SWEEP_KNOBS))
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values, e.g. 4,8,16,32,64,128")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # Every op output is checked, and a failed check exits 2 with one
        # line: numpy's warnings on the same values would only repeat it.
        with np.errstate(all="ignore"):
            if args.command == "train":
                cmd_train(_build_spec(args), quiet=args.quiet)
            elif args.command == "eval":
                cmd_eval(args.checkpoint, args.dataset, args.schema, quiet=args.quiet)
            elif args.command == "sweep":
                values = _parse_ints(args.values, "--values")
                cmd_sweep(_build_spec(args), args.knob, values, quiet=args.quiet)
        return EXIT_OK
    except (InputError, OSError) as e:   # UsageError, SchemaError, CheckpointError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NumericsError as e:   # any other exception is a bug: let it trace back
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
