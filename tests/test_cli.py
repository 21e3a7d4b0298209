import contextlib
import csv
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mambatab import cli, metrics, model as model_mod, synthetic, tabular, tensor as T, training
from mambatab.cli import EXIT_OK, EXIT_USAGE, RunSpec, cmd_eval, cmd_sweep, cmd_train, main
from mambatab.tabular import SchemaConfig


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    table = synthetic.logistic_table(300, 4, 2, seed=0)
    csv_path = root / "toy.csv"
    synthetic.write_csv(table, csv_path)
    schema_path = root / "toy.schema"
    schema_path.write_text("label_column = label\npositive_label = 1\n")
    return str(csv_path), str(schema_path)


@pytest.fixture(scope="module")
def trained_ckpt(dataset, tmp_path_factory):
    """A checkpoint with full training metadata, written by ``mambatab train``."""
    out = tmp_path_factory.mktemp("trained")
    cmd_train(quick_spec(dataset, out, seeds=[0], max_epochs=1), quiet=True)
    return out / "seed_0" / "model.ckpt"


def read_header(path) -> dict:
    raw = path.read_bytes()
    return json.loads(raw[16:16 + struct.unpack("<Q", raw[8:16])[0]])


def rewrite_header(src, dst, header: dict, length: int | None = None) -> None:
    """Copy checkpoint ``src`` to ``dst`` with ``header`` in place of its own."""
    raw = src.read_bytes()
    header_bytes = json.dumps(header).encode()
    old_len = struct.unpack("<Q", raw[8:16])[0]
    dst.write_bytes(raw[:8] + struct.pack("<Q", len(header_bytes) if length is None else length)
                    + header_bytes + raw[16 + old_len:])


def split_row_ids(n_rows: int, seed: int) -> list[list[int]]:
    """The row numbers in each of ``tabular.split``'s train, validation and test parts."""
    table = tabular.Table(["row"], [list(range(n_rows))], np.zeros(n_rows, dtype=np.int64))
    return [part.columns[0] for part in tabular.split(table, seed)]


def quick_spec(dataset, out_dir, **overrides) -> RunSpec:
    csv_path, schema_path = dataset
    defaults = dict(
        dataset=csv_path, schema=schema_path, out_dir=str(out_dir),
        seeds=[0, 1], embed_dim=8, state_size=4, max_epochs=8,
    )
    defaults.update(overrides)
    return RunSpec(**defaults)


class TestTrain:
    def test_artifacts_and_summary(self, dataset, tmp_path):
        spec = quick_spec(dataset, tmp_path / "run")
        summary = cmd_train(spec, quiet=True)
        out = tmp_path / "run"
        assert (out / "summary.csv").exists()
        assert (out / "summary.txt").exists()
        assert (out / "per_seed.csv").exists()
        assert (out / "timing.json").exists()
        for seed in (0, 1):
            assert (out / f"seed_{seed}" / "report.json").exists()
            assert (out / f"seed_{seed}" / "model.ckpt").exists()
        assert 0.0 <= summary["auroc_mean"] <= 1.0
        assert summary["n_seeds"] == 2

    def test_summary_aggregation_matches_reports(self, dataset, tmp_path):
        spec = quick_spec(dataset, tmp_path / "run")
        summary = cmd_train(spec, quiet=True)
        aurocs = []
        for seed in (0, 1):
            payload = json.loads((tmp_path / "run" / f"seed_{seed}" / "report.json").read_text())
            aurocs.append(payload["eval"]["auroc"])
        assert summary["auroc_mean"] == pytest.approx(np.mean(aurocs), abs=1e-12)
        assert summary["auroc_std"] == pytest.approx(np.std(aurocs, ddof=1), abs=1e-12)

    @pytest.mark.parametrize("regime", ["supervised", "ssl", "incremental"])
    def test_determinism_byte_identical(self, dataset, tmp_path, regime):
        spec = quick_spec(dataset, tmp_path / "run", seeds=[3], regime=regime)
        cmd_train(spec, quiet=True)
        first = {p.relative_to(spec.out_dir): p.read_bytes()
                 for p in sorted((tmp_path / "run").rglob("*"))
                 if p.is_file() and p.name != "timing.json"}
        assert len(first) == 6
        cmd_train(spec, quiet=True)
        for rel, data in first.items():
            assert (tmp_path / "run" / rel).read_bytes() == data, f"{rel} differs between reruns"

    def test_csv_run_matches_in_memory_table(self, tmp_path):
        table = synthetic.logistic_table(300, 4, 2, seed=6)
        csv_path = tmp_path / "t.csv"
        synthetic.write_csv(table, csv_path)
        schema_path = tmp_path / "t.schema"
        schema_path.write_text("label_column = label\npositive_label = 1\n")
        spec = quick_spec((str(csv_path), str(schema_path)), tmp_path / "run", seeds=[0],
                          max_epochs=30)
        cmd_train(spec, quiet=True)
        from_csv = json.loads((tmp_path / "run" / "seed_0" / "report.json").read_text())
        in_memory = cli.run_one_seed(spec, table, SchemaConfig("label", "1"), seed=0)
        assert from_csv == in_memory.report_payload

    def test_block_count_flag_grows_params_linearly(self, dataset, tmp_path):
        s1 = cmd_train(quick_spec(dataset, tmp_path / "m1", seeds=[0], max_epochs=2,
                                  n_blocks=1), quiet=True)
        s3 = cmd_train(quick_spec(dataset, tmp_path / "m3", seeds=[0], max_epochs=2,
                                  n_blocks=3), quiet=True)
        per_block = (s3["param_count"] - s1["param_count"]) / 2
        s2 = cmd_train(quick_spec(dataset, tmp_path / "m2", seeds=[0], max_epochs=2,
                                  n_blocks=2), quiet=True)
        assert s2["param_count"] - s1["param_count"] == per_block

    def test_no_layer_norm_recorded_in_summary(self, dataset, tmp_path):
        on = cmd_train(quick_spec(dataset, tmp_path / "ln_on", seeds=[0], max_epochs=3),
                       quiet=True)
        off = cmd_train(quick_spec(dataset, tmp_path / "ln_off", seeds=[0], max_epochs=3,
                                   use_layer_norm=False), quiet=True)
        assert on["use_layer_norm"] is True
        assert off["use_layer_norm"] is False
        header = (tmp_path / "ln_off" / "summary.csv").read_text().splitlines()[0]
        assert "use_layer_norm" in header

    def test_regimes_run_end_to_end(self, dataset, tmp_path):
        for regime in ("incremental", "ssl"):
            spec = quick_spec(dataset, tmp_path / regime, seeds=[0], max_epochs=4,
                              regime=regime)
            summary = cmd_train(spec, quiet=True)
            assert summary["regime"] == regime
            payload = json.loads(
                (tmp_path / regime / "seed_0" / "report.json").read_text())
            if regime == "incremental":
                assert len(payload["stage_reports"]) == 3
            else:
                assert payload["pretrain_report"] is not None


class TestEval:
    def test_eval_reproduces_training_auroc_exactly(self, dataset, tmp_path):
        csv_path, schema_path = dataset
        spec = quick_spec(dataset, tmp_path / "run", seeds=[4])
        cmd_train(spec, quiet=True)
        payload = json.loads((tmp_path / "run" / "seed_4" / "report.json").read_text())
        result = cmd_eval(str(tmp_path / "run" / "seed_4" / "model.ckpt"),
                          csv_path, schema_path, quiet=True)
        assert result.auroc == payload["eval"]["auroc"]
        assert result.accuracy == payload["eval"]["accuracy"]

    def test_incompatible_dataset_rejected(self, dataset, tmp_path):
        csv_path, schema_path = dataset
        spec = quick_spec(dataset, tmp_path / "run", seeds=[0], max_epochs=2)
        cmd_train(spec, quiet=True)
        other = synthetic.logistic_table(120, 2, 1, seed=9)
        other_csv = tmp_path / "other.csv"
        synthetic.write_csv(other, other_csv)
        code = main(["eval", "--checkpoint", str(tmp_path / "run" / "seed_0" / "model.ckpt"),
                     "--dataset", str(other_csv), "--schema", schema_path, "--quiet"])
        assert code == EXIT_USAGE

    def test_saved_header_has_no_seq_len(self, trained_ckpt):
        assert "seq_len" not in read_header(trained_ckpt)["config"]

    def test_legacy_seq_len_header_loads(self, dataset, trained_ckpt, tmp_path):
        csv_path, schema_path = dataset
        header = read_header(trained_ckpt)
        header["config"]["seq_len"] = 1    # as written before the field was dropped
        legacy = tmp_path / "legacy.ckpt"
        rewrite_header(trained_ckpt, legacy, header)
        new_state = model_mod.load(trained_ckpt).state_dict()
        old_state = model_mod.load(legacy).state_dict()
        assert old_state.keys() == new_state.keys()
        for name, arr in new_state.items():
            assert np.array_equal(old_state[name], arr)
        assert (cmd_eval(str(legacy), csv_path, schema_path, quiet=True)
                == cmd_eval(str(trained_ckpt), csv_path, schema_path, quiet=True))

    @pytest.mark.parametrize("damage", [
        "drop_config", "drop_tensors", "drop_metadata", "unknown_config_key", "not_an_object",
        "huge_header_len", "no_training_metadata", "metadata_not_an_object", "tensors_not_a_list",
        "tensor_without_name", "tensor_without_shape", "negative_dimension",
        "legacy_seq_len_2", "preprocessor_without_kinds", "schema_not_an_object",
        "split_seed_not_an_int", "null_mins", "unknown_kind", "float_embed_dim",
        "string_use_layer_norm", "float_dimension", "bool_dimension", "reordered_tensors",
        "extra_tensor", "huge_n_blocks", "payload_size_beyond_int64",
    ])
    def test_malformed_checkpoint_exits_one(self, dataset, trained_ckpt, tmp_path, damage,
                                            monkeypatch, capsys):
        csv_path, schema_path = dataset
        header = read_header(trained_ckpt)
        meta = header["metadata"]
        expect = {
            "legacy_seq_len_2": "seq_len",
            "preprocessor_without_kinds": "kinds",
            "schema_not_an_object": "'schema'",
            "split_seed_not_an_int": "'split_seed'",
            "null_mins": "'mins'",
            "unknown_kind": "'kinds'",
            "float_embed_dim": "embed_dim",
            "string_use_layer_norm": "use_layer_norm",
            "no_training_metadata": "schema",
            "float_dimension": "tensors entry 4",
            "bool_dimension": "tensors entry 16",
            "reordered_tensors": "tensors entry 0",
            "extra_tensor": "tensors entry 17 should be absent",
            "huge_n_blocks": "n_blocks=1099511627776",
            "payload_size_beyond_int64": "tensor payload",
        }.get(damage, "")
        if damage == "legacy_seq_len_2":
            header["config"]["seq_len"] = 2
        elif damage == "float_embed_dim":
            header["config"]["embed_dim"] += 0.5
        elif damage == "string_use_layer_norm":
            header["config"]["use_layer_norm"] = "false"
        elif damage == "preprocessor_without_kinds":
            del meta["preprocessor"]["kinds"]
        elif damage == "schema_not_an_object":
            meta["schema"] = "x"
        elif damage == "split_seed_not_an_int":
            meta["split_seed"] = "abc"
        elif damage == "null_mins":
            meta["preprocessor"]["mins"] = [None] * len(meta["preprocessor"]["mins"])
        elif damage == "unknown_kind":
            meta["preprocessor"]["kinds"] = ["weird"] * len(meta["preprocessor"]["kinds"])
        elif damage == "no_training_metadata":
            header["metadata"] = {}    # what a bare model.save writes
        elif damage.startswith("drop_"):
            del header[damage[len("drop_"):]]
        elif damage == "unknown_config_key":
            header["config"]["colour"] = "blue"
        elif damage == "not_an_object":
            header = list(header)
        elif damage == "metadata_not_an_object":
            header["metadata"] = ["schema", "columns", "split_seed", "preprocessor"]
        elif damage == "tensors_not_a_list":
            header["tensors"] = 5
        elif damage == "tensor_without_name":
            del header["tensors"][0]["name"]
        elif damage == "tensor_without_shape":
            del header["tensors"][0]["shape"]
        elif damage == "negative_dimension":
            header["tensors"][1]["shape"][0] = -header["tensors"][1]["shape"][0]
        elif damage == "float_dimension":
            assert header["tensors"][4] == {"name": "blocks.0.in_proj.w", "shape": [8, 32]}
            header["tensors"][4]["shape"][1] = 32.0
        elif damage == "bool_dimension":
            assert header["tensors"][16] == {"name": "head.b", "shape": [1]}
            header["tensors"][16]["shape"] = [True]
        elif damage == "reordered_tensors":
            header["tensors"].reverse()
        elif damage == "extra_tensor":
            header["tensors"].append({"name": "extra", "shape": [1]})
        elif damage == "huge_n_blocks":
            header["config"]["n_blocks"] = 2 ** 40
        elif damage == "payload_size_beyond_int64":
            # Every tensor fits in an int64, but the payload's total does not.
            header["config"].update(embed_dim=2 ** 30, expand=2, n_blocks=2)
            layout = model_mod.ModelConfig.from_dict(header["config"]).layout()
            header["tensors"] = [{"name": n, "shape": list(s)} for n, s in layout]
            assert sum(math.prod(e["shape"]) for e in header["tensors"]) >= 2 ** 63

            def refuse(*args, **kwargs):
                raise AssertionError("a model was built from an unchecked layout")

            monkeypatch.setattr(model_mod, "MambaTabModel", refuse)
        bad = tmp_path / "bad.ckpt"
        rewrite_header(trained_ckpt, bad, header,
                       length=2 ** 40 if damage == "huge_header_len" else None)
        code = main(["eval", "--checkpoint", str(bad), "--dataset", csv_path,
                     "--schema", schema_path, "--quiet"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "error:" in err
        if damage.startswith("tensor_without_") or damage == "negative_dimension":
            assert "tensors entry" in err
        assert expect in err

    def test_eval_ranks_logits_beyond_sigmoid_saturation(self, dataset, trained_ckpt, tmp_path):
        # Spread the head so about half the test rows have logits above 40,
        # where float64 probabilities are exactly 1.0 and would tie.
        csv_path, schema_path = dataset
        model, meta = model_mod.load_with_metadata(trained_ckpt)
        table = tabular.load_csv(csv_path, SchemaConfig.from_file(schema_path))
        _, _, test_t = tabular.split(table, meta["split_seed"])
        enc = tabular.transform(tabular.Preprocessor.from_dict(meta["preprocessor"]), test_t)
        z = model.predict_logits(enc.values)
        scale = 50.0 / (z.max() - z.min())
        model.head_w.data *= scale
        model.head_b.data[:] = model.head_b.data * scale + 40.0 - scale * np.median(z)
        spread = tmp_path / "spread.ckpt"
        model_mod.save(model, spread, metadata=meta)
        logits = model.predict_logits(enc.values)
        assert np.sum(logits > 40.0) >= 5
        result = cmd_eval(str(spread), csv_path, schema_path, quiet=True)
        assert result.auroc == metrics.auroc(logits, enc.labels)
        assert result.auroc != metrics.auroc(model.predict_proba(enc.values), enc.labels)

    @pytest.mark.parametrize("case", ["few_rows", "one_class_test_split"])
    def test_small_or_one_class_split_exits_one(self, dataset, trained_ckpt, tmp_path, capsys,
                                                case):
        csv_path, schema_path = dataset
        header, *rows = Path(csv_path).read_text().splitlines()
        pos = [r for r in rows if r.endswith(",1")]
        neg = [r for r in rows if r.endswith(",0")]
        if case == "few_rows":
            keep = pos[:3] + neg[:3]
            expect = "6 data rows; evaluation splits need at least 10"
        else:   # the one positive lands in the checkpoint's training split
            split_seed = model_mod.load_with_metadata(trained_ckpt)[1]["split_seed"]
            first_train_row = split_row_ids(12, split_seed)[0][0]
            keep = [pos[0] if i == first_train_row else neg[i] for i in range(12)]
            expect = "the test split holds 0 positive and 3 negative rows; test AUROC needs both"
        small = tmp_path / "small.csv"
        small.write_text("\n".join([header, *keep]) + "\n")
        code = main(["eval", "--checkpoint", str(trained_ckpt), "--dataset", str(small),
                     "--schema", schema_path, "--quiet"])
        assert code == EXIT_USAGE
        assert f"error: {small} under {trained_ckpt}: {expect}" in capsys.readouterr().err

    def test_huge_config_rejected_before_building_a_model(self, dataset, trained_ckpt, tmp_path,
                                                          monkeypatch, capsys):
        csv_path, schema_path = dataset
        header = read_header(trained_ckpt)
        header["config"]["embed_dim"] = 2 ** 31
        bad = tmp_path / "huge.ckpt"
        rewrite_header(trained_ckpt, bad, header)

        def refuse(*args, **kwargs):
            raise AssertionError("a model was built from an unchecked config")

        monkeypatch.setattr(model_mod, "MambaTabModel", refuse)
        code = main(["eval", "--checkpoint", str(bad), "--dataset", csv_path,
                     "--schema", schema_path, "--quiet"])
        assert code == EXIT_USAGE
        assert "embed_dim=2147483648" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_exits_one(self, dataset, trained_ckpt, tmp_path, value, capsys):
        csv_path, schema_path = dataset
        raw = bytearray(trained_ckpt.read_bytes())
        first = read_header(trained_ckpt)["tensors"][0]["name"]
        start = 16 + struct.unpack("<Q", raw[8:16])[0]
        raw[start:start + 8] = np.float64(value).tobytes()
        bad = tmp_path / "nonfinite.ckpt"
        bad.write_bytes(bytes(raw))
        code = main(["eval", "--checkpoint", str(bad), "--dataset", csv_path,
                     "--schema", schema_path, "--quiet"])
        assert code == EXIT_USAGE
        assert f"tensor '{first}' holds non-finite values" in capsys.readouterr().err

    @pytest.mark.parametrize("data", ["present", "missing"])
    @pytest.mark.parametrize("damage", ["reconstruction_head", "width", "columns"])
    def test_inconsistent_checkpoint_exits_one_before_reading_data(self, dataset, trained_ckpt,
                                                                   tmp_path, capsys, damage,
                                                                   data):
        csv_path, schema_path = dataset
        model, meta = model_mod.load_with_metadata(trained_ckpt)
        n = model.config.n_features
        if damage == "reconstruction_head":
            model = model_mod.swap_head(model, "reconstruction", 0)
            expect = "model has a reconstruction head; eval needs a classification head"
        elif damage == "width":
            model = model_mod.MambaTabModel(replace(model.config, n_features=n + 1))
            expect = f"preprocessor has {n} columns, model config n_features={n + 1}"
        else:
            meta["columns"] = meta["columns"][::-1]
            expect = (f"metadata 'columns' {meta['columns']} differ from the preprocessor's "
                      f"{meta['preprocessor']['column_names']}")
        bad = tmp_path / "bad.ckpt"
        model_mod.save(model, bad, metadata=meta)
        data_path = csv_path if data == "present" else str(tmp_path / "absent.csv")
        with pytest.raises(model_mod.CheckpointError):
            cmd_eval(str(bad), data_path, schema_path, quiet=True)
        code = main(["eval", "--checkpoint", str(bad), "--dataset", data_path,
                     "--schema", schema_path, "--quiet"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {bad}: {expect}\n"


def _json_values():
    scalars = (st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
               | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6))
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                        max_leaves=6)


def _json_paths(node, prefix=()) -> list[tuple]:
    """Every key/index path below ``node``."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    paths = []
    for key, child in items:
        paths.append(prefix + (key,))
        paths += _json_paths(child, prefix + (key,))
    return paths


_DELETE = object()


class TestCheckpointFuzz:
    """Damaged checkpoints end in CheckpointError (exit 1), or load to a model
    whose re-save is a fixed point and keeps every payload byte."""

    @settings(max_examples=250, deadline=None)
    @given(data=st.data())
    def test_damaged_checkpoint_errors_or_round_trips(self, dataset, trained_ckpt,
                                                      tmp_path_factory, data):
        raw = trained_ckpt.read_bytes()
        payload_start = 16 + struct.unpack("<Q", raw[8:16])[0]
        kind = data.draw(st.sampled_from(["truncate", "flip_header", "flip_payload",
                                          "non_finite_payload", "rewrite"]))
        if kind == "truncate":
            damaged = raw[:data.draw(st.integers(0, len(raw) - 1))]
        elif kind == "non_finite_payload":
            # All exponent bits set: an infinity or a NaN, keeping sign and mantissa.
            at = payload_start + 8 * data.draw(st.integers(0, (len(raw) - payload_start) // 8 - 1))
            value = struct.unpack("<Q", raw[at:at + 8])[0] | (0x7FF << 52)
            damaged = raw[:at] + struct.pack("<Q", value) + raw[at + 8:]
        elif kind.startswith("flip_"):
            lo, hi = (0, payload_start) if kind == "flip_header" else (payload_start, len(raw))
            bit = data.draw(st.integers(8 * lo, 8 * hi - 1))
            damaged = bytearray(raw)
            damaged[bit // 8] ^= 1 << (bit % 8)
            damaged = bytes(damaged)
        else:
            header = json.loads(raw[16:payload_start])
            path = data.draw(st.sampled_from(_json_paths(header)))
            value = data.draw(st.just(_DELETE) | _json_values())
            parent = header
            for key in path[:-1]:
                parent = parent[key]
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
            header_bytes = json.dumps(header).encode()
            damaged = (raw[:8] + struct.pack("<Q", len(header_bytes)) + header_bytes
                       + raw[payload_start:])
        self._check(damaged, tmp_path_factory.getbasetemp(), dataset[0],
                    header_untouched=kind == "flip_payload")

    @staticmethod
    def _check(damaged: bytes, workdir: Path, csv_path: str, header_untouched: bool) -> None:
        path = workdir / "fuzz.ckpt"
        path.write_bytes(damaged)
        try:
            model, meta = model_mod.load_with_metadata(path)
        except model_mod.CheckpointError:
            assert main(["eval", "--checkpoint", str(path), "--dataset", csv_path,
                         "--quiet"]) == EXIT_USAGE
            return
        assert all(np.all(np.isfinite(a)) for a in model.state_dict().values())
        resaved = workdir / "resaved.ckpt"
        model_mod.save(model, resaved, metadata=meta)
        first = resaved.read_bytes()
        assert first.endswith(damaged[16 + struct.unpack("<Q", damaged[8:16])[0]:])
        if header_untouched:
            assert first == damaged
        again, meta_again = model_mod.load_with_metadata(resaved)
        model_mod.save(again, resaved, metadata=meta_again)
        assert resaved.read_bytes() == first


@st.composite
def _fuzzed_csv(draw) -> tuple[bytes, str]:
    """CSV bytes and schema text with the defects loaders meet in the wild.

    Harmless quirks (quoted commas, blank lines, CRLF, a BOM) come often and
    each breaking defect one time in five, so about one case in five trains.
    """
    rare = st.integers(0, 4).map(lambda k: k == 0)
    header = ["x", "color", "label"]
    if draw(rare):
        header[draw(st.integers(0, 1))] = draw(st.sampled_from(header))   # repeated name
    n_rows = draw(st.integers(0, 9) if draw(rare) else st.integers(10, 60))
    one_class = draw(rare)
    rows = [[str(draw(st.integers(-9, 9))),
             draw(st.sampled_from(["red", "blue", "a,b", 'say "hi"', "", "?", " x "])),
             "1" if one_class else draw(st.sampled_from(["0", "1", "yes"]))]
            for _ in range(n_rows)]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header] + rows)   # quotes the commas
    lines = buf.getvalue().split("\n")[:-1]
    for at in draw(st.lists(st.integers(0, len(lines)), max_size=3)):
        lines.insert(at, "")
    if draw(rare):
        at = draw(st.integers(0, len(lines) - 1))
        lines[at] = draw(st.sampled_from([lines[at] + ",extra", lines[at].rpartition(",")[0]]))
    data = (draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n").encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(rare):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + data[at:]
    label_column = "nope" if draw(rare) else draw(st.sampled_from(["label", ""]))
    schema = [f"label_column = {label_column}", "positive_label = 1"]
    if draw(rare):
        schema.append(draw(st.sampled_from(["kind.x = categorical", "kind.color = numerical",
                                            "kind.ghost = numerical"])))
    return data, "\n".join(schema) + "\n"


class TestCsvFuzz:
    """Malformed CSVs and schemas load, or end in SchemaError and exit 1; never a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(case=_fuzzed_csv())
    @example(case=(b"\n", "label_column = \npositive_label = 1\n"))   # blank header line
    def test_load_and_train_exit_zero_or_one(self, tmp_path_factory, case):
        data, schema_text = case
        with tempfile.TemporaryDirectory(dir=tmp_path_factory.getbasetemp()) as work:
            csv_path, schema_path = Path(work, "d.csv"), Path(work, "d.schema")
            csv_path.write_bytes(data)
            schema_path.write_text(schema_text)
            try:
                tabular.load_csv(csv_path, SchemaConfig.from_file(schema_path))
                load_error = None
            except tabular.SchemaError as e:
                load_error = str(e)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(["train", "--dataset", str(csv_path), "--schema", str(schema_path),
                             "--out", str(Path(work, "run")), "--max-epochs", "0",
                             "--seeds", "0", "--embed-dim", "4", "--state-size", "2",
                             "--quiet"])
        assert code in (EXIT_OK, EXIT_USAGE)
        if load_error is not None:
            assert code == EXIT_USAGE and f"error: {load_error}" in err.getvalue()
        elif code == EXIT_USAGE:
            assert err.getvalue().startswith("error:")


class TestDataErrors:
    def test_non_finite_numeric_cell_exits_one(self, tmp_path, capsys):
        table = synthetic.logistic_table(200, 4, 2, seed=0)
        for row, cell in zip((1, 2, 5, 7), ("inf", "nan", "-inf", "nan")):
            table.columns[0][row] = cell
        csv_path = tmp_path / "bad.csv"
        synthetic.write_csv(table, csv_path)
        schema_path = tmp_path / "bad.schema"
        schema_path.write_text("label_column = label\npositive_label = 1\n")
        code = main(["train", "--dataset", str(csv_path), "--schema", str(schema_path),
                     "--out", str(tmp_path / "run"), "--seeds", "0", "--max-epochs", "1",
                     "--quiet"])
        assert code == EXIT_USAGE
        assert "column 'f0'" in capsys.readouterr().err

    @pytest.mark.parametrize("bom_in", ["csv", "schema", "both"])
    def test_byte_order_mark_keeps_schema_kinds(self, tmp_path, bom_in):
        table = synthetic.logistic_table(200, 4, 2, seed=0)
        csv_path = tmp_path / "bom.csv"
        synthetic.write_csv(table, csv_path)
        schema_path = tmp_path / "bom.schema"
        # kind.f0 on the first line: a BOM left in place would hide the key
        schema_path.write_text("kind.f0 = categorical\nlabel_column = label\npositive_label = 1\n")
        for path in {"csv": [csv_path], "schema": [schema_path],
                     "both": [csv_path, schema_path]}[bom_in]:
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        code = main(["train", "--dataset", str(csv_path), "--schema", str(schema_path),
                     "--out", str(tmp_path / "run"), "--seeds", "0", "--max-epochs", "1",
                     "--quiet"])
        assert code == EXIT_OK
        _, meta = model_mod.load_with_metadata(tmp_path / "run" / "seed_0" / "model.ckpt")
        assert meta["columns"][0] == "f0"
        assert meta["preprocessor"]["kinds"][:2] == ["categorical", "numerical"]

    def test_unknown_kind_key_exits_one(self, dataset, tmp_path, capsys):
        csv_path, _ = dataset
        schema_path = tmp_path / "typo.schema"
        schema_path.write_text("label_column = label\npositive_label = 1\nkind.nope = categorical\n")
        code = main(["train", "--dataset", csv_path, "--schema", str(schema_path),
                     "--out", str(tmp_path / "run"), "--seeds", "0", "--quiet"])
        assert code == EXIT_USAGE
        assert "kind.nope" in capsys.readouterr().err

    def test_one_class_label_column_exits_one_before_training(self, dataset, tmp_path,
                                                               capsys):
        csv_path, _ = dataset
        schema_path = tmp_path / "typo.schema"
        schema_path.write_text("label_column = label\npositive_label = 2\n")
        code = main(["train", "--dataset", csv_path, "--schema", str(schema_path),
                     "--out", str(tmp_path / "run"), "--seeds", "0", "--quiet"])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "label_column 'label' holds 0 rows equal to positive_label '2' and 300" in err
        assert not (tmp_path / "run").exists()

    def test_repeated_header_name_exits_one(self, tmp_path, capsys):
        table = synthetic.logistic_table(200, 4, 2, seed=0)
        table.column_names[1] = "f0"
        csv_path = tmp_path / "dup.csv"
        synthetic.write_csv(table, csv_path)
        schema_path = tmp_path / "dup.schema"
        schema_path.write_text("label_column = label\npositive_label = 1\n")
        code = main(["train", "--dataset", str(csv_path), "--schema", str(schema_path),
                     "--out", str(tmp_path / "run"), "--seeds", "0", "--quiet"])
        assert code == EXIT_USAGE
        assert "repeats the column names ['f0']" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["dataset_dir", "schema_dir", "checkpoint_dir",
                                      "out_is_file", "out_under_file"])
    def test_os_error_exits_one(self, dataset, trained_ckpt, tmp_path, capsys, case):
        csv_path, schema_path = dataset
        folder, blocker = tmp_path / "folder", tmp_path / "file"
        folder.mkdir()
        blocker.write_text("")
        train = ["train", "--seeds", "0", "--max-epochs", "0", "--embed-dim", "4",
                 "--state-size", "2", "--quiet"]
        argv, named = {
            "dataset_dir": (train + ["--dataset", str(folder), "--schema", schema_path,
                                     "--out", str(tmp_path / "run")], folder),
            "schema_dir": (train + ["--dataset", csv_path, "--schema", str(folder),
                                    "--out", str(tmp_path / "run")], folder),
            "checkpoint_dir": (["eval", "--checkpoint", str(folder), "--dataset", csv_path,
                                "--quiet"], folder),
            "out_is_file": (train + ["--dataset", csv_path, "--schema", schema_path,
                                     "--out", str(blocker)], blocker),
            "out_under_file": (train + ["--dataset", csv_path, "--schema", schema_path,
                                        "--out", str(blocker / "run")], blocker / "run"),
        }[case]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(named) in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("target", ["csv", "schema", "config"])
    def test_non_utf8_file_named_with_line(self, tmp_path, capsys, target):
        csv_path, schema_path, cfg = tmp_path / "d.csv", tmp_path / "d.schema", tmp_path / "r.cfg"
        synthetic.write_csv(synthetic.logistic_table(600, 4, 2, seed=0), csv_path)
        schema_path.write_text("label_column = label\npositive_label = 1\n")
        cfg.write_text("seeds = 0\nmax_epochs = 0\nembed_dim = 4\nstate_size = 2\n")
        path = {"csv": csv_path, "schema": schema_path, "config": cfg}[target]
        data = bytearray(path.read_bytes())
        # Past the first 8 KiB: a chunked decoder would count from the chunk start.
        offset = 20_000 if target == "csv" else len(data) - 3
        data[offset] = 0xFF
        path.write_bytes(bytes(data))
        code = main(["train", "--dataset", str(csv_path), "--schema", str(schema_path),
                     "--config", str(cfg), "--out", str(tmp_path / "run"), "--quiet"])
        assert code == EXIT_USAGE
        line = data.count(b"\n", 0, offset) + 1
        assert f"error: {path}:{line}: byte {offset} is not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag,value,field", [
        ("--batch-size", "0", "batch_size"),
        ("--batch-size", "-5", "batch_size"),
        ("--max-epochs", "-3", "max_epochs"),
        ("--embed-dim", "0", "embed_dim"),
        ("--m-blocks", "0", "n_blocks"),
        ("--state-size", "-1", "state_size"),
    ])
    def test_bad_training_size_exits_one(self, dataset, tmp_path, capsys, flag, value, field):
        csv_path, schema_path = dataset
        code = main(["train", "--dataset", csv_path, "--schema", schema_path,
                     "--out", str(tmp_path / "run"), "--seeds", "0", flag, value, "--quiet"])
        assert code == EXIT_USAGE
        assert f"{field} must be" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()    # rejected before any output

    @pytest.mark.parametrize("command,header,n_rows,counts", [
        (["train"], ["f0", "label"], 3, "3 data rows and 1 feature columns"),
        (["sweep", "--knob", "state-size", "--values", "2,4"], ["f0", "label"], 3,
         "3 data rows and 1 feature columns"),
        (["train"], ["label"], 12, "12 data rows and 0 feature columns"),
        (["train", "--regime", "incremental"], ["f0", "f1", "label"], 12,
         "12 data rows and 2 feature columns; incremental training needs at least 10 and 3"),
    ], ids=["few_rows", "few_rows_sweep", "label_only", "incremental_two_features"])
    def test_untrainable_csv_exits_one_before_output(self, tmp_path, capsys, command, header,
                                                      n_rows, counts):
        csv_path, schema_path = tmp_path / "small.csv", tmp_path / "small.schema"
        rows = [",".join([str(i % 2)] * len(header)) for i in range(n_rows)]
        csv_path.write_text("\n".join([",".join(header)] + rows) + "\n")
        schema_path.write_text("label_column = label\npositive_label = 1\n")
        code = main([*command, "--dataset", str(csv_path), "--schema", str(schema_path),
                     "--out", str(tmp_path / "run"), "--seeds", "0", "--max-epochs", "0",
                     "--quiet"])
        assert code == EXIT_USAGE
        assert f"error: {csv_path}: {counts}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_one_class_test_split_exits_one_before_output(self, tmp_path, capsys):
        # 12 rows split 8 / 1 / 3. Both positives sit in seed 0's training
        # rows, and one of them in seed 1's test rows.
        (train0, _, _), (_, _, test1) = (
            split_row_ids(12, training.child_seed(seed, training.STREAM_SPLIT)) for seed in (0, 1))
        shared = sorted(set(train0) & set(test1))
        positives = {shared[0], next(i for i in train0 if i != shared[0])}
        csv_path, schema_path = tmp_path / "rare.csv", tmp_path / "rare.schema"
        csv_path.write_text("f0,label\n" + "".join(f"{i},{int(i in positives)}\n"
                                                   for i in range(12)))
        schema_path.write_text("label_column = label\npositive_label = 1\n")

        def train(seeds, out):
            return main(["train", "--dataset", str(csv_path), "--schema", str(schema_path),
                         "--out", str(tmp_path / out), "--seeds", seeds, "--max-epochs", "1",
                         "--embed-dim", "4", "--state-size", "2", "--quiet"])

        assert train("1,0", "bad") == EXIT_USAGE
        assert (f"error: {csv_path}: seed 0's test split holds 0 positive and 3 negative rows"
                in capsys.readouterr().err)
        assert not (tmp_path / "bad").exists()   # seed 1 is checked and never trained
        # seed 1's one-row validation split holds one class, which stays legal
        assert train("1", "good") == EXIT_OK
        report = json.loads((tmp_path / "good" / "seed_1" / "report.json").read_text())
        assert report["report"]["val_auroc"] == [None]

    @pytest.mark.parametrize("target,text,line,problem", [
        ("schema", "label_colum = label\npositive_label = 1\n", 1, "unknown key 'label_colum'"),
        ("schema", "label_column = label\npositive_label = 1\npositive_label = 0\n", 3,
         "key 'positive_label' is given a second time"),
        ("config", "seeds = 0\nmax_epochs = 1\nseeds = 1\n", 3,
         "key 'seeds' is given a second time"),
    ], ids=["schema_typo", "schema_repeat", "config_repeat"])
    def test_bad_key_file_exits_one(self, dataset, tmp_path, capsys, target, text, line,
                                    problem):
        csv_path, schema_path = dataset
        path = tmp_path / f"run.{target}"
        path.write_text(text)
        args = ["--config", str(path)] if target == "config" else []
        code = main(["train", "--dataset", csv_path,
                     "--schema", str(path) if target == "schema" else schema_path,
                     "--out", str(tmp_path / "run"), "--max-epochs", "1", "--seeds", "0",
                     "--embed-dim", "4", "--state-size", "2", *args, "--quiet"])
        assert code == EXIT_USAGE
        assert f"error: {path}:{line}: {problem}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestRunSpecChecks:
    """A bad, repeated or missing spec value exits 1 before any output is written."""

    @staticmethod
    def run(dataset, out, *args):
        csv_path, schema_path = dataset
        return main([args[0], "--dataset", csv_path, "--schema", schema_path,
                     "--out", str(out), *args[1:], "--quiet"])

    def test_bad_sweep_value_exits_one_before_any_run(self, dataset, tmp_path, capsys):
        code = self.run(dataset, tmp_path / "sweep", "sweep", "--knob", "embed-dim",
                        "--values", "4,0", "--seeds", "0", "--state-size", "4",
                        "--max-epochs", "1")
        assert code == EXIT_USAGE
        assert "embed_dim must be an int >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("seed_args,config,repeated", [
        (["--seeds", "0,1,0,1"], "", "[0, 1]"),
        ([], "seeds = 3,2,3\n", "[3]"),
    ])
    def test_repeated_seeds_exit_one(self, dataset, tmp_path, capsys, seed_args, config,
                                     repeated):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{config}embed_dim = 8\nstate_size = 4\nmax_epochs = 1\n")
        code = self.run(dataset, tmp_path / "run", "train", "--config", str(cfg), *seed_args)
        assert code == EXIT_USAGE
        assert f"seeds repeat {repeated}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("seed_args,config,negative", [
        (["--seeds=-1"], "", "[-1]"),
        ([], "seeds = -2\n", "[-2]"),
    ])
    def test_negative_seed_exits_one(self, dataset, tmp_path, capsys, seed_args, config,
                                     negative):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{config}embed_dim = 8\nstate_size = 4\nmax_epochs = 1\n")
        code = self.run(dataset, tmp_path / "run", "train", "--config", str(cfg), *seed_args)
        assert code == EXIT_USAGE
        assert f"seeds must be non-negative, got {negative}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("lr_args,config,shown", [
        (["--lr", "nan"], "", "nan"),
        (["--lr", "inf"], "", "inf"),
        (["--lr=-inf"], "", "-inf"),
        ([], "lr = nan\n", "nan"),
    ])
    def test_non_finite_lr_exits_one(self, dataset, tmp_path, capsys, lr_args, config, shown):
        # Without the check, training ran and ended in a numeric failure (exit 2).
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{config}embed_dim = 4\nstate_size = 2\nmax_epochs = 1\n")
        code = self.run(dataset, tmp_path / "run", "train", "--config", str(cfg),
                        "--seeds", "0", *lr_args)
        assert code == EXIT_USAGE
        assert f"lr must be a finite number > 0, got {shown}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_repeated_sweep_values_exit_one(self, dataset, tmp_path, capsys):
        code = self.run(dataset, tmp_path / "sweep", "sweep", "--knob", "state-size",
                        "--values", "4,8,4", "--seeds", "0", "--embed-dim", "8",
                        "--max-epochs", "1")
        assert code == EXIT_USAGE
        assert "sweep values repeat [4]" in capsys.readouterr().err
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("args,message", [
        (["train", "--seeds", ","], "need at least one seed"),
        (["sweep", "--knob", "state-size", "--values", ","], "sweep needs at least one value"),
    ])
    def test_empty_list_exits_one(self, dataset, tmp_path, capsys, args, message):
        assert self.run(dataset, tmp_path / "run", *args) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unknown_config_key_exits_one(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("embed_dims = 8\nseeds = 0\n")
        code = self.run(dataset, tmp_path / "run", "train", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert f"{cfg}:1: unknown key 'embed_dims'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unknown_sweep_knob_rejected(self, dataset, tmp_path):
        spec = quick_spec(dataset, tmp_path / "sweep", seeds=[0], max_epochs=1)
        with pytest.raises(cli.UsageError, match="unknown sweep knob 'depth'"):
            cmd_sweep(spec, "depth", [1, 2], quiet=True)
        assert not (tmp_path / "sweep").exists()


class TestSweep:
    def test_sweep_through_main(self, dataset, tmp_path, capsys):
        csv_path, schema_path = dataset
        args = ["sweep", "--dataset", csv_path, "--schema", schema_path, "--seeds", "0",
                "--embed-dim", "8", "--max-epochs", "1", "--knob", "state-size", "--quiet"]
        assert main(args + ["--out", str(tmp_path / "ok"), "--values", "4,8"]) == EXIT_OK
        lines = (tmp_path / "ok" / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["state-size", "4"],
                                                                ["state-size", "8"]]
        assert main(args + ["--out", str(tmp_path / "bad"), "--values", "4,x"]) == EXIT_USAGE
        assert "bad --values list: '4,x'" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_sweep_table(self, dataset, tmp_path):
        spec = quick_spec(dataset, tmp_path / "sweep", seeds=[0], max_epochs=2)
        rows = cmd_sweep(spec, "state-size", [4, 8], quiet=True)
        assert [r["value"] for r in rows] == [4, 8]
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert lines[0] == "knob,value,auroc_mean,auroc_std,param_count"
        assert len(lines) == 3

    def test_m_blocks_sweep_param_column_linear(self, dataset, tmp_path):
        spec = quick_spec(dataset, tmp_path / "msweep", seeds=[0], max_epochs=1)
        rows = cmd_sweep(spec, "m-blocks", [1, 2, 3, 4], quiet=True)
        counts = [r["param_count"] for r in rows]
        diffs = np.diff(counts)
        assert len(set(diffs)) == 1

    def test_single_value_matches_train(self, dataset, tmp_path):
        spec = quick_spec(dataset, tmp_path / "s1", seeds=[0], max_epochs=2)
        rows = cmd_sweep(spec, "embed-dim", [8], quiet=True)
        direct = cmd_train(quick_spec(dataset, tmp_path / "s2", seeds=[0], max_epochs=2,
                                      embed_dim=8), quiet=True)
        assert rows[0]["auroc_mean"] == direct["auroc_mean"]


class TestHumanOutput:
    def test_each_command_prints_its_lines(self, dataset, tmp_path, capsys):
        csv_path, schema_path = dataset
        run = ["--dataset", csv_path, "--schema", schema_path, "--seeds", "0",
               "--embed-dim", "8", "--state-size", "4", "--max-epochs", "2"]
        assert main(["train", "--out", str(tmp_path / "run"), *run]) == EXIT_OK
        seed_line, *summary = capsys.readouterr().out.splitlines()
        report = json.loads((tmp_path / "run" / "seed_0" / "report.json").read_text())["eval"]
        prefix = f"seed 0: test AUROC {report['auroc']:.4f} accuracy {report['accuracy']:.4f} ("
        assert seed_line.startswith(prefix)
        assert re.fullmatch(r"\d+\.\ds\)", seed_line[len(prefix):])
        params = model_mod.load(tmp_path / "run" / "seed_0" / "model.ckpt").flat.size
        assert summary == [
            "regime:          supervised",
            f"dataset:         {csv_path}",
            "seeds:           1",
            "layer norm:      on",
            f"test AUROC:      {report['auroc']:.4f} +/- 0.0000",
            f"test accuracy:   {report['accuracy']:.4f}",
            f"parameters:      {params}",
        ]
        assert (tmp_path / "run" / "summary.txt").read_text().splitlines() == summary

        ckpt = str(tmp_path / "run" / "seed_0" / "model.ckpt")
        assert main(["eval", "--checkpoint", ckpt, "--dataset", csv_path]) == EXIT_OK
        assert capsys.readouterr().out == (f"test AUROC {report['auroc']:.4f}\n"
                                           f"test accuracy {report['accuracy']:.4f}\n")

        assert main(["sweep", "--out", str(tmp_path / "sweep"), *run,
                     "--knob", "state-size", "--values", "4"]) == EXIT_OK
        assert capsys.readouterr().out == (f"state-size=4: AUROC {report['auroc']:.4f} "
                                           f"+/- 0.0000, {params} params\n")


class TestMainEntry:
    def test_import_loads_no_scipy(self):
        code = ("import sys, mambatab, mambatab.cli\n"
                "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_full_cli_invocation(self, dataset, tmp_path):
        csv_path, schema_path = dataset
        code = main([
            "train", "--dataset", csv_path, "--schema", schema_path,
            "--out", str(tmp_path / "cli_run"), "--seeds", "0",
            "--embed-dim", "8", "--state-size", "4", "--max-epochs", "3", "--quiet",
        ])
        assert code == EXIT_OK
        assert (tmp_path / "cli_run" / "summary.csv").exists()

    def test_config_file_with_flag_override(self, dataset, tmp_path):
        csv_path, schema_path = dataset
        cfg = tmp_path / "run.cfg"
        cfg.write_text("embed_dim = 16\nmax_epochs = 2\nseeds = 0\nstate_size = 4\n")
        code = main([
            "train", "--dataset", csv_path, "--schema", schema_path,
            "--out", str(tmp_path / "cfg_run"), "--config", str(cfg),
            "--embed-dim", "8", "--quiet",
        ])
        assert code == EXIT_OK
        runspec = json.loads((tmp_path / "cfg_run" / "runspec.json").read_text())
        assert runspec["embed_dim"] == 8       # flag wins
        assert runspec["max_epochs"] == 2      # file value

    def test_config_file_sets_each_field_type(self, dataset, tmp_path, capsys):
        csv_path, schema_path = dataset
        cfg = tmp_path / "run.cfg"
        cfg.write_text("regime = ssl\nbatch_size = 64\nlr = 0.001\nno_layer_norm = true\n"
                       "max_epochs = 1\nseeds = 0\nembed_dim = 8\nstate_size = 4\n")
        code = main(["train", "--dataset", csv_path, "--schema", schema_path,
                     "--out", str(tmp_path / "cfg_run"), "--config", str(cfg), "--quiet"])
        assert code == EXIT_OK
        runspec = json.loads((tmp_path / "cfg_run" / "runspec.json").read_text())
        assert runspec["regime"] == "ssl"
        assert runspec["batch_size"] == 64 and isinstance(runspec["batch_size"], int)
        assert runspec["lr"] == 0.001
        assert runspec["use_layer_norm"] is False

        cfg.write_text("patience = x\n")
        code = main(["train", "--dataset", csv_path, "--schema", schema_path,
                     "--out", str(tmp_path / "bad_run"), "--config", str(cfg), "--quiet"])
        assert code == EXIT_USAGE
        assert "patience" in capsys.readouterr().err

    @pytest.mark.parametrize("word,layer_norm", [
        ("TRUE", False), ("Yes", False), ("1", False), ("no", True), ("False", True),
        ("0", True), ("ture", None), ("", None), ("2", None),
    ])
    def test_config_no_layer_norm_values(self, dataset, tmp_path, capsys, word, layer_norm):
        csv_path, schema_path = dataset
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"no_layer_norm = {word}\nmax_epochs = 1\nseeds = 0\n"
                       f"embed_dim = 8\nstate_size = 4\n")
        out = tmp_path / "run"
        code = main(["train", "--dataset", csv_path, "--schema", schema_path,
                     "--out", str(out), "--config", str(cfg), "--quiet"])
        if layer_norm is None:
            assert code == EXIT_USAGE
            assert f"config key no_layer_norm: {word!r}" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert code == EXIT_OK
            assert json.loads((out / "runspec.json").read_text())["use_layer_norm"] is layer_norm

    def test_missing_label_column_exits_one(self, dataset, tmp_path):
        csv_path, _ = dataset
        bad_schema = tmp_path / "bad.schema"
        bad_schema.write_text("label_column = nope\npositive_label = 1\n")
        code = main(["train", "--dataset", csv_path, "--schema", str(bad_schema),
                     "--out", str(tmp_path / "x"), "--seeds", "0", "--quiet"])
        assert code == EXIT_USAGE

    def test_bad_flag_exits_one(self, dataset, tmp_path, capsys):
        code = main(["train", "--nonsense"])
        assert code == EXIT_USAGE

    def test_numeric_blowup_exits_two(self, dataset, tmp_path):
        csv_path, schema_path = dataset
        code = main(["train", "--dataset", csv_path, "--schema", schema_path,
                     "--out", str(tmp_path / "boom"), "--seeds", "0",
                     "--lr", "1e300", "--max-epochs", "3", "--quiet"])
        assert code == cli.EXIT_RUNTIME

    def test_numeric_blowup_prints_one_line(self, dataset, tmp_path, capsys):
        csv_path, schema_path = dataset
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--dataset", csv_path, "--schema", schema_path,
                         "--out", str(tmp_path / "boom"), "--seeds", "0",
                         "--lr", "1e300", "--max-epochs", "3", "--quiet"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_RUNTIME
        assert [str(w.message) for w in caught] == []
        assert len(err.splitlines()) == 1 and err.startswith("numeric failure:"), err

    def test_other_arithmetic_error_is_a_bug(self, dataset, tmp_path, monkeypatch):
        csv_path, schema_path = dataset

        def divide(*args, **kwargs):
            raise ZeroDivisionError("planted")

        monkeypatch.setattr(cli, "run_one_seed", divide)
        with pytest.raises(ZeroDivisionError, match="planted"):
            main(["train", "--dataset", csv_path, "--schema", schema_path,
                  "--out", str(tmp_path / "bug"), "--seeds", "0", "--quiet"])

    def test_untyped_value_error_is_a_bug(self, dataset, tmp_path, monkeypatch):
        # Exit 1 is for an InputError or an OSError; a bare ValueError traces back.
        csv_path, schema_path = dataset

        def fail(*args, **kwargs):
            raise ValueError("bug")

        monkeypatch.setattr(cli, "run_one_seed", fail)
        with pytest.raises(ValueError, match="bug"):
            main(["train", "--dataset", csv_path, "--schema", schema_path,
                  "--out", str(tmp_path / "bug"), "--seeds", "0", "--quiet"])

    @pytest.mark.parametrize("blowup", [
        lambda: training.bce_with_logits(T.Tensor(np.full((128, 1), 1e308)), np.zeros(128)),
        lambda: T.causal_conv1d(T.Tensor(np.full((2, 3, 4), 1e308)),
                                T.Tensor(np.full((4, 2), 10.0)), T.Tensor(np.zeros(4))),
    ], ids=["bce-sum", "causal-conv1d"])
    def test_every_numeric_failure_prints_one_line(self, dataset, tmp_path, capsys,
                                                   monkeypatch, blowup):
        csv_path, schema_path = dataset
        monkeypatch.setattr(cli, "cmd_train", lambda spec, quiet=False: blowup())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--dataset", csv_path, "--schema", schema_path,
                         "--out", str(tmp_path / "boom"), "--seeds", "0", "--quiet"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_RUNTIME
        assert [str(w.message) for w in caught] == []
        assert len(err.splitlines()) == 1 and err.startswith("numeric failure:"), err

    def test_unknown_regime_exits_one(self, dataset, tmp_path):
        csv_path, schema_path = dataset
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("regime = zigzag\n")
        code = main(["train", "--dataset", csv_path, "--schema", schema_path,
                     "--out", str(tmp_path / "y"), "--config", str(cfg), "--quiet"])
        assert code == EXIT_USAGE
