"""Tests of the benchmark's own code: ``python3 -m pytest perfbench -q``."""

import csv
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import mambatab  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from mambatab import synthetic, training  # noqa: E402
from mambatab.model import MambaTabModel, ModelConfig  # noqa: E402


def test_setup_probe_kernel_imports_nothing():
    # It runs from SIGALRM during ``import mambatab``; an import there could
    # meet a half-initialised module.
    before = set(sys.modules)
    with child.SpeedProbe("parse") as probe:
        child.parse_kernel()
        while len(probe.times) < 3:
            pass
    assert set(sys.modules) == before
    assert probe.speed() > 0


def test_self_time_on_hand_built_tree():
    names = ["root", "a", "b", "leaf"]
    # root [0, 100] holds a [10, 40] and b [50, 90]; b holds leaf [60, 70]
    # and a second b [75, 85], which is nested and must not count twice.
    span_list = [[0, 0, 100, -1], [1, 10, 40, 0], [2, 50, 90, 0],
                 [3, 60, 70, 2], [2, 75, 85, 2]]
    t = spans.SpanTable(names, span_list)
    assert t.self_ns == [30, 30, 20, 10, 10]
    assert t.self_total("b") == 30
    assert t.total(["b"]) == 40
    assert t.total(["root"], minus=["b"]) == 60
    assert t.total(["root"], minus=["b", "leaf"]) == 60
    assert t.total(["root"], minus=["leaf"]) == 90
    assert t.under(["b"]) == [False, False, False, True, True]
    assert t.count("b") == 2


def test_high_percentile_leaves_ten_samples_above():
    assert spans.high_percentile(list(range(1, 1001))) == (99.0, 990)
    assert spans.high_percentile(list(range(1, 101))) == (90.0, 90)
    assert spans.high_percentile([3.0, 1.0, 2.0]) == (50.0, 2.0)


@pytest.mark.parametrize("x", [0.1, 1 / 3, 0.1 + 0.2, 1e-300, 5e-324, 2.0 ** 60 + 2.0 ** 8,
                               -123456.789e-7, np.float64(0.53), np.nextafter(1.0, 2.0)])
def test_csv_float_round_trip_is_exact(tmp_path, x):
    path = tmp_path / "t.csv"
    workloads.write_csv(path, ["v"], [[workloads.cell(x)]])
    with open(path, newline="", encoding="utf-8") as fh:
        (cell,) = list(csv.reader(fh))[1]
    assert float(cell) == x
    assert "np.float64" not in cell


def test_ingest_csv_cells_parse_to_the_generator_values(tmp_path):
    workloads.Ingest50k.generate(3, tmp_path)
    num, num_missing, cat, labels = workloads.ingest_arrays(workloads.INGEST_ROWS, 3)
    with open(tmp_path / "table.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == len(labels)
    for i in range(0, len(rows), 997):
        for j in range(num.shape[1]):
            if num_missing[i, j]:
                assert rows[i][j] in ("", "?")
            else:
                assert float(rows[i][j]) == num[i, j]
        assert [c for c in rows[i][14:20] if c not in ("", "?")] == [c for c in cat[i] if c]
    assert 0.015 < num_missing[:, 1:].mean() < 0.025


def test_generator_matches_the_criterion_7_table():
    x, y = workloads.logistic_rows(1000, 6, 6, seed=0)
    table = synthetic.logistic_table(1000, 6, 6, seed=0)
    assert np.array_equal(np.array(table.columns, dtype=np.float64).T, x)
    assert np.array_equal(table.labels, y)


def _one_step(seed=0):
    x, y = workloads.logistic_rows(128, 6, 6, seed)
    model = MambaTabModel(ModelConfig(12), rng=seed)
    params = [p for _, p in model.named_parameters()]
    opt = training.AdamState.for_params(params)
    loss = training.bce_with_logits(model.forward(x), y)
    model.zero_grad()
    loss.backward()
    training.adam_step(params, opt, 1e-4)


def _snapshot(rec):
    """Every attribute the recorder may swap, by identity."""
    owners = list(rec.modules.values()) + [mambatab]
    owners += [obj for mod in rec.modules.values() for obj in vars(mod).values()
               if isinstance(obj, type) and obj.__module__ == mod.__name__]
    return {(id(o), k): v for o in owners for k, v in vars(o).items() if callable(v)}


def test_traced_run_restores_originals_and_counts_baseline_nodes():
    rec = spans.Recorder(mambatab)
    before = _snapshot(rec)
    with rec.installed():
        assert mambatab.tensor.matmul is not before[(id(mambatab.tensor), "matmul")]
        assert training.count_parameters.__wrapped__ is before[(id(training), "count_parameters")]
        _one_step()
    after = _snapshot(rec)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

    t = spans.SpanTable(rec.names, rec.spans)
    assert t.count(spans.BACKWARD) == 1
    assert len(t.leaf_tensor_ops()) == spans.BASELINE_NODES_PER_STEP


def test_restore_happens_when_the_body_raises():
    rec = spans.Recorder(mambatab)
    before = _snapshot(rec)
    with pytest.raises(RuntimeError), rec.installed():
        raise RuntimeError("body failed")
    assert all(_snapshot(rec)[k] is v for k, v in before.items())


def test_layer_metrics_find_steps_in_a_training_loop():
    from mambatab.tabular import EncodedMatrix
    x, y = workloads.logistic_rows(300, 6, 6, seed=1)
    names = [f"f{j}" for j in range(12)]
    rec = spans.Recorder(mambatab)
    with rec.installed():
        training.train_supervised(MambaTabModel(ModelConfig(12), rng=0),
                                  EncodedMatrix(x[:256], y[:256], names),
                                  EncodedMatrix(x[256:], y[256:], names),
                                  training.TrainConfig(max_epochs=3, patience=3))
    m, details = spans.layer_metrics(rec.names, rec.spans, rec.counts, repeats=1)
    assert m["training.steps"] == 6 and m["training.epochs"] == 3
    assert m["tensor.nodes_per_step"] == spans.BASELINE_NODES_PER_STEP
    assert m["training.val_s"] > 0 and m["metrics.auroc_calls"] == 3
    assert set(m) | {"package.import_s", "trace.untraced_wall_s", "trace.traced_wall_s",
                     "trace.overhead_s"} == set(spans.LAYER_UNITS)
