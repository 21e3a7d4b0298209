"""Acceptance gate: one test per release criterion, each printing a
pass line with the measured numbers (run with -s to see them).

Criterion 6 needs the public benchmark CSVs placed under data/ (see
data/README.md); when they are absent it is skipped and criterion 7,
the synthetic end-to-end run, stands in for it.
"""

import json
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from mambatab import cli, metrics, ssm, synthetic, tabular, tensor as T, training
from mambatab.cli import RunSpec, cmd_train, run_one_seed
from mambatab.model import MambaTabModel, ModelConfig, count_parameters, transfer_weights
from mambatab.tabular import SchemaConfig
from mambatab.tensor import Tensor
from mambatab.training import TrainConfig, train_incremental, train_supervised

from helpers import (
    check_gradients, mp_discretize, naive_selective_scan, pairwise_auroc,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# dataset key -> (csv, schema, minimum mean test AUROC over 10 seeds)
BENCHMARKS = {
    "credit-g": ("credit-g.csv", "credit-g.schema", 0.72),
    "credit-approval": ("credit-approval.csv", "credit-approval.schema", 0.93),
    "cylinder-bands": ("cylinder-bands.csv", "cylinder-bands.schema", 0.82),
}


def synthetic_splits(table, seed=0):
    tr, va, te = tabular.split(table, seed=seed)
    pre = tabular.fit(tr)
    return tuple(tabular.transform(pre, t) for t in (tr, va, te))


def test_criterion_1_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    def rand(*shape):
        return Tensor(rng.uniform(-1, 1, size=shape), requires_grad=True)

    # every differentiable operation
    for op in (T.texp, T.sigmoid, T.softplus, T.silu):
        x = rand(3, 4)
        check_gradients(lambda op=op, x=x: op(x).sum(), [x], tol=1e-4)
    x = Tensor(np.where(np.abs(rng.uniform(-1, 1, (3, 4))) < 1e-2, 0.1,
                        rng.uniform(-1, 1, (3, 4))), requires_grad=True)
    check_gradients(lambda: T.relu(x).sum(), [x], tol=1e-4)
    a, b = rand(3, 4), rand(4, 2)
    check_gradients(lambda: T.matmul(a, b).sum(), [a, b], tol=1e-4)
    p, q = rand(2, 3, 4), rand(3, 1)
    check_gradients(lambda: (p * q).sum(), [p, q], tol=1e-4)
    check_gradients(lambda: (p + q).mean(), [p, q], tol=1e-4)
    check_gradients(lambda: (p - q).sum(), [p, q], tol=1e-4)
    d = Tensor(rng.uniform(0.5, 1.5, size=(3, 1)), requires_grad=True)
    check_gradients(lambda: (p / d).sum(), [p, d], tol=1e-4)
    check_gradients(lambda: p[:, 1:, :3].sum(), [p], tol=1e-4)
    check_gradients(lambda: T.concat([p, p], axis=1).mean(), [p], tol=1e-4)
    g, bet = Tensor(rng.uniform(0.5, 1.5, 6), requires_grad=True), rand(6)
    xl = rand(4, 6)
    check_gradients(lambda: T.layer_norm(xl, g, bet).sum(), [xl, g, bet], tol=1e-4)
    u, k, cb = rand(2, 5, 3), rand(3, 4), rand(3)
    check_gradients(lambda: T.causal_conv1d(u, k, cb).sum(), [u, k, cb], tol=1e-4)
    z = rand(4, 1)
    y = rng.integers(0, 2, size=4).astype(float)
    check_gradients(lambda: training.bce_with_logits(z, y), [z], tol=1e-4)

    # the full model, every parameter
    cfg = ModelConfig(n_features=5, embed_dim=4, state_size=4, expand=2, n_blocks=2)
    model = MambaTabModel(cfg, rng=1)
    xin = rng.uniform(0, 1, size=(3, 5))
    labels = rng.integers(0, 2, size=(3,)).astype(float)
    params = [pp for _, pp in model.named_parameters()]
    worst = check_gradients(
        lambda: training.bce_with_logits(model.forward(xin), labels), params, tol=1e-4)

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"gradient checks took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 1: gradients match finite differences "
          f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_scan_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        nb = int(rng.integers(1, 5))
        nl = int(rng.integers(1, 9))
        nd = int(rng.integers(1, 9))
        nn = int(rng.integers(1, 9))
        u = Tensor(rng.uniform(-1, 1, (nb, nl, nd)))
        delta = Tensor(rng.uniform(0.0, 1.5, (nb, nl, nd)))
        b_t = Tensor(rng.uniform(-1, 1, (nb, nl, nn)))
        c_t = Tensor(rng.uniform(-1, 1, (nb, nl, nn)))
        a = Tensor(-rng.uniform(0.05, 4.0, (nd, nn)))
        d_skip = Tensor(rng.uniform(-1, 1, nd))
        got = ssm.selective_scan(u, delta, b_t, c_t, a, d_skip).data
        ref = naive_selective_scan(u.data, delta.data, b_t.data, c_t.data, a.data, d_skip.data)
        worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst < 1e-12
    print(f"\n[PASS] criterion 2: scan matches naive recurrence on 100 configs "
          f"(worst abs err {worst:.2e})")


def test_criterion_3_discretization():
    rng = np.random.default_rng(2)
    worst = 0.0
    for i in range(1000):
        if i % 4 == 0:
            a = rng.uniform(-1.0, 1.0) * 1e-12   # exercise the limit branch
        elif i % 4 == 1:
            a = 0.0
        else:
            a = -rng.uniform(1e-6, 6.0)
        b = rng.uniform(-3.0, 3.0)
        delta = rng.uniform(0.0, 3.0)
        a_bar, b_bar = ssm.discretize(a, b, delta)
        a_ref, b_ref = mp_discretize(a, b, delta)
        worst = max(worst,
                    abs(a_bar - a_ref) / max(1.0, abs(a_ref)),
                    abs(b_bar - b_ref) / max(1.0, abs(b_ref)))
    assert worst < 1e-12
    print(f"\n[PASS] criterion 3: ZOH closed form on 1000 scalars "
          f"(worst err {worst:.2e})")


def test_criterion_4_auroc_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(100):
        m = int(rng.integers(2, 201))
        labels = rng.integers(0, 2, size=m)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.normal(size=m)
        if i % 2 == 0:
            scores = np.round(scores, 1)   # force ties
        worst = max(worst, abs(metrics.auroc(scores, labels) - pairwise_auroc(scores, labels)))
    assert worst < 1e-12
    print(f"\n[PASS] criterion 4: AUROC matches pairwise counting on 100 instances "
          f"(worst err {worst:.2e})")


def test_criterion_5_parameter_count():
    model = MambaTabModel(ModelConfig(n_features=20), rng=0)
    count = count_parameters(model)
    assert 12_000 <= count <= 16_000, f"default count {count} outside published range"

    counts = [count_parameters(MambaTabModel(ModelConfig(n_features=20, n_blocks=m), rng=0))
              for m in range(1, 11)]
    diffs = np.diff(counts)
    per_block = ssm.block_param_count(32, 2, 32, 4, 2)
    assert np.all(diffs == per_block), "param count is not exactly linear in block count"
    fitted = counts[0] + per_block * np.arange(10)
    assert np.array_equal(fitted, counts), "nonzero residual from the linear fit"
    print(f"\n[PASS] criterion 5: default model has {count} parameters "
          f"(~13K), exactly linear in blocks (+{per_block}/block)")


@pytest.mark.parametrize("key", sorted(BENCHMARKS))
def test_criterion_6_benchmark_datasets(key, tmp_path):
    csv_name, schema_name, min_auroc = BENCHMARKS[key]
    csv_path = DATA_DIR / csv_name
    schema_path = DATA_DIR / schema_name
    if not (csv_path.exists() and schema_path.exists()):
        pytest.skip(f"{csv_path} not present; criterion 6 replaced by criterion 7 "
                    "(see data/README.md to enable)")
    spec = RunSpec(dataset=str(csv_path), schema=str(schema_path),
                   out_dir=str(tmp_path / key), seeds=list(range(10)))
    t0 = time.perf_counter()
    summary = cmd_train(spec, quiet=True)
    elapsed = time.perf_counter() - t0
    assert summary["auroc_mean"] >= min_auroc, (
        f"{key}: mean AUROC {summary['auroc_mean']:.3f} below {min_auroc}")
    assert elapsed < 300 * 10, f"{key}: training took {elapsed:.0f}s"
    print(f"\n[PASS] criterion 6 ({key}): mean test AUROC "
          f"{summary['auroc_mean']:.3f} >= {min_auroc} ({elapsed:.0f}s, 10 seeds)")


def test_criterion_7_synthetic_end_to_end():
    schema = SchemaConfig(label_column="label", positive_label="1")
    spec = RunSpec(dataset="synthetic", schema="synthetic", out_dir="unused")

    table = synthetic.logistic_table(1000, 6, 6, seed=0)
    t0 = time.perf_counter()
    outcome = run_one_seed(spec, table, schema, seed=0)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"informative run took {elapsed:.1f}s"
    assert outcome.result.auroc >= 0.90, f"informative AUROC {outcome.result.auroc:.3f}"

    noise_aurocs = []
    for seed in range(5):
        noise = synthetic.noise_table(1000, 12, seed=100 + seed)
        noise_aurocs.append(run_one_seed(spec, noise, schema, seed=seed).result.auroc)
    noise_mean = float(np.mean(noise_aurocs))
    assert 0.45 <= noise_mean <= 0.55, f"noise AUROC {noise_mean:.3f} outside [0.45, 0.55]"
    print(f"\n[PASS] criterion 7: informative AUROC {outcome.result.auroc:.3f} "
          f"in {elapsed:.1f}s; noise AUROC {noise_mean:.3f} (mean of 5 seeds)")


def test_criterion_8_incremental_learning():
    plan = tabular.make_incremental_plan(9, seed=3)
    table = synthetic.staged_signal_table(900, 9, sorted(plan.s3), seed=11)
    tr, va, te = tabular.split(table, seed=0)
    pre = tabular.fit(tr)
    stages = training.incremental_stages(tabular.transform(pre, tr), tabular.transform(pre, va),
                                         plan.cumulative())
    test_full = tabular.transform(pre, te)
    base = ModelConfig(n_features=9)
    cfg = TrainConfig(seed=2)
    final, reports = train_incremental(stages, base, cfg, init_rng=0)
    assert len(reports) == 3

    stage1_model, _ = train_supervised(
        MambaTabModel(replace(base, n_features=len(stages[0].columns)), rng=0),
        stages[0].train, stages[0].val, cfg)
    test_s1 = test_full.values[:, stages[0].columns]
    auc_final = metrics.auroc(final.predict_proba(test_full.values), test_full.labels)
    auc_s1 = metrics.auroc(stage1_model.predict_proba(test_s1), test_full.labels)
    assert auc_final >= auc_s1 + 0.10, (
        f"incremental {auc_final:.3f} vs stage-1-only {auc_s1:.3f}")

    # bit-exact transfer: replay stage 1, grow it, compare tensors
    replay, _ = train_supervised(
        MambaTabModel(replace(base, n_features=len(stages[0].columns)), rng=0),
        stages[0].train, stages[0].val,
        replace(cfg, seed=training.stage_seed(cfg.seed, 0)))
    mapping = [stages[1].columns.index(c) for c in stages[0].columns]
    grown = transfer_weights(replay, replace(base, n_features=len(stages[1].columns)), mapping)
    s_old, s_new = replay.state_dict(), grown.state_dict()
    for name in s_old:
        if name == "embed.w":
            assert np.array_equal(s_new[name][mapping, :], s_old[name])
        else:
            assert np.array_equal(s_new[name], s_old[name])
    print(f"\n[PASS] criterion 8: incremental AUROC {auc_final:.3f} vs "
          f"stage-1-only {auc_s1:.3f}; transfer bit-exact")


def test_criterion_9_ssl_regime():
    rng = np.random.default_rng(4)
    for n in (5, 8, 12, 13):
        masks = training.corruption_masks(rng, 256, n)
        assert np.all(masks.sum(axis=1) == n // 2), f"mask row weight wrong for n={n}"

    table = synthetic.logistic_table(1000, 6, 6, seed=0)
    tr, va, te = synthetic_splits(table)
    recon = MambaTabModel(ModelConfig(n_features=12, head="reconstruction"), rng=0)
    body, report = training.pretrain_ssl(recon, tr, va,
                                         TrainConfig(seed=0, max_epochs=150, lr=1e-3))
    reduction = 1.0 - min(report.val_loss) / report.val_loss[0]
    assert reduction >= 0.5, f"val reconstruction loss fell only {reduction:.1%}"

    spec = RunSpec(dataset="synthetic", schema="synthetic", out_dir="unused",
                   regime="ssl", max_epochs=40)
    outcome = run_one_seed(spec, table, SchemaConfig("label", "1"), seed=0)
    r = outcome.result
    assert 0.0 <= r.auroc <= 1.0 and 0.0 <= r.accuracy <= 1.0
    assert r.n_pos + r.n_neg == te.n_rows
    print(f"\n[PASS] criterion 9: masks zero exactly n//2 features; "
          f"pretraining cut val L2 by {reduction:.0%}; "
          f"SSL fine-tune AUROC {r.auroc:.3f}")


def test_criterion_10_layer_norm_ablation(tmp_path):
    csv_path = tmp_path / "syn.csv"
    synthetic.write_csv(synthetic.logistic_table(400, 4, 2, seed=5), csv_path)
    schema_path = tmp_path / "syn.schema"
    schema_path.write_text("label_column = label\npositive_label = 1\n")
    code_on = cli.main([
        "train", "--dataset", str(csv_path), "--schema", str(schema_path),
        "--out", str(tmp_path / "ln_on"), "--seeds", "0", "--max-epochs", "10", "--quiet"])
    code_off = cli.main([
        "train", "--dataset", str(csv_path), "--schema", str(schema_path),
        "--out", str(tmp_path / "ln_off"), "--seeds", "0", "--max-epochs", "10",
        "--no-layer-norm", "--quiet"])
    assert code_on == 0 and code_off == 0, "a variant failed numerically"
    on = json.loads((tmp_path / "ln_on" / "runspec.json").read_text())
    off = json.loads((tmp_path / "ln_off" / "runspec.json").read_text())
    assert on["use_layer_norm"] is True and off["use_layer_norm"] is False
    on_csv = (tmp_path / "ln_on" / "summary.csv").read_text()
    off_csv = (tmp_path / "ln_off" / "summary.csv").read_text()
    assert "True" in on_csv.splitlines()[1] and "False" in off_csv.splitlines()[1]
    print("\n[PASS] criterion 10: --no-layer-norm trains cleanly and is "
          "recorded in summary and runspec metadata")


def test_criterion_11_determinism(tmp_path):
    csv_path = tmp_path / "syn.csv"
    synthetic.write_csv(synthetic.logistic_table(300, 4, 2, seed=6), csv_path)
    schema_path = tmp_path / "syn.schema"
    schema_path.write_text("label_column = label\npositive_label = 1\n")
    out = tmp_path / "run"
    argv = ["train", "--dataset", str(csv_path), "--schema", str(schema_path),
            "--out", str(out), "--seeds", "2", "--max-epochs", "12", "--quiet"]
    assert cli.main(argv) == 0
    tracked = ["seed_2/report.json", "seed_2/model.ckpt", "summary.csv",
               "per_seed.csv", "summary.txt", "runspec.json"]
    first = {rel: (out / rel).read_bytes() for rel in tracked}
    assert cli.main(argv) == 0
    for rel in tracked:
        assert (out / rel).read_bytes() == first[rel], f"{rel} not reproducible"
    print("\n[PASS] criterion 11: repeated cmd_train is byte-identical "
          "(reports, checkpoints, summaries; timing.json excluded)")
