import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from mambatab import metrics, model as model_mod, synthetic, tabular, tensor as T, training
from mambatab.model import MambaTabModel, ModelConfig, swap_head, transfer_weights
from mambatab.tensor import Tensor
from mambatab.training import (
    AdamState, EarlyStopper, Stage, TrainConfig, adam_step, bce_with_logits,
    corruption_masks, cosine_lr, derive_rng, finetune_after_ssl, mse_loss,
    pretrain_ssl, train_incremental, train_supervised,
)


def encoded(table, seed=0):
    tr, va, te = tabular.split(table, seed=seed)
    pre = tabular.fit(tr)
    return tuple(tabular.transform(pre, x) for x in (tr, va, te))


class TestBce:
    def test_zero_logit(self):
        loss = bce_with_logits(Tensor([[0.0]]), [1])
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_huge_logit_no_overflow(self):
        loss = bce_with_logits(Tensor([[50.0]]), [1])
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_mean_of_two(self):
        loss = bce_with_logits(Tensor([[0.0], [0.0]]), [1, 0])
        assert loss.item() == pytest.approx(0.693147, abs=1e-6)

    def test_gradient_is_sigmoid_minus_label(self):
        z = Tensor([[0.4], [-1.3], [2.0]], requires_grad=True)
        y = np.array([1.0, 0.0, 1.0])
        bce_with_logits(z, y).backward()
        expected = (1.0 / (1.0 + np.exp(-z.data[:, 0])) - y) / 3.0
        assert np.allclose(z.grad[:, 0], expected, atol=1e-12)


class TestAdam:
    def test_first_step_identity(self):
        w = Tensor([1.0], requires_grad=True)
        w.grad = np.array([1.0])
        state = AdamState.for_params([w])
        adam_step([w], state, lr=0.1)
        assert w.data[0] == pytest.approx(1.0 - 0.1, abs=1e-8)

    def test_no_grad_no_motion(self):
        w = Tensor([3.0], requires_grad=True)
        state = AdamState.for_params([w])
        for _ in range(5):
            adam_step([w], state, lr=0.1)
        assert w.data[0] == 3.0

    def test_deterministic_trajectory(self):
        def run():
            rng = np.random.default_rng(0)
            w = Tensor(rng.normal(size=4), requires_grad=True)
            state = AdamState.for_params([w])
            for i in range(20):
                w.zero_grad()
                (w * w).sum().backward()
                adam_step([w], state, lr=0.05)
            return w.data.copy()

        assert np.array_equal(run(), run())


@pytest.mark.parametrize("field,value", [("patience", 0), ("lr", 0.0), ("lr", -1e-3)])
def test_train_config_rejects_bad_value(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0, 1000, 1e-4) == 1e-4
        assert cosine_lr(1000, 1000, 1e-4) == pytest.approx(0.0, abs=1e-20)
        assert cosine_lr(500, 1000, 1e-4) == pytest.approx(5e-5)

    def test_range_check(self):
        with pytest.raises(ValueError):
            cosine_lr(11, 10, 1e-4)


class TestEarlyStopper:
    def test_stops_after_immediate_rise_with_patience_one(self):
        s = EarlyStopper(patience=1)
        assert s.update(1.0, epoch=1) is False
        assert s.update(1.1, epoch=2) is True
        assert s.best_epoch == 1

    def test_tie_is_not_improvement(self):
        s = EarlyStopper(patience=2)
        s.update(0.5, 1)
        assert s.update(0.5, 2) is False
        assert s.update(0.5, 3) is True
        assert s.best_epoch == 1

    def test_recovery_resets_counter(self):
        s = EarlyStopper(patience=2)
        for epoch, v in enumerate([1.0, 1.2, 0.9, 1.0, 0.8], start=1):
            assert s.update(v, epoch) is False
        assert s.best == 0.8 and s.best_epoch == 5


class TestTrainSupervised:
    def test_separable_toy_reaches_high_auroc(self):
        table = synthetic.logistic_table(200, 2, 0, seed=1, scale=30.0)
        tr, va, te = encoded(table)
        model = MambaTabModel(ModelConfig(n_features=2, embed_dim=8, state_size=4), rng=0)
        cfg = TrainConfig(seed=0, max_epochs=200, lr=1e-3)
        best, report = train_supervised(model, tr, va, cfg)
        assert metrics.auroc(best.predict_proba(va.values), va.labels) >= 0.95

    def test_head_kind_checked(self):
        tr, va, _ = encoded(synthetic.logistic_table(60, 3, 1, seed=2))
        cfg = TrainConfig(seed=0, max_epochs=1)
        recon = MambaTabModel(ModelConfig(n_features=4, embed_dim=8, state_size=4,
                                          head="reconstruction"), rng=0)
        with pytest.raises(ValueError, match="train_supervised needs a classification head"):
            train_supervised(recon, tr, va, cfg)
        clf = MambaTabModel(ModelConfig(n_features=4, embed_dim=8, state_size=4), rng=0)
        with pytest.raises(ValueError, match="pretrain_ssl needs a reconstruction head"):
            pretrain_ssl(clf, tr, va, cfg)

    def test_one_class_validation_split_records_no_auroc(self):
        tr, va, _ = encoded(synthetic.logistic_table(120, 3, 1, seed=2))
        va = replace(va, labels=np.zeros_like(va.labels))
        model = MambaTabModel(ModelConfig(n_features=4, embed_dim=8, state_size=4), rng=0)
        _, report = train_supervised(model, tr, va, TrainConfig(seed=0, max_epochs=3))
        assert report.val_auroc == [None] * 3
        assert all(math.isfinite(v) for v in report.val_loss)

    def test_best_epoch_is_argmin_of_val_loss(self):
        table = synthetic.logistic_table(120, 3, 1, seed=2)
        tr, va, _ = encoded(table)
        model = MambaTabModel(ModelConfig(n_features=4, embed_dim=8, state_size=4), rng=0)
        _, report = train_supervised(model, tr, va, TrainConfig(seed=0, max_epochs=30, lr=1e-3))
        assert report.best_epoch == int(np.argmin(report.val_loss)) + 1

    def test_early_stop_contract(self):
        table = synthetic.logistic_table(120, 3, 1, seed=3)
        tr, va, _ = encoded(table)
        model = MambaTabModel(ModelConfig(n_features=4, embed_dim=8, state_size=4), rng=0)
        cfg = TrainConfig(seed=0, max_epochs=500, patience=3, lr=5e-3)
        _, report = train_supervised(model, tr, va, cfg)
        if report.early_stopped:
            tail = report.val_loss[report.best_epoch:]
            assert len(tail) == 3
            assert all(v >= min(report.val_loss) for v in tail)

    def test_same_seed_identical_reports(self):
        table = synthetic.logistic_table(150, 3, 2, seed=4)
        tr, va, _ = encoded(table)
        runs = []
        for _ in range(2):
            model = MambaTabModel(ModelConfig(n_features=5, embed_dim=8, state_size=4), rng=3)
            _, report = train_supervised(model, tr, va, TrainConfig(seed=5, max_epochs=12))
            runs.append(asdict(report))
        assert runs[0] == runs[1]

    def test_returned_model_is_best_snapshot(self):
        table = synthetic.logistic_table(150, 3, 2, seed=5)
        tr, va, _ = encoded(table)
        model = MambaTabModel(ModelConfig(n_features=5, embed_dim=8, state_size=4), rng=3)
        cfg = TrainConfig(seed=5, max_epochs=60, patience=3, lr=1e-2)
        best, report = train_supervised(model, tr, va, cfg)
        assert best is model                           # restored in place, not copied
        assert report.best_epoch < report.epochs_run   # the snapshot is not the last epoch
        logits = best.forward(va.values)
        vl = bce_with_logits(logits, va.labels).item()
        assert vl == pytest.approx(min(report.val_loss), abs=1e-12)
        auc = metrics.auroc(best.predict_proba(va.values), va.labels)
        assert report.val_auroc[report.best_epoch - 1] == auc

    def test_validation_auroc_ranks_logits(self):
        # Spread the head's logits so about half the validation rows sit above
        # 40, where the float64 sigmoid is exactly 1.0 and probabilities tie.
        table = synthetic.logistic_table(300, 3, 2, seed=5)
        tr, va, _ = encoded(table)
        model = MambaTabModel(ModelConfig(n_features=5, embed_dim=8, state_size=4), rng=3)
        z = model.predict_logits(va.values)
        scale = 50.0 / (z.max() - z.min())
        model.head_w.data *= scale
        model.head_b.data[:] = model.head_b.data * scale + 40.0 - scale * np.median(z)
        best, report = train_supervised(model, tr, va, TrainConfig(seed=0, max_epochs=1, lr=1e-9))
        logits = best.predict_logits(va.values)
        assert np.sum(logits > 40.0) >= 5
        assert report.val_auroc[0] == metrics.auroc(logits, va.labels)
        assert report.val_auroc[0] != metrics.auroc(best.predict_proba(va.values), va.labels)

    def test_ssl_returned_model_is_best_snapshot(self):
        table = synthetic.logistic_table(150, 3, 2, seed=5)
        tr, va, _ = encoded(table)
        cfg = ModelConfig(n_features=5, embed_dim=8, state_size=4, head="reconstruction")
        tcfg = TrainConfig(seed=5, max_epochs=60, patience=3, lr=1e-2)
        best, report = pretrain_ssl(MambaTabModel(cfg, rng=3), tr, va, tcfg)
        assert report.best_epoch < report.epochs_run
        mask = corruption_masks(derive_rng(5, training._STREAM_VAL_MASK), va.n_rows, 5)
        vl = mse_loss(best.forward(np.where(mask, 0.0, va.values)), va.values).item()
        assert vl == pytest.approx(min(report.val_loss[1:]), abs=1e-12)

    def test_numeric_failure_aborts_with_partial_report(self):
        table = synthetic.logistic_table(120, 3, 1, seed=14)
        tr, va, _ = encoded(table)
        # layer norm would rescale the poison away, so ablate it
        model = MambaTabModel(ModelConfig(n_features=4, embed_dim=8, state_size=4,
                                          use_layer_norm=False), rng=0)
        model.embed_w.data[:] = 1e300
        from mambatab.tensor import NumericsError
        with pytest.raises(NumericsError) as exc:
            train_supervised(model, tr, va, TrainConfig(seed=0, max_epochs=5))
        assert "epoch 1" in str(exc.value)
        assert isinstance(exc.value.report, training.TrainReport)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")   # layer norm's var
    def test_validation_failure_aborts_with_partial_report(self):
        # 105 training rows make one batch per epoch, so the first validation
        # runs right after the first lr=1e300 step.
        tr, va, _ = encoded(synthetic.logistic_table(150, 3, 1, seed=14))
        assert tr.n_rows <= TrainConfig.batch_size
        model = MambaTabModel(ModelConfig(n_features=tr.values.shape[1]), rng=0)
        with pytest.raises(T.NumericsError) as exc:
            train_supervised(model, tr, va, TrainConfig(lr=1e300))
        assert "epoch 1 (seed 0)" in str(exc.value)
        report = exc.value.report
        assert isinstance(report, training.TrainReport)
        assert len(report.train_loss) == 1 and report.val_loss == []

    def test_single_step_descent_on_fixed_batch(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 1, size=(32, 4))
        y = (x[:, 0] > 0.5).astype(int)
        model = MambaTabModel(ModelConfig(n_features=4, embed_dim=8, state_size=4), rng=0)
        params = [p for _, p in model.named_parameters()]
        state = AdamState.for_params(params)
        loss0 = bce_with_logits(model.forward(x), y)
        model.zero_grad()
        loss0.backward()
        adam_step(params, state, lr=1e-3)
        loss1 = bce_with_logits(model.forward(x), y)
        assert loss1.item() < loss0.item()

    def test_default_step_builds_56_graph_nodes(self, monkeypatch):
        # One default step (B=128, n=12): forward, BCE and backward. The
        # benchmark's tensor.nodes_per_step reports the same count on train_c7.
        made, make = [], T._make

        def counting_make(*args):
            made.append(args[-1])   # the op name
            return make(*args)

        monkeypatch.setattr(T, "_make", counting_make)
        rng = np.random.default_rng(7)
        x = rng.uniform(0, 1, size=(TrainConfig.batch_size, 12))
        model = MambaTabModel(ModelConfig(n_features=12), rng=0)
        loss = bce_with_logits(model.forward(x), rng.integers(0, 2, size=len(x)))
        model.zero_grad()
        loss.backward()
        assert len(made) == 56, made

    def test_inference_builds_no_graph(self, monkeypatch):
        made, make = [], T._make

        def counting_make(*args):
            made.append(args[-1])
            return make(*args)

        monkeypatch.setattr(T, "_make", counting_make)
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, size=(3000, 12))
        model = MambaTabModel(ModelConfig(n_features=12), rng=0)
        model.predict_logits(x)
        assert made == []
        # The forward part of validation: a loss that builds no node of its own.
        training._validation_pass(model, x, rng.integers(0, 2, size=len(x)),
                                  lambda out, target: Tensor(0.0))
        assert made == []


class TestSsl:
    def test_mask_has_exactly_half_zeroed(self):
        rng = np.random.default_rng(0)
        for n in (4, 5, 9, 12):
            mask = corruption_masks(rng, 64, n)
            assert np.all(mask.sum(axis=1) == n // 2)

    def test_mask_frequency_near_half(self):
        rng = np.random.default_rng(1)
        mask = corruption_masks(rng, 10_000, 10)
        freq = mask.mean(axis=0)
        assert np.all(np.abs(freq - 0.5) <= 0.02)

    def test_pretraining_reduces_reconstruction_loss(self):
        table = synthetic.logistic_table(400, 4, 2, seed=7)
        tr, va, _ = encoded(table)
        cfg = ModelConfig(n_features=6, embed_dim=8, state_size=4, head="reconstruction")
        model = MambaTabModel(cfg, rng=0)
        best, report = pretrain_ssl(model, tr, va, TrainConfig(seed=0, max_epochs=150, lr=1e-3))
        assert min(report.val_loss) <= 0.5 * report.val_loss[0]

    def test_constant_features_reconstructed_quickly(self):
        values = np.tile(np.linspace(0.1, 0.9, 5), (120, 1))
        em = tabular.EncodedMatrix(values, np.zeros(120, dtype=int), [f"f{i}" for i in range(5)])
        cfg = ModelConfig(n_features=5, embed_dim=8, state_size=4, head="reconstruction")
        model = MambaTabModel(cfg, rng=0)
        best, report = pretrain_ssl(model, em, em, TrainConfig(seed=0, max_epochs=300, lr=5e-3))
        assert min(report.val_loss) < 0.01

    def test_finetune_head_is_fresh_and_body_preserved(self):
        table = synthetic.logistic_table(200, 3, 1, seed=8)
        tr, va, _ = encoded(table)
        cfg = ModelConfig(n_features=4, embed_dim=8, state_size=4, head="reconstruction")
        model = MambaTabModel(cfg, rng=0)
        pre, _ = pretrain_ssl(model, tr, va, TrainConfig(seed=0, max_epochs=3))
        head_rng = derive_rng(0, training._STREAM_HEAD)
        swapped = swap_head(pre, "classification", head_rng)
        for name, arr in pre.state_dict().items():
            if name.startswith("head."):
                continue
            assert np.array_equal(swapped.state_dict()[name], arr)
        assert swapped.head_w.shape == (8, 1)

    def test_ssl_finetune_not_worse_than_scratch(self):
        # regression guard: pretraining must not cost ranking quality
        table = synthetic.logistic_table(1000, 6, 6, seed=0)
        tr, va, te = encoded(table)
        cfg = TrainConfig(seed=0, lr=1e-3, max_epochs=150)
        recon = MambaTabModel(ModelConfig(n_features=12, head="reconstruction"), rng=0)
        body, _ = pretrain_ssl(recon, tr, va, cfg)
        tuned, _ = finetune_after_ssl(body, tr, va, cfg)
        scratch, _ = train_supervised(MambaTabModel(ModelConfig(n_features=12), rng=0),
                                      tr, va, cfg)
        auc_ssl = metrics.auroc(tuned.predict_proba(te.values), te.labels)
        auc_scratch = metrics.auroc(scratch.predict_proba(te.values), te.labels)
        assert auc_ssl >= auc_scratch - 0.02

    def test_zero_epoch_pretrain_equals_plain_supervised_with_fresh_head(self):
        table = synthetic.logistic_table(200, 3, 1, seed=9)
        tr, va, _ = encoded(table)
        cfg_recon = ModelConfig(n_features=4, embed_dim=8, state_size=4, head="reconstruction")
        tcfg = TrainConfig(seed=11, max_epochs=8)

        model_a = MambaTabModel(cfg_recon, rng=2)
        body, _ = pretrain_ssl(model_a, tr, va, replace(tcfg, max_epochs=0))
        m1, rep1 = finetune_after_ssl(body, tr, va, tcfg)

        model_b = MambaTabModel(cfg_recon, rng=2)
        fresh = swap_head(model_b, "classification", derive_rng(tcfg.seed, training._STREAM_HEAD))
        m2, rep2 = train_supervised(fresh, tr, va, tcfg)

        assert asdict(rep1) == asdict(rep2)
        for name, arr in m1.state_dict().items():
            assert np.array_equal(m2.state_dict()[name], arr)


class TestIncremental:
    @staticmethod
    def build_stages(table, plan, seed=0):
        tr, va, te = tabular.split(table, seed=seed)
        pre = tabular.fit(tr)
        stages = []
        cum = plan.cumulative()
        tr_chunks = np.array_split(np.arange(tr.n_rows), 3)
        va_chunks = np.array_split(np.arange(va.n_rows), 3)
        for i, cols in enumerate(cum):
            st = Stage(
                train=tabular.transform(pre, tr.select_rows(tr_chunks[i]).select_columns(cols)),
                val=tabular.transform(pre, va.select_rows(va_chunks[i]).select_columns(cols)),
                columns=cols,
            )
            stages.append(st)
        test_full = tabular.transform(pre, te)
        return stages, test_full

    def test_single_stage_reduces_to_supervised(self):
        table = synthetic.logistic_table(150, 3, 1, seed=10)
        tr, va, _ = encoded(table)
        stage = Stage(train=tr, val=va, columns=list(range(4)))
        base = ModelConfig(n_features=4, embed_dim=8, state_size=4)
        tcfg = TrainConfig(seed=0, max_epochs=6)
        m_inc, reps = train_incremental([stage], base, tcfg, init_rng=1)
        m_sup, rep = train_supervised(
            MambaTabModel(base, rng=1), tr, va,
            replace(tcfg, seed=training.stage_seed(0, 0)))
        assert len(reps) == 1
        assert asdict(reps[0]) == asdict(rep)

    def test_stage3_signal_beats_stage1_only(self):
        plan = tabular.make_incremental_plan(9, seed=3)
        table = synthetic.staged_signal_table(900, 9, sorted(plan.s3), seed=11)
        stages, test_full = self.build_stages(table, plan)
        base = ModelConfig(n_features=9, embed_dim=16, state_size=8)
        tcfg = TrainConfig(seed=2, max_epochs=400, lr=1e-3)
        final, reports = train_incremental(stages, base, tcfg, init_rng=0)
        assert len(reports) == 3

        stage1_only, _ = train_supervised(
            MambaTabModel(ModelConfig(n_features=len(plan.set1), embed_dim=16, state_size=8), rng=0),
            stages[0].train, stages[0].val, tcfg)
        test_s1 = tabular.EncodedMatrix(
            test_full.values[:, plan.set1], test_full.labels,
            [test_full.column_names[j] for j in plan.set1])
        auc_final = metrics.auroc(final.predict_proba(test_full.values), test_full.labels)
        auc_s1 = metrics.auroc(stage1_only.predict_proba(test_s1.values), test_s1.labels)
        assert auc_final >= auc_s1 + 0.10

    def test_transfer_is_bit_exact_between_stages(self):
        plan = tabular.make_incremental_plan(6, seed=4)
        table = synthetic.logistic_table(300, 4, 2, seed=12)
        stages, _ = self.build_stages(table, plan)
        base = ModelConfig(n_features=6, embed_dim=8, state_size=4)
        tcfg = TrainConfig(seed=3, max_epochs=4)

        # replay stage 1 exactly, then check the stage-2 starting weights
        stage1_model, _ = train_supervised(
            MambaTabModel(replace(base, n_features=len(stages[0].columns)), rng=0),
            stages[0].train, stages[0].val,
            replace(tcfg, seed=training.stage_seed(3, 0)))
        from mambatab.model import transfer_weights
        mapping = [stages[1].columns.index(c) for c in stages[0].columns]
        grown = transfer_weights(stage1_model,
                                 replace(base, n_features=len(stages[1].columns)), mapping)
        s_old, s_new = stage1_model.state_dict(), grown.state_dict()
        for name in s_old:
            if name == "embed.w":
                assert np.array_equal(s_new[name][mapping, :], s_old[name])
            else:
                assert np.array_equal(s_new[name], s_old[name])

    def test_inconsistent_plans_rejected(self):
        table = synthetic.logistic_table(200, 3, 3, seed=13)
        tr, va, _ = encoded(table)
        bad = [
            Stage(train=tr, val=va, columns=[0, 1, 2, 3, 4, 5]),
            Stage(train=tr, val=va, columns=[0, 1]),
        ]
        with pytest.raises(ValueError):
            train_incremental(bad, ModelConfig(n_features=6, embed_dim=8, state_size=4),
                              TrainConfig(seed=0, max_epochs=1))

    def test_unsorted_stage_columns_rejected(self):
        tr, va, _ = encoded(synthetic.logistic_table(200, 3, 3, seed=13))
        stages = [Stage(train=tr, val=va, columns=[0, 1]),
                  Stage(train=tr, val=va, columns=[2, 0, 1])]
        with pytest.raises(ValueError, match="stage columns must be sorted"):
            train_incremental(stages, ModelConfig(n_features=6, embed_dim=8, state_size=4),
                              TrainConfig(seed=0, max_epochs=1))


def assert_views_tile_flat(model):
    """Each parameter's data is the C-contiguous view of its own layout slice
    of ``model.flat``, and the slices cover the vector in layout order."""
    flat = model.flat
    assert flat.dtype == np.float64 and flat.ndim == 1 and flat.flags.c_contiguous
    base = flat.__array_interface__["data"][0]
    offset = 0
    for (name, shape), (own_name, p) in zip(model.config.layout(), model.named_parameters(),
                                            strict=True):
        assert own_name == name and p.shape == shape
        assert np.shares_memory(p.data, flat) and p.data.flags.c_contiguous, name
        assert p.data.__array_interface__["data"][0] == base + 8 * offset, name
        offset += p.size
    assert offset == flat.size


FLAT_CFG = ModelConfig(n_features=5, embed_dim=8, state_size=4, n_blocks=2)
FLAT_SSL = replace(FLAT_CFG, head="reconstruction")
FLAT_FIT = TrainConfig(seed=0, max_epochs=3, lr=1e-2)


def fit_data():
    return encoded(synthetic.logistic_table(150, 3, 2, seed=5))[:2]


def loaded(tmp_path):
    model_mod.save(MambaTabModel(FLAT_CFG, rng=1), tmp_path / "m.ckpt")
    return model_mod.load(tmp_path / "m.ckpt")


MODEL_SOURCES = {
    "constructed": lambda tmp_path: MambaTabModel(FLAT_CFG, rng=1),
    "loaded": loaded,
    "transferred": lambda tmp_path: transfer_weights(
        MambaTabModel(replace(FLAT_CFG, n_features=3), rng=1), FLAT_CFG, [4, 0, 2]),
    "head_swapped": lambda tmp_path: swap_head(MambaTabModel(FLAT_SSL, rng=1), "classification", 2),
    "supervised": lambda tmp_path: train_supervised(
        MambaTabModel(FLAT_CFG, rng=1), *fit_data(), FLAT_FIT)[0],
    "ssl": lambda tmp_path: pretrain_ssl(MambaTabModel(FLAT_SSL, rng=1), *fit_data(), FLAT_FIT)[0],
}


class TestFlatStorage:
    @pytest.mark.parametrize("source", MODEL_SOURCES)
    def test_parameters_are_views_of_one_vector(self, source, tmp_path):
        assert_views_tile_flat(MODEL_SOURCES[source](tmp_path))

    def test_a_log_stays_bit_identical_through_training(self):
        # a_log never gets a gradient, so flat Adam's zero-gradient slot must leave it be
        model = MambaTabModel(FLAT_CFG, rng=1)
        start = model.flat.copy()
        a_logs = [block.a_log.data.tobytes() for block in model.blocks]
        best, report = train_supervised(model, *fit_data(), FLAT_FIT)
        assert report.best_epoch >= 1 and not np.array_equal(best.flat, start)
        assert [block.a_log.data.tobytes() for block in best.blocks] == a_logs
