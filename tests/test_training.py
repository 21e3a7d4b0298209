import hashlib
import itertools
import math
import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

from mambatab import metrics, model as model_mod, ssm, synthetic, tabular, tensor as T, training
from mambatab.model import MambaTabModel, ModelConfig, swap_head, transfer_weights
from mambatab.tensor import Tensor
from mambatab.training import (
    AdamState, Stage, TrainConfig, TrainReport, adam_step, bce_with_logits,
    corruption_masks, cosine_lr, derive_rng, finetune_after_ssl, mse_loss,
    pretrain_ssl, train_incremental, train_supervised,
)

from helpers import gc_off, reference_transform


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

    @staticmethod
    def default_model_with_grads(seed):
        """A seeded default model whose gradients span several magnitudes,
        with ``a_log``'s left ``None`` as in training."""
        model = MambaTabModel(ModelConfig(n_features=12), rng=0)
        named = model.named_parameters()
        rng = np.random.default_rng(seed)
        for name, p in named:
            scale = 10.0 ** rng.integers(-6, 3)
            p.grad = None if name.endswith("a_log") else rng.normal(0.0, scale, p.shape)
        return model, [p for _, p in named]

    def test_arithmetic_is_pinned(self):
        # The digest was computed with adam_step written as plain numpy
        # expressions; reordering any of its float operations changes it.
        model, params = self.default_model_with_grads(21)
        assert any(p.grad is None for p in params)
        state = AdamState.for_params(params)
        for lr in (1e-2, 1e-2, 3e-4, 3e-4, 3e-4):
            adam_step(params, state, lr)
        assert state.step == 5
        digest = hashlib.sha256(model.flat.tobytes()).hexdigest()
        assert digest == "4c6f1c5b3e73c81df4ab3f0b083cffb20d7da45e2364e3cce691389585f82710"

    def test_step_makes_no_parameter_sized_temporaries(self):
        model, params = self.default_model_with_grads(22)
        state = AdamState.for_params(params)
        adam_step(params, state, 1e-3)   # warm-up
        tracemalloc.start()
        try:
            adam_step(params, state, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * model.flat.nbytes

    def test_state_holds_four_parameter_vectors(self):
        model, params = self.default_model_with_grads(23)
        tracemalloc.start()
        try:
            state = AdamState.for_params(params)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        arrays = [a for a in vars(state).values() if isinstance(a, np.ndarray)]
        assert [a.size for a in arrays] == [model.flat.size] * 4
        assert held < 4.5 * model.flat.nbytes

    def test_one_subtraction_matches_per_parameter_writes(self, monkeypatch):
        # Two identical default models train 50 steps on the same batches; the
        # second has every update written back one parameter at a time.
        def train(per_parameter):
            model = MambaTabModel(ModelConfig(n_features=12), rng=0)
            params = [p for _, p in model.named_parameters()]
            state = AdamState.for_params(params)
            rng = np.random.default_rng(5)
            with monkeypatch.context() as patch:
                if per_parameter:
                    patch.setattr(training, "_tiled_vector", lambda params, state: None)
                for step in range(50):
                    x, y = rng.uniform(0.0, 1.0, size=(32, 12)), rng.integers(0, 2, size=32)
                    loss = bce_with_logits(model.forward(x), y)
                    model.zero_grad()
                    loss.backward()
                    adam_step(params, state, 1e-2 if step < 10 else 3e-4)
            return model, state

        flat, flat_state = train(per_parameter=False)
        each, each_state = train(per_parameter=True)
        assert len(flat_state.tiled) == 17 and each_state.tiled == ()
        for a, b in ((flat.flat, each.flat), (flat_state.m, each_state.m),
                     (flat_state.v, each_state.v)):
            assert a.tobytes() == b.tobytes()

    def test_empty_parameter_list_steps_without_error(self):
        state = AdamState.for_params([])
        adam_step([], state, 1e-3)
        assert state.step == 1 and state.g.size == 0

    @staticmethod
    def tiled_copy(params):
        """Tensors holding ``params``' values and gradients, as consecutive
        views of one new vector in list order."""
        flat = np.concatenate([p.data.reshape(-1) for p in params])
        copies = []
        for p, end in zip(params, itertools.accumulate(p.size for p in params)):
            t = Tensor(flat[end - p.size:end].reshape(p.shape), requires_grad=True)
            t.grad = None if p.grad is None else p.grad.copy()
            copies.append(t)
        return copies

    @pytest.mark.parametrize("source", ["standalone", "reordered_model", "mamba_block"])
    def test_lists_that_do_not_tile_update_each_parameter_alike(self, source):
        rng = np.random.default_rng(31)
        if source == "standalone":
            params = [Tensor(rng.normal(size=shape), requires_grad=True)
                      for shape in [(4,), (2, 3), (1,)]]
        elif source == "reordered_model":
            params = self.default_model_with_grads(24)[1][::-1]
        else:
            params = ssm.init_mamba_block(8, 2, 4, 3, rng).named_parameters()
            params = [p for _, p in params]
        for p in params:
            if p.grad is None and source != "reordered_model":
                p.grad = rng.normal(0.0, 10.0 ** rng.integers(-6, 3), p.shape)
        copies = self.tiled_copy(params)
        states = AdamState.for_params(params), AdamState.for_params(copies)
        for lr in (1e-2, 3e-4, 3e-4):
            adam_step(params, states[0], lr)
            adam_step(copies, states[1], lr)
        assert states[0].tiled == () and len(states[1].tiled) == len(copies)
        assert [p.data.tobytes() for p in params] == [c.data.tobytes() for c in copies]
        assert states[0].m.tobytes() == states[1].m.tobytes()
        assert states[0].v.tobytes() == states[1].v.tobytes()


MiB = 1 << 20


def traced_peak(call) -> int:
    """tracemalloc's peak, in bytes, over one ``call()`` after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestAllocationBudget:
    """Each hot path's peak allocation stays within about 25% of the peak
    measured when its bound was set (default 12-feature model), so a new
    temporary the size of a batch or a chunk fails here on any machine."""

    @staticmethod
    def default_model():
        return MambaTabModel(ModelConfig(n_features=12), rng=0), np.random.default_rng(0)

    def test_training_step(self):
        model, rng = self.default_model()
        params = [p for _, p in model.named_parameters()]
        opt = AdamState.for_params(params)
        x = rng.uniform(0.0, 1.0, size=(TrainConfig.batch_size, 12))
        y = rng.integers(0, 2, size=len(x))

        def step():   # _fit's step
            loss = bce_with_logits(model.forward(x), y)
            model.zero_grad()
            loss.backward()
            adam_step(params, opt, 1e-4)

        assert traced_peak(step) < 2.5 * MiB   # 2.00 MiB measured

    def test_validation_pass(self):
        model, rng = self.default_model()
        x, y = rng.uniform(0.0, 1.0, size=(1000, 12)), rng.integers(0, 2, size=1000)
        peak = traced_peak(lambda: training._validation_pass(model, x, y, bce_with_logits))
        assert peak < 5.6 * MiB   # 4.49 MiB measured

    def test_predict_logits_50k_rows(self):
        model, rng = self.default_model()
        x = rng.uniform(0.0, 1.0, size=(50_000, 12))
        assert traced_peak(lambda: model.predict_logits(x)) < 6.2 * MiB   # 4.98 MiB measured


def one_backward_digest(config: ModelConfig, rows: int) -> str:
    """sha256 of every parameter's gradient, in layout order, after one
    backward of a training loss on ``rows`` seeded rows; ``None`` is marked."""
    rng = np.random.default_rng(rows)
    model = MambaTabModel(config, rng=0)
    x = rng.uniform(0.0, 1.0, size=(rows, config.n_features))
    if config.head == "classification":
        loss = bce_with_logits(model.forward(x), rng.integers(0, 2, size=rows))
    else:
        corrupted = np.where(corruption_masks(rng, rows, config.n_features), 0.0, x)
        loss = mse_loss(model.forward(corrupted), x)
    loss.backward()
    h = hashlib.sha256()
    for _, p in model.named_parameters():
        h.update(b"None" if p.grad is None else p.grad.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("config,rows,digest", [
    (ModelConfig(n_features=12), 128,
     "4d4922c39d9056fc84a511a3d9888ff12aeee1ed752e6612f2880aab6c23a86a"),
    (ModelConfig(n_features=12), 60,   # train_c7's tail batch
     "79d902707314027e12dd7a0feb9c8ad90d4b2ac4a7a33590bc93a8f6fe16f7ce"),
    (ModelConfig(n_features=12), 1,
     "0a4d944a670d1b6bf1bc891c033a289a5b402a13842095e3ab39e2bd69d22321"),
    (ModelConfig(n_features=12, n_blocks=2, use_layer_norm=False), 128,
     "cab12986ea8bee46513d170f79c4630ad802c77ce64d25b03e98725b581a8674"),
    (ModelConfig(n_features=12, n_blocks=3, expand=3, d_conv=2), 128,
     "7b8cf725678e39e430af664b7c86aa95554d8813e0584eeedbb31220e53fe751"),
    (ModelConfig(n_features=12, head="reconstruction"), 128,
     "171733883d1e682ec7b230a470c1c8a9f10c4a75529429defba275a11c84a6c5"),
], ids=["default-128", "default-60", "default-1", "2-blocks-no-ln", "3-blocks-e3-conv2",
        "reconstruction"])
def test_gradient_bytes_are_pinned(config, rows, digest):
    # Digests taken when backward still walked a two-phase DFS topological
    # order; at L = 1 the reverse-creation-order walk must move no bit.
    assert one_backward_digest(config, rows) == digest


@pytest.mark.parametrize("field,value", [("patience", 0), ("lr", 0.0), ("lr", -1e-3),
                                         ("lr", math.nan), ("lr", math.inf)])
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


def scripted_fit(val_losses, patience):
    """``training._fit`` on a tiny model whose validation losses are scripted.

    Returns the trained model, its report and the weights each epoch validated.
    """
    rng = np.random.default_rng(0)
    x, y = rng.random((8, 3)), np.array([0, 1] * 4)
    model = MambaTabModel(ModelConfig(n_features=3, embed_dim=4, state_size=2), rng=0)
    validated = []

    def batch_loss(idx):
        return bce_with_logits(model.forward(x[idx]), y[idx])

    def validate():
        validated.append(model.flat.copy())
        return val_losses[len(validated) - 1], None

    cfg = TrainConfig(max_epochs=len(val_losses), patience=patience, lr=1e-2, batch_size=8)
    model, report = training._fit(model, 8, cfg, TrainReport(), batch_loss, validate)
    return model, report, validated


class TestStopRule:
    """The stop rule and best snapshot of ``_fit``, under scripted validation losses."""

    def check(self, val_losses, patience, epochs_run, best_epoch):
        model, report, validated = scripted_fit(val_losses, patience)
        assert report.val_loss == val_losses[:epochs_run]
        assert (report.epochs_run, report.best_epoch) == (epochs_run, best_epoch)
        assert report.early_stopped == (epochs_run < len(val_losses))
        assert np.array_equal(model.flat, validated[best_epoch - 1])
        assert not np.array_equal(model.flat, validated[-1])

    def test_rise_stops_at_patience_one(self):
        self.check([1.0, 0.5, 0.7, 0.1], patience=1, epochs_run=3, best_epoch=2)

    def test_tie_is_no_improvement(self):
        # 0.9 at epoch 4 ties the minimum of epoch 3, so epoch 5 is the second stale epoch
        self.check([1.0, 1.1, 0.9, 0.9, 0.95, 0.1], patience=2, epochs_run=5, best_epoch=3)

    def test_new_minimum_resets_the_count(self):
        # epoch 2 is stale, epoch 3 a new minimum; the tie at 5 is the second stale epoch after it
        self.check([1.0, 1.2, 0.8, 1.0, 0.8, 2.0, 0.1], patience=2, epochs_run=5, best_epoch=3)


class TestTrainSupervised:
    def test_separable_toy_reaches_high_auroc(self):
        table = synthetic.logistic_table(200, 2, 0, seed=1, scale=30.0)
        tr, va, te = encoded(table)
        model = MambaTabModel(ModelConfig(n_features=2, embed_dim=8, state_size=4), rng=0)
        cfg = TrainConfig(seed=0, max_epochs=200, lr=1e-3)
        best, report = train_supervised(model, tr, va, cfg)
        assert metrics.auroc(best.predict_proba(va.values), va.labels) >= 0.95

    def test_each_loss_is_gone_before_the_next_is_built(self, monkeypatch):
        tr, va, _ = encoded(synthetic.logistic_table(200, 3, 1, seed=2))
        losses, alive_at_call = [], []

        def tracked(logits, labels):
            alive_at_call.append(sum(ref() is not None for ref in losses))
            loss = bce_with_logits(logits, labels)
            loss.data = np.asarray(loss.data)   # a 0-d array takes a weakref; np.float64 does not
            losses.append(weakref.ref(loss.data))
            return loss

        monkeypatch.setattr(training, "bce_with_logits", tracked)
        model = MambaTabModel(ModelConfig(n_features=4, embed_dim=8, state_size=4), rng=0)
        with gc_off():   # released by reference counts, not by a collection
            train_supervised(model, tr, va, TrainConfig(seed=0, max_epochs=3, batch_size=32))
        # each epoch: 5 batches of the 140 training rows, then one validation chunk
        assert alive_at_call == [0] * 18

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
        with pytest.raises(NumericsError) as exc, np.errstate(all="ignore"):
            train_supervised(model, tr, va, TrainConfig(seed=0, max_epochs=5))
        assert "epoch 1" in str(exc.value)
        assert isinstance(exc.value.report, training.TrainReport)

    def test_validation_failure_aborts_with_partial_report(self):
        # 105 training rows make one batch per epoch, so the first validation
        # runs right after the first lr=1e300 step.
        tr, va, _ = encoded(synthetic.logistic_table(150, 3, 1, seed=14))
        assert tr.n_rows <= TrainConfig.batch_size
        model = MambaTabModel(ModelConfig(n_features=tr.values.shape[1]), rng=0)
        with pytest.raises(T.NumericsError) as exc, np.errstate(all="ignore"):
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
        stages = training.incremental_stages(tabular.transform(pre, tr),
                                             tabular.transform(pre, va), plan.cumulative())
        test_full = tabular.transform(pre, te)
        return stages, test_full

    @pytest.mark.parametrize("column_sets", [[[2], [0, 2], [0, 1, 2, 3]],
                                             [[1, 3], [0, 1, 2, 3]]])
    def test_stages_equal_a_per_cell_reference(self, column_sets):
        # number text, -0.0 beside 0, missing cells, categories unseen at fit
        train = tabular.Table(["num", "zero", "cat", "int"], [
            ["1.5", " 3 ", "-2e1", None, "0.25", "7", "1e1", "-0", "3", None, "2.5", "-1"],
            ["0", "-0.0", "1.5", "0", None, "-0.0", "0.0", "2", "-0", "0", "1.5", "-0.0"],
            ["red", "blue", None, "green", "red", "blue", "blue", None, "red", "green",
             "red", " red"],
            ["007", "3", "12", None, "3", "0", "5", "3", "8", "1", None, "4"],
        ], np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1, 0]), split="train")
        val = tabular.Table(["num", "zero", "cat", "int"], [
            ["-30", None, "0", "99", "-0.0", "2", "4"],
            ["-0.0", "0", None, "5", "-1", "-0", "0.0"],
            ["purple", "red", None, "green", "blue", "red", "?"],
            ["3", "40", "-2", None, "007", "6", "3"],
        ], np.array([1, 0, 0, 1, 1, 0, 1]), split="val")
        pre = tabular.fit(train)
        stages = training.incremental_stages(tabular.transform(pre, train),
                                             tabular.transform(pre, val), column_sets)
        assert [stage.columns for stage in stages] == column_sets
        shares = [np.array_split(np.arange(t.n_rows), len(column_sets)) for t in (train, val)]
        for stage, tr_rows, va_rows in zip(stages, *shares):
            for got, table, rows in ((stage.train, train, tr_rows), (stage.val, val, va_rows)):
                want = reference_transform(pre, tabular.Table(
                    [table.column_names[j] for j in stage.columns],
                    [[table.columns[j][i] for i in rows] for j in stage.columns],
                    table.labels[rows], table.split))
                assert got.values.flags.c_contiguous
                assert np.array_equal(got.values, want.values)
                assert np.array_equal(np.signbit(got.values), np.signbit(want.values))
                assert np.array_equal(got.labels, want.labels)
                assert got.column_names == want.column_names
        enc = tabular.transform(pre, val)
        one_row = tabular.EncodedMatrix(enc.values[:1], enc.labels[:1], enc.column_names, "val")
        with pytest.raises(ValueError, match=r"^stage 2 of \d would get \d training and 0 "):
            training.incremental_stages(tabular.transform(pre, train), one_row, column_sets)

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
            MambaTabModel(ModelConfig(n_features=len(stages[0].columns), embed_dim=16,
                                      state_size=8), rng=0),
            stages[0].train, stages[0].val, tcfg)
        test_s1 = tabular.EncodedMatrix(
            test_full.values[:, stages[0].columns], test_full.labels,
            [test_full.column_names[j] for j in stages[0].columns])
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
    @pytest.mark.parametrize("source", ["supervised", "ssl"])
    def test_trained_model_holds_no_gradients(self, source, tmp_path):
        model = MODEL_SOURCES[source](tmp_path)
        assert all(p.grad is None for _, p in model.named_parameters())

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
