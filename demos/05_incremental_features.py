"""Feature-incremental learning: new columns arrive, old weights carry over.

The embedding maps any feature count to the same fixed width, so when
the schema grows only the embedding gains rows; every other tensor is
copied verbatim. Here the informative columns arrive last, which is the
worst case for a model stuck with the stage-1 schema.

Run: python3 demos/05_incremental_features.py
"""

from mambatab import metrics, synthetic, tabular
from mambatab.model import MambaTabModel, ModelConfig
from mambatab.training import (
    TrainConfig, incremental_stages, train_incremental, train_supervised,
)

plan = tabular.make_incremental_plan(n_features=9, seed=3)
print(f"column groups: s1={sorted(plan.s1)} s2={sorted(plan.s2)} s3={sorted(plan.s3)}")

# labels depend only on the stage-3 columns
table = synthetic.staged_signal_table(900, 9, sorted(plan.s3), seed=11)
train_t, val_t, test_t = tabular.split(table, seed=0)
pre = tabular.fit(train_t)

# each stage sees its own third of the rows and its cumulative columns
stages = incremental_stages(tabular.transform(pre, train_t), tabular.transform(pre, val_t),
                            plan.cumulative())
for i, st in enumerate(stages, 1):
    print(f"stage {i}: {st.train.n_rows} train rows, {len(st.columns)} columns")

base = ModelConfig(n_features=9, embed_dim=16, state_size=8)
cfg = TrainConfig(seed=2, lr=1e-3, max_epochs=400)
final, reports = train_incremental(stages, base, cfg, init_rng=0)
for i, rep in enumerate(reports, 1):
    print(f"stage {i}: {rep.epochs_run} epochs, best val loss {min(rep.val_loss):.4f}")

test_full = tabular.transform(pre, test_t)
auc_inc = metrics.auroc(final.predict_proba(test_full.values), test_full.labels)

# baseline: a model that can only ever use the stage-1 columns
s1_model, _ = train_supervised(
    MambaTabModel(ModelConfig(n_features=len(stages[0].columns), embed_dim=16, state_size=8),
                  rng=0),
    stages[0].train, stages[0].val, cfg)
auc_s1 = metrics.auroc(s1_model.predict_proba(test_full.values[:, stages[0].columns]),
                       test_full.labels)

print(f"\ntest AUROC, stage-1 columns only: {auc_s1:.3f}  (signal arrives later)")
print(f"test AUROC, incremental to all:   {auc_inc:.3f}")
