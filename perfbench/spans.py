"""In-memory span recorder and the per-layer metrics derived from its spans.

Spans are recorded only by wrapping, from outside, the public functions of
the traced mambatab modules and the public methods of the classes they
define. A span is ``[name_id, start_ns, end_ns, parent_index]``; spans are
appended when they start, so list order is start order and a parent always
precedes its children. Nothing inside the program changes: ``installed()``
swaps the wrappers in and always puts every original back.
"""

from __future__ import annotations

import bisect
import contextlib
import importlib
import inspect
import math
import statistics
import sys
import time

TRACED_MODULES = ("tabular", "tensor", "ssm", "model", "training", "metrics", "cli")

FORWARD = "model.MambaTabModel.forward"
BACKWARD = "tensor.Tensor.backward"
ADAM = "training.adam_step"
BLOCK = "ssm.mamba_block_forward"
TRAIN_LOOPS = frozenset({"training.train_supervised", "training.pretrain_ssl"})

# Forward ops whose self time is reported as tensor.<op>_s.
TENSOR_OPS = ("matmul", "add", "mul", "silu", "softplus", "layer_norm",
              "causal_conv1d", "getitem", "reshape")

# Graph nodes one training step built when this benchmark was written (B=128,
# n=12, default model); the traced train_c7 run notes a count that differs.
BASELINE_NODES_PER_STEP = 56

# Per-layer metric -> unit; every traced run reports all of them, so a layer
# a workload never enters reads 0.
LAYER_UNITS = {
    "package.import_s": "s",
    "tabular.load_csv_s": "s",
    "tabular.split_s": "s",
    "tabular.infer_kinds_s": "s",
    "tabular.fit_s": "s",
    "tabular.transform_s": "s",
    "tabular.cells": "count",
    "tensor.nodes_per_step": "count",
    "tensor.op_calls": "count",
    **{f"tensor.{op}_s": "s" for op in TENSOR_OPS},
    "tensor.backward_s": "s",
    "ssm.block_s": "s",
    "ssm.coeffs_s": "s",
    "ssm.scan_s": "s",
    "ssm.block_calls": "count",
    "model.forward_s": "s",
    "model.predict_proba_s": "s",
    "model.state_dict_s": "s",
    "model.clone_s": "s",
    "model.save_s": "s",
    "model.load_s": "s",
    "training.step_ms_p50": "ms",
    "training.step_ms_hi": "ms",
    "training.steps": "count",
    "training.epochs": "count",
    "training.adam_s": "s",
    "training.loss_s": "s",
    "training.val_s": "s",
    "training.masks_s": "s",
    "metrics.auroc_s": "s",
    "metrics.auroc_calls": "count",
    "cli.seed_s": "s",
    "cli.artifacts_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


def _count_cells(rec: "Recorder", table) -> None:
    rec.add_count("tabular.cells", table.n_rows * table.n_features)


def _count_epochs(rec: "Recorder", result) -> None:
    rec.add_count("training.epochs", result[1].epochs_run)


# Counts taken from a traced function's return value, at the same boundary.
ON_RETURN = {
    "tabular.load_csv": _count_cells,
    "training.train_supervised": _count_epochs,
    "training.pretrain_ssl": _count_epochs,
}


class Recorder:
    """Wraps the traced modules of one imported package and records spans."""

    def __init__(self, package):
        self.package = package
        self.modules = {short: importlib.import_module(f"{package.__name__}.{short}")
                        for short in TRACED_MODULES}
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def add_count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def targets(self) -> list[tuple[object, str, str, object]]:
        """(owner, attribute, span name, function) for every traced callable."""
        found = []
        for short, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    found.append((mod, attr, f"{short}.{attr}", obj))
                elif inspect.isclass(obj):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            found.append((obj, meth, f"{short}.{obj.__name__}.{meth}", fn))
        return found

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        hook = ON_RETURN.get(name)

        def traced(*args, **kwargs):
            span = [nid, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if hook is not None:
                hook(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap in the wrappers, including aliases other modules imported; restore on exit."""
        saved: list[tuple[object, str, object]] = []
        try:
            wrappers = {}
            for owner, attr, name, fn in self.targets():
                wrappers[id(fn)] = self._wrap(name, fn)
                saved.append((owner, attr, fn))
                setattr(owner, attr, wrappers[id(fn)])
            prefix = self.package.__name__
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                    continue
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and id(obj) in wrappers:
                        saved.append((mod, attr, obj))
                        setattr(mod, attr, wrappers[id(obj)])
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


class SpanTable:
    """Read-only view of recorded spans with self-time and nesting helpers."""

    def __init__(self, names: list[str], spans: list[list[int]]):
        self.names = names
        self.name = [s[0] for s in spans]
        self.start = [s[1] for s in spans]
        self.dur = [s[2] - s[1] for s in spans]
        self.parent = [s[3] for s in spans]
        child = [0] * len(spans)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.dur[i]
        self.self_ns = [d - c for d, c in zip(self.dur, child)]

    def ids(self, names) -> set[int]:
        wanted = set(names)
        return {i for i, n in enumerate(self.names) if n in wanted}

    def count(self, name: str) -> int:
        ids = self.ids([name])
        return sum(1 for n in self.name if n in ids)

    def self_total(self, name: str) -> int:
        """Summed self time (span minus its child spans) of every span ``name``."""
        ids = self.ids([name])
        return sum(s for n, s in zip(self.name, self.self_ns) if n in ids)

    def total(self, names, minus=()) -> int:
        """Time inside the outermost spans named in ``names``, less the time in
        the outermost spans named in ``minus`` nested within them."""
        keep, drop = self.ids(names), self.ids(minus)
        owner = [-1] * len(self.name)
        blocked = [False] * len(self.name)
        total = 0
        for i, (n, p) in enumerate(zip(self.name, self.parent)):
            o, b = (owner[p], blocked[p]) if p >= 0 else (-1, False)
            if n in keep and o < 0:
                total += self.dur[i]
                o, b = i, False
            elif n in drop and o >= 0 and not b:
                total -= self.dur[i]
                b = True
            owner[i], blocked[i] = o, b
        return total

    def under(self, names) -> list[bool]:
        """Per span: whether some ancestor is named in ``names``."""
        ids = self.ids(names)
        flags = [False] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                flags[i] = flags[p] or self.name[p] in ids
        return flags

    def training_steps(self) -> tuple[list[tuple[int, int]], set[int]]:
        """Steps of the training loops and the forward spans that start them.

        A step runs from a forward that a backward follows to the end of the
        next adam step, among the direct children of a training loop span.
        """
        loops, fwd, bwd, adam = (self.ids(TRAIN_LOOPS), self.ids([FORWARD]),
                                 self.ids([BACKWARD]), self.ids([ADAM]))
        steps, step_forwards = [], set()
        last_forward = pending = None
        for i, (n, p) in enumerate(zip(self.name, self.parent)):
            if p < 0 or self.name[p] not in loops:
                continue
            if n in fwd:
                last_forward = i
            elif n in bwd and last_forward is not None:
                pending = last_forward
            elif n in adam and pending is not None:
                steps.append((self.start[pending], self.start[i] + self.dur[i]))
                step_forwards.add(pending)
                last_forward = pending = None
        return steps, step_forwards

    def leaf_tensor_ops(self) -> list[int]:
        """Indices of calls to module-level tensor functions that call no other
        tensor function: the ops that each build one graph node."""
        tensor_ids = {i for i, n in enumerate(self.names) if n.startswith("tensor.")}
        op_ids = {i for i in tensor_ids if self.names[i].count(".") == 1}
        has_tensor_child = [False] * len(self.name)
        for n, p in zip(self.name, self.parent):
            if p >= 0 and n in tensor_ids:
                has_tensor_child[p] = True
        return [i for i, n in enumerate(self.name) if n in op_ids and not has_tensor_child[i]]


def high_percentile(values: list[float]) -> tuple[float, float]:
    """(p, value) for the highest p in 99.9/99/95/90/75/50 that leaves at
    least 10 samples above it (nearest rank); p50 when no p does."""
    xs = sorted(values)
    n = len(xs)
    if not n:
        return 50.0, 0.0
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 50.0, xs[math.ceil(n / 2) - 1]


def layer_metrics(names: list[str], spans: list[list[int]], counts: dict[str, int],
                  repeats: int) -> tuple[dict[str, float], dict]:
    """Per-layer metrics per timed repeat, and the step-percentile details.

    Times are inclusive of nested spans unless stated: tensor ops report self
    time; ``tabular.fit_s`` excludes column-kind inference; ``model.forward_s``
    excludes the residual blocks; ``cli.artifacts_s`` is ``cmd_train`` outside
    ``run_one_seed``.
    """
    t = SpanTable(names, spans)
    per = 1.0 / repeats
    sec = 1e-9 * per
    steps, step_forwards = t.training_steps()
    leaves = t.leaf_tensor_ops()
    leaf_starts = [t.start[i] for i in leaves]
    nodes = [bisect.bisect_right(leaf_starts, end) - bisect.bisect_left(leaf_starts, start)
             for start, end in steps]
    in_loop = t.under(TRAIN_LOOPS)
    fwd = t.ids([FORWARD])
    val_ns = sum(t.dur[i] for i, n in enumerate(t.name)
                 if n in fwd and in_loop[i] and i not in step_forwards)
    step_ms = [(end - start) * 1e-6 for start, end in steps]
    hi_p, hi_ms = high_percentile(step_ms)

    m = {
        "tabular.load_csv_s": t.total(["tabular.load_csv"]) * sec,
        "tabular.split_s": t.total(["tabular.split"]) * sec,
        "tabular.infer_kinds_s": t.total(["tabular.infer_column_kinds"]) * sec,
        "tabular.fit_s": t.total(["tabular.fit"], minus=["tabular.infer_column_kinds"]) * sec,
        "tabular.transform_s": t.total(["tabular.transform"]) * sec,
        "tabular.cells": counts.get("tabular.cells", 0) * per,
        "tensor.nodes_per_step": statistics.median_low(nodes) if nodes else 0,
        "tensor.op_calls": len(leaves) * per,
        **{f"tensor.{op}_s": t.self_total(f"tensor.{op}") * sec for op in TENSOR_OPS},
        "tensor.backward_s": t.total([BACKWARD]) * sec,
        "ssm.block_s": t.total([BLOCK]) * sec,
        "ssm.coeffs_s": t.total(["ssm.generate_selective_coeffs"]) * sec,
        "ssm.scan_s": t.total(["ssm.selective_scan"]) * sec,
        "ssm.block_calls": t.count(BLOCK) * per,
        "model.forward_s": t.total([FORWARD], minus=[BLOCK]) * sec,
        "model.predict_proba_s": t.total(["model.MambaTabModel.predict_proba"]) * sec,
        "model.state_dict_s": t.total(["model.MambaTabModel.state_dict"]) * sec,
        "model.clone_s": t.total(["model.MambaTabModel.clone"]) * sec,
        "model.save_s": t.total(["model.save"]) * sec,
        "model.load_s": t.total(["model.load", "model.load_with_metadata"]) * sec,
        "training.step_ms_p50": statistics.median(step_ms) if step_ms else 0.0,
        "training.step_ms_hi": hi_ms,
        "training.steps": len(steps) * per,
        "training.epochs": counts.get("training.epochs", 0) * per,
        "training.adam_s": t.total([ADAM]) * sec,
        "training.loss_s": t.total(["training.bce_with_logits", "training.mse_loss"]) * sec,
        "training.val_s": val_ns * sec,
        "training.masks_s": t.total(["training.corruption_masks"]) * sec,
        "metrics.auroc_s": t.total(["metrics.auroc"]) * sec,
        "metrics.auroc_calls": t.count("metrics.auroc") * per,
        "cli.seed_s": t.total(["cli.run_one_seed"]) * sec,
        "cli.artifacts_s": t.total(["cli.cmd_train"], minus=["cli.run_one_seed"]) * sec,
    }
    return m, {"step_hi_percentile": hi_p, "step_samples": len(step_ms)}
