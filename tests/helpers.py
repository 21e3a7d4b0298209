"""Shared oracles for the test suite.

Everything here is independent of the library code paths it checks:
finite-difference gradients, a per-element scan recurrence in plain
Python loops, O(m^2) pairwise AUROC counting, 50-digit references for
the zero-order-hold closed form and for the sigmoid and softplus, a
backward pass that zero-fills each slice's gradient, a causal conv that
visits every tap, and a row-by-row CSV reader and per-cell reference for
the tabular preprocessing.
``gc_off`` lets a test see what reference counts alone release.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import math

import heapq

import mpmath
import numpy as np

from mambatab import tensor as T
from mambatab.tabular import EncodedMatrix, Preprocessor, SchemaError


@contextlib.contextmanager
def gc_off():
    """Turn the cyclic collector off for the block: an object still alive at
    its end is one that reference counts do not release."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def mp_discretize(a: float, b: float, delta: float) -> tuple[float, float]:
    """High-precision (exp(delta*a), (exp(delta*a)-1)/a * b), limit at a=0."""
    with mpmath.workdps(50):
        a_mp, b_mp, d_mp = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(delta)
        a_bar = mpmath.e ** (d_mp * a_mp)
        if a == 0.0:
            b_bar = d_mp * b_mp
        else:
            b_bar = (mpmath.e ** (d_mp * a_mp) - 1) / a_mp * b_mp
        return float(a_bar), float(b_bar)


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


def finite_difference_grad(loss_fn, param, eps: float = 1e-5) -> np.ndarray:
    """Central differences of ``loss_fn()`` w.r.t. every entry of ``param``.

    ``loss_fn`` must recompute the scalar loss from ``param.data`` each call.
    """
    flat = param.data.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_fn()
        flat[i] = orig - eps
        lo = loss_fn()
        flat[i] = orig
        grad[i] = (hi - lo) / (2.0 * eps)
    return grad.reshape(param.data.shape)


def check_gradients(build_loss, params, eps: float = 1e-5, tol: float = 1e-4) -> float:
    """Assert analytic grads of ``build_loss()`` match central differences.

    ``build_loss`` constructs the loss tensor fresh from the current
    parameter data. Returns the worst relative error seen.
    """
    loss = build_loss()
    for p in params:
        p.zero_grad()
    loss.backward()
    worst = 0.0
    for p in params:
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        numeric = finite_difference_grad(lambda: build_loss().item(), p, eps=eps)
        err = relative_error(analytic, numeric)
        worst = max(worst, err)
        assert err < tol, f"gradient mismatch {err:.3e} on parameter of shape {p.shape}"
    return worst


def reference_getitem(x, idx):
    """``tensor.getitem`` with the gradient it had before slices were gathered:
    a zero-filled array shaped like the input, with the slice's gradient added
    at ``idx``, for every slice."""
    def grad_fn(g):
        dx = np.zeros_like(x.data)
        dx[idx] += g
        return (dx,)

    return T._make(np.asarray(x.data[idx], dtype=np.float64), (x,), grad_fn, "getitem")


def reference_backward(loss) -> None:
    """``Tensor.backward`` as it was before slices were gathered: every
    gradient is a dense array, summed per parent in the order the parent's
    consumers are visited, newest node first. Build the graph with
    ``reference_getitem`` in place of ``tensor.getitem``."""
    pending = {id(loss): np.ones_like(loss.data)}
    heap = [(-loss._seq, loss)]
    while heap:
        node = heapq.heappop(heap)[1]
        g = pending.pop(id(node))
        if node._grad_fn is None:
            node.grad = g if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._grad_fn(g)):
            if not parent.requires_grad:
                continue
            acc = pending.get(id(parent))
            if acc is None:
                heapq.heappush(heap, (-parent._seq, parent))
            pending[id(parent)] = pg if acc is None else acc + pg


def reference_causal_conv1d(u, kernel, bias):
    """``tensor.causal_conv1d`` as it was before it skipped the taps that reach
    no output: every tap is visited, the current one added whole, an earlier
    one shifted when it reaches back less than L positions, and skipped
    otherwise."""
    L, w = u.shape[1], kernel.shape[1]
    data = np.zeros_like(u.data)
    for i in range(w):
        shift = w - 1 - i
        if shift == 0:
            data += kernel.data[:, i] * u.data
        elif shift < L:
            data[:, shift:, :] += kernel.data[:, i] * u.data[:, : L - shift, :]
    data = data + bias.data

    def grad_fn(g):
        du = np.zeros_like(u.data)
        dk = np.zeros_like(kernel.data)
        for i in range(w):
            shift = w - 1 - i
            if shift == 0:
                du += kernel.data[:, i] * g
                dk[:, i] = np.sum(g * u.data, axis=(0, 1))
            elif shift < L:
                du[:, : L - shift, :] += kernel.data[:, i] * g[:, shift:, :]
                dk[:, i] = np.sum(g[:, shift:, :] * u.data[:, : L - shift, :], axis=(0, 1))
        return du, dk, g.sum(axis=(0, 1))

    return T._make(data, (u, kernel, bias), grad_fn, "causal_conv1d")


def naive_selective_scan(u, delta, B_t, C_t, A, D_skip):
    """Per-element recurrence h_k = exp(delta*a) h_{k-1} + delta*b u_k, x_k = C h_k + D u_k.

    Plain Python loops over batch, time, channel, and state; the slow
    reference the batched implementation must match.
    """
    u = np.asarray(u, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    B_t = np.asarray(B_t, dtype=np.float64)
    C_t = np.asarray(C_t, dtype=np.float64)
    A = np.asarray(A, dtype=np.float64)
    D_skip = np.asarray(D_skip, dtype=np.float64)
    nb, nl, nd = u.shape
    nn = A.shape[1]
    out = np.zeros((nb, nl, nd))
    for b in range(nb):
        for d in range(nd):
            h = [0.0] * nn
            for k in range(nl):
                x = 0.0
                for n in range(nn):
                    h[n] = np.exp(delta[b, k, d] * A[d, n]) * h[n] \
                        + delta[b, k, d] * B_t[b, k, n] * u[b, k, d]
                    x += C_t[b, k, n] * h[n]
                out[b, k, d] = x + D_skip[d] * u[b, k, d]
    return out


def pairwise_auroc(scores, labels) -> float:
    """O(m^2) Mann-Whitney: concordant pairs count 1, ties count 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def mp_sigmoid(x: float) -> mpmath.mpf:
    with mpmath.workdps(50):
        return 1 / (1 + mpmath.exp(-mpmath.mpf(x)))


def mp_softplus(x: float) -> mpmath.mpf:
    with mpmath.workdps(50):
        return mpmath.log1p(mpmath.exp(mpmath.mpf(x)))


def ulp_error(got: float, exact: mpmath.mpf) -> float:
    """|got - exact| in units of the float64 spacing at the rounded exact value."""
    with mpmath.workdps(50):
        spacing = float(np.spacing(abs(float(exact))))
        return float(abs(mpmath.mpf(got) - exact) / spacing)


# -- per-cell reference preprocessing -----------------------------------------
def reference_load_csv(path, label_column: str, positive_label: str):
    """Feature names, per-column cells and labels of a well-formed CSV, one row at a time.

    Blank lines are skipped, cells stripped, '' and '?' become None.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [row for row in csv.reader(fh) if row]
    header = [h.strip() for h in rows[0]]
    label_idx = header.index(label_column)
    columns: list[list] = [[] for _ in range(len(header) - 1)]
    labels = []
    for row in rows[1:]:
        cells = [c.strip() for c in row]
        labels.append(1 if cells[label_idx] == positive_label else 0)
        for col, cell in zip(columns, cells[:label_idx] + cells[label_idx + 1:]):
            col.append(None if cell in ("", "?") else cell)
    return header[:label_idx] + header[label_idx + 1:], columns, labels


# The earlier per-cell implementation of tabular.infer_column_kinds / fit /
# transform: every cell goes through float() on each pass, with no caching.
# Its SchemaErrors carry the library's messages, so that a test can compare
# the two paths' errors as well as their results.

def _reference_parse_number(cell):
    if cell is None:
        return None
    if isinstance(cell, (int, float)):
        return float(cell)
    try:
        return float(cell)
    except ValueError:
        return None


def reference_infer_column_kinds(table, overrides=None) -> list[str]:
    overrides = overrides or {}
    kinds = []
    for name, col in zip(table.column_names, table.columns):
        observed = [c for c in col if c is not None]
        if not observed:
            raise SchemaError(f"column '{name}' has no observed values")
        if name in overrides:
            kinds.append(overrides[name])
            continue
        numeric = all(_reference_parse_number(c) is not None for c in observed)
        kinds.append("numerical" if numeric else "categorical")
    return kinds


def _reference_mode(values: list) -> object:
    counts: dict = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    best = max(counts.values())
    return sorted(v for v, c in counts.items() if c == best)[0]


def _reference_numbers(name: str, cells: list, stage: str) -> list[float]:
    """float() of each cell; SchemaError, as the library words it, unless all finite numbers."""
    nums = [_reference_parse_number(c) for c in cells]
    if any(v is None for v in nums):
        raise SchemaError(f"column '{name}' is numerical but has non-numeric cells at {stage} time")
    for cell, v in zip(cells, nums):
        if not math.isfinite(v):
            raise SchemaError(f"column '{name}' is numerical but has the non-finite cell "
                              f"{cell!r} at {stage} time")
    return nums


def reference_fit(table, overrides=None) -> Preprocessor:
    kinds = reference_infer_column_kinds(table, overrides)
    categories, modes, mins, maxs = [], [], [], []
    for name, kind, col in zip(table.column_names, kinds, table.columns):
        observed = [c for c in col if c is not None]
        if kind == "categorical":
            as_str = [str(c) for c in observed]
            cats = sorted(set(as_str))
            categories.append(cats)
            modes.append(_reference_mode(as_str))
            mins.append(0.0)
            maxs.append(float(len(cats) - 1))
        else:
            nums = _reference_numbers(name, observed, "fit")
            categories.append(None)
            modes.append(_reference_mode(nums))
            mins.append(float(min(nums)))
            maxs.append(float(max(nums)))
    return Preprocessor(list(table.column_names), kinds, categories, modes, mins, maxs)


def reference_transform(pre: Preprocessor, table) -> EncodedMatrix:
    out = np.zeros((table.n_rows, table.n_features), dtype=np.float64)
    for j, (name, col) in enumerate(zip(table.column_names, table.columns)):
        if name not in pre.column_names:
            raise SchemaError(f"column '{name}' was not present at fit time")
        k = pre.column_names.index(name)
        kind, mode = pre.kinds[k], pre.modes[k]
        lo, hi = pre.mins[k], pre.maxs[k]
        if kind == "categorical":
            index = {c: i for i, c in enumerate(pre.categories[k])}
            mode_idx = index[mode]
            codes = np.array(
                [index.get(str(c), mode_idx) if c is not None else mode_idx for c in col],
                dtype=np.float64,
            )
        else:
            nums = iter(_reference_numbers(name, [c for c in col if c is not None], "transform"))
            codes = np.array([mode if c is None else next(nums) for c in col], dtype=np.float64)
        if hi > lo:
            with np.errstate(over="ignore"):
                out[:, j] = np.clip((codes - lo) / (hi - lo), 0.0, 1.0)
        else:
            out[:, j] = 0.0
    return EncodedMatrix(out, table.labels.copy(), list(table.column_names), table.split)
