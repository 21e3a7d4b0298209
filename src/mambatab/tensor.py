"""Dense float64 arrays with reverse-mode automatic differentiation.

Deliberately small: row-major numpy storage, the operations a gated
state-space network needs, and a recorded graph that ``backward()``
walks exactly once in reverse topological order. Every operation
checks its output for NaN/Inf and raises :class:`NumericsError`
instead of letting bad values propagate into the optimizer.

The arithmetic operators take a Tensor on the left (``t + 1.0``, not
``1.0 + t``), and ``getitem`` takes basic indices only: ints, slices,
``...`` and ``None``.
"""

from __future__ import annotations

import numpy as np


class NumericsError(ArithmeticError):
    """A forward value came out NaN/Inf, or a numeric contract was violated."""


def _as_array(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float64)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn", "_op")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        if not np.all(np.isfinite(self.data)):
            raise NumericsError("tensor created with non-finite values")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._grad_fn = None
        self._op = "leaf"

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"

    # -- operator sugar ----------------------------------------------------
    def __add__(self, other):
        return add(self, _wrap(other))

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __neg__(self):
        return mul(self, Tensor(-1.0))

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape):
        return reshape(self, shape if len(shape) > 1 else shape[0])

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into ``grad`` of every reachable leaf.

        ``self`` must be scalar. Repeated calls without ``zero_grad``
        accumulate. Each graph node is visited exactly once.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        pending: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = pending.pop(id(node))
            if node._grad_fn is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._grad_fn(g)):
                if not parent.requires_grad:
                    continue
                acc = pending.get(id(parent))
                pending[id(parent)] = pg if acc is None else acc + pg


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: np.ndarray, parents: tuple, grad_fn, op: str) -> Tensor:
    if not np.all(np.isfinite(data)):
        raise NumericsError(f"non-finite values produced by '{op}'")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = op
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._grad_fn = grad_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._grad_fn = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- arithmetic -------------------------------------------------------------
# Forward overflow is expected to surface as NumericsError from _make, so
# the numpy warnings on these computations are suppressed.

def add(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(over="ignore", invalid="ignore"):
        data = a.data + b.data
    return _make(data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
                 "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(over="ignore", invalid="ignore"):
        data = a.data - b.data
    return _make(data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
                 "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(over="ignore", invalid="ignore"):
        data = a.data * b.data
    return _make(data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape),
                            _unbroadcast(g * a.data, b.shape)),
                 "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        data = a.data / b.data
    return _make(data, (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.shape),
                            _unbroadcast(-g * a.data / (b.data * b.data), b.shape)),
                 "div")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul dimension error: {a.shape} @ {b.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        data = a.data @ b.data
    return _make(data, (a, b),
                 lambda g: (g @ b.data.T, a.data.T @ g),
                 "matmul")


# -- elementwise nonlinearities ---------------------------------------------

def texp(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):  # overflow becomes NumericsError in _make
        data = np.exp(x.data)
    return _make(data, (x,), lambda g: (g * data,), "exp")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) as exp(min(x, 0)) / (1 + exp(-|x|)).

    Both exponents are <= 0, so nothing overflows; underflow toward 0 is
    the correct limit and is not reported.
    """
    with np.errstate(under="ignore"):
        return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    return _make(s, (x,), lambda g: (g * s * (1.0 - s),), "sigmoid")


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) as max(x, 0) + log1p(exp(-|x|)), which cannot overflow."""
    with np.errstate(under="ignore"):   # log(1 + e) with e underflowing to 0
        return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus(x: Tensor) -> Tensor:
    return _make(_softplus(x.data), (x,), lambda g: (g * _sigmoid(x.data),), "softplus")


def silu(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    data = x.data * s
    return _make(data, (x,),
                 lambda g: (g * s * (1.0 + x.data * (1.0 - s)),),
                 "silu")


def relu(x: Tensor) -> Tensor:
    data = np.maximum(x.data, 0.0)
    mask = (x.data > 0.0).astype(np.float64)
    return _make(data, (x,), lambda g: (g * mask,), "relu")


# -- reductions and shape ops -------------------------------------------------

def tsum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = x.data.sum(axis=axis, keepdims=keepdims)

    def grad_fn(g):
        if axis is None:
            return (np.broadcast_to(g.reshape((1,) * x.data.ndim), x.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

    return _make(np.asarray(data, dtype=np.float64), (x,), grad_fn, "sum")


def tmean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = x.data.size if axis is None else x.data.shape[axis]
    return mul(tsum(x, axis=axis, keepdims=keepdims), Tensor(1.0 / count))


def reshape(x: Tensor, shape) -> Tensor:
    data = x.data.reshape(shape)
    return _make(data, (x,), lambda g: (g.reshape(x.shape),), "reshape")


def _is_basic_index(idx) -> bool:
    items = idx if isinstance(idx, tuple) else (idx,)
    return all(isinstance(i, (int, np.integer, slice)) or i is Ellipsis or i is None
               for i in items)


def getitem(x: Tensor, idx) -> Tensor:
    # Basic indices pick each element once, so += suffices; it also maps -0.0 to +0.0.
    if not _is_basic_index(idx):
        raise TypeError(f"getitem takes basic indices only, got {idx!r}")
    data = x.data[idx]

    def grad_fn(g):
        dx = np.zeros_like(x.data)
        dx[idx] += g
        return (dx,)

    return _make(np.asarray(data, dtype=np.float64), (x,), grad_fn, "getitem")


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def grad_fn(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, offsets, axis=axis))

    return _make(data, tuple(tensors), grad_fn, "concat")


# -- network layers -----------------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` where x is [..., fan_in] and w is [fan_in, fan_out]."""
    lead = x.shape[:-1]
    out = matmul(reshape(x, (-1, x.shape[-1])), w)
    out = reshape(out, lead + (w.shape[1],))
    if b is not None:
        out = add(out, b)
    return out


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray):
    """(gamma * xhat + beta, xhat, 1/std): x normalized over its last axis."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mu) * inv
    return gamma * xhat + beta, xhat, inv


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    data, xhat, inv = _layer_norm(x.data, gamma.data, beta.data)
    reduce_axes = tuple(range(x.data.ndim - 1))

    def grad_fn(g):
        gg = g * gamma.data
        dx = inv * (gg - gg.mean(axis=-1, keepdims=True)
                    - xhat * (gg * xhat).mean(axis=-1, keepdims=True))
        dgamma = (g * xhat).sum(axis=reduce_axes)
        dbeta = g.sum(axis=reduce_axes)
        return dx, dgamma, dbeta

    return _make(data, (x, gamma, beta), grad_fn, "layer_norm")


def causal_conv1d(u: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Depthwise causal 1-D convolution over [B, L, D].

    ``kernel`` is [D, w]; the last tap multiplies the current position,
    earlier taps reach back in time, missing history is zero. Output at
    position t therefore depends only on inputs at positions <= t.
    """
    B, L, D = u.shape
    if kernel.data.ndim != 2 or kernel.shape[0] != D or kernel.shape[1] < 1:
        raise ValueError(f"causal_conv1d kernel shape {kernel.shape} incompatible with input {u.shape}")
    w = kernel.shape[1]
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

    return _make(data, (u, kernel, bias), grad_fn, "causal_conv1d")


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))
