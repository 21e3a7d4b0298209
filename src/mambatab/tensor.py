"""Dense float64 arrays with reverse-mode automatic differentiation.

Deliberately small: row-major numpy storage, the operations a gated
state-space network needs, and a recorded graph that ``backward()``
walks once, newest node first: each node is made after its parents, so
reverse creation order reaches a node after all of its consumers. Every
new tensor, and every operation's output, is checked for NaN/Inf, and a
failed check raises :class:`NumericsError` instead of letting bad values
propagate into the optimizer. So numpy's own warnings only repeat a
check: ``cli.main`` turns them off, and library callers see them first.

``sub``, ``mul`` and ``matmul`` skip gradients no parent takes; ``backward()``
adds the slices ``getitem`` takes of one input into one zero buffer until a
dense gradient reaches it, then zero-fills each later slice, as that order
decides where ``-0.0`` becomes ``+0.0``. Adam updates a model as one vector.

One rule skips a check that cannot fail. ``reshape``, ``getitem``,
``relu``, ``silu`` and ``softplus`` map a finite input to a finite output,
so their output is not checked when their one input is itself an op's
output (a non-leaf): that input passed a check, or came finite through
these five ops, and the program never writes into an op's output while
its graph is in use. A leaf input is still checked, because its array may
have been written in place since it was made, as Adam writes the
parameters. So ``NumericsError`` is raised on exactly the same inputs, at
the same op and with the same message, as if every output were checked.

The arithmetic operators take a Tensor on the left (``t + 1.0``, not
``1.0 + t``), and ``getitem`` takes basic indices only: ints, slices,
``...`` and ``None``.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

_SEQ = itertools.count()   # creation numbers: a node is made after its parents


class NumericsError(ArithmeticError):
    """A forward value came out NaN/Inf, or a numeric contract was violated."""


class InputError(ValueError):
    """A malformed input: a usage, schema, data or checkpoint error."""


def _as_array(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float64)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn", "_op", "_seq")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        if not np.isfinite(self.data).all():
            raise NumericsError("tensor created with non-finite values")
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple = ()
        self._grad_fn = None
        self._op = "leaf"
        self._seq = next(_SEQ)

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
        pending: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        gathering = set()   # parents whose pending buffer holds slice gradients only
        heap = [(-self._seq, self)]
        while heap:
            node = heapq.heappop(heap)[1]
            g = pending.pop(id(node))
            if node._grad_fn is None:
                node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._grad_fn(g)):
                if not parent.requires_grad:   # its grad_fn entry may be None
                    continue
                key = id(parent)
                acc = pending.get(key)
                if acc is None:
                    heapq.heappush(heap, (-parent._seq, parent))
                if type(pg) is _Slice:
                    own = key in gathering
                    buf = acc if own else np.zeros_like(parent.data)
                    buf[pg[0]] += pg[1]
                    if own or acc is None:
                        gathering.add(key)
                        pending[key] = buf
                        continue
                    pg = buf
                else:
                    gathering.discard(key)
                pending[key] = pg if acc is None else acc + pg


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# The module docstring's check rule. These ops map finite to finite: views,
# relu, silu (|x * sigmoid(x)| <= |x|) and softplus (at most x + log 2, and
# DBL_MAX + log 2 rounds to DBL_MAX). So with a non-leaf input, which is
# finite, their output cannot fail the check; a leaf may have been written
# in place since its own check.
_FINITE_MAPS = frozenset({"reshape", "getitem", "relu", "silu", "softplus"})


def _make(data: np.ndarray, parents: tuple, grad_fn, op: str) -> Tensor:
    if ((op not in _FINITE_MAPS or parents[0]._op == "leaf")
            and not np.isfinite(data).all()):
        raise NumericsError(f"non-finite values produced by '{op}'")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._op = op
    out._seq = next(_SEQ)
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._grad_fn = grad_fn
            return out
    out.requires_grad = False
    out._parents = ()
    out._grad_fn = None
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# -- arithmetic -------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    data = a.data + b.data
    return _make(data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
                 "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    data = a.data - b.data
    return _make(data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape) if a.requires_grad else None,
                            _unbroadcast(-g, b.shape) if b.requires_grad else None),
                 "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    data = a.data * b.data
    return _make(data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None),
                 "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    data = a.data / b.data
    return _make(data, (a, b),
                 lambda g: (_unbroadcast(g / b.data, a.shape),
                            _unbroadcast(-g * a.data / (b.data * b.data), b.shape)),
                 "div")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul dimension error: {a.shape} @ {b.shape}")
    data = a.data @ b.data
    return _make(data, (a, b),
                 lambda g: (g @ b.data.T if a.requires_grad else None,
                            a.data.T @ g if b.requires_grad else None),
                 "matmul")


# -- elementwise nonlinearities ---------------------------------------------

def texp(x: Tensor) -> Tensor:
    data = np.exp(x.data)
    return _make(data, (x,), lambda g: (g * data,), "exp")


def _sigmoid(x: np.ndarray, out: np.ndarray | None = None,
             tmp: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) as exp(min(x, 0)) / (1 + exp(-|x|)).

    Both exponents are <= 0, so nothing overflows; underflow toward 0 is
    the correct limit and is not reported. Given buffers shaped like ``x``
    (neither of them ``x``), the result goes into ``out`` and ``tmp`` is
    scratch; the values are the same either way.
    """
    with np.errstate(under="ignore"):
        num = np.exp(np.minimum(x, 0.0, out=out), out=out)
        den = np.add(1.0, np.exp(np.negative(np.abs(x, out=tmp), out=tmp), out=tmp), out=tmp)
        return np.divide(num, den, out=out)


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    return _make(s, (x,), lambda g: (g * s * (1.0 - s),), "sigmoid")


def _softplus(x: np.ndarray, out: np.ndarray | None = None,
              tmp: np.ndarray | None = None) -> np.ndarray:
    """log(1 + exp(x)) as log1p(exp(-|x|)) + max(x, 0), which cannot overflow;
    x is added only where it is > 0, since adding 0 leaves a log1p unchanged.

    ``out`` and ``tmp`` are optional buffers, as for ``_sigmoid``; ``tmp``
    ends holding exp(-|x|)."""
    with np.errstate(under="ignore"):   # log(1 + e) with e underflowing to 0
        e = np.exp(np.negative(np.abs(x, out=tmp), out=tmp), out=tmp)
        tail = np.log1p(e, out=out)
        return np.add(tail, x, out=tail, where=x > 0.0)


def softplus(x: Tensor) -> Tensor:
    e = np.empty_like(x.data)   # sigmoid: exp(min(x, 0)) / (1 + e), and e = exp(x) if x <= 0
    return _make(_softplus(x.data, tmp=e), (x,),
                 lambda g: (g * (np.where(x.data > 0.0, 1.0, e) / (1.0 + e)),), "softplus")


def silu(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)
    data = x.data * s

    def grad_fn(g):   # g * s * (1.0 + x * (1.0 - s)), in two arrays
        t = np.subtract(1.0, s)
        t = np.add(1.0, np.multiply(x.data, t, out=t), out=t)
        return (np.multiply(np.multiply(g, s), t, out=t),)

    return _make(data, (x,), grad_fn, "silu")


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


class _Slice(tuple):
    """(index, gradient) from a getitem that picks part of its input."""


def getitem(x: Tensor, idx) -> Tensor:
    # Basic indices pick each element once, so += into zeros suffices; an idx that
    # covers all of x in order adds 0.0 instead. Both map -0.0 to +0.0.
    if not _is_basic_index(idx):
        raise TypeError(f"getitem takes basic indices only, got {idx!r}")

    def grad_fn(g):
        if g.size == x.data.size and all((i.step or 1) > 0 for i in np.index_exp[idx]
                                         if isinstance(i, slice)):
            return (np.add(g, 0.0).reshape(x.shape),)
        return (_Slice((idx, g)),)

    return _make(np.asarray(x.data[idx], dtype=np.float64), (x,), grad_fn, "getitem")


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


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                xhat: np.ndarray | None = None, out: np.ndarray | None = None):
    """(gamma * xhat + beta, xhat, 1/std): x normalized over its last axis.

    ``xhat`` and ``out`` are optional buffers shaped like ``x`` for those
    two results; ``out`` may be ``x`` itself, which is read before it is
    written. The values are the same either way.
    """
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True, mean=mu)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = np.multiply(np.subtract(x, mu, out=xhat), inv, out=xhat)
    return np.add(np.multiply(gamma, xhat, out=out), beta, out=out), xhat, inv


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis to zero mean / unit variance, then affine."""
    data, xhat, inv = _layer_norm(x.data, gamma.data, beta.data)
    reduce_axes = tuple(range(x.data.ndim - 1))

    def grad_fn(g):
        # inv * (gg - mean(gg) - xhat * mean(gg * xhat)), gg = g * gamma, in two arrays
        gg = g * gamma.data
        t = np.multiply(gg, xhat)
        m1, m2 = gg.mean(axis=-1, keepdims=True), t.mean(axis=-1, keepdims=True)
        dx = np.subtract(gg, m1, out=gg)
        dx = np.multiply(inv, np.subtract(dx, np.multiply(xhat, m2, out=t), out=dx), out=dx)
        dgamma = np.multiply(g, xhat, out=t).sum(axis=reduce_axes)
        return dx, dgamma, g.sum(axis=reduce_axes)

    return _make(data, (x, gamma, beta), grad_fn, "layer_norm")


def causal_conv1d(u: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Depthwise causal 1-D convolution over [B, L, D].

    ``kernel`` is [D, w]; tap i reaches back ``w - 1 - i`` positions over zero history, so
    output t sees only inputs <= t. Both passes add, in tap order, into zeros (``0 + -0.0``
    is ``+0.0``) only the taps that reach an output: ``max(0, w - L)`` to ``w - 1``.
    """
    B, L, D = u.shape
    if kernel.data.ndim != 2 or kernel.shape[0] != D or kernel.shape[1] < 1:
        raise ValueError(f"causal_conv1d kernel shape {kernel.shape} incompatible with input {u.shape}")
    w = kernel.shape[1]
    taps = range(max(0, w - L), w)
    data = np.zeros_like(u.data)
    for i in taps:
        s = w - 1 - i
        data[:, s:, :] += kernel.data[:, i] * u.data[:, : L - s, :]
    data = data + bias.data

    def grad_fn(g):
        du = np.zeros_like(u.data)
        dk = np.zeros_like(kernel.data)
        for i in taps:
            s = w - 1 - i
            du[:, : L - s, :] += kernel.data[:, i] * g[:, s:, :]
            dk[:, i] = np.sum(g[:, s:, :] * u.data[:, : L - s, :], axis=(0, 1))
        return du, dk, g.sum(axis=(0, 1))

    return _make(data, (u, kernel, bias), grad_fn, "causal_conv1d")


def zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape))
