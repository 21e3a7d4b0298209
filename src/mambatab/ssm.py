"""Selective state-space machinery: discretization, scan, and the Mamba block.

A block maps [B, L, D] -> [B, L, D] through two linear branches: the
first goes depthwise causal conv -> SiLU -> selective scan, the second
gates the scan output multiplicatively through SiLU, and a final linear
projection returns to width D. The scan coefficients (step size, input
and output mixing) are generated per token from the conv output, which
is what lets the recurrence propagate or forget content-dependently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from .tensor import Tensor


def dt_rank_for(embed_dim: int) -> int:
    return max(1, math.ceil(embed_dim / 16))


def discretize(a, b, delta):
    """Zero-order-hold discretization of dh/dt = a*h + b*u over step ``delta``.

    Returns (a_bar, b_bar) with a_bar = exp(delta*a) and
    b_bar = (exp(delta*a) - 1)/a * b, taking the analytic limit
    b_bar = delta*b as a -> 0. Elementwise over numpy inputs.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    x = delta * a
    a_bar = np.exp(x)
    # expm1 keeps full precision where exp(x)-1 would cancel; the a==0
    # limit of (exp(delta*a)-1)/a is delta exactly.
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(a == 0.0, delta, np.expm1(x) / np.where(a == 0.0, 1.0, a))
    b_bar = factor * b
    if a_bar.ndim == 0:
        return float(a_bar), float(b_bar)
    return a_bar, b_bar


# Checkpoint name of each block tensor, in MambaBlockParams field order;
# SSM tensors keep an ``ssm.`` prefix.
BLOCK_NAMES = ("in_proj.w", "in_proj.b", "conv.kernel", "conv.bias", "ssm.a_log", "ssm.d_skip",
               "ssm.x_proj.w", "ssm.dt_proj.w", "ssm.dt_proj.b", "out_proj.w", "out_proj.b")


def block_shapes(embed_dim: int, expand: int, state_size: int, d_conv: int,
                 dt_rank: int) -> list[tuple[int, ...]]:
    """Shape of each block tensor, in ``BLOCK_NAMES`` order."""
    e = expand * embed_dim
    return [(embed_dim, 2 * e), (2 * e,), (e, d_conv), (e,), (e, state_size), (e,),
            (e, dt_rank + 2 * state_size), (dt_rank, e), (e,), (e, embed_dim), (embed_dim,)]


@dataclass
class MambaBlockParams:
    """All eleven learnable tensors of one block, in checkpoint order.

    ``a_log`` stores log(-A) for the diagonal state matrix, so
    A = -exp(a_log) is strictly negative and the recurrence is stable.
    ``x_proj`` maps each token to its step-size precursor and the
    per-token input/output mixing vectors; ``dt_proj`` expands the
    precursor back to one step size per channel. Shapes are those of
    ``block_shapes``.
    """

    in_proj_w: Tensor
    in_proj_b: Tensor
    conv_kernel: Tensor
    conv_bias: Tensor
    a_log: Tensor
    d_skip: Tensor
    x_proj_w: Tensor     # no bias
    dt_proj_w: Tensor
    dt_proj_b: Tensor
    out_proj_w: Tensor
    out_proj_b: Tensor

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """(checkpoint name, tensor) pairs in field order."""
        return [(name, getattr(self, f.name)) for name, f in zip(BLOCK_NAMES, fields(self))]


def uniform_init(rng: np.random.Generator, fan_in: int, shape) -> np.ndarray:
    """A weight drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in)): every block,
    embedding and head weight of the model starts this way."""
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def draw_block(p: MambaBlockParams, rng: np.random.Generator) -> None:
    """Draw a block's initial weights into its tensors, in place; the three
    biases it does not write keep their zeros."""
    # Draw order, as in every saved model: in_proj, conv, dt, x_proj, dt_proj, out_proj.
    p.in_proj_w.data[...] = uniform_init(rng, p.in_proj_w.shape[0], p.in_proj_w.shape)
    p.conv_kernel.data[...] = uniform_init(rng, p.conv_kernel.shape[1], p.conv_kernel.shape)
    # Step sizes start in [1e-3, 1e-1]: softplus(dt_proj_b) == dt exactly
    # because the bias is the softplus inverse of the sampled dt.
    dt = np.exp(rng.uniform(math.log(1e-3), math.log(1e-1), size=p.dt_proj_b.shape))
    p.dt_proj_b.data[...] = dt + np.log(-np.expm1(-dt))
    # A[d, n] = -(n+1): distinct stable decay rates per state coordinate.
    p.a_log.data[...] = np.log(np.arange(1, p.a_log.shape[1] + 1, dtype=np.float64))
    p.d_skip.data[...] = 1.0
    for w in (p.x_proj_w, p.dt_proj_w, p.out_proj_w):   # each is [fan_in, fan_out]
        w.data[...] = uniform_init(rng, w.shape[0], w.shape)


def init_mamba_block(embed_dim: int, expand: int, state_size: int, d_conv: int,
                     rng: np.random.Generator) -> MambaBlockParams:
    shapes = block_shapes(embed_dim, expand, state_size, d_conv, dt_rank_for(embed_dim))
    params = MambaBlockParams(*(Tensor(np.zeros(shape), requires_grad=True) for shape in shapes))
    draw_block(params, rng)
    return params


def block_param_count(embed_dim: int, expand: int, state_size: int,
                      d_conv: int, dt_rank: int) -> int:
    """Learnable-scalar count of one block."""
    return sum(math.prod(s) for s in block_shapes(embed_dim, expand, state_size, d_conv, dt_rank))


def generate_selective_coeffs(params: MambaBlockParams, conv_out: Tensor):
    """Per-token scan coefficients from the conv branch output.

    Returns (delta, B_t, C_t): delta [B, L, D_inner] strictly positive via
    softplus, B_t and C_t [B, L, N].
    """
    r, n = params.dt_proj_w.shape[0], params.a_log.shape[1]
    dbc = T.linear(conv_out, params.x_proj_w)
    dt_pre = dbc[..., :r]
    b_t = dbc[..., r:r + n]
    c_t = dbc[..., r + n:]
    delta = T.softplus(T.linear(dt_pre, params.dt_proj_w, params.dt_proj_b))
    return delta, b_t, c_t


def selective_scan(u: Tensor, delta: Tensor, b_t: Tensor, c_t: Tensor,
                   a: Tensor, d_skip: Tensor, exact_zoh: bool = False) -> Tensor:
    """Run the discrete recurrence h_k = exp(delta*a) h_{k-1} + delta_b u_k.

    Shapes: u, delta [B, L, D_inner]; b_t, c_t [B, L, N]; a [D_inner, N]
    strictly negative; d_skip [D_inner]. The hidden state starts at zero.
    Output x_k = sum_n c_t[k, n] * h_k[n] + d_skip * u_k, shape [B, L, D_inner].

    By default the input term uses the simplified hold delta*b_t; with
    ``exact_zoh`` it uses the full (exp(delta*a) - 1)/a * b_t instead.
    Differentiable throughout (the loop unrolls onto the graph).
    """
    nb, nl, nd = u.shape
    if nl == 1 and not exact_zoh:
        # One step from h_0 = 0 collapses to x = (delta*u) * (b.c) + d_skip*u,
        # which never materializes the [B, D, N] state. Same math as the
        # loop below, reassociated.
        bc = (b_t[:, 0, :] * c_t[:, 0, :]).sum(axis=-1, keepdims=True)  # [B, 1]
        u0 = u[:, 0, :]
        x = delta[:, 0, :] * u0 * bc + d_skip * u0
        return T.reshape(x, (nb, 1, nd))
    h = None
    outputs = []
    for k in range(nl):
        dk = T.reshape(delta[:, k, :], (nb, nd, 1))      # [B, D, 1]
        uk = u[:, k, :]                                   # [B, D]
        bk = T.reshape(b_t[:, k, :], (nb, 1, -1))         # [B, 1, N]
        ck = T.reshape(c_t[:, k, :], (nb, 1, -1))
        if exact_zoh:
            # (exp(delta*a) - 1)/a; a is strictly negative so no limit branch.
            input_hold = (T.texp(dk * a) - 1.0) / a
        else:
            input_hold = dk
        dbu = input_hold * bk * T.reshape(uk, (nb, nd, 1))  # [B, D, N]
        if h is None:
            h = dbu  # exp(delta*a) * h_0 vanishes: h_0 = 0
        else:
            h = T.texp(dk * a) * h + dbu
        xk = (h * ck).sum(axis=-1) + d_skip * uk
        outputs.append(T.reshape(xk, (nb, 1, nd)))
    return T.concat(outputs, axis=1)


def mamba_block_forward(params: MambaBlockParams, u: Tensor) -> Tensor:
    """Full gated block: shape-preserving [B, L, D] -> [B, L, D]."""
    d_inner = params.conv_bias.shape[0]
    xz = T.linear(u, params.in_proj_w, params.in_proj_b)
    x = xz[..., :d_inner]
    z = xz[..., d_inner:]
    x = T.silu(T.causal_conv1d(x, params.conv_kernel, params.conv_bias))
    delta, b_t, c_t = generate_selective_coeffs(params, x)
    a = -T.texp(params.a_log)
    y = selective_scan(x, delta, b_t, c_t, a, params.d_skip)
    y = y * T.silu(z)
    return T.linear(y, params.out_proj_w, params.out_proj_b)
