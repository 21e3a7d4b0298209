"""The full network: embedding -> layer norm -> ReLU -> residual blocks -> head.

The embedding learner maps any feature cardinality to a fixed width, so
every non-embedding tensor keeps its shape when features are added over
time; `transfer_weights` exploits that to continue training after the
schema grows. Classification heads emit raw logits (the sigmoid lives
with the loss and metrics), reconstruction heads emit one value per
input feature.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import struct
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import ssm, tensor as T
from .tensor import Tensor, _sigmoid

CHECKPOINT_MAGIC = b"MTCK"
CHECKPOINT_VERSION = 1
# Rows per forward pass when scoring or validating. The chunk size is part of
# the numbers, because the BLAS picks its matmul kernel by matrix shape: on
# three trained 12-feature checkpoints scoring 50k rows, 256-row chunks changed
# the last bits of a few logits on two of them and 128-row chunks on all
# three, and a change there moves validation losses and so training. 512-row
# chunks kept every bit but were no faster.
CHUNK_ROWS = 1024


class CheckpointError(ValueError):
    """Checkpoint file is missing, truncated, corrupt, or wrong version."""


@dataclass
class ModelConfig:
    n_features: int
    embed_dim: int = 32
    state_size: int = 32
    expand: int = 2
    d_conv: int = 4
    n_blocks: int = 1
    head: str = "classification"
    use_layer_norm: bool = True

    def __post_init__(self):
        for name in ("n_features", "embed_dim", "state_size", "expand", "d_conv", "n_blocks"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        if self.head not in ("classification", "reconstruction"):
            raise ValueError(f"unknown head kind '{self.head}'")
        if type(self.use_layer_norm) is not bool:
            raise ValueError(f"use_layer_norm must be a bool, got {self.use_layer_norm!r}")

    @property
    def head_out(self) -> int:
        return 1 if self.head == "classification" else self.n_features

    @property
    def param_count(self) -> int:
        """Learnable-scalar count of the model this config builds."""
        return sum(math.prod(shape) for _, shape in self.layout())

    def layout(self):
        """Yield (checkpoint name, shape) of every parameter, in checkpoint order."""
        d = self.embed_dim
        yield from [("embed.w", (self.n_features, d)), ("embed.b", (d,)),
                    ("ln.gamma", (d,)), ("ln.beta", (d,))]
        block = ssm.block_shapes(d, self.expand, self.state_size, self.d_conv, ssm.dt_rank_for(d))
        for i in range(self.n_blocks):
            yield from ((f"blocks.{i}.{n}", s) for n, s in zip(ssm.BLOCK_NAMES, block))
        yield from [("head.w", (d, self.head_out)), ("head.b", (self.head_out,))]

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        if d.pop("seq_len", 1) != 1:   # older headers carry "seq_len": 1
            raise ValueError("only seq_len == 1 is supported; the embedding forms one token")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**d)


class MambaTabModel:
    def __init__(self, config: ModelConfig, rng: np.random.Generator | int = 0):
        rng = np.random.default_rng(rng)
        self.config = config
        d = config.embed_dim
        self.embed_w = ssm.uniform_init(rng, config.n_features, (config.n_features, d))
        self.embed_b = Tensor(np.zeros(d), requires_grad=True)
        self.ln_gamma = Tensor(np.ones(d), requires_grad=True)
        self.ln_beta = Tensor(np.zeros(d), requires_grad=True)
        self.blocks = [
            ssm.init_mamba_block(d, config.expand, config.state_size, config.d_conv, rng)
            for _ in range(config.n_blocks)
        ]
        self.head_w, self.head_b = _init_head(config, rng)
        # Every weight lives in one float64 vector in layout order; each
        # parameter's data is a view into it, written in place, never rebound.
        params = [p for _, p in self.named_parameters()]
        self.flat = np.concatenate([p.data.ravel() for p in params])
        ends = itertools.accumulate(p.size for p in params)
        for p, end in zip(params, ends):
            p.data = self.flat[end - p.size:end].reshape(p.shape)

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """(checkpoint name, tensor) pairs in ``config.layout()`` order."""
        tensors = [self.embed_w, self.embed_b, self.ln_gamma, self.ln_beta,
                   *(p for block in self.blocks for _, p in block.named_parameters()),
                   self.head_w, self.head_b]
        return [(name, p) for (name, _), p in zip(self.config.layout(), tensors, strict=True)]

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.zero_grad()

    def forward(self, x, *, graph: bool = True):
        """Logits [B, 1] (classification) or reconstruction [B, n_features].

        ``x`` is a [B, n_features] array of values in [0, 1], or a Tensor.
        With ``graph=False`` (``x`` an array) the same values come back bit
        for bit as a plain array, and no autodiff graph is recorded:
        scoring and validation run that way, training steps on the graph.
        """
        if not graph:
            return self._forward_array(x)
        if not isinstance(x, Tensor):
            x = Tensor(x)
        self._check_width(x.shape)
        h = T.linear(x, self.embed_w, self.embed_b)
        if self.config.use_layer_norm:
            h = T.layer_norm(h, self.ln_gamma, self.ln_beta)
        h = T.relu(h)
        h = T.reshape(h, (x.shape[0], 1, self.config.embed_dim))   # one token
        for block in self.blocks:
            h = ssm.mamba_block_forward(block, h) + h
        flat = T.reshape(h, (x.shape[0], self.config.embed_dim))
        return T.linear(flat, self.head_w, self.head_b)

    def _check_width(self, shape) -> None:
        if shape[-1] != self.config.n_features:
            raise ValueError(
                f"input has {shape[-1]} features, model expects {self.config.n_features}")

    def _forward_array(self, x) -> np.ndarray:
        """``forward``'s output as an array, computed in plain numpy at L = 1.

        Every numpy call is the graph's own, made on the same views in the
        same order, so the output is bit-identical; ``-exp(a_log)``, which
        L = 1 never reads, is skipped. The graph checks every op's output
        for non-finite values. A non-finite value reaches the output here
        unless ReLU or softplus maps -inf to 0, or it sits in the skipped
        ``exp``, so checking the input, the ReLU input, each softplus input,
        ``exp(a_log)`` and the output fails exactly when the graph would.
        A failed check replays the chunk through the graph, which raises
        the NumericsError that names the op.
        """
        x = T._as_array(x)
        if not np.isfinite(x).all():
            self._replay(x)
        self._check_width(x.shape)
        cfg = self.config
        with np.errstate(all="ignore"):   # the checks below find what numpy would warn of
            h = _linear(x, self.embed_w.data, self.embed_b.data)
            if cfg.use_layer_norm:
                h = T._layer_norm(h, self.ln_gamma.data, self.ln_beta.data)[0]
            finite = bool(np.isfinite(h).all())
            h = np.maximum(h, 0.0).reshape((x.shape[0], 1, cfg.embed_dim))
            for block in self.blocks:
                y, block_finite = _block_array(block, h)
                h = y + h
                finite = finite and block_finite
            out = _linear(h.reshape((x.shape[0], cfg.embed_dim)), self.head_w.data, self.head_b.data)
        if not (finite and np.isfinite(out).all()):
            self._replay(x)
        return out

    def _replay(self, x: np.ndarray):
        """Run ``x`` through the graph, which raises the NumericsError naming
        the op and warns as it always did."""
        self.forward(x)
        raise AssertionError("the graph accepted a chunk the graph-free forward rejected")

    def predict_logits(self, values: np.ndarray) -> np.ndarray:
        """Classification logits [m] for [m, n_features] rows, chunked."""
        if self.config.head != "classification":
            raise ValueError("predictions require a classification head")
        return np.concatenate([z[:, 0] for _, z in self.forward_chunks(values)])

    def predict_proba(self, values: np.ndarray) -> np.ndarray:
        """Classification probabilities [m] for [m, n_features] rows, chunked.

        Float64 rounds every probability above a logit of about 36.7 to
        exactly 1.0, so rank the logits when ties matter.
        """
        return _sigmoid(self.predict_logits(values))

    def forward_chunks(self, values: np.ndarray):
        """Yield (row slice, forward output array) per ``CHUNK_ROWS`` rows, in order.

        Each chunk runs the graph-free forward, so no autodiff graph is built.
        """
        for start in range(0, len(values), CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            yield rows, self.forward(values[rows], graph=False)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """``T.linear``'s numpy calls: flatten the leading axes, matmul, restore them, add."""
    out = (x.reshape((-1, x.shape[-1])) @ w).reshape(x.shape[:-1] + (w.shape[1],))
    return out if b is None else out + b


def _silu(x: np.ndarray) -> np.ndarray:
    return x * _sigmoid(x)


def _block_array(p: ssm.MambaBlockParams, u: np.ndarray) -> tuple[np.ndarray, bool]:
    """``ssm.mamba_block_forward`` on a [B, 1, D] array, and whether its
    softplus input and ``exp(a_log)`` are finite."""
    d_inner = p.conv_bias.shape[0]
    r, n = p.dt_proj_w.shape[0], p.a_log.shape[1]
    xz = _linear(u, p.in_proj_w.data, p.in_proj_b.data)
    x, z = xz[..., :d_inner], xz[..., d_inner:]
    conv = np.zeros_like(x)   # causal_conv1d at L = 1: only the last tap reaches
    conv += p.conv_kernel.data[:, -1] * x   # zeros plus the tap, so -0.0 becomes +0.0
    x = _silu(conv + p.conv_bias.data)
    dbc = _linear(x, p.x_proj_w.data)
    dt = _linear(dbc[..., :r], p.dt_proj_w.data, p.dt_proj_b.data)
    delta = T._softplus(dt)
    # selective_scan's collapsed single step
    bc = (dbc[..., r:r + n][:, 0, :] * dbc[..., r + n:][:, 0, :]).sum(axis=-1, keepdims=True)
    u0 = x[:, 0, :]
    y = (delta[:, 0, :] * u0 * bc + p.d_skip.data * u0).reshape(x.shape)
    y = y * _silu(z)
    finite = bool(np.isfinite(dt).all() and np.isfinite(np.exp(p.a_log.data)).all())
    return _linear(y, p.out_proj_w.data, p.out_proj_b.data), finite


def _init_head(config: ModelConfig, rng: np.random.Generator):
    w = ssm.uniform_init(rng, config.embed_dim, (config.embed_dim, config.head_out))
    return w, Tensor(np.zeros(config.head_out), requires_grad=True)


def count_parameters(model: MambaTabModel) -> int:
    return model.flat.size


def transfer_weights(old: MambaTabModel, new_config: ModelConfig,
                     column_mapping: list[int]) -> MambaTabModel:
    """Grow a model to a larger feature set, keeping everything it learned.

    ``column_mapping[i]`` is the new index of old feature i. Embedding
    rows for retained features are copied, rows for new features start
    at zero (so, fed zeros or with untouched inputs, the grown model
    reproduces the old one exactly); all other tensors copy verbatim.
    """
    if len(column_mapping) != old.config.n_features:
        raise ValueError("column_mapping must cover every old feature")
    if len(set(column_mapping)) != len(column_mapping):
        raise ValueError("column_mapping must be injective")
    if any(j < 0 or j >= new_config.n_features for j in column_mapping):
        raise ValueError("column_mapping index out of range")
    if replace(old.config, n_features=new_config.n_features) != new_config:
        raise ValueError("only n_features may change across a transfer")
    if new_config.head == "reconstruction":
        raise ValueError("transfer with a reconstruction head is not supported")
    new = MambaTabModel(new_config, rng=0)
    new.embed_w.data[:] = 0.0
    new.embed_w.data[column_mapping, :] = old.embed_w.data
    new.flat[new.embed_w.size:] = old.flat[old.embed_w.size:]   # embed.w leads the layout
    return new


def swap_head(model: MambaTabModel, head: str, rng: np.random.Generator | int) -> MambaTabModel:
    """Same body, freshly initialized head of the requested kind."""
    config = replace(model.config, head=head)
    new = MambaTabModel(config, rng=0)
    body = model.flat.size - model.head_w.size - model.head_b.size   # the head ends the layout
    new.flat[:body] = model.flat[:body]
    new_w, new_b = _init_head(config, np.random.default_rng(rng))
    new.head_w.data[:] = new_w.data
    new.head_b.data[:] = new_b.data
    return new


# -- checkpoint container -----------------------------------------------------
#
# Layout: magic, u32 version, u64-length JSON header (config, metadata, and
# "tensors": the config's layout() as {"name", "shape"} objects), then the
# payload: ``model.flat`` as raw little-endian float64, which holds the
# tensors back to back in that order. A loader checks that the "tensors"
# list equals its config's layout (names, shapes, order) before it reads any
# payload or allocates any weight. Everything is a pure function of the
# content, so identical models produce identical bytes.

def save(model: MambaTabModel, path, metadata: dict | None = None) -> None:
    header = {
        "config": asdict(model.config),
        "metadata": metadata or {},
        "tensors": [{"name": n, "shape": list(s)} for n, s in model.config.layout()],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(model.flat.astype("<f8", copy=False).tobytes())


def _read_exact(fh, n: int, what: str) -> bytes:
    # Checked against the file size before reading, so a corrupt length
    # cannot ask for a huge buffer.
    remaining = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > remaining:
        raise CheckpointError(f"truncated checkpoint: {what} needs {n} bytes at byte "
                              f"{fh.tell()}, {remaining} follow")
    return fh.read(n)


def load(path) -> MambaTabModel:
    model, _ = load_with_metadata(path)
    return model


def load_with_metadata(path) -> tuple[MambaTabModel, dict]:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path} is not a model checkpoint")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (header_len,) = struct.unpack("<Q", _read_exact(fh, 8, "header length"))
        try:
            header = json.loads(_read_exact(fh, header_len, "header"))
        except ValueError as e:   # not JSON, or not UTF-8
            raise CheckpointError(f"corrupt checkpoint header: {e}") from None
        if not isinstance(header, dict):
            raise CheckpointError("checkpoint header is not a JSON object")
        missing = sorted({"config", "metadata", "tensors"} - set(header))
        if missing:
            raise CheckpointError(f"checkpoint header lacks keys {missing}")
        try:
            config = ModelConfig.from_dict(header["config"])
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"bad model config in checkpoint header: {e}") from None
        if not isinstance(header["metadata"], dict) or not isinstance(header["tensors"], list):
            raise CheckpointError("checkpoint header needs an object 'metadata' and a list 'tensors'")
        entries = header["tensors"]
        # The list must equal the config's layout, made only as far as the list
        # reaches plus one entry. A dimension must be a JSON int: 32.0 or true fail.
        sizes = ", ".join(f"{f.name}={getattr(config, f.name)}" for f in fields(config))
        layout = itertools.islice(config.layout(), len(entries) + 1)
        for index, (entry, want) in enumerate(itertools.zip_longest(entries, layout)):
            want = want and {"name": want[0], "shape": list(want[1])}
            if want is None or entry != want or any(type(d) is not int for d in entry["shape"]):
                raise CheckpointError(
                    f"tensors entry {index} should be {json.dumps(want) if want else 'absent'} "
                    f"under checkpoint config ({sizes})")
        # Python ints: an int64 sum of sizes could wrap past the length check.
        ends = list(itertools.accumulate(math.prod(entry["shape"]) for entry in entries))
        raw = _read_exact(fh, 8 * ends[-1], "tensor payload")
        if fh.read(1):
            raise CheckpointError("trailing bytes after checkpoint payload")
    flat = np.frombuffer(raw, dtype="<f8")
    finite = np.isfinite(flat)
    if not finite.all():
        name = entries[np.searchsorted(ends, np.argmin(finite), side="right")]["name"]
        raise CheckpointError(f"tensor '{name}' holds non-finite values")
    model = MambaTabModel(config, rng=0)
    model.flat[:] = flat
    return model, header["metadata"]
