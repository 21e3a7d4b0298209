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
# chunks kept every bit but were no faster. One `forward_chunks` call runs all
# its chunks in one workspace of float64 buffers (`_workspace`), sized for one
# chunk and written with `out=`; a tail chunk uses leading rows. Allocating a
# chunk's intermediates afresh let the allocator hand about 6 MB back to the
# system after every chunk and fault it in again for the next. The workspace
# lives for that call only, and the array each chunk returns is new, because
# validation and scoring keep every chunk's output.
CHUNK_ROWS = 1024


class CheckpointError(T.InputError):
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
        """Learnable-scalar count of the model this config builds, in O(1):
        ``layout()`` grows with ``n_blocks``, and every block has one size."""
        one_block = sum(math.prod(shape) for _, shape in replace(self, n_blocks=1).layout())
        d = self.embed_dim
        block = ssm.block_param_count(d, self.expand, self.state_size, self.d_conv,
                                      ssm.dt_rank_for(d))
        return one_block + (self.n_blocks - 1) * block

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
        seq_len = d.pop("seq_len", 1)   # older headers carry "seq_len": 1
        if type(seq_len) is not int or seq_len != 1:
            raise ValueError(f"seq_len must be the JSON int 1, got {seq_len!r}; "
                             f"the embedding forms one token")
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown model config keys: {sorted(unknown)}")
        return cls(**d)


class MambaTabModel:
    def __init__(self, config: ModelConfig, rng: np.random.Generator | int = 0):
        rng = np.random.default_rng(rng)
        self._bind(config, np.zeros(config.param_count))
        # Draw order, as in every saved model: embedding, each block, head.
        self.embed_w.data[...] = ssm.uniform_init(rng, config.n_features, self.embed_w.shape)
        self.ln_gamma.data[...] = 1.0
        for block in self.blocks:
            ssm.draw_block(block, rng)
        self.head_w.data[...] = ssm.uniform_init(rng, config.embed_dim, self.head_w.shape)

    @classmethod
    def _from_flat(cls, config: ModelConfig, flat: np.ndarray) -> "MambaTabModel":
        """A model whose weights are ``flat`` itself, drawing nothing."""
        model = cls.__new__(cls)
        model._bind(config, flat)
        return model

    def _bind(self, config: ModelConfig, flat: np.ndarray) -> None:
        # Every weight lives in one float64 vector in layout order; each
        # parameter's data is a view into it, written in place, never rebound.
        self.config, self.flat = config, flat
        layout = list(config.layout())
        ends = itertools.accumulate(math.prod(shape) for _, shape in layout)
        self._named = [(name, Tensor(flat[end - math.prod(shape):end].reshape(shape),
                                     requires_grad=True))
                       for (name, shape), end in zip(layout, ends)]
        params = [p for _, p in self._named]
        self.embed_w, self.embed_b, self.ln_gamma, self.ln_beta = params[:4]
        k = len(ssm.BLOCK_NAMES)
        self.blocks = [ssm.MambaBlockParams(*params[4 + i * k:4 + (i + 1) * k])
                       for i in range(config.n_blocks)]
        self.head_w, self.head_b = params[-2:]

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """(checkpoint name, tensor) pairs in ``config.layout()`` order."""
        return list(self._named)

    def zero_grad(self) -> None:
        for _, p in self._named:
            p.zero_grad()

    def forward(self, x, *, _work: dict[str, np.ndarray] | None = None):
        """Logits [B, 1] (classification) or reconstruction [B, n_features]
        of a 2-D [B, n_features] array or Tensor ``x`` of values in [0, 1],
        as a Tensor recording the autodiff graph that training steps on.

        ``_work`` is private to ``forward_chunks``, the one no-gradient path,
        whose chunks enter here with their shared buffers and leave as plain
        arrays of the same bytes, so that a trace counts them as forwards.
        """
        if _work is not None:
            return self._forward_array(x, _work)
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
        if len(shape) != 2:
            raise ValueError(f"input must be [rows, n_features], got shape {shape}")
        if shape[1] != self.config.n_features:
            raise ValueError(
                f"input has {shape[1]} features, model expects {self.config.n_features}")

    def _forward_array(self, x: np.ndarray, work: dict[str, np.ndarray]) -> np.ndarray:
        """``forward``'s output as a new array, computed in plain numpy at L = 1.

        Every numpy call is the graph's own, made in the same order on
        operands of the same values and memory layout, so the output is
        bit-identical; ``-exp(a_log)``, which L = 1 never reads, is skipped.
        Intermediates go through ``out=`` into ``work``, ``_workspace``
        buffers for at least as many rows as ``x``. The graph checks every
        op's output for non-finite values. A non-finite value reaches the
        output here unless ReLU or softplus maps -inf to 0, or it sits in
        the skipped ``exp``, so checking the input, the ReLU input, each
        softplus input, ``exp(a_log)`` and the output fails exactly when
        the graph would. A failed check replays the chunk through the
        graph, which raises the NumericsError that names the op.
        """
        x = T._as_array(x)
        if not np.isfinite(x).all():
            self._replay(x)
        self._check_width(x.shape)
        buf = {name: b[:len(x)] for name, b in work.items()}
        h = _linear(x, self.embed_w.data, self.embed_b.data, out=buf["h"])
        if self.config.use_layer_norm:
            T._layer_norm(h, self.ln_gamma.data, self.ln_beta.data, xhat=buf["d"], out=h)
        finite = np.isfinite(h).all()
        np.maximum(h, 0.0, out=h)
        for block in self.blocks:
            finite = _block_array(block, buf) and finite
        out = _linear(h, self.head_w.data, self.head_b.data)   # new: callers keep it
        if not (finite and np.isfinite(out).all()):
            self._replay(x)
        return out

    def _replay(self, x: np.ndarray):
        """Run ``x`` through the graph, which raises the op's NumericsError."""
        self.forward(x)
        raise AssertionError("the graph accepted a chunk the graph-free forward rejected")

    def predict_logits(self, values: np.ndarray) -> np.ndarray:
        """Classification logits [m] for a 2-D [m, n_features] array, chunked."""
        if self.config.head != "classification":
            raise ValueError("predictions require a classification head")
        return np.concatenate([z[:, 0] for _, z in self.forward_chunks(values)])

    def predict_proba(self, values: np.ndarray) -> np.ndarray:
        """Classification probabilities [m] for a 2-D [m, n_features] array, chunked.

        Float64 rounds every probability above a logit of about 36.7 to
        exactly 1.0, so rank the logits when ties matter.
        """
        return _sigmoid(self.predict_logits(values))

    def forward_chunks(self, values: np.ndarray):
        """Yield (row slice, graph-free forward output) per ``CHUNK_ROWS`` rows
        of a 2-D [m, n_features] array, in order; zero rows yield one empty chunk.

        The chunks share one workspace, made for this call and dropped when
        the generator ends or is closed; every yielded array is new.
        """
        work = _workspace(self.config, min(CHUNK_ROWS, len(values)))
        for start in range(0, len(values) or 1, CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            yield rows, self.forward(values[rows], _work=work)

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}


def _workspace(config: ModelConfig, rows: int) -> dict[str, np.ndarray]:
    """Buffers for the graph-free forward of up to ``rows`` rows; a shorter
    chunk uses their leading rows.

    Buffers are shared by liveness. ``h`` holds the residual stream; ``d``
    the layer norm's xhat, then each block's output projection; ``xz`` the
    input projection, whose two halves stay live until the gate; ``conv``
    the conv output, then delta and the scan output y; ``act`` SiLU(conv),
    which the scan reads as u, then SiLU(z); ``dt`` the softplus input,
    then d_skip * u; ``tmp`` each SiLU's and softplus's scratch; ``bc`` the
    scan's B * C.
    """
    return {name: np.empty((rows, width)) for name, width in _workspace_widths(config).items()}


def _workspace_widths(config: ModelConfig) -> dict[str, int]:
    """``_workspace``'s buffer widths as plain ints, which the size cap sums
    for models too wide for numpy to make an array of."""
    d, n = config.embed_dim, config.state_size
    e = config.expand * d
    return {"h": d, "d": d, "xz": 2 * e, "conv": e, "act": e, "dt": e, "tmp": e,
            "dbc": ssm.dt_rank_for(d) + 2 * n, "bc": n}


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """``T.linear``'s numpy calls on a 2-D ``x``: matmul, then add the bias,
    into ``out`` when given, else into a new array."""
    out = np.matmul(x, w, out=out)
    return out if b is None else np.add(out, b, out=out)


def _silu(x: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    return np.multiply(x, _sigmoid(x, out=out, tmp=tmp), out=out)


def _block_array(p: ssm.MambaBlockParams, buf: dict[str, np.ndarray]) -> bool:
    """``ssm.mamba_block_forward`` at L = 1 on ``buf["h"]``, added into it in
    place as the residual; returns whether the block's softplus input and
    ``exp(a_log)`` are finite. ``buf`` holds ``_workspace``'s buffers cut to
    the chunk's rows."""
    d_inner = p.conv_bias.shape[0]
    r, n = p.dt_proj_w.shape[0], p.a_log.shape[1]
    conv, act, dt, tmp = buf["conv"], buf["act"], buf["dt"], buf["tmp"]
    xz = _linear(buf["h"], p.in_proj_w.data, p.in_proj_b.data, out=buf["xz"])
    x, z = xz[:, :d_inner], xz[:, d_inner:]
    # causal_conv1d at L = 1: only the last tap reaches, added to zeros, so
    # -0.0 becomes +0.0
    np.add(np.multiply(p.conv_kernel.data[:, -1], x, out=conv), 0.0, out=conv)
    u = _silu(np.add(conv, p.conv_bias.data, out=conv), out=act, tmp=tmp)
    dbc = _linear(u, p.x_proj_w.data, out=buf["dbc"])
    _linear(dbc[:, :r], p.dt_proj_w.data, p.dt_proj_b.data, out=dt)
    finite = np.isfinite(dt).all() and np.isfinite(np.exp(p.a_log.data)).all()
    delta = T._softplus(dt, out=conv, tmp=tmp)
    # selective_scan's collapsed single step: ((delta * u) * (B . C)) + d_skip * u
    bc = np.multiply(dbc[:, r:r + n], dbc[:, r + n:], out=buf["bc"]).sum(axis=-1, keepdims=True)
    y = np.multiply(np.multiply(delta, u, out=delta), bc, out=delta)
    y = np.add(y, np.multiply(p.d_skip.data, u, out=dt), out=y)
    y = np.multiply(y, _silu(z, out=act, tmp=tmp), out=y)
    out = _linear(y, p.out_proj_w.data, p.out_proj_b.data, out=buf["d"])
    np.add(out, buf["h"], out=buf["h"])
    return finite


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
    new = MambaTabModel._from_flat(new_config, np.zeros(new_config.param_count))
    new.embed_w.data[column_mapping, :] = old.embed_w.data
    new.flat[new.embed_w.size:] = old.flat[old.embed_w.size:]   # embed.w leads the layout
    return new


def swap_head(model: MambaTabModel, head: str, rng: np.random.Generator | int) -> MambaTabModel:
    """Same body, freshly initialized head of the requested kind."""
    config = replace(model.config, head=head)
    new = MambaTabModel._from_flat(config, np.zeros(config.param_count))
    body = model.flat.size - model.head_w.size - model.head_b.size   # the head ends the layout
    new.flat[:body] = model.flat[:body]
    new.head_w.data[...] = ssm.uniform_init(np.random.default_rng(rng), config.embed_dim,
                                            new.head_w.shape)
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
        if not (isinstance(header["config"], dict) and isinstance(header["metadata"], dict)
                and isinstance(header["tensors"], list)):
            raise CheckpointError("checkpoint header needs objects 'config' and 'metadata' "
                                  "and a list 'tensors'")
        try:
            config = ModelConfig.from_dict(header["config"])
        except (TypeError, ValueError) as e:
            raise CheckpointError(f"bad model config in checkpoint header: {e}") from None
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
    return MambaTabModel._from_flat(config, flat.astype(np.float64)), header["metadata"]
