"""The full network: embedding -> layer norm -> ReLU -> residual blocks -> head.

The embedding learner maps any feature cardinality to a fixed width, so
every non-embedding tensor keeps its shape when features are added over
time; `transfer_weights` exploits that to continue training after the
schema grows. Classification heads emit raw logits (the sigmoid lives
with the loss and metrics), reconstruction heads emit one value per
input feature.
"""

from __future__ import annotations

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
CHUNK_ROWS = 1024   # rows per forward pass when scoring or validating


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
        """Closed-form learnable-scalar count of the model this config builds."""
        d = self.embed_dim
        block = ssm.block_param_count(d, self.expand, self.state_size, self.d_conv,
                                      ssm.dt_rank_for(d))
        # embed w + b, layer norm gamma + beta, blocks, head w + b
        return self.n_features * d + 3 * d + self.n_blocks * block + (d + 1) * self.head_out

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

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        params = [
            ("embed.w", self.embed_w),
            ("embed.b", self.embed_b),
            ("ln.gamma", self.ln_gamma),
            ("ln.beta", self.ln_beta),
        ]
        for i, block in enumerate(self.blocks):
            params += [(f"blocks.{i}.{n}", p) for n, p in block.named_parameters()]
        params += [("head.w", self.head_w), ("head.b", self.head_b)]
        return params

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.zero_grad()

    def forward(self, x) -> Tensor:
        """Logits [B, 1] (classification) or reconstruction [B, n_features].

        ``x`` is a [B, n_features] array of values in [0, 1], or a Tensor.
        """
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if x.shape[-1] != self.config.n_features:
            raise ValueError(
                f"input has {x.shape[-1]} features, model expects {self.config.n_features}")
        h = T.linear(x, self.embed_w, self.embed_b)
        if self.config.use_layer_norm:
            h = T.layer_norm(h, self.ln_gamma, self.ln_beta)
        h = T.relu(h)
        h = T.reshape(h, (x.shape[0], 1, self.config.embed_dim))   # one token
        for block in self.blocks:
            h = ssm.mamba_block_forward(block, h) + h
        flat = T.reshape(h, (x.shape[0], self.config.embed_dim))
        return T.linear(flat, self.head_w, self.head_b)

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

        Only the output array is kept, so each chunk's graph is freed
        before the next chunk's forward runs.
        """
        for start in range(0, len(values), CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            yield rows, self.forward(values[rows]).data

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        if set(own) != set(state):
            raise ValueError(f"state dict keys mismatch: {sorted(set(own) ^ set(state))}")
        for name, p in own.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for '{name}': {arr.shape} vs {p.data.shape}")
            p.data = arr.copy()


def _init_head(config: ModelConfig, rng: np.random.Generator):
    w = ssm.uniform_init(rng, config.embed_dim, (config.embed_dim, config.head_out))
    return w, Tensor(np.zeros(config.head_out), requires_grad=True)


def count_parameters(model: MambaTabModel) -> int:
    return sum(p.size for _, p in model.named_parameters())


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
    state = old.state_dict()
    embed_w = np.zeros((new_config.n_features, new_config.embed_dim))
    embed_w[column_mapping, :] = state.pop("embed.w")
    state["embed.w"] = embed_w
    new.load_state_dict(state)
    return new


def swap_head(model: MambaTabModel, head: str, rng: np.random.Generator | int) -> MambaTabModel:
    """Same body, freshly initialized head of the requested kind."""
    config = replace(model.config, head=head)
    new = MambaTabModel(config, rng=0)
    state = model.state_dict()
    new_w, new_b = _init_head(config, np.random.default_rng(rng))
    state["head.w"] = new_w.data
    state["head.b"] = new_b.data
    new.load_state_dict(state)
    return new


# -- checkpoint container -----------------------------------------------------
#
# Layout: magic, u32 version, u64-length JSON header (config, metadata,
# tensor names/shapes in order), then raw little-endian float64 tensor
# payloads back to back. Everything is a pure function of the content,
# so identical models produce identical bytes.

def save(model: MambaTabModel, path, metadata: dict | None = None) -> None:
    state = model.state_dict()
    header = {
        "config": asdict(model.config),
        "metadata": metadata or {},
        "tensors": [{"name": n, "shape": list(a.shape)} for n, a in state.items()],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for name, arr in state.items():
            fh.write(arr.astype("<f8").tobytes())


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
        for index, entry in enumerate(entries):
            if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                    and isinstance(entry.get("shape"), list)
                    and all(type(d) is int and d >= 0 for d in entry["shape"])):
                raise CheckpointError(f"tensors entry {index} needs a string 'name' "
                                      f"and a 'shape' list of non-negative ints")
        # The payload reads below are bounded by the file size; matching the
        # config's count to them first bounds what building the model allocates.
        listed = sum(math.prod(entry["shape"]) for entry in entries)
        if listed != config.param_count:
            sizes = ", ".join(f"{f.name}={getattr(config, f.name)}" for f in fields(config))
            raise CheckpointError(f"checkpoint config ({sizes}) implies {config.param_count} "
                                  f"parameters, its 'tensors' list {listed}")
        state = {}
        for entry in entries:
            name, shape = entry["name"], tuple(entry["shape"])
            raw = _read_exact(fh, 8 * math.prod(shape), f"tensor '{name}'")
            state[name] = np.frombuffer(raw, dtype="<f8").reshape(shape)
            if not np.all(np.isfinite(state[name])):
                raise CheckpointError(f"tensor '{name}' holds non-finite values")
        if fh.read(1):
            raise CheckpointError("trailing bytes after checkpoint payload")
    model = MambaTabModel(config, rng=0)
    try:
        model.load_state_dict(state)
    except ValueError as e:
        raise CheckpointError(str(e)) from None
    return model, header["metadata"]
