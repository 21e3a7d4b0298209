import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mambatab import model as M
from mambatab import ssm
from mambatab.model import CheckpointError, MambaTabModel, ModelConfig
from mambatab.tensor import NumericsError

SMALL = dict(n_features=5, embed_dim=4, state_size=4, expand=2, d_conv=4)


def small_model(seed=0, **overrides):
    cfg = ModelConfig(**{**SMALL, **overrides})
    return MambaTabModel(cfg, rng=seed)


def body_reference(m, x):
    """head(relu(ln(embed(x)))) computed without any blocks."""
    h = x @ m.embed_w.data + m.embed_b.data
    if m.config.use_layer_norm:
        mu = h.mean(-1, keepdims=True)
        inv = 1.0 / np.sqrt(h.var(-1, keepdims=True) + 1e-5)
        h = m.ln_gamma.data * ((h - mu) * inv) + m.ln_beta.data
    h = np.maximum(h, 0.0)
    return h @ m.head_w.data + m.head_b.data


class TestForward:
    def test_zero_blocks_equal_residual_identity(self):
        rng = np.random.default_rng(0)
        m = small_model(n_blocks=3)
        for block in m.blocks:
            block.out_proj_w.data[:] = 0.0
            block.out_proj_b.data[:] = 0.0
        x = rng.uniform(0, 1, size=(6, 5))
        assert np.allclose(m.forward(x).data, body_reference(m, x), atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        m = small_model()
        x = rng.uniform(0, 1, size=(4, 5))
        assert np.array_equal(m.forward(x).data, m.forward(x).data)

    def test_residual_telescoping(self):
        # M=3 with blocks 2,3 zeroed must equal the M=1 model sharing block 1.
        m1 = small_model(seed=3, n_blocks=1)
        m3 = small_model(seed=7, n_blocks=3)
        own = dict(m3.named_parameters())
        for name, p in m1.named_parameters():
            own[name].data[...] = p.data
        for block in m3.blocks[1:]:
            block.out_proj_w.data[:] = 0.0
            block.out_proj_b.data[:] = 0.0
        x = np.random.default_rng(2).uniform(0, 1, size=(5, 5))
        assert np.allclose(m3.forward(x).data, m1.forward(x).data, atol=1e-12)

    def test_layer_norm_ablation_routes_around_ln(self):
        m = small_model(use_layer_norm=False)
        m.ln_gamma.data[:] = 123.0  # must be ignored entirely
        for block in m.blocks:
            block.out_proj_w.data[:] = 0.0
            block.out_proj_b.data[:] = 0.0
        x = np.random.default_rng(3).uniform(0, 1, size=(4, 5))
        assert np.allclose(m.forward(x).data, body_reference(m, x), atol=1e-12)

    def test_feature_count_mismatch(self):
        with pytest.raises(ValueError):
            small_model().forward(np.zeros((2, 7)))

    def test_predict_logits_needs_classification_head(self):
        m = small_model(head="reconstruction")
        with pytest.raises(ValueError, match="classification head"):
            m.predict_logits(np.zeros((2, 5)))

    def test_reconstruction_head_shape(self):
        m = small_model(head="reconstruction")
        out = m.forward(np.zeros((3, 5)))
        assert out.shape == (3, 5)

    def test_predict_proba_chunking_consistent(self, monkeypatch):
        m = small_model()
        x = np.random.default_rng(4).uniform(0, 1, size=(37, 5))
        monkeypatch.setattr(M, "CHUNK_ROWS", 8)
        assert len(list(m.forward_chunks(x))) == 5
        chunked = m.predict_proba(x)
        monkeypatch.setattr(M, "CHUNK_ROWS", 64)
        assert np.allclose(chunked, m.predict_proba(x))


def _plant_input(m, x):
    x[3, 1] = np.nan


def _plant_embed_overflow(m, x):
    # With layer norm off the embedding's -inf reaches ReLU, which makes it 0.
    m.embed_w.data[:] = -1e300
    x[:] = 1e9


def _plant_softplus_input(m, x):
    m.blocks[-1].dt_proj_b.data[5] = -np.inf   # softplus(-inf) == 0


def _plant_a_log(m, x):
    m.blocks[0].a_log.data[2, 3] = 800.0        # exp overflows; L = 1 never reads it


def _plant_head_overflow(m, x):
    m.head_w.data[:] = 1e308


class TestGraphFreeForward:
    @settings(max_examples=60, deadline=None)
    @given(n_blocks=st.integers(1, 3), layer_norm=st.booleans(),
           head=st.sampled_from(["classification", "reconstruction"]),
           width=st.sampled_from([(4, 4), (8, 2), (32, 32)]), rows=st.integers(1, 1100),
           noise=st.sampled_from([0.0, 0.3, 1.0]), seed=st.integers(0, 2**16))
    @example(n_blocks=1, layer_norm=True, head="classification", width=(32, 32),
             rows=M.CHUNK_ROWS, noise=0.3, seed=0)
    @example(n_blocks=2, layer_norm=False, head="reconstruction", width=(32, 32),
             rows=50_000 % M.CHUNK_ROWS, noise=0.3, seed=1)   # score_50k's tail chunk
    @example(n_blocks=3, layer_norm=True, head="classification", width=(8, 2),
             rows=M.CHUNK_ROWS + 1, noise=1.0, seed=2)
    def test_bit_identical_to_graph(self, n_blocks, layer_norm, head, width, rows, noise, seed):
        rng = np.random.default_rng(seed)
        m = MambaTabModel(ModelConfig(n_features=7, embed_dim=width[0], state_size=width[1],
                                      n_blocks=n_blocks, head=head, use_layer_norm=layer_norm),
                          rng=seed)
        m.flat += rng.normal(0.0, noise, m.flat.size)
        x = rng.uniform(0.0, 1.0, size=(rows, 7))
        a, b = m.forward(x).data, m.forward(x, graph=False)
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()   # bytes also tell -0.0 from 0.0

    @pytest.mark.parametrize("plant", [_plant_input, _plant_embed_overflow, _plant_softplus_input,
                                       _plant_a_log, _plant_head_overflow])
    def test_planted_non_finite_raises_the_graphs_error(self, plant):
        m = small_model(seed=1, n_blocks=2, use_layer_norm=plant is not _plant_embed_overflow)
        x = np.random.default_rng(5).uniform(0.0, 1.0, size=(9, 5))
        plant(m, x)
        with pytest.raises(NumericsError) as graph:
            m.forward(x)
        with pytest.raises(NumericsError) as free:
            m.forward(x, graph=False)
        assert str(free.value) == str(graph.value)

    def test_width_checked_after_finiteness_as_in_the_graph(self):
        m = small_model()
        with pytest.raises(ValueError, match="input has 7 features"):
            m.forward(np.zeros((2, 7)), graph=False)
        with pytest.raises(NumericsError, match="tensor created"):
            m.forward(np.full((2, 7), np.inf), graph=False)


class TestParameterCount:
    def test_default_config_near_13k(self):
        m = MambaTabModel(ModelConfig(n_features=20), rng=0)
        count = M.count_parameters(m)
        per_block = ssm.block_param_count(32, 2, 32, 4, 2)
        expected = (20 * 32 + 32) + (32 + 32) + per_block + (32 + 1)
        assert count == expected
        assert 12_000 <= count <= 16_000

    def test_exactly_linear_in_blocks(self):
        counts = [M.count_parameters(small_model(n_blocks=m)) for m in range(1, 11)]
        per_block = ssm.block_param_count(4, 2, 4, 4, ssm.dt_rank_for(4))
        diffs = np.diff(counts)
        assert np.all(diffs == per_block)

    def test_embed_and_head_scale_with_width(self):
        base = M.count_parameters(small_model())
        wide = M.count_parameters(small_model(embed_dim=8))
        delta_embed = 5 * 8 - 5 * 4
        delta_bias = 8 - 4
        delta_ln = 2 * (8 - 4)
        delta_head = (8 - 4) * 1
        delta_block = (ssm.block_param_count(8, 2, 4, 4, ssm.dt_rank_for(8))
                       - ssm.block_param_count(4, 2, 4, 4, ssm.dt_rank_for(4)))
        assert wide - base == delta_embed + delta_bias + delta_ln + delta_head + delta_block

    @pytest.mark.parametrize("overrides", [
        {}, {"n_blocks": 3}, {"embed_dim": 17}, {"embed_dim": 33, "state_size": 1},
        {"expand": 1, "d_conv": 1}, {"head": "reconstruction"}, {"use_layer_norm": False},
    ])
    def test_config_closed_form_matches_built_model(self, overrides):
        m = small_model(**overrides)
        assert m.config.param_count == M.count_parameters(m)
        assert list(m.config.layout()) == [(n, p.shape) for n, p in m.named_parameters()]

    def test_non_embedding_shapes_independent_of_features(self):
        a = small_model(n_features=5)
        b = small_model(n_features=17)
        sa, sb = a.state_dict(), b.state_dict()
        for name in sa:
            if name == "embed.w":
                continue
            assert sa[name].shape == sb[name].shape


class TestTransfer:
    def test_identity_mapping_bitwise_equal(self):
        m = small_model(seed=5)
        out = M.transfer_weights(m, m.config, list(range(5)))
        for name, arr in m.state_dict().items():
            assert np.array_equal(out.state_dict()[name], arr)

    def test_new_rows_zero_and_rest_copied(self):
        m = small_model(seed=6, n_features=3)
        new_cfg = ModelConfig(**{**SMALL, "n_features": 5})
        out = M.transfer_weights(m, new_cfg, [0, 1, 2])
        se, so = m.state_dict(), out.state_dict()
        assert np.array_equal(so["embed.w"][:3], se["embed.w"])
        assert np.array_equal(so["embed.w"][3:], np.zeros((2, 4)))
        for name in se:
            if name != "embed.w":
                assert np.array_equal(so[name], se[name])

    def test_forward_equivalence_on_zero_padded_inputs(self):
        rng = np.random.default_rng(7)
        m = small_model(seed=8, n_features=3)
        new_cfg = ModelConfig(**{**SMALL, "n_features": 5})
        mapping = [4, 0, 2]  # old feature i lands at new column mapping[i]
        out = M.transfer_weights(m, new_cfg, mapping)
        x_old = rng.uniform(0, 1, size=(6, 3))
        x_new = np.zeros((6, 5))
        x_new[:, mapping] = x_old
        assert np.allclose(out.forward(x_new).data, m.forward(x_old).data, atol=1e-12)

    def test_bad_mappings_rejected(self):
        m = small_model(n_features=3)
        cfg = ModelConfig(**{**SMALL, "n_features": 5})
        with pytest.raises(ValueError):
            M.transfer_weights(m, cfg, [0, 0, 1])
        with pytest.raises(ValueError):
            M.transfer_weights(m, cfg, [0, 1, 9])
        with pytest.raises(ValueError):
            M.transfer_weights(m, ModelConfig(**{**SMALL, "n_features": 5, "expand": 3}), [0, 1, 2])

    def test_short_mapping_rejected(self):
        m = small_model(n_features=3)
        with pytest.raises(ValueError, match="every old feature"):
            M.transfer_weights(m, ModelConfig(**{**SMALL, "n_features": 5}), [0, 1])

    def test_reconstruction_head_rejected_before_building_a_model(self, monkeypatch):
        m = small_model(n_features=3, head="reconstruction")
        cfg = ModelConfig(**{**SMALL, "n_features": 5, "head": "reconstruction"})

        def no_build(*args, **kwargs):
            raise AssertionError("a model was built before the head check")

        monkeypatch.setattr(M, "MambaTabModel", no_build)
        with pytest.raises(ValueError, match="reconstruction head"):
            M.transfer_weights(m, cfg, [0, 1, 2])


class TestSwapHead:
    def test_shapes_after_swap(self):
        m = small_model(head="reconstruction")
        out = M.swap_head(m, "classification", rng=1)
        assert out.head_w.shape == (4, 1)

    def test_body_preserved(self):
        m = small_model(seed=9, head="reconstruction")
        out = M.swap_head(m, "classification", rng=1)
        se, so = m.state_dict(), out.state_dict()
        for name in se:
            if not name.startswith("head."):
                assert np.array_equal(so[name], se[name])

    def test_count_changes_by_head_delta(self):
        m = small_model(head="reconstruction")
        out = M.swap_head(m, "classification", rng=1)
        assert M.count_parameters(m) - M.count_parameters(out) == (4 * 5 + 5) - (4 * 1 + 1)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        m = small_model(seed=11, n_blocks=2)
        path = tmp_path / "m.ckpt"
        M.save(m, path, metadata={"note": "x"})
        loaded, meta = M.load_with_metadata(path)
        assert meta == {"note": "x"}
        assert loaded.config == m.config
        for name, arr in m.state_dict().items():
            assert np.array_equal(loaded.state_dict()[name], arr)

    def test_truncated_rejected(self, tmp_path):
        m = small_model()
        path = tmp_path / "m.ckpt"
        M.save(m, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 17])
        with pytest.raises(CheckpointError):
            M.load(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            M.load(path)

    def test_version_mismatch_rejected(self, tmp_path):
        m = small_model()
        path = tmp_path / "m.ckpt"
        M.save(m, path)
        data = bytearray(path.read_bytes())
        data[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            M.load(path)

    def test_config_comes_from_file(self, tmp_path):
        m = small_model(embed_dim=8, n_blocks=2)
        path = tmp_path / "m.ckpt"
        M.save(m, path)
        loaded = M.load(path)
        assert loaded.config.embed_dim == 8 and loaded.config.n_blocks == 2

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        M.save(small_model(), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="trailing bytes"):
            M.load(path)

    def test_save_is_deterministic(self, tmp_path):
        m = small_model(seed=12)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        M.save(m, p1, metadata={"k": 1})
        M.save(m, p2, metadata={"k": 1})
        assert p1.read_bytes() == p2.read_bytes()
