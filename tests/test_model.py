import hashlib
import itertools
import math
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mambatab import model as M
from mambatab import ssm, synthetic, tabular, training
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
        for rows, b in m.forward_chunks(x):
            a = m.forward(x[rows]).data
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()   # bytes also tell -0.0 from 0.0

    @pytest.mark.parametrize("plant", [_plant_input, _plant_embed_overflow, _plant_softplus_input,
                                       _plant_a_log, _plant_head_overflow])
    def test_planted_non_finite_raises_the_graphs_error(self, plant):
        m = small_model(seed=1, n_blocks=2, use_layer_norm=plant is not _plant_embed_overflow)
        x = np.random.default_rng(5).uniform(0.0, 1.0, size=(9, 5))
        plant(m, x)
        with np.errstate(all="ignore"):   # numpy warns of what the checks find
            with pytest.raises(NumericsError) as graph:
                m.forward(x)
            with pytest.raises(NumericsError) as free:
                list(m.forward_chunks(x))
        assert str(free.value) == str(graph.value)

    def test_width_checked_after_finiteness_as_in_the_graph(self):
        m = small_model()
        with pytest.raises(ValueError, match="input has 7 features"):
            list(m.forward_chunks(np.zeros((2, 7))))
        with pytest.raises(NumericsError, match="tensor created"):
            list(m.forward_chunks(np.full((2, 7), np.inf)))

    @pytest.mark.parametrize("head", ["classification", "reconstruction"])
    def test_every_chunk_is_a_fresh_array(self, head):
        # The chunks share one workspace; outputs kept across chunks must not.
        rng = np.random.default_rng(6)
        m = small_model(seed=3, n_blocks=2, head=head)
        m.flat += rng.normal(0.0, 0.3, m.flat.size)
        x = rng.uniform(0.0, 1.0, size=(2 * M.CHUNK_ROWS + 17, 5))
        kept = list(m.forward_chunks(x))
        assert [len(z) for _, z in kept] == [M.CHUNK_ROWS, M.CHUNK_ROWS, 17]
        if head == "classification":
            loss, targets = training.bce_with_logits, rng.integers(0, 2, size=len(x))
        else:
            loss, targets = training.mse_loss, x
        _, validated = training._validation_pass(m, x, targets, loss)
        for outputs in ([z for _, z in kept], validated):
            for (rows, _), z in zip(kept, outputs, strict=True):
                assert z.tobytes() == m.forward(x[rows]).data.tobytes()
            assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(outputs, 2))
        for rows in (40, 0):   # a workspace smaller than a chunk, and one of no rows
            [(_, z)] = m.forward_chunks(x[:rows])
            assert z.tobytes() == m.forward(x[:rows]).data.tobytes() and len(z) == rows
        if head == "classification":
            for scores in (m.predict_logits(x[:0]), m.predict_proba(x[:0])):
                assert scores.shape == (0,) and scores.dtype == np.float64

    def test_workspace_lives_for_one_call(self, monkeypatch):
        made, workspace = [], M._workspace

        def tracked(*args):
            work = workspace(*args)
            made.extend(weakref.ref(b) for b in work.values())
            return work

        monkeypatch.setattr(M, "_workspace", tracked)
        m = small_model()
        x = np.random.default_rng(7).uniform(0.0, 1.0, size=(2 * M.CHUNK_ROWS + 17, 5))
        keys = set(vars(m))
        assert len(list(m.forward_chunks(x))) == 3
        chunks = m.forward_chunks(x)
        next(chunks)
        assert set(vars(m)) == keys and any(ref() is not None for ref in made)
        chunks.close()
        assert set(vars(m)) == keys
        assert made and all(ref() is None for ref in made)


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

    @pytest.mark.parametrize("overrides", [
        {}, {"n_blocks": 2}, {"n_blocks": 7, "expand": 3, "d_conv": 2}, {"embed_dim": 33},
        {"head": "reconstruction", "n_blocks": 3}, {"state_size": 1, "use_layer_norm": False},
    ])
    def test_count_equals_layout_sum(self, overrides):
        config = ModelConfig(**{**SMALL, **overrides})
        assert config.param_count == sum(math.prod(shape) for _, shape in config.layout())

    def test_count_takes_constant_time_in_blocks(self):
        # The size check runs before anything is allocated, so it must stay
        # cheap at any block count.
        config = ModelConfig(n_features=12, n_blocks=10**6)
        start = time.perf_counter()
        count = config.param_count
        assert time.perf_counter() - start < 0.5
        one = ModelConfig(n_features=12).param_count
        assert count == one + (10**6 - 1) * ssm.block_param_count(32, 2, 32, 4, 2)

    def test_non_embedding_shapes_independent_of_features(self):
        a = small_model(n_features=5)
        b = small_model(n_features=17)
        sa, sb = a.state_dict(), b.state_dict()
        for name in sa:
            if name == "embed.w":
                continue
            assert sa[name].shape == sb[name].shape


ONE_TOKEN_FIT = training.TrainConfig(seed=0, max_epochs=3, lr=1e-2)


@pytest.fixture(scope="module")
def one_token_data():
    train, val, _ = tabular.split(synthetic.logistic_table(150, 3, 2, seed=5), seed=0)
    pre = tabular.fit(train)
    return tabular.transform(pre, train), tabular.transform(pre, val)


def one_token_inert(model):
    """Each block's ``a_log`` and conv taps 0 .. d_conv - 2, as views."""
    return [a for b in model.blocks for a in (b.a_log.data, b.conv_kernel.data[:, :-1])]


class TestOneToken:
    """At one token the scan starts from h0 = 0 and takes one step, so
    ``A = -exp(a_log)`` never reaches the output, and conv taps
    0 .. d_conv - 2 only ever see zero history."""

    @pytest.mark.parametrize("head", ["classification", "reconstruction"])
    @pytest.mark.parametrize("d_conv", [1, 2, 3, 4])
    @pytest.mark.parametrize("n_blocks", [1, 2, 3])
    def test_redrawn_inert_slots_change_no_byte_and_never_learn(self, one_token_data, n_blocks,
                                                                 d_conv, head):
        train, val = one_token_data
        config = ModelConfig(n_features=5, embed_dim=8, state_size=4, d_conv=d_conv,
                             n_blocks=n_blocks, head=head)
        fit = training.train_supervised if head == "classification" else training.pretrain_ssl
        trained = fit(MambaTabModel(config, rng=1), train, val, ONE_TOKEN_FIT)[0]
        redrawn = MambaTabModel._from_flat(config, trained.flat.copy())
        rng = np.random.default_rng(10 * n_blocks + d_conv)
        for a in one_token_inert(redrawn):
            a[...] = rng.uniform(-20.0, 20.0, a.shape)   # exp(20) is finite
        assert not np.array_equal(redrawn.flat, trained.flat)

        x = train.values[:64]
        seen = []
        for model in (trained, redrawn):
            out = model.forward(x)
            loss = (training.bce_with_logits(out, train.labels[:64])
                    if head == "classification" else training.mse_loss(out, x))
            loss.backward()
            free = b"".join(z.tobytes() for _, z in model.forward_chunks(x))
            seen.append((out.data.tobytes(), free, loss.data.tobytes()))
        assert seen[0] == seen[1]
        for (name, p), (_, q) in zip(trained.named_parameters(), redrawn.named_parameters(),
                                     strict=True):
            if name.endswith("ssm.a_log"):
                assert p.grad is None and q.grad is None
                continue
            assert q.grad.tobytes() == p.grad.tobytes(), name
            if name.endswith("conv.kernel"):
                assert q.grad[:, :-1].tobytes() == np.zeros((q.shape[0], d_conv - 1)).tobytes()

        before = [a.tobytes() for a in one_token_inert(redrawn)]
        last = [b.conv_kernel.data[:, -1].copy() for b in redrawn.blocks]
        retrained = fit(redrawn, train, val, ONE_TOKEN_FIT)[0]
        assert [a.tobytes() for a in one_token_inert(retrained)] == before
        assert all(not np.array_equal(b.conv_kernel.data[:, -1], k)
                   for b, k in zip(retrained.blocks, last, strict=True))

    def test_default_model_has_2240_inert_of_13665(self):
        model = MambaTabModel(ModelConfig(n_features=12))
        assert sum(a.size for a in one_token_inert(model)) == 2240
        assert M.count_parameters(model) == 13665


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


def drawn_digest(named_parameters) -> str:
    """sha256 of every weight but a_log and dt_proj.b, which pass through log/exp."""
    h = hashlib.sha256()
    for name, p in named_parameters:
        if not name.endswith(("ssm.a_log", "ssm.dt_proj.b")):
            h.update(p.data.tobytes())
    return h.hexdigest()


class TestWeightStorage:
    # Digests drawn before the loaders stopped constructing through __init__.
    @pytest.mark.parametrize("config,seed,digest", [
        (ModelConfig(n_features=12), 0,
         "4b78ead13f7a7c9760cc082c4eb146e748581cf545505d81bfaadbad158dc757"),
        (ModelConfig(n_features=5, embed_dim=8, state_size=4, n_blocks=3, head="reconstruction"),
         7, "6f8b4d26513c550e4499b256083f65f974f6732634c4dfe9407b6861ee329b6b"),
    ])
    def test_seeded_construction_draws_the_same_weights(self, config, seed, digest):
        assert drawn_digest(MambaTabModel(config, rng=seed).named_parameters()) == digest

    # Digests drawn before weights were drawn in place into ``flat``, at sizes
    # the parity gate does not train. swap_head draws from the same generator,
    # so its head also pins how many numbers the model took.
    @pytest.mark.parametrize("config,digest,head_digest", [
        (ModelConfig(n_features=5, embed_dim=8, state_size=4, expand=3),
         "9a509f113e47c638f11f757277bbcb32f30fb5b54226e4f7de0cf47049d1bea2",
         "e3afc8db323629e26e4d4cfdfb88780853190a453a45f7a11e8f168702a7586d"),
        (ModelConfig(n_features=7, embed_dim=20, state_size=3, d_conv=2, n_blocks=2,
                     head="reconstruction"),
         "21d02aebdb42f07543753c3b73affa4d71cd52d906387ef3bc303e7073450426",
         "8f095bdd96c391c2644f6cb607238adf685a5250b33ce6a4ed57431980b70d27"),
        (ModelConfig(n_features=3, embed_dim=17, state_size=5, n_blocks=3, use_layer_norm=False),
         "cb3316dae412268188d0269c88bfeb3887dc693f250ce3f62a4cb6bdb34bdfbd",
         "7f5260cf45060d42126544b8610c06ec65fee1dd473ad8e3abedaf9806fe2bbc"),
        (ModelConfig(n_features=4, embed_dim=33, state_size=2, expand=3, d_conv=2, n_blocks=2,
                     head="reconstruction", use_layer_norm=False),
         "505502c7f8f4db62b276b5e2913581bf40a53f249521f90b3c4de69e3f8e0c91",
         "6661f03105be58304540f51b567ee3d9ea27d2d613d7b60764aeb113b87904ed"),
    ])
    def test_draws_at_other_sizes_are_pinned(self, config, digest, head_digest):
        rng = np.random.default_rng(3)
        model = MambaTabModel(config, rng)
        other = "classification" if config.head == "reconstruction" else "reconstruction"
        swapped = M.swap_head(model, other, rng)
        assert drawn_digest(model.named_parameters()) == digest
        assert drawn_digest(swapped.named_parameters()[-2:]) == head_digest

    def test_block_draw_is_pinned(self):
        rng = np.random.default_rng(5)
        block = ssm.init_mamba_block(6, 3, 5, 2, rng)
        assert drawn_digest(block.named_parameters()) == (
            "2fccfc921fd5059c7af6d85aaf765323f098779464f5c029ffadd7b67e46d65d")
        assert rng.random() == 0.8036825182380202   # the block took exactly its own draws

    def test_load_transfer_and_swap_draw_nothing(self, tmp_path, monkeypatch):
        m = small_model(seed=2, n_blocks=2)
        M.save(m, tmp_path / "m.ckpt")

        def refuse(*args, **kwargs):
            raise AssertionError("drew a full set of weights")

        monkeypatch.setattr(MambaTabModel, "__init__", refuse)
        loaded = M.load(tmp_path / "m.ckpt")
        grown = M.transfer_weights(m, replace(m.config, n_features=7), [6, 0, 1, 2, 3])
        swapped = M.swap_head(m, "reconstruction", rng=4)
        assert loaded.flat.tobytes() == m.flat.tobytes()
        assert np.array_equal(grown.embed_w.data[[6, 0, 1, 2, 3]], m.embed_w.data)
        assert not grown.embed_w.data[[4, 5]].any()
        for model in (loaded, grown, swapped):
            assert list(model.config.layout()) == [(n, p.shape) for n, p in model.named_parameters()]
            assert all(np.shares_memory(p.data, model.flat) for _, p in model.named_parameters())
            model.flat[-1] = 0.5   # writable, and the head bias sees it
            assert model.head_b.data[-1] == 0.5
