import math

import numpy as np
import pytest

from mambatab import ssm, tensor as T
from mambatab.tensor import Tensor

from helpers import check_gradients, mp_discretize, naive_selective_scan


class TestDiscretize:
    def test_zero_step(self):
        a_bar, b_bar = ssm.discretize(-2.0, 3.0, 0.0)
        assert a_bar == 1.0 and b_bar == 0.0

    def test_zero_a_limit(self):
        a_bar, b_bar = ssm.discretize(0.0, 2.0, 0.3)
        assert a_bar == 1.0
        assert b_bar == pytest.approx(0.6, abs=1e-15)

    def test_closed_form_point(self):
        a_bar, b_bar = ssm.discretize(-2.0, 1.0, 0.5)
        assert a_bar == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert b_bar == pytest.approx((math.exp(-1.0) - 1.0) / -2.0, abs=1e-15)
        assert b_bar == pytest.approx(0.316060, abs=1e-6)

    def test_against_high_precision_reference(self):
        rng = np.random.default_rng(42)
        for i in range(1000):
            if i % 5 == 0:
                a = rng.uniform(-1.0, 1.0) * 1e-12  # limit branch territory
            else:
                a = rng.uniform(-5.0, -1e-3)
            b = rng.uniform(-2.0, 2.0)
            delta = rng.uniform(0.0, 2.0)
            a_bar, b_bar = ssm.discretize(a, b, delta)
            a_ref, b_ref = mp_discretize(a, b, delta)
            assert abs(a_bar - a_ref) <= 1e-12 * max(1.0, abs(a_ref))
            assert abs(b_bar - b_ref) <= 1e-12 * max(1.0, abs(b_ref))

    def test_vectorized(self):
        a = np.array([-1.0, -2.0])
        b = np.array([1.0, 2.0])
        a_bar, b_bar = ssm.discretize(a, b, 0.5)
        assert np.allclose(a_bar, np.exp(0.5 * a))


def fixed_coeff_inputs(rng, nb, nl, nd, nn):
    u = Tensor(rng.uniform(-1, 1, size=(nb, nl, nd)))
    delta = Tensor(rng.uniform(0.01, 1.0, size=(nb, nl, nd)))
    b_t = Tensor(rng.uniform(-1, 1, size=(nb, nl, nn)))
    c_t = Tensor(rng.uniform(-1, 1, size=(nb, nl, nn)))
    a = Tensor(-rng.uniform(0.1, 3.0, size=(nd, nn)))
    d_skip = Tensor(rng.uniform(-1, 1, size=nd))
    return u, delta, b_t, c_t, a, d_skip


class TestSelectiveScan:
    def test_zero_input_zero_output(self):
        rng = np.random.default_rng(0)
        u, delta, b_t, c_t, a, d_skip = fixed_coeff_inputs(rng, 2, 4, 3, 2)
        out = ssm.selective_scan(T.zeros((2, 4, 3)), delta, b_t, c_t, a, d_skip)
        assert np.array_equal(out.data, np.zeros((2, 4, 3)))

    def test_single_step_has_no_recurrence(self):
        rng = np.random.default_rng(1)
        u, delta, b_t, c_t, a, d_skip = fixed_coeff_inputs(rng, 2, 1, 3, 2)
        out = ssm.selective_scan(u, delta, b_t, c_t, a, d_skip)
        h1 = delta.data[:, 0, :, None] * b_t.data[:, 0, None, :] * u.data[:, 0, :, None]
        expected = (h1 * c_t.data[:, 0, None, :]).sum(-1) + d_skip.data * u.data[:, 0, :]
        assert np.allclose(out.data[:, 0, :], expected, atol=1e-14)

    def test_hand_unrolled_three_steps(self):
        # exp(delta*a) = 0.5 fixed, delta*B = 1, C = 1, skip 0, u = ones.
        delta = Tensor(np.ones((1, 3, 1)))
        a = Tensor(np.full((1, 1), math.log(0.5)))
        b_t = Tensor(np.ones((1, 3, 1)))
        c_t = Tensor(np.ones((1, 3, 1)))
        u = Tensor(np.ones((1, 3, 1)))
        out = ssm.selective_scan(u, delta, b_t, c_t, a, T.zeros(1))
        assert np.allclose(out.data.ravel(), [1.0, 1.5, 1.75], atol=1e-15)

    def test_matches_naive_recurrence(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            nb, nl, nd, nn = (int(rng.integers(1, k + 1)) for k in (4, 8, 4, 4))
            u, delta, b_t, c_t, a, d_skip = fixed_coeff_inputs(rng, nb, nl, nd, nn)
            out = ssm.selective_scan(u, delta, b_t, c_t, a, d_skip)
            ref = naive_selective_scan(u.data, delta.data, b_t.data, c_t.data,
                                       a.data, d_skip.data)
            assert np.max(np.abs(out.data - ref)) < 1e-12

    def test_linearity_in_input_with_fixed_coeffs(self):
        rng = np.random.default_rng(8)
        u, delta, b_t, c_t, a, d_skip = fixed_coeff_inputs(rng, 2, 5, 3, 2)
        base = ssm.selective_scan(u, delta, b_t, c_t, a, d_skip).data
        scaled = ssm.selective_scan(Tensor(3.5 * u.data), delta, b_t, c_t, a, d_skip).data
        assert np.allclose(scaled, 3.5 * base, atol=1e-12)

    def test_exact_zoh_matches_closed_form(self):
        rng = np.random.default_rng(9)
        u, delta, b_t, c_t, a, d_skip = fixed_coeff_inputs(rng, 1, 3, 2, 2)
        out = ssm.selective_scan(u, delta, b_t, c_t, a, d_skip, exact_zoh=True).data
        # reference recurrence with the full (exp(da)-1)/a hold
        h = np.zeros((1, 2, 2))
        for k in range(3):
            a_bar, factor = ssm.discretize(a.data, 1.0, delta.data[:, k, :, None])
            h = a_bar * h + factor * b_t.data[:, k, None, :] * u.data[:, k, :, None]
            xk = (h * c_t.data[:, k, None, :]).sum(-1) + d_skip.data * u.data[:, k, :]
            assert np.allclose(out[:, k, :], xk, atol=1e-13)

    def test_influence_of_first_input_decays_geometrically(self):
        # |dx_k/du_1| <= const * exp(delta_min * a_max * (k-1)) for a < 0.
        rng = np.random.default_rng(10)
        nl = 8
        delta_val = rng.uniform(0.5, 1.0, size=(1, nl, 1))
        a_val = -1.2
        b_val = rng.uniform(-1, 1, size=(1, nl, 1))
        c_val = rng.uniform(-1, 1, size=(1, nl, 1))
        delta_min = delta_val.min()
        const = np.abs(c_val).max() * abs(delta_val[0, 0, 0] * b_val[0, 0, 0])
        for k in range(1, nl):
            u = Tensor(rng.uniform(-1, 1, size=(1, nl, 1)), requires_grad=True)
            out = ssm.selective_scan(u, Tensor(delta_val), Tensor(b_val),
                                     Tensor(c_val), Tensor([[a_val]]), T.zeros(1))
            out[0, k, 0].sum().backward()
            influence = abs(u.grad[0, 0, 0])
            bound = const * math.exp(delta_min * a_val * k) + 1e-12
            assert influence <= bound

    def test_gradcheck(self):
        rng = np.random.default_rng(11)
        u, delta, b_t, c_t, a, d_skip = fixed_coeff_inputs(rng, 2, 3, 2, 2)
        params = [u, delta, b_t, c_t, a, d_skip]
        for p in params:
            p.requires_grad = True
        check_gradients(
            lambda: ssm.selective_scan(u, delta, b_t, c_t, a, d_skip).sum(), params)


class TestSelectiveCoeffs:
    def test_zero_input_collapses_scan_to_skip(self):
        rng = np.random.default_rng(12)
        p = ssm.init_mamba_block(2, 2, 3, 4, rng)
        conv_out = T.zeros((2, 1, 4))
        delta, b_t, c_t = ssm.generate_selective_coeffs(p, conv_out)
        assert np.allclose(delta.data, np.logaddexp(0.0, p.dt_proj_b.data))
        assert np.array_equal(b_t.data, np.zeros((2, 1, 3)))
        assert np.array_equal(c_t.data, np.zeros((2, 1, 3)))
        a = -np.exp(p.a_log.data)
        out = ssm.selective_scan(conv_out, delta, b_t, c_t, Tensor(a), p.d_skip)
        assert np.array_equal(out.data, np.zeros((2, 1, 4)))

    def test_delta_strictly_positive(self):
        rng = np.random.default_rng(13)
        p = ssm.init_mamba_block(2, 2, 3, 4, rng)
        conv_out = Tensor(rng.uniform(-50, 50, size=(3, 2, 4)))
        delta, _, _ = ssm.generate_selective_coeffs(p, conv_out)
        assert np.all(delta.data > 0.0)

    def test_initial_step_sizes_in_range(self):
        rng = np.random.default_rng(14)
        p = ssm.init_mamba_block(32, 2, 32, 4, rng)
        dt0 = np.logaddexp(0.0, p.dt_proj_b.data)
        assert np.all(dt0 >= 0.001 - 1e-12) and np.all(dt0 <= 0.1 + 1e-12)

    def test_split_layout(self):
        rng = np.random.default_rng(15)
        p = ssm.init_mamba_block(2, 2, 3, 4, rng)
        conv_out = Tensor(rng.normal(size=(1, 2, 4)))
        _, b_t, c_t = ssm.generate_selective_coeffs(p, conv_out)
        dbc = conv_out.data.reshape(-1, 4) @ p.x_proj_w.data
        dbc = dbc.reshape(1, 2, -1)
        assert np.allclose(b_t.data, dbc[..., 1:4])   # dt_rank 1, state size 3
        assert np.allclose(c_t.data, dbc[..., 4:])


class TestMambaBlock:
    def test_zero_out_proj_gives_zero_block(self):
        rng = np.random.default_rng(16)
        p = ssm.init_mamba_block(4, 2, 4, 4, rng)
        p.out_proj_w.data[:] = 0.0
        u = Tensor(rng.normal(size=(2, 1, 4)))
        out = ssm.mamba_block_forward(p, u)
        assert np.array_equal(out.data, np.zeros((2, 1, 4)))

    def test_zero_input_zero_biases_gives_zero(self):
        rng = np.random.default_rng(17)
        p = ssm.init_mamba_block(4, 2, 4, 4, rng)
        out = ssm.mamba_block_forward(p, T.zeros((2, 3, 4)))
        assert np.allclose(out.data, 0.0, atol=1e-15)

    def test_compositional_oracle(self):
        # The block must equal its four stages evaluated independently.
        rng = np.random.default_rng(18)
        p = ssm.init_mamba_block(4, 2, 4, 4, rng)
        u = Tensor(rng.normal(size=(2, 3, 4)))
        out = ssm.mamba_block_forward(p, u)

        xz = u.data.reshape(-1, 4) @ p.in_proj_w.data + p.in_proj_b.data
        xz = xz.reshape(2, 3, 16)
        x, z = xz[..., :8], xz[..., 8:]
        x = T.causal_conv1d(Tensor(x), p.conv_kernel, p.conv_bias).data
        x = x * (1.0 / (1.0 + np.exp(-x)))
        delta, b_t, c_t = ssm.generate_selective_coeffs(p, Tensor(x))
        y = naive_selective_scan(x, delta.data, b_t.data, c_t.data,
                                 -np.exp(p.a_log.data), p.d_skip.data)
        y = y * (z * (1.0 / (1.0 + np.exp(-z))))
        expected = y.reshape(-1, 8) @ p.out_proj_w.data + p.out_proj_b.data
        assert np.allclose(out.data, expected.reshape(2, 3, 4), atol=1e-12)

    def test_shape_preserved(self):
        rng = np.random.default_rng(19)
        p = ssm.init_mamba_block(6, 3, 5, 2, rng)
        out = ssm.mamba_block_forward(p, Tensor(rng.normal(size=(3, 2, 6))))
        assert out.shape == (3, 2, 6)

    def test_param_count_formula_matches_enumeration(self):
        rng = np.random.default_rng(20)
        for d, e, n, w in [(4, 2, 4, 4), (8, 3, 5, 2), (32, 2, 32, 4)]:
            p = ssm.init_mamba_block(d, e, n, w, rng)
            actual = sum(t.size for _, t in p.named_parameters())
            assert actual == ssm.block_param_count(d, e, n, w, ssm.dt_rank_for(d))

    def test_gradcheck_whole_block(self):
        rng = np.random.default_rng(21)
        p = ssm.init_mamba_block(3, 2, 2, 3, rng)
        u = Tensor(rng.uniform(-1, 1, size=(2, 2, 3)), requires_grad=True)
        params = [u] + [t for _, t in p.named_parameters()]
        check_gradients(lambda: ssm.mamba_block_forward(p, u).sum(), params)

    def test_stable_dynamics_at_init(self):
        rng = np.random.default_rng(22)
        p = ssm.init_mamba_block(4, 2, 4, 4, rng)
        a = -np.exp(p.a_log.data)
        assert np.all(a < 0.0)
        assert np.allclose(a, -np.tile(np.arange(1.0, 5.0), (8, 1)))
