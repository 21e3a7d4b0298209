import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mambatab import ssm, tensor as T
from mambatab.tensor import NumericsError, Tensor

from helpers import (check_gradients, finite_difference_grad, mp_sigmoid, mp_softplus,
                     reference_backward, reference_causal_conv1d, reference_getitem,
                     relative_error, ulp_error)


def rand(rng, *shape):
    return Tensor(rng.uniform(-1.0, 1.0, size=shape), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        out = T.matmul(Tensor(np.eye(2)), Tensor([[3.0], [4.0]]))
        assert np.array_equal(out.data, [[3.0], [4.0]])

    def test_hand_scalar(self):
        out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert np.allclose(out.data, [[11.0]])

    def test_zero_annihilates(self):
        rng = np.random.default_rng(0)
        b = Tensor(rng.normal(size=(3, 4)))
        out = T.matmul(T.zeros((2, 3)), b)
        assert np.array_equal(out.data, np.zeros((2, 4)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_backward_rule(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        b = Tensor([[5.0, 6.0], [7.0, 8.0]], requires_grad=True)
        T.matmul(a, b).sum().backward()
        g = np.ones((2, 2))
        assert np.allclose(a.grad, g @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ g)


class TestSilu:
    def test_zero(self):
        assert T.silu(Tensor(0.0)).item() == 0.0

    def test_large_positive(self):
        assert T.silu(Tensor(10.0)).item() == pytest.approx(9.999546, abs=1e-6)

    def test_large_negative(self):
        assert T.silu(Tensor(-10.0)).item() == pytest.approx(-0.000454, abs=1e-6)


def planted_zeros(rng, shape):
    """Normal draws with about a quarter of the entries -0.0 and a quarter +0.0."""
    x = rng.normal(size=shape)
    pick = rng.random(shape)
    x[pick < 0.25] = -0.0
    x[pick > 0.75] = 0.0
    return x


class TestCausalConv1d:
    @pytest.mark.parametrize("w", range(1, 6))
    @pytest.mark.parametrize("L", range(1, 9))
    def test_same_bytes_as_every_tap_reference(self, L, w):
        # taps that reach back L or more positions are skipped; the output and
        # all three gradients keep their bytes, signed zeros included
        rng = np.random.default_rng(10 * L + w)
        for B, D in itertools.product(range(1, 4), range(1, 6)):
            u, kernel, bias = (planted_zeros(rng, s) for s in ((B, L, D), (D, w), (D,)))
            g = planted_zeros(rng, (B, L, D))
            outs = [conv(Tensor(u, requires_grad=True), Tensor(kernel, requires_grad=True),
                         Tensor(bias, requires_grad=True))
                    for conv in (T.causal_conv1d, reference_causal_conv1d)]
            assert outs[0].data.tobytes() == outs[1].data.tobytes()
            for got, ref in zip(outs[0]._grad_fn(g), outs[1]._grad_fn(g), strict=True):
                assert got.tobytes() == ref.tobytes()

    def test_single_timestep_sees_only_itself(self):
        rng = np.random.default_rng(1)
        u = Tensor(rng.normal(size=(2, 1, 3)))
        kernel = Tensor(rng.normal(size=(3, 4)))
        bias = Tensor(rng.normal(size=3))
        out = T.causal_conv1d(u, kernel, bias)
        assert np.allclose(out.data, kernel.data[:, -1] * u.data + bias.data)

    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(2)
        u = Tensor(rng.normal(size=(2, 5, 3)))
        kernel = Tensor(np.tile([0.0, 0.0, 0.0, 1.0], (3, 1)))
        out = T.causal_conv1d(u, kernel, T.zeros(3))
        assert np.allclose(out.data, u.data)

    @pytest.mark.parametrize("shape", [(4, 2), (3,), (3, 0)])
    def test_mismatched_kernel_rejected(self, shape):
        u = Tensor(np.zeros((2, 5, 3)))
        with pytest.raises(ValueError, match=f"kernel shape {re.escape(str(shape))}"):
            T.causal_conv1d(u, Tensor(np.zeros(shape)), T.zeros(3))

    def test_hand_unrolled(self):
        u = Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 3, 1))
        kernel = Tensor([[1.0, 1.0]])
        out = T.causal_conv1d(u, kernel, T.zeros(1))
        assert np.allclose(out.data.ravel(), [1.0, 3.0, 5.0])

    def test_causality(self):
        # Perturbing position t never changes outputs before t.
        rng = np.random.default_rng(3)
        u = rng.normal(size=(1, 6, 2))
        kernel = Tensor(rng.normal(size=(2, 4)))
        bias = Tensor(rng.normal(size=2))
        base = T.causal_conv1d(Tensor(u), kernel, bias).data
        for t in range(6):
            bumped = u.copy()
            bumped[0, t, :] += 1.0
            out = T.causal_conv1d(Tensor(bumped), kernel, bias).data
            assert np.array_equal(out[:, :t, :], base[:, :t, :])


class TestLayerNorm:
    def test_constant_input_maps_to_zero(self):
        x = Tensor(np.full((2, 4), 3.7))
        out = T.layer_norm(x, Tensor(np.ones(4)), T.zeros(4))
        assert np.allclose(out.data, 0.0)

    def test_two_point_vector(self):
        out = T.layer_norm(Tensor([[1.0, 3.0]]), Tensor(np.ones(2)), T.zeros(2))
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-4)

    def test_zero_gamma_collapses_to_beta(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 5)))
        beta = Tensor(rng.normal(size=5))
        out = T.layer_norm(x, T.zeros(5), beta)
        assert np.allclose(out.data, np.broadcast_to(beta.data, (3, 5)))

    def test_output_statistics(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(8, 16)))
        out = T.layer_norm(x, Tensor(np.ones(16)), T.zeros(16)).data
        assert np.max(np.abs(out.mean(axis=-1))) < 1e-9
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-4)


class TestBackward:
    def test_sum_gives_ones(self):
        w = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w.sum().backward()
        assert np.array_equal(w.grad, np.ones((2, 3)))

    def test_quadratic(self):
        w = Tensor(5.0, requires_grad=True)
        ((w - 3.0) * (w - 3.0)).backward()
        assert w.grad == pytest.approx(4.0)

    def test_detached_subgraph_grad_stays_zero(self):
        w1 = Tensor(2.0, requires_grad=True)
        w2 = Tensor(3.0, requires_grad=True)
        (w1 * w1).backward()
        assert w2.grad is None

    def test_non_scalar_loss_rejected(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            w.backward()

    def test_double_backward_accumulates(self):
        w = Tensor(4.0, requires_grad=True)
        (w * w).backward()
        (w * w).backward()
        assert w.grad == pytest.approx(16.0)

    def test_shared_node_counted_once(self):
        w = Tensor(3.0, requires_grad=True)
        y = w * 2.0
        (y + y * y).backward()
        assert w.grad == pytest.approx(2.0 + 8.0 * w.data)


class TestOperatorForms:
    """Operators take a Tensor on the left and getitem takes basic indices."""

    @pytest.mark.parametrize("form", [
        lambda t: 1.0 + t,
        lambda t: 1.0 - t,
        lambda t: 2.0 * t,
        lambda t: 1.0 / t,
        lambda t: np.ones(3) * t,
        lambda t: t @ Tensor(np.ones((3, 1))),
        lambda t: t[[0, 0]],
        lambda t: t[np.array([True, False, True])],
    ], ids=["radd", "rsub", "rmul", "rtruediv", "ndarray_mul", "matmul", "list_index",
            "bool_mask"])
    def test_unsupported_form_raises_type_error(self, form):
        with pytest.raises(TypeError):
            form(Tensor(np.arange(3.0), requires_grad=True))


def _oracle_grid() -> np.ndarray:
    edges = [0.0, -0.0, 1e-300, 36.7, 709.0, 745.0, 1e308, 1e-16, 0.5, 20.0]
    rng = np.random.default_rng(11)
    magnitudes = 10.0 ** rng.uniform(-300, 308, size=300)
    return np.concatenate([edges, np.negative(edges), rng.normal(0.0, 40.0, size=500),
                           magnitudes * rng.choice([-1.0, 1.0], size=300)])


class TestSigmoidSoftplusOracle:
    """The numpy forms against 50-digit mpmath: at most 4 ulp, finite, and
    silent under np.errstate(all="raise") from -1e308 to 1e308."""

    def test_sigmoid_within_4_ulp(self):
        x = _oracle_grid()
        with np.errstate(all="raise"):
            got = T._sigmoid(x)
        assert np.all(np.isfinite(got))
        worst = max(ulp_error(g, mp_sigmoid(v)) for g, v in zip(got.tolist(), x.tolist()))
        assert worst <= 4.0, worst

    def test_softplus_forward_within_4_ulp(self):
        x = _oracle_grid()
        with np.errstate(all="raise"):
            got = T.softplus(Tensor(x)).data
        assert np.all(np.isfinite(got))
        worst = max(ulp_error(g, mp_softplus(v)) for g, v in zip(got.tolist(), x.tolist()))
        assert worst <= 4.0, worst

    def test_sigmoid_keeps_the_limits_and_symmetry_point(self):
        got = T._sigmoid(np.array([0.0, -0.0, 1e308, -1e308, 745.0, -746.0]))
        assert got.tolist() == [0.5, 0.5, 1.0, 0.0, 1.0, 0.0]

    def test_softplus_backward_and_silu_use_the_sigmoid(self):
        x = _oracle_grid()
        xt = Tensor(x, requires_grad=True)
        with np.errstate(all="raise"):
            T.softplus(xt).sum().backward()
            silu = T.silu(Tensor(x)).data
        assert np.array_equal(xt.grad, T._sigmoid(x))
        assert np.array_equal(silu, x * T._sigmoid(x))


class TestNumerics:
    def test_overflow_aborts(self):
        with pytest.raises(NumericsError), np.errstate(all="ignore"):
            T.texp(Tensor(1e4))

    def test_nan_input_rejected(self):
        with pytest.raises(NumericsError):
            Tensor([1.0, np.nan])

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(77)
            a = rand(rng, 4, 3)
            b = rand(rng, 3, 2)
            out = T.silu(T.matmul(a, b)).sum()
            out.backward()
            return out.item(), a.grad.copy(), b.grad.copy()

        v1, ga1, gb1 = run()
        v2, ga2, gb2 = run()
        assert v1 == v2
        assert np.array_equal(ga1, ga2) and np.array_equal(gb1, gb2)


N_GRADCHECK_TRIALS = 20


class TestGradients:
    """Central finite differences vs the analytic rules, op by op."""

    def test_elementwise_unary(self):
        ops = [T.texp, T.sigmoid, T.softplus, T.silu]
        for seed in range(N_GRADCHECK_TRIALS):
            rng = np.random.default_rng(seed)
            for op in ops:
                x = rand(rng, 3, 4)
                check_gradients(lambda op=op, x=x: op(x).sum(), [x])

    def test_relu_away_from_kink(self):
        for seed in range(N_GRADCHECK_TRIALS):
            rng = np.random.default_rng(100 + seed)
            data = rng.uniform(-1.0, 1.0, size=(3, 4))
            data[np.abs(data) < 1e-2] += 0.05
            x = Tensor(data, requires_grad=True)
            check_gradients(lambda x=x: T.relu(x).sum(), [x])

    def test_binary_ops_with_broadcasting(self):
        for seed in range(N_GRADCHECK_TRIALS):
            rng = np.random.default_rng(200 + seed)
            a = rand(rng, 2, 3, 4)
            b = rand(rng, 3, 1)
            denom = Tensor(rng.uniform(0.5, 1.5, size=(3, 1)), requires_grad=True)
            check_gradients(lambda: (a + b).sum(), [a, b])
            check_gradients(lambda: (a * b).sum(), [a, b])
            check_gradients(lambda: (a - b).sum(), [a, b])
            check_gradients(lambda: (a / denom).sum(), [a, denom])

    def test_matmul(self):
        for seed in range(N_GRADCHECK_TRIALS):
            rng = np.random.default_rng(300 + seed)
            a = rand(rng, 3, 4)
            b = rand(rng, 4, 2)
            w = Tensor(rng.uniform(-1, 1, size=(3, 2)))
            check_gradients(lambda: (T.matmul(a, b) * w).sum(), [a, b])

    def test_reductions_and_shape_ops(self):
        for seed in range(N_GRADCHECK_TRIALS):
            rng = np.random.default_rng(400 + seed)
            x = rand(rng, 2, 3, 4)
            check_gradients(lambda: x.sum(axis=1).mean(), [x])
            check_gradients(lambda: x.mean(axis=-1, keepdims=True).sum(), [x])
            check_gradients(lambda: x.reshape(6, 4).sum(axis=0).mean(), [x])
            check_gradients(lambda: x[:, 1:, :2].sum(), [x])
            y = rand(rng, 2, 2, 4)
            check_gradients(lambda: T.concat([x, y], axis=1).mean(), [x, y])

    def test_layer_norm(self):
        for seed in range(N_GRADCHECK_TRIALS):
            rng = np.random.default_rng(500 + seed)
            x = rand(rng, 3, 6)
            gamma = Tensor(rng.uniform(0.5, 1.5, size=6), requires_grad=True)
            beta = rand(rng, 6)
            check_gradients(lambda: T.layer_norm(x, gamma, beta).sum(), [x, gamma, beta])

    def test_causal_conv1d(self):
        # L 1-3 with d_conv 4 and d_conv 1 leave taps that reach no output
        for seed, (L, w) in itertools.product(range(N_GRADCHECK_TRIALS),
                                              [(5, 4), (1, 4), (2, 4), (3, 4), (5, 1)]):
            rng = np.random.default_rng(600 + seed)
            u = rand(rng, 2, L, 3)
            kernel = rand(rng, 3, w)
            bias = rand(rng, 3)
            check_gradients(lambda: T.causal_conv1d(u, kernel, bias).sum(), [u, kernel, bias])

    def test_finite_difference_helper_self_check(self):
        w = Tensor(np.array([2.0, -1.0]), requires_grad=True)
        num = finite_difference_grad(lambda: float((w.data ** 2).sum()), w)
        assert relative_error(num, 2.0 * w.data) < 1e-8


DBL_MAX = float(np.finfo(np.float64).max)

# The ops whose output _make leaves unchecked when their one input is a non-leaf.
FINITE_MAPS = {
    "reshape": lambda t: T.reshape(t, (-1,)),
    "getitem": lambda t: t[:, ::2],
    "relu": T.relu,
    "silu": T.silu,
    "softplus": T.softplus,
}


class TestCheckRule:
    """A skipped check could not have failed: leaf inputs are still checked,
    and a finite non-leaf input maps to a finite output."""

    def test_rule_names_these_ops(self):
        assert T._FINITE_MAPS == set(FINITE_MAPS)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("op", sorted(FINITE_MAPS))
    def test_leaf_written_after_its_check_is_checked(self, op, bad):
        leaf = Tensor(np.linspace(-2.0, 2.0, 12).reshape(3, 4), requires_grad=True)
        leaf.data[1, 2] = bad    # written in place after creation, as adam_step writes
        with np.errstate(invalid="ignore"):
            if bad == -np.inf and op in ("relu", "softplus"):
                # both map -inf to 0, which the output check passes, as it always has
                out = FINITE_MAPS[op](leaf)
                assert out.data[1, 2] == 0.0 and np.isfinite(out.data).all()
                return
            with pytest.raises(NumericsError,
                               match=re.escape(f"non-finite values produced by '{op}'")):
                FINITE_MAPS[op](leaf)

    @pytest.mark.parametrize("op", sorted(FINITE_MAPS))
    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=24))
    @example(values=[DBL_MAX])
    @example(values=[-DBL_MAX])
    @example(values=[5e-324])
    @example(values=[-5e-324])
    @example(values=[0.0])
    @example(values=[-0.0])
    @example(values=[DBL_MAX, -DBL_MAX, 5e-324, -5e-324, 0.0, -0.0])
    def test_finite_non_leaf_maps_to_finite(self, op, values):
        x = T.reshape(Tensor(values), (1, -1))
        assert x._op != "leaf"
        assert np.isfinite(FINITE_MAPS[op](x).data).all()


def signed(rng, *shape):
    """Seeded values with a share of +0.0 and -0.0: multiplied into a sum,
    they hand signed zeros back as upstream gradients."""
    values = rng.normal(size=shape)
    pick = rng.random(shape)
    values[pick < 0.2] = 0.0
    values[pick > 0.8] = -0.0
    return values


def weighted_sum(t, rng):
    return (t * Tensor(signed(rng, *t.shape))).sum()


# Each case builds (loss, leaves) from seed 0; the leaves' gradients are compared.
def halves(rng):
    x = rand(rng, 4, 1, 6)
    return weighted_sum(x[..., :3], rng) + weighted_sum(x[..., 3:], rng), [x]


def thirds_of_a_non_leaf(rng):
    x = rand(rng, 4, 1, 9)
    h = x * 1.5
    loss = weighted_sum(h[..., :2], rng) + weighted_sum(h[..., 2:6], rng)
    return loss + weighted_sum(h[..., 6:], rng), [x]


def overlapping(rng):
    x = rand(rng, 4, 1, 6)
    loss = weighted_sum(x[..., :4], rng) + weighted_sum(x[..., 2:], rng)
    return loss + weighted_sum(x[1:, :, 1:5], rng) + weighted_sum(x[..., ::-1], rng), [x]


def int_index_covering_all(rng):
    x, y = rand(rng, 4, 1, 5), rand(rng, 1, 5)
    return weighted_sum(x[:, 0, :], rng) + weighted_sum(y[0], rng), [x, y]


def whole_and_part(rng):
    x = rand(rng, 4, 1, 5)
    return weighted_sum(x[:, 0, :], rng) + weighted_sum(x[..., 1:3], rng), [x]


def dense_before_slices(rng):
    # made last, so its gradient reaches x first, and each slice is zero-filled
    x, y = rand(rng, 3, 6), rand(rng, 3, 6)
    parts = weighted_sum(x[:, :2], rng) + weighted_sum(x[:, 2:], rng)
    return parts + weighted_sum(x + y, rng), [x, y]   # add hands x and y one gradient


def dense_after_slices(rng):
    # made first, so its gradient reaches x last, after the slices gathered
    x, y = rand(rng, 3, 6), rand(rng, 3, 6)
    dense = weighted_sum(x + y, rng)
    return dense + weighted_sum(x[:, :2], rng) + weighted_sum(x[:, 2:], rng), [x, y]


def dense_between_slices(rng):
    x = rand(rng, 3, 6)
    first = weighted_sum(x[:, 1:4], rng)
    return first + weighted_sum(x * 2.0, rng) + weighted_sum(x[:, 3:], rng), [x]


class TestSliceGradientGathering:
    """backward() gathers the slices of one input in one buffer; every
    gradient byte equals the per-slice zero-fill-and-add it replaced."""

    @staticmethod
    def both_ways(build, monkeypatch):
        loss, leaves = build(np.random.default_rng(0))
        loss.backward()
        got = [None if t.grad is None else t.grad.tobytes() for t in leaves]
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(T, "getitem",
                          lambda x, idx: calls.append(idx) or reference_getitem(x, idx))
            loss, leaves = build(np.random.default_rng(0))
        assert calls   # the reference graph took its slices through the reference
        reference_backward(loss)
        want = [None if t.grad is None else t.grad.tobytes() for t in leaves]
        return got, want

    @pytest.mark.parametrize("build", [halves, thirds_of_a_non_leaf, overlapping,
                                       int_index_covering_all, whole_and_part,
                                       dense_before_slices, dense_after_slices,
                                       dense_between_slices])
    def test_same_bytes_as_zero_filled_slices(self, build, monkeypatch):
        got, want = self.both_ways(build, monkeypatch)
        assert None not in want and got == want

    def test_signed_zeros_reach_the_gradients(self, monkeypatch):
        # the cases above do hand -0.0 upstream: a plain product keeps it
        x = rand(np.random.default_rng(0), 2, 3)
        (x * Tensor([[-0.0, 0.0, 1.0], [2.0, -0.0, 0.0]])).sum().backward()
        assert np.signbit(x.grad).tolist() == [[True, False, False], [False, True, False]]

    @pytest.mark.parametrize("exact_zoh", [False, True], ids=["simple", "exact_zoh"])
    @pytest.mark.parametrize("seq_len", range(2, 9))
    def test_scan_over_several_tokens(self, seq_len, exact_zoh, monkeypatch):
        def build(rng):
            p = ssm.init_mamba_block(8, 2, 4, 3, rng)
            u = rand(rng, 3, seq_len, 16)
            x = T.silu(u)
            delta, b_t, c_t = ssm.generate_selective_coeffs(p, x)
            y = ssm.selective_scan(x, delta, b_t, c_t, -T.texp(p.a_log), p.d_skip,
                                   exact_zoh=exact_zoh)
            return weighted_sum(y, rng), [u] + [t for _, t in p.named_parameters()]

        got, want = self.both_ways(build, monkeypatch)
        assert got == want

    @pytest.mark.parametrize("seq_len", [2, 5])
    def test_whole_block_over_several_tokens(self, seq_len, monkeypatch):
        def build(rng):
            p = ssm.init_mamba_block(8, 2, 4, 3, rng)
            u = rand(rng, 3, seq_len, 8)
            return (weighted_sum(ssm.mamba_block_forward(p, u), rng),
                    [u] + [t for _, t in p.named_parameters()])

        got, want = self.both_ways(build, monkeypatch)
        assert got == want
