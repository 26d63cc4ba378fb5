import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sparsedm.tensor import (
    SILU_BLOCK,
    Tensor,
    backward,
    linear_ste,
    mse_grad,
    mse_loss,
    silu,
    _sigmoid64,
)

from conftest import assert_close_rel, fd_grad, sigmoid64_reference


def _linear(x, w, b):
    # plain affine map: the effective weight is the weight itself
    return linear_ste(x, w.data, b)


def _stack_grads(x, params, target, weight=1.0):
    """Forward a linear/SiLU stack over (w, b) pairs, then ``backward`` from ``weight * mse(out, target)``.

    Records what ``NoisePredictor.forward`` records; returns the output and
    the float32-cast (dW, db) per layer.
    """
    cache = []
    h = x
    for i, (w, b) in enumerate(params):
        cache.append((h, w))
        h = linear_ste(h, w, Tensor(b))
        if i < len(params) - 1:
            h = silu(h, cache)
    grads = backward(cache, mse_grad(h, target, weight))
    return h, [(gw.astype(np.float32), gb.astype(np.float32)) for gw, gb in grads]


def _silu_input_grad(x):
    """silu(x) and d mean(silu(x)**2) / dx for a 1-d x.

    ``backward`` returns parameter gradients only, so x enters as one batch
    row of an identity layer, whose bias gradient is then the gradient at x;
    a second identity layer hands the SiLU's output to the loss.
    """
    row = x[None, :]
    eye = np.eye(x.size, dtype=np.float32)
    cache = [(row, eye)]
    out = silu(row, cache)
    cache.append((out, eye))
    grads = backward(cache, mse_grad(out, np.zeros_like(row), 1.0))
    return out[0], grads[0][1].astype(np.float32)


def _dmean_square(x):
    # mean(x**2) is mse against a zero target; its gradient wrt x is (2/N) x in float64
    return (2 / x.size) * x.astype(np.float64)


def test_matmul_against_triple_loop(rng):
    # the matrix product inside linear_ste, bias included
    x = rng.standard_normal((5, 7)).astype(np.float32)
    w = rng.standard_normal((3, 7)).astype(np.float32)
    b = rng.standard_normal(3).astype(np.float32)
    out = _linear(x, Tensor(w), Tensor(b))
    ref = np.zeros((5, 3), dtype=np.float64)
    for i in range(5):
        for j in range(3):
            ref[i, j] = float(b[j])
            for k in range(7):
                ref[i, j] += float(x[i, k]) * float(w[j, k])
    assert np.abs(out - ref).max() <= 1e-6


def test_add_bias_values():
    # through an identity weight linear_ste adds the bias exactly
    x = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)
    b = Tensor(np.array([10.0, 20.0]))
    out = _linear(x, Tensor(np.eye(2)), b)
    assert np.array_equal(out, np.array([[11.0, 22.0], [13.0, 24.0]], np.float32))


def test_bias_grad_sums_over_batch(rng):
    # loss = mean(y**2), y = x W^T + b over a 4-row batch: d loss / d b = sum over rows of (2/N) y
    x = rng.standard_normal((4, 5)).astype(np.float32)
    w = rng.standard_normal((3, 5)).astype(np.float32)
    y, [(_gw, gb)] = _stack_grads(x, [(w, np.zeros(3, np.float32))], np.zeros((4, 3), np.float32))
    assert np.array_equal(gb, _dmean_square(y).sum(axis=0).astype(np.float32))


def test_silu_zero():
    assert silu(np.array(0.0, np.float32)) == 0.0


SIGMOID_EDGES = np.array([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1e-300, -1e-300, 36.8, -36.8, 709.8, -709.8, 745.2, -745.2, 746.0, -746.0,
    1e308, -1e308, np.finfo(np.float64).max, -np.finfo(np.float64).max, np.inf, -np.inf,
])


@settings(max_examples=500)
@example(x=SIGMOID_EDGES)
@example(x=np.array(-0.0))
@example(x=np.array(-800.0))
@example(x=np.zeros((0,)))
@example(x=np.zeros((3, 0)))
@given(x=hnp.arrays(
    st.sampled_from([np.float64, np.float32]),
    hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
    elements={"allow_nan": False},
))
def test_sigmoid64_matches_select_reference_bitwise(x):
    got, want = _sigmoid64(x), sigmoid64_reference(x)
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_sigmoid64_nan_stays_nan():
    x = np.concatenate([SIGMOID_EDGES, [np.nan, -np.nan, 1.0, np.nan]])
    got, want = _sigmoid64(x), sigmoid64_reference(x)
    nan = np.isnan(x)
    # only the sign bit of a NaN may differ; a NaN already ends a run as diverged
    assert np.isnan(got[nan]).all() and np.isnan(want[nan]).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()
    assert np.isnan(_sigmoid64(np.array(np.nan)))


@pytest.mark.parametrize("shape", [(), (0,), (3, 0), (1,), (SILU_BLOCK + 1,), (300, 128), (2000, 128)])
def test_silu_blocks_match_whole_array_reference(rng, shape):
    x = (rng.standard_normal(shape) * 8).astype(np.float32)
    x64 = x.astype(np.float64)
    sig = sigmoid64_reference(x64)
    want = (x64 * sig).astype(np.float32)
    assert silu(x).tobytes() == want.tobytes()
    cache = []
    out = silu(x, cache)
    assert out.shape == shape and out.tobytes() == want.tobytes()
    [(_x, got_sig)] = cache
    assert got_sig.shape == shape and got_sig.tobytes() == sig.tobytes()


def test_silu_large_magnitude():
    big = float(np.finfo(np.float32).max)
    x = np.array([100.0, -100.0, 1e4, -1e4, big, -big], np.float32)
    # the loss value, about big**2 / 6, would overflow float32; only its gradient is taken
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, grad = _silu_input_grad(x)
    pos = x > 0
    assert np.isfinite(out).all() and np.isfinite(grad).all()
    assert np.array_equal(out[pos], x[pos])
    # silu'(x) is exactly 1 there, so the gradient is the loss's own (2/N) x
    assert np.array_equal(grad[pos], ((2 / x.size) * x[pos].astype(np.float64)).astype(np.float32))
    # silu(-100) is about -4e-42, a float32 subnormal; the rest are exact zeros
    tiny = np.finfo(np.float32).tiny
    assert (np.abs(out[~pos]) < tiny).all() and (np.abs(grad[~pos]) < tiny).all()


SILU_F32_EDGES = np.array([
    0.0, -0.0, np.finfo(np.float32).smallest_subnormal, -np.finfo(np.float32).smallest_subnormal,
    1e-30, -1e-30, -88.7, -103.9, -709.0, -710.0, -1e4, np.finfo(np.float32).max, -np.finfo(np.float32).max,
], np.float32)


def test_silu_quotient_equals_product_on_float32_edges():
    """Without a cache, silu stores the product form's bytes where exp(-x) overflows or x is subnormal,
    and warns of nothing on finite input: the overflow is silenced inside silu, not by a caller."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = silu(SILU_F32_EDGES), silu(SILU_F32_EDGES, [])
    assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
    special = np.array([np.inf, -np.inf, np.nan], np.float32)
    with np.errstate(invalid="ignore"):
        got, want = silu(special), silu(special, [])
    # silu(inf) = inf; -inf * 0 and NaN give NaN
    assert got[0] == want[0] == np.inf and np.isnan(got[1:]).all() and np.isnan(want[1:]).all()


def test_silu_derivative_fd():
    _out, grad = _silu_input_grad(np.array([1.0], np.float32))
    g = grad[0]

    def f(v):
        return float(v[0] / (1 + np.exp(-v[0]))) ** 2

    ref = fd_grad(f, np.array([1.0]), eps=1e-4)[0]
    assert abs(g - ref) <= 1e-4


def test_mse_trivial_cases():
    t = np.array([1.0, 1.0], np.float32)
    assert mse_loss(t, t) == 0.0
    assert mse_loss(np.array([1.0, 1.0], np.float32), np.array([0.0, 0.0], np.float32)) == 1.0


def test_mse_is_scalar_shaped():
    out = mse_loss(np.ones((3, 2), np.float32), np.zeros((3, 2), np.float32))
    assert out.shape == () and out.dtype == np.float32


def test_mse_grad_fd(rng):
    p0 = rng.standard_normal((3, 2)).astype(np.float32)
    t0 = rng.standard_normal((3, 2)).astype(np.float32)
    g = mse_grad(p0, t0, 1.0).astype(np.float32)

    def f(v):
        return float(((v - t0.astype(np.float64)) ** 2).mean())

    ref = fd_grad(f, p0)
    assert np.abs(g - ref).max() <= 1e-4


def test_sum_wx_grad_is_outer_product(rng):
    # loss = mean((W x)**2) for one input row: dW[i,j] = (2/N) (W x)[i] * x[j]
    w0 = rng.standard_normal((3, 4)).astype(np.float32)
    x0 = rng.standard_normal((1, 4)).astype(np.float32)
    y, [(g, _gb)] = _stack_grads(x0, [(w0, np.zeros(3, np.float32))], np.zeros((1, 3), np.float32))
    expected = np.outer(_dmean_square(y), x0.astype(np.float64)).astype(np.float32)
    assert np.abs(g - expected).max() <= 1e-6


def test_three_layer_mlp_grads_match_fd(rng):
    # weights stored output-major, as linear layers hold them
    wt0 = [(rng.standard_normal(s) * 0.5).astype(np.float32) for s in [(3, 4), (3, 3), (2, 3)]]
    b0 = [np.zeros(s, np.float32) for s in (3, 3, 2)]
    x0 = rng.standard_normal((5, 4)).astype(np.float32)
    t0 = rng.standard_normal((5, 2)).astype(np.float32)

    _out, grads = _stack_grads(x0, list(zip(wt0, b0)), t0)

    def loss64(wts, bs):
        # independent 64-bit forward, so FD noise stays below the tolerance
        h = x0.astype(np.float64)
        for i in range(3):
            h = h @ wts[i].T + bs[i]
            if i < 2:
                h = h / (1 + np.exp(-h))
        return float(((h - t0.astype(np.float64)) ** 2).mean())

    for i in range(3):
        def f_w(v, i=i):
            wts = [w.astype(np.float64) for w in wt0]
            wts[i] = v
            return loss64(wts, [b.astype(np.float64) for b in b0])

        assert_close_rel(grads[i][0], fd_grad(f_w, wt0[i]), rel=1e-3)

        def f_b(v, i=i):
            bs = [b.astype(np.float64) for b in b0]
            bs[i] = v
            return loss64([w.astype(np.float64) for w in wt0], bs)

        assert_close_rel(grads[i][1], fd_grad(f_b, b0[i]), rel=1e-3)


def test_forward_backward_deterministic(rng):
    w0 = rng.standard_normal((3, 3)).astype(np.float32)
    x0 = rng.standard_normal((2, 3)).astype(np.float32)
    target = np.ones((2, 3), np.float32)
    # linear, SiLU, then an identity layer, so the loss sees the SiLU's output
    params = [(w0, np.zeros(3, np.float32)), (np.eye(3, dtype=np.float32), np.zeros(3, np.float32))]

    def once():
        out, grads = _stack_grads(x0, params, target)
        return mse_loss(out, target).tobytes(), grads[0][0].tobytes()

    assert once() == once()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_composed_graph_grads_match_fd(n, k, m, seed):
    r = np.random.default_rng(seed)
    a0 = (r.standard_normal((n, k)) * 0.7).astype(np.float32)
    b0 = (r.standard_normal((m, k)) * 0.7).astype(np.float32)
    bias0 = (r.standard_normal(m) * 0.3).astype(np.float32)
    t0 = r.standard_normal((n, m)).astype(np.float32)

    # the SiLU output reaches the loss through an identity layer; the input a,
    # like the stack's input in training, takes no gradient
    eye = (np.eye(m, dtype=np.float32), np.zeros(m, np.float32))
    _out, [(gb, gc), _] = _stack_grads(a0, [(b0, bias0), eye], t0, weight=1.5)
    grads = {"b": gb, "c": gc}

    def loss64(av, bv, cv):
        h = av.astype(np.float64) @ bv.astype(np.float64).T + cv.astype(np.float64)
        h = h / (1 + np.exp(-h))
        return 1.5 * float(((h - t0.astype(np.float64)) ** 2).mean())

    for name, val in (("b", b0), ("c", bias0)):
        def f(v, name=name):
            parts = {"a": a0, "b": b0, "c": bias0, name: v}
            return loss64(parts["a"], parts["b"], parts["c"])

        assert_close_rel(grads[name], fd_grad(f, val), rel=1e-3, abs_tol=1e-5)
