import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedm.errors import DimensionError
from sparsedm.tensor import (
    Tape,
    Tensor,
    add,
    backward,
    linear_ste,
    mse_loss,
    scale,
    silu,
    sum_all,
)

from conftest import assert_close_rel, fd_grad


def _linear(x, w, b, tape=None):
    # plain affine map: the effective weight is the weight itself
    return linear_ste(x, w, b, w.data, tape)


def test_matmul_against_triple_loop(rng):
    # the matrix product inside linear_ste, bias included
    x = rng.standard_normal((5, 7)).astype(np.float32)
    w = rng.standard_normal((3, 7)).astype(np.float32)
    b = rng.standard_normal(3).astype(np.float32)
    out = _linear(Tensor(x), Tensor(w), Tensor(b)).data
    ref = np.zeros((5, 3), dtype=np.float64)
    for i in range(5):
        for j in range(3):
            ref[i, j] = float(b[j])
            for k in range(7):
                ref[i, j] += float(x[i, k]) * float(w[j, k])
    assert np.abs(out - ref).max() <= 1e-6


def test_add_bias_values():
    # through an identity weight linear_ste adds the bias exactly
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(np.array([10.0, 20.0]))
    out = _linear(x, Tensor(np.eye(2)), b).data
    assert np.array_equal(out, np.array([[11.0, 22.0], [13.0, 24.0]], np.float32))


def test_linear_shape_mismatch():
    w = Tensor(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        _linear(Tensor(np.zeros((2, 4))), w, Tensor(np.zeros(2)))
    with pytest.raises(DimensionError):
        _linear(Tensor(np.zeros((2, 3))), w, Tensor(np.zeros(3)))
    with pytest.raises(DimensionError):
        linear_ste(Tensor(np.zeros((2, 3))), w, Tensor(np.zeros(2)), np.zeros((3, 2), np.float32))


def test_bias_grad_is_batch_count(rng):
    # loss = sum(x W^T + b) over a 4-row batch: d loss / d b = [4, 4, 4]
    tape = Tape()
    x = Tensor(rng.standard_normal((4, 5)).astype(np.float32))
    w = Tensor(rng.standard_normal((3, 5)).astype(np.float32))
    b = tape.param("b", Tensor(np.zeros(3, np.float32)))
    loss = sum_all(_linear(x, w, b, tape), tape)
    grads = backward(tape, loss)
    assert np.array_equal(grads["b"].data, np.array([4.0, 4.0, 4.0], np.float32))


def test_silu_zero():
    assert silu(Tensor(np.array(0.0))).data == 0.0


def test_silu_large_magnitude():
    big = float(np.finfo(np.float32).max)
    x = np.array([100.0, -100.0, 1e4, -1e4, big, -big], np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tape = Tape()
        xt = tape.param("x", Tensor(x))
        out = silu(xt, tape)
        grad = backward(tape, sum_all(out, tape))["x"].data
    pos = x > 0
    assert np.isfinite(out.data).all() and np.isfinite(grad).all()
    assert np.array_equal(out.data[pos], x[pos])
    assert np.array_equal(grad[pos], np.ones(3, np.float32))
    # silu(-100) is about -4e-42, a float32 subnormal; the rest are exact zeros
    tiny = np.finfo(np.float32).tiny
    assert (np.abs(out.data[~pos]) < tiny).all() and (np.abs(grad[~pos]) < tiny).all()


def test_silu_derivative_fd():
    tape = Tape()
    x = tape.param("x", Tensor(np.array([1.0], np.float32)))
    loss = sum_all(silu(x, tape), tape)
    g = backward(tape, loss)["x"].data[0]

    def f(v):
        return float(v[0] / (1 + np.exp(-v[0])))

    ref = fd_grad(f, np.array([1.0]), eps=1e-4)[0]
    assert abs(g - ref) <= 1e-4


def test_mse_trivial_cases():
    t = Tensor(np.array([1.0, 1.0], np.float32))
    assert mse_loss(t, t).data == 0.0
    assert mse_loss(Tensor(np.array([1.0, 1.0])), Tensor(np.array([0.0, 0.0]))).data == 1.0


def test_mse_is_scalar_shaped():
    out = mse_loss(Tensor(np.ones((3, 2))), Tensor(np.zeros((3, 2))))
    assert out.shape == ()


def test_mse_grad_fd(rng):
    p0 = rng.standard_normal((3, 2)).astype(np.float32)
    t0 = rng.standard_normal((3, 2)).astype(np.float32)
    tape = Tape()
    p = tape.param("p", Tensor(p0))
    loss = mse_loss(p, Tensor(t0), tape)
    g = backward(tape, loss)["p"].data

    def f(v):
        return float(((v - t0.astype(np.float64)) ** 2).mean())

    ref = fd_grad(f, p0)
    assert np.abs(g - ref).max() <= 1e-4


def test_untouched_param_gets_zero_grad(rng):
    tape = Tape()
    used = tape.param("used", Tensor(rng.standard_normal(4).astype(np.float32)))
    tape.param("idle", Tensor(rng.standard_normal((2, 2)).astype(np.float32)))
    loss = sum_all(used, tape)
    grads = backward(tape, loss)
    assert np.array_equal(grads["idle"].data, np.zeros((2, 2), np.float32))


def test_sum_wx_grad_is_outer_product(rng):
    # loss = sum(W x): dW[i,j] = x[j] repeated per output row
    w0 = rng.standard_normal((3, 4)).astype(np.float32)
    x0 = rng.standard_normal((1, 4)).astype(np.float32)
    tape = Tape()
    w = tape.param("w", Tensor(w0))
    loss = sum_all(_linear(Tensor(x0), w, Tensor(np.zeros(3, np.float32)), tape), tape)
    g = backward(tape, loss)["w"].data
    expected = np.tile(x0, (3, 1))
    assert np.abs(g - expected).max() <= 1e-6


def test_three_layer_mlp_grads_match_fd(rng):
    # weights stored output-major, as linear layers hold them
    wt0 = [(rng.standard_normal(s) * 0.5).astype(np.float32) for s in [(3, 4), (3, 3), (2, 3)]]
    b0 = [np.zeros(s, np.float32) for s in (3, 3, 2)]
    x0 = rng.standard_normal((5, 4)).astype(np.float32)
    t0 = rng.standard_normal((5, 2)).astype(np.float32)

    def run(wts, bs):
        tape = Tape()
        h = Tensor(x0)
        for i in range(3):
            w = tape.param(f"w{i}", Tensor(wts[i]))
            b = tape.param(f"b{i}", Tensor(bs[i]))
            h = _linear(h, w, b, tape)
            if i < 2:
                h = silu(h, tape)
        return tape, mse_loss(h, Tensor(t0), tape)

    tape, loss = run(wt0, b0)
    grads = backward(tape, loss)

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

        assert_close_rel(grads[f"w{i}"].data, fd_grad(f_w, wt0[i]), rel=1e-3)

        def f_b(v, i=i):
            bs = [b.astype(np.float64) for b in b0]
            bs[i] = v
            return loss64([w.astype(np.float64) for w in wt0], bs)

        assert_close_rel(grads[f"b{i}"].data, fd_grad(f_b, b0[i]), rel=1e-3)


def test_forward_backward_deterministic(rng):
    w0 = rng.standard_normal((3, 3)).astype(np.float32)
    x0 = rng.standard_normal((2, 3)).astype(np.float32)

    def once():
        tape = Tape()
        w = tape.param("w", Tensor(w0))
        h = _linear(Tensor(x0), w, Tensor(np.zeros(3, np.float32)), tape)
        loss = mse_loss(silu(h, tape), Tensor(np.ones((2, 3), np.float32)), tape)
        return loss.data.tobytes(), backward(tape, loss)["w"].data.tobytes()

    assert once() == once()


def test_double_forward_accumulates(rng):
    # running the same layer through the tape twice doubles the gradient
    w0 = rng.standard_normal((2, 2)).astype(np.float32)
    x0 = Tensor(rng.standard_normal((3, 2)).astype(np.float32))
    b0 = Tensor(np.zeros(2, np.float32))
    wt = Tensor(w0)

    tape = Tape()
    w = tape.param("w", wt)
    loss = add(sum_all(_linear(x0, w, b0, tape), tape), sum_all(_linear(x0, w, b0, tape), tape), tape)
    g2 = backward(tape, loss)["w"].data

    tape1 = Tape()
    w1 = tape1.param("w", wt)
    g1 = backward(tape1, sum_all(_linear(x0, w1, b0, tape1), tape1))["w"].data
    assert np.allclose(g2, 2 * g1, atol=1e-6)


def test_param_rebind_same_object_ok_different_object_errors(rng):
    t = Tensor(rng.standard_normal(3).astype(np.float32))
    tape = Tape()
    a = tape.param("p", t)
    b = tape.param("p", t)
    assert a.node == b.node
    with pytest.raises(ValueError):
        tape.param("p", t.copy())


def test_backward_rejects_foreign_and_nonscalar(rng):
    tape = Tape()
    x = tape.param("x", Tensor(rng.standard_normal((2, 2)).astype(np.float32)))
    y = silu(x, tape)
    with pytest.raises(ValueError):
        backward(tape, y)  # not scalar
    other = Tape()
    with pytest.raises(ValueError):
        backward(other, sum_all(y, tape))  # wrong tape


def test_constants_do_not_receive_grads(rng):
    # a tensor from another tape acts as a constant input
    other = Tape()
    c = other.param("c", Tensor(rng.standard_normal((2, 2)).astype(np.float32)))
    tape = Tape()
    x = tape.param("x", Tensor(rng.standard_normal((2, 2)).astype(np.float32)))
    loss = sum_all(add(x, c, tape), tape)
    grads = backward(tape, loss)
    assert set(grads) == {"x"}
    assert np.array_equal(grads["x"].data, np.ones((2, 2), np.float32))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.integers(0, 2 ** 31 - 1))
def test_composed_graph_grads_match_fd(n, k, m, seed):
    r = np.random.default_rng(seed)
    a0 = (r.standard_normal((n, k)) * 0.7).astype(np.float32)
    b0 = (r.standard_normal((m, k)) * 0.7).astype(np.float32)
    bias0 = (r.standard_normal(m) * 0.3).astype(np.float32)
    t0 = r.standard_normal((n, m)).astype(np.float32)

    def run(av, bv, cv):
        tape = Tape()
        a = tape.param("a", Tensor(av))
        b = tape.param("b", Tensor(bv))
        c = tape.param("c", Tensor(cv))
        out = silu(_linear(a, b, c, tape), tape)
        return tape, scale(mse_loss(out, Tensor(t0), tape), 1.5, tape)

    tape, loss = run(a0, b0, bias0)
    grads = backward(tape, loss)

    def loss64(av, bv, cv):
        h = av.astype(np.float64) @ bv.astype(np.float64).T + cv.astype(np.float64)
        h = h / (1 + np.exp(-h))
        return 1.5 * float(((h - t0.astype(np.float64)) ** 2).mean())

    for name, val in (("a", a0), ("b", b0), ("c", bias0)):
        def f(v, name=name):
            parts = {"a": a0, "b": b0, "c": bias0, name: v}
            return loss64(parts["a"], parts["b"], parts["c"])

        assert_close_rel(grads[name].data, fd_grad(f, val), rel=1e-3, abs_tol=1e-5)
