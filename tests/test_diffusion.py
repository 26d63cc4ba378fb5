import functools
import math
import os
import pickle
import re
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from sparsedm import diffusion, trainer
from sparsedm.diffusion import (
    TEMB_DIM,
    NoisePredictor,
    _temb_table,
    ddpm_sample,
    inference_forward,
    diffusion_loss,
    make_schedule,
    posterior_mean,
    q_sample,
    time_embedding,
    toy_batch,
)
from sparsedm.errors import ArchitectureError, CompressedPathError, ConfigError, DimensionError
from sparsedm.sparsity import MaskedLinear, NMPattern, compress_2_4, spmm
from sparsedm.trainer import prune_one_shot
from sparsedm.tensor import backward, mse_grad
from sparsedm.rng import stream

from conftest import assert_close_rel, ddpm_sample_reference, fd_grad, sigmoid64_reference


def test_single_step_schedule():
    s = make_schedule(1, 0.5, 0.5)
    assert np.array_equal(s.alpha_bar, [0.5])
    assert np.array_equal(s.beta, [0.5])


def test_default_schedule_product_oracle():
    s = make_schedule(100, 1e-4, 0.02)
    assert (np.diff(s.alpha_bar) < 0).all()
    prod = math.prod(1.0 - b for b in s.beta.tolist())
    assert abs(s.alpha_bar[-1] - prod) <= 1e-9


def test_alpha_beta_sum_to_one():
    s = make_schedule(100, 1e-4, 0.02)
    assert np.abs(s.alpha + s.beta - 1.0).max() <= 1e-12


@pytest.mark.parametrize("T,b0,b1", [(0, 1e-4, 0.02), (10, 0.0, 0.02), (10, 0.02, 1e-4), (10, 0.5, 1.0)])
def test_schedule_rejects_bad_params(T, b0, b1):
    with pytest.raises(ConfigError):
        make_schedule(T, b0, b1)


def test_q_sample_known_values():
    # beta 0.75 in one step puts alpha_bar at 0.25
    s = make_schedule(1, 0.75, 0.75)
    x = q_sample(np.array([[2.0, 0.0]], np.float32), 0, np.array([[0.0, 2.0]], np.float32), s)
    assert np.abs(x - [1.0, math.sqrt(3.0)]).max() <= 1e-6


def test_q_sample_near_identity_at_tiny_beta():
    s = make_schedule(1, 1e-8, 1e-8)
    x0 = np.array([[1.5, -2.0]], np.float32)
    x = q_sample(x0, 0, np.array([[1.0, 1.0]], np.float32), s)
    assert np.abs(x - x0).max() <= 1e-3


def test_q_sample_variance_matches_schedule(rng):
    s = make_schedule(10, 1e-2, 0.3)
    t = 7
    n = 100_000
    eps = rng.standard_normal((n, 2)).astype(np.float32)
    x = q_sample(np.zeros((n, 2), np.float32), t, eps, s)
    var = x.astype(np.float64).var()
    want = 1.0 - s.alpha_bar[t]
    assert abs(var - want) / want <= 0.05


def test_posterior_mean_known_value():
    s = make_schedule(1, 0.25, 0.25)  # alpha = alpha_bar = 0.75 at t=0
    mu = posterior_mean(np.array([[1.0, 0.0]], np.float32), np.array([[1.0, 0.0]], np.float32), 0, s)
    want = (1.0 / math.sqrt(0.75)) * (1.0 - 0.25 / math.sqrt(0.25))
    assert abs(mu[0, 0] - want) <= 1e-6
    assert abs(want - 0.57735) <= 1e-5
    assert mu[0, 1] == 0.0


def test_posterior_mean_second_derivation(rng):
    # reconstruct x0-hat first, then take the posterior mean of the forward
    # process; both routes must agree
    s = make_schedule(50, 1e-3, 0.05)
    for t in (1, 10, 49):
        x_t = rng.standard_normal((4, 2)).astype(np.float32)
        eps = rng.standard_normal((4, 2)).astype(np.float32)
        got = posterior_mean(x_t, eps, t, s)

        ab_t = s.alpha_bar[t]
        ab_prev = s.alpha_bar[t - 1]
        x0_hat = (x_t - math.sqrt(1 - ab_t) * eps.astype(np.float64)) / math.sqrt(ab_t)
        coef0 = math.sqrt(ab_prev) * s.beta[t] / (1 - ab_t)
        coef_t = math.sqrt(s.alpha[t]) * (1 - ab_prev) / (1 - ab_t)
        want = coef0 * x0_hat + coef_t * x_t.astype(np.float64)
        assert np.abs(got - want).max() <= 1e-5


class _EpsOracle:
    """Duck-typed predictor that returns the exact noise it will be scored on."""

    def __init__(self, eps):
        self.eps = eps

    def forward(self, x, t, n_steps, cache=None):
        return self.eps


def test_loss_zero_for_exact_predictor(rng):
    s = make_schedule(10, 1e-4, 0.02)
    batch = rng.standard_normal((16, 2)).astype(np.float32)
    probe = stream(0, "noise")
    t = probe.integers(0, s.T, size=16)
    eps = probe.standard_normal((16, 2))
    loss, _pred, _eps = diffusion_loss(_EpsOracle(eps.astype(np.float32)), batch, s, stream(0, "noise"))
    assert float(loss) < 1e-8


class _ZeroModel:
    def forward(self, x, t, n_steps, cache=None):
        return np.zeros((x.shape[0], 2), np.float32)


def test_loss_one_for_zero_predictor(rng):
    s = make_schedule(10, 1e-4, 0.02)
    batch = rng.standard_normal((50_000, 2)).astype(np.float32)
    loss, _pred, _eps = diffusion_loss(_ZeroModel(), batch, s, rng)
    assert abs(float(loss) - 1.0) <= 0.05


def _tiny_model(rng):
    layers = [MaskedLinear.dense("fc1", 6, 4, rng), MaskedLinear.dense("fc2", 4, 2, rng)]
    return NoisePredictor(layers=layers, temb_dim=4)


def test_loss_grads_match_fd(rng):
    model = _tiny_model(rng)
    s = make_schedule(5, 1e-3, 0.05)
    batch = rng.standard_normal((8, 2)).astype(np.float32)

    cache = []
    _loss, pred, eps_drawn = diffusion_loss(model, batch, s, stream(3, "noise"), cache)
    grads = backward(cache, mse_grad(pred, eps_drawn, 1.0))

    # regenerate the same (t, eps) draw the loss consumed
    probe = stream(3, "noise")
    t = probe.integers(0, s.T, size=8)
    eps = probe.standard_normal(batch.shape)
    x_t = q_sample(batch, t, eps.astype(np.float32), s)
    temb = time_embedding(np.broadcast_to(t, (8,)), s.T, 4)
    h0 = np.concatenate([x_t, temb], axis=1).astype(np.float64)

    def loss64(w1, b1, w2, b2):
        h = h0 @ w1.T + b1
        h = h / (1 + np.exp(-h))
        h = h @ w2.T + b2
        return float(((h - eps) ** 2).mean())

    vals = [model.layers[0].weight.data, model.layers[0].bias.data,
            model.layers[1].weight.data, model.layers[1].bias.data]
    got = [g for layer_grads in grads for g in layer_grads]
    for i, v in enumerate(vals):
        def f(p, i=i):
            args = [a.astype(np.float64) for a in vals]
            args[i] = p
            return loss64(*args)

        assert_close_rel(got[i].astype(np.float32), fd_grad(f, v.astype(np.float64)), rel=1e-3)


def test_time_embedding_shape_and_range():
    emb = time_embedding(np.array([0, 50, 99]), 100, 64)
    assert emb.shape == (3, 64)
    assert emb.dtype == np.float32
    assert np.abs(emb).max() <= 1.0
    # frequency endpoints: slowest 1, fastest 1000 cycles over [0, 1]
    t = np.array([99])
    e = time_embedding(t, 100, 64)
    assert abs(e[0, 0] - math.sin(99 / 100)) <= 1e-6
    assert abs(e[0, 31] - math.sin(99 / 100 * 1000.0)) <= 1e-3


def test_predictor_forward_shape(rng):
    model = NoisePredictor.create(stream(0, "init"), hidden=(32,))
    out = model.forward(rng.standard_normal((5, 2)).astype(np.float32), 3, 10)
    assert out.shape == (5, 2)


@pytest.mark.parametrize("T", [1, 10, 100, 1000])
def test_temb_table_equals_per_batch_embedding(T):
    table = _temb_table(T, TEMB_DIM)
    assert table.shape == (T, TEMB_DIM) and table.dtype == np.float32
    assert not table.flags.writeable
    for t in range(T):
        want = table[t].view(np.uint32)
        for b in (1, 128, 2000, 2048):
            rows = time_embedding(np.full(b, t), T, TEMB_DIM)
            assert (rows.view(np.uint32) == want).all(), (t, b)


@pytest.mark.parametrize("t", [-1, 10, [0, 3, 10, 1, 2], [0, -1, 1, 2, 3]])
def test_predictor_forward_rejects_out_of_range_t(rng, t):
    model = NoisePredictor.create(stream(0, "init"), hidden=(32,))
    x = rng.standard_normal((5, 2)).astype(np.float32)
    with pytest.raises(IndexError):
        model.forward(x, t, 10)
    with pytest.raises(IndexError):
        model.forward(x, t, 10, [])


# numpy would broadcast the (5, 1) and (2,) batches into the first layer's input, and the t cases
# into the gathered time embedding, ending in its own untyped ValueError
@pytest.mark.parametrize("shape,t", [((5, 1), 3), ((2,), 3), ((5, 3), 3), ((5, 2, 1), 3),
                                     ((5, 2), [1, 2, 3]), ((5, 2), np.ones((5, 1), int))],
                         ids=["5x1", "2", "5x3", "5x2x1", "t3", "t5x1"])
def test_predictor_forward_rejects_malformed_points(rng, shape, t):
    model = prune_one_shot(NoisePredictor.create(stream(0, "init"), hidden=(32,)), NMPattern(2, 4))
    x = rng.standard_normal(shape).astype(np.float32)
    calls = [
        lambda: model.forward(x, t, 10),
        lambda: model.forward(x, t, 10, []),
        lambda: inference_forward(model, 10)(x, t),
        lambda: inference_forward(model, 10, compressed=True)(x, t),
    ]
    want = f"(batch, 2), got {shape}" if shape != (5, 2) else f"got shape {np.shape(t)}"
    for call in calls:
        with pytest.raises(DimensionError, match=re.escape(want)):
            call()


def test_create_rejects_indivisible_hidden():
    with pytest.raises(ConfigError, match="positive multiples of 32"):
        NoisePredictor.create(stream(0, "init"), hidden=(100,))


@pytest.mark.parametrize("temb_dim", [65, -2, 64.0, True])
def test_create_rejects_temb_dim_the_embedding_cannot_fill(temb_dim):
    # time_embedding is 2 * (dim // 2) wide, so fc1 would never get its input width
    with pytest.raises(ArchitectureError):
        NoisePredictor.create(stream(0, "init"), hidden=(32,), temb_dim=temb_dim)


def test_sampler_empty():
    model = NoisePredictor.create(stream(0, "init"), hidden=(32,))
    s = make_schedule(5, 1e-4, 0.02)
    out = ddpm_sample(model, 0, s, stream(0, "sample"))
    assert out.shape == (0, 2)


def test_sampler_deterministic():
    model = NoisePredictor.create(stream(7, "init"), hidden=(32,))
    s = make_schedule(20, 1e-4, 0.02)
    a = ddpm_sample(model, 16, s, stream(5, "sample"))
    b = ddpm_sample(model, 16, s, stream(5, "sample"))
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("pattern", [None, NMPattern(1, 4)], ids=["dense", "1:4"])
def test_compressed_sampling_needs_24_model(pattern):
    model = NoisePredictor.create(stream(0, "init"), hidden=(32,))
    if pattern is not None:
        prune_one_shot(model, pattern)
    with pytest.raises(CompressedPathError):
        ddpm_sample(model, 4, make_schedule(5), stream(0, "sample"), compressed=True)


def test_compressed_path_names_each_layer_that_is_not_24():
    # 2:4 fits fc2 and fc3 but not the 66-wide fc1, which keeps the 1:2 mask it was pruned to first
    model = NoisePredictor.create(stream(0, "init"), hidden=(32, 32))
    with pytest.raises(CompressedPathError, match="but no layer is masked; prune the dense model to 2:4$"):
        inference_forward(model, 5, compressed=True)
    prune_one_shot(model, NMPattern(1, 2))
    prune_one_shot(model, NMPattern(2, 4))
    assert [str(layer.pattern) for layer in model.layers] == ["1:2", "2:4", "2:4"]
    with pytest.raises(CompressedPathError, match="needs a 2:4 model, but fc1 is 1:2; prune the dense model to 2:4$"):
        inference_forward(model, 5, compressed=True)
    prune_one_shot(model, NMPattern(1, 4))
    with pytest.raises(CompressedPathError, match="but fc1 is 1:2, fc2 is 1:4, fc3 is 1:4;"):
        inference_forward(model, 5, compressed=True)


def _pin_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("kind", ["dense", "2:4", "compressed"])
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_sampler_matches_serial_reference(monkeypatch, cpus, kind):
    """Row chunks in forked processes give the one-chunk loop's bytes and leave the generator where it leaves it."""
    model = NoisePredictor.create(stream(2, "init"), hidden=(32, 32))
    if kind != "dense":
        prune_one_shot(model, NMPattern(2, 4))
    s = make_schedule(4, 1e-4, 0.02)
    # per chunk, keyed by its first row: posterior_mean calls and the rows they saw.  Each chunk
    # writes only its own slot, and the mapping is shared, so forked chunks count too.
    calls = trainer._shared_zeros((2, 2050), np.int64)
    first_row = []
    real_chain = diffusion._reverse_chain

    def chain(fwd, sched, rng, n, lo, hi):
        first_row.append(lo)  # in the process that runs this chunk
        return real_chain(fwd, sched, rng, n, lo, hi)

    def recording(x_t, *args):
        calls[:, first_row[-1]] += (1, len(x_t))
        return posterior_mean(x_t, *args)

    _pin_cpus(monkeypatch, cpus)
    monkeypatch.setattr(diffusion, "_reverse_chain", chain)
    monkeypatch.setattr(diffusion, "posterior_mean", recording)
    for n in (0, 1, 255, 511, 512, 513, 1025, 2000, 2049):
        calls[...] = 0
        rng, ref_rng = stream(n, "sample"), stream(n, "sample")
        out = ddpm_sample(model, n, s, rng, compressed=kind == "compressed")
        ref = ddpm_sample_reference(model, n, s, ref_rng, compressed=kind == "compressed")
        assert out.dtype == ref.dtype and out.shape == ref.shape == (n, 2)
        assert out.tobytes() == ref.tobytes(), n
        assert rng.standard_normal(3).tobytes() == ref_rng.standard_normal(3).tobytes(), n
        # each chunk makes one call per step, and the chunks cover the n rows once
        w = max(1, min(cpus, n // diffusion.SAMPLE_CHUNK_ROWS))
        assert np.flatnonzero(calls[0]).tolist() == [n * i // w for i in range(w)], n
        assert set(calls[0][calls[0] > 0]) == {s.T}, n
        assert calls[1].sum() == s.T * n, n
        _assert_no_child_left()


def test_sampler_chunk_failure_reaches_caller(monkeypatch):
    """A chunk that raises in a forked child raises in the caller; BLAS threads are restored, no child is left."""
    model = NoisePredictor.create(stream(2, "init"), hidden=(32,))
    blas = diffusion._openblas_threads()
    # the numpy wheel bundles OpenBLAS there, and its thread pair must then be found
    assert blas is not None or not list((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    inside = []
    caller = os.getpid()

    def failing(*args):
        if os.getpid() == caller:
            inside.append(blas[0]() if blas else None)
            return posterior_mean(*args)
        raise DimensionError("worker chunk failed")

    _pin_cpus(monkeypatch, 2)
    monkeypatch.setattr(diffusion, "posterior_mean", failing)
    saved = blas[0]() if blas else None
    if blas:
        blas[1](2)
    try:
        threads_before = threading.active_count()
        with pytest.raises(DimensionError, match="worker chunk failed"):
            ddpm_sample(model, 600, make_schedule(3), stream(0, "sample"))
        assert threading.active_count() == threads_before
        _assert_no_child_left()
        if blas:
            assert set(inside) == {1} and blas[0]() == 2
    finally:
        if blas:
            blas[1](saved)


def test_one_sampling_chunk_keeps_blas_threads(monkeypatch):
    """One chunk steps on OpenBLAS's own threads and two chunks on one; both leave the count as they found it."""
    blas = diffusion._openblas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS is not OpenBLAS")
    model = NoisePredictor.create(stream(2, "init"), hidden=(32,))
    inside, caller = [], os.getpid()

    def recording(*args):
        if os.getpid() == caller:
            inside.append(blas[0]())
        return posterior_mean(*args)

    _pin_cpus(monkeypatch, 2)
    monkeypatch.setattr(diffusion, "posterior_mean", recording)
    saved = blas[0]()
    blas[1](2)
    try:
        for n, threads in ((300, 2), (600, 1)):  # 300 rows make one chunk, 600 make two
            inside.clear()
            ddpm_sample(model, n, make_schedule(3), stream(0, "sample"))
            assert inside == [threads] * 3 and blas[0]() == 2, n
            _assert_no_child_left()
    finally:
        blas[1](saved)


def test_forked_returns_the_childs_value():
    """``join()`` returns what ``fn()`` returned in the child, however large."""
    with diffusion._forked(lambda: ("rows", 3), "a test child") as join:
        assert join() == ("rows", 3)
    _assert_no_child_left()
    # 1 MiB, 16 times the 64 KiB pipe buffer: a partial write would come back short
    big = stream(0, "sample").standard_normal(1 << 18).astype(np.float32)
    with diffusion._forked(lambda: big, "a test child") as join:
        got = join()
    assert got.dtype == big.dtype and got.tobytes() == big.tobytes()
    _assert_no_child_left()


def test_forked_unpicklable_value_raises_in_caller():
    """A value that will not pickle in the child raises the pickling error in the caller."""
    with diffusion._forked(lambda: lambda: 0, "a test child") as join:
        # AttributeError up to Python 3.13, PicklingError from 3.14
        with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
            join()
    _assert_no_child_left()


def test_forked_unjoined_child_is_killed():
    """Leaving the block without ``join()`` kills the child instead of waiting for it."""
    start = time.monotonic()
    with diffusion._forked(lambda: time.sleep(60), "a test child"):
        pass
    assert time.monotonic() - start < 30
    _assert_no_child_left()


def test_sampler_on_a_second_thread_forks_nothing(monkeypatch):
    """With another Python thread alive a fork is unsafe: one chunk in this process, the same bytes."""
    model = NoisePredictor.create(stream(2, "init"), hidden=(32,))
    s = make_schedule(5)
    _pin_cpus(monkeypatch, 2)
    forks, real_fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    main_thread = ddpm_sample(model, 1024, s, stream(3, "sample"))
    assert len(forks) == 1
    got = []
    worker = threading.Thread(target=lambda: got.append(ddpm_sample(model, 1024, s, stream(3, "sample"))))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive() and len(forks) == 1 and len(got) == 1
    assert got[0].tobytes() == main_thread.tobytes()
    assert got[0].tobytes() == ddpm_sample_reference(model, 1024, s, stream(3, "sample")).tobytes()


def _forward_reference(model, x, t, n_steps, compressed):
    """``NoisePredictor.forward`` written out: a float32 input, float64 products rounded to float32.

    The compressed case writes out the closure's fold: fc1's time columns make a per-step bias table.
    """
    t = np.broadcast_to(t, (len(x),))
    x = x.astype(np.float32)
    first, *rest = model.layers
    w1 = (first.weight.data * first.mask).astype(np.float64)
    if compressed:
        temb = time_embedding(np.arange(n_steps), n_steps, model.temb_dim).astype(np.float64)
        table = temb @ w1[:, 2:].T + first.bias.data.astype(np.float64)
        h = (x.astype(np.float64) @ w1[:, :2].T + table[t]).astype(np.float32)
    else:
        h0 = np.concatenate([x, time_embedding(t, n_steps, model.temb_dim)], axis=1).astype(np.float64)
        h = (h0 @ w1.T + first.bias.data.astype(np.float64)).astype(np.float32)
    for layer in rest:
        h64 = h.astype(np.float64)
        h = (h64 * sigmoid64_reference(h64)).astype(np.float32)
        if compressed and layer.pattern is not None:
            h = spmm(compress_2_4(layer.weight.data * layer.mask, layer.mask), h) + layer.bias.data
        else:
            w_eff = (layer.weight.data * layer.mask).astype(np.float64)
            h = (h.astype(np.float64) @ w_eff.T + layer.bias.data.astype(np.float64)).astype(np.float32)
    return h


@pytest.mark.parametrize("t", [7, "per-row"])
@pytest.mark.parametrize("kind", ["dense", "2:4", "compressed"])
def test_forward_matches_written_out_reference(rng, kind, t):
    # temb 62 makes fc1 64 wide, so 2:4 masks fc1 too, and its fold runs on the masked weight
    model = NoisePredictor.create(stream(4, "init"), hidden=(64, 32), temb_dim=62)
    if kind != "dense":
        prune_one_shot(model, NMPattern(2, 4))
    t = rng.integers(0, 20, size=300) if t == "per-row" else t
    x64 = rng.standard_normal((300, 2))
    for x in (x64, x64.astype(np.float32)):  # a float64 x rounds to float32 first
        got = inference_forward(model, 20, compressed=kind == "compressed")(x, t)
        want = _forward_reference(model, x, t, 20, kind == "compressed")
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        if kind != "compressed":
            cache = []
            assert model.forward(x, t, 20, cache).tobytes() == want.tobytes()
            # backward reads float64 throughout, so it casts nothing
            assert all(a.dtype == np.float64 for entry in cache for a in entry)


@pytest.mark.parametrize("kind", ["dense", "2:4"])
def test_folded_forward_matches_forward_at_full_size(kind):
    """The default model at T = 100 and n = 2000: the closure's fold gives ``forward``'s bytes at every step.

    The fold reorders a float64 sum, so this is measured equality, not equality by construction.
    """
    model = NoisePredictor.create(stream(5, "init"))
    if kind != "dense":
        prune_one_shot(model, NMPattern(2, 4))
    fwd = inference_forward(model, 100)
    rng = stream(5, "sample")
    for t in range(100):
        x = (rng.standard_normal((2000, 2)) * (1.0 + t / 25)).astype(np.float32)
        assert fwd(x, t).tobytes() == model.forward(x, t, 100).tobytes(), t


class _GaussOracle:
    """Exact noise posterior for x0 ~ N(c, I): eps(x,t) = (x - sqrt(ab)c) sqrt(1-ab)."""

    def __init__(self, center, sched):
        self.center = np.asarray(center, np.float64)
        self.sched = sched

    def forward(self, x, t, n_steps, cache=None):
        t = int(np.asarray(t).reshape(-1)[0]) if np.ndim(t) else int(t)
        ab = self.sched.alpha_bar[t]
        out = (x.astype(np.float64) - math.sqrt(ab) * self.center) * math.sqrt(1 - ab)
        return out.astype(np.float32)


def test_sampler_recovers_gaussian_mean(monkeypatch):
    # schedule strong enough that alpha_bar_T ~ 2e-5, so the N(0,I) start
    # matches the true terminal marginal and the chain mean is unbiased
    s = make_schedule(100, 1e-3, 0.2)
    # the oracle has no layers to fold: the chain calls its forward directly
    monkeypatch.setattr(diffusion, "inference_forward",
                        lambda model, n_steps, compressed=False: functools.partial(model.forward, n_steps=n_steps))
    center = np.array([1.0, -2.0])
    n = 4096
    out = ddpm_sample(_GaussOracle(center, s), n, s, stream(11, "sample")).astype(np.float64)
    sd = out.std(axis=0)
    assert np.all(np.abs(out.mean(axis=0) - center) <= 3 * sd / math.sqrt(n))


@pytest.mark.parametrize("kind", ["gauss8", "swiss_roll", "checkerboard"])
def test_dataset_moments(kind):
    pts = toy_batch(kind, 60_000, stream(1, "data")).astype(np.float64)
    assert np.abs(pts.mean(axis=0)).max() <= 0.1
    assert np.abs(pts.std(axis=0) - 1.0).max() <= 0.1


def test_gauss8_modes_cluster():
    pts = toy_batch("gauss8", 8000, stream(2, "data")).astype(np.float64)
    r = 1.0 / math.sqrt(0.51)
    angles = np.arange(8) * (2 * math.pi / 8)
    centers = r * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    d = np.linalg.norm(pts[:, None, :] - centers[None, :, :], axis=2)
    nearest = d.argmin(axis=1)
    # every mode populated roughly evenly, and points sit close to their mode
    counts = np.bincount(nearest, minlength=8)
    assert counts.min() > 8000 / 16
    assert d[np.arange(len(pts)), nearest].mean() < 3 * 0.1 / math.sqrt(0.51)


def test_dataset_seed_determinism():
    a = toy_batch("swiss_roll", 64, stream(9, "data"))
    b = toy_batch("swiss_roll", 64, stream(9, "data"))
    assert a.tobytes() == b.tobytes()


def test_dataset_unknown_kind():
    with pytest.raises(ConfigError):
        toy_batch("spiral", 4, stream(0, "data"))
