import hashlib
import math
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import assert_close_rel, fd_grad, model_checksum
from sparsedm import trainer
from sparsedm.checkpoint import CKPT_NAME, save_model
from sparsedm.diffusion import DATA_DIM, NoisePredictor, make_schedule, time_embedding
from sparsedm.errors import ArchitectureError, ConfigError, PatternError, TrainingError
from sparsedm.rng import stream
from sparsedm.evalbench import DEFAULT_SWEEP_PATTERNS
from sparsedm.sparsity import MaskedLinear, NMPattern, compress_2_4, is_transposable, project_mask, satisfies
from sparsedm.tensor import Tensor, backward, mse_grad
from sparsedm.trainer import TrainConfig, prune_one_shot, ste_update, transfer_train


def _model(seed=0, hidden=(32,)):
    return NoisePredictor.create(stream(seed, "init"), hidden=hidden)


def _checksum(model):
    h = hashlib.sha256()
    for layer in model.layers:
        h.update(layer.weight.data.tobytes())
        h.update(layer.bias.data.tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# ste_update
# ---------------------------------------------------------------------------

def _layer(w0, mask, pattern, b0=None):
    """A layer holding a float32 copy of ``w0`` and of ``b0`` (zeros by default)."""
    b0 = np.zeros(len(w0), np.float32) if b0 is None else b0
    return MaskedLinear("fc", Tensor(w0.copy()), Tensor(b0.copy()), mask, pattern)


def _step(layer, g0, lr, lam):
    """``ste_update`` of one loss branch's float64 ``(g0, 0)``; returns the layer's weight."""
    ste_update(layer, [(g0.astype(np.float64), np.zeros(layer.out_features))], lr, lam)
    return layer.weight.data


def test_ste_update_zero_grad_decay(rng):
    w0 = rng.standard_normal((4, 8)).astype(np.float32)
    mask = project_mask(Tensor(w0), NMPattern(2, 4))
    zero = np.zeros_like(w0)
    lr, lam = 0.1, 0.05
    w = _step(_layer(w0, mask, NMPattern(2, 4)), zero, lr, lam)
    kept = mask == 1
    assert np.array_equal(w[kept], w0[kept])
    pruned = ~kept
    want = w0[pruned].astype(np.float64) * (1 - lr * lam)
    assert np.abs(w[pruned] - want).max() <= 1e-7


def test_ste_update_kept_positions_match_unregularized(rng):
    # lambda_w term is exactly zero where the mask keeps weights
    w0 = rng.standard_normal((4, 8)).astype(np.float32)
    g0 = rng.standard_normal((4, 8)).astype(np.float32)
    mask = project_mask(Tensor(w0), NMPattern(1, 4))
    with_reg = _step(_layer(w0, mask, NMPattern(1, 4)), g0, 0.07, 0.3)
    without = _step(_layer(w0, mask, NMPattern(1, 4)), g0, 0.07, 0.0)
    kept = mask == 1
    assert np.array_equal(with_reg[kept], without[kept])
    assert not np.array_equal(with_reg[~kept], without[~kept])


def test_ste_update_single_row_hand_values():
    w0 = np.array([[1.0, -2.0, 0.5, 4.0]], np.float32)
    g = np.array([[0.1, 0.2, -0.3, 0.4]], np.float32)
    mask = np.array([[0, 1, 0, 1]], np.uint8)
    lr, lam = 0.01, 0.5
    got = _step(_layer(w0, mask, NMPattern(2, 4)), g, lr, lam)

    want = np.empty(4)
    for j, (wv, gv, mv) in enumerate(zip([1.0, -2.0, 0.5, 4.0], [0.1, 0.2, -0.3, 0.4], [0, 1, 0, 1])):
        want[j] = wv - lr * (gv + lam * (wv - wv * mv))
    assert np.abs(got[0] - want).max() <= 1e-7


def test_ste_update_matches_closed_form_random(rng):
    w0 = rng.standard_normal((8, 16)).astype(np.float32)
    g0 = rng.standard_normal((8, 16)).astype(np.float32)
    mask = project_mask(Tensor(w0), NMPattern(2, 4))
    lr, lam = 0.03, 0.02
    got = _step(_layer(w0, mask, NMPattern(2, 4)), g0, lr, lam)
    w64 = w0.astype(np.float64)
    want = w64 - lr * (g0.astype(np.float64) + lam * (w64 - w64 * mask))
    assert np.abs(got.astype(np.float64) - want).max() <= 1e-6


@pytest.mark.parametrize("lam", [0.0, 1e-4, 0.3])
def test_ste_update_is_the_plain_expression_and_leaves_its_inputs(rng, lam):
    """It writes the plain float64 expression, rounded once, into the layer's own weight and bias
    arrays, and leaves its other inputs, the gradients and the mask, unchanged."""
    w0 = rng.standard_normal((16, 32)).astype(np.float32)
    w0[0, :4] = [0.0, -0.0, 1e-38, -3.0e38]
    g0 = rng.standard_normal((16, 32)).astype(np.float32).astype(np.float64)
    mask = project_mask(Tensor(w0), NMPattern(1, 4))
    # the bias gradient is not a float32 value, so its sum must round
    b0, gb = rng.standard_normal(16).astype(np.float32), rng.standard_normal(16)
    layer = _layer(w0, mask, NMPattern(1, 4), b0)
    arrays = (layer.weight.data, layer.bias.data, layer.mask)
    grads = [(g0, gb)]
    saved = (g0.copy(), gb.copy(), mask.copy())
    ste_update(layer, grads, 0.07, lam)
    w64 = w0.astype(np.float64)
    want_w = np.float32(w64 - 0.07 * (g0 + lam * (w64 - w64 * mask)))
    want_b = np.float32(b0.astype(np.float64) - 0.07 * gb.astype(np.float32).astype(np.float64))
    assert all(a is b for a, b in zip((layer.weight.data, layer.bias.data, layer.mask), arrays))
    assert np.array_equal(layer.weight.data.view(np.uint32), want_w.view(np.uint32))
    assert np.array_equal(layer.bias.data.view(np.uint32), want_b.view(np.uint32))
    assert grads[0][0] is g0 and grads[0][1] is gb
    for before, after in zip(saved, (g0, gb, mask)):
        assert np.array_equal(before.view(np.uint8), after.view(np.uint8))


def test_ste_update_lambda_w_term_is_exactly_zero_under_an_all_ones_mask(rng):
    """A 1:1 layer takes the lambda_w term and a layer with no pattern skips it: the same bytes."""
    w0 = rng.standard_normal((8, 66)).astype(np.float32)
    w0[0, :3] = [0.0, -0.0, 2.5e38]
    g0 = rng.standard_normal((8, 66)).astype(np.float32)
    g0[0, 3] = 0.0
    ones = np.ones(w0.shape, np.uint8)
    with_term = _step(_layer(w0, ones, NMPattern(1, 1)), g0, 0.2, 1e-4)
    skipped = _step(_layer(w0, ones, None), g0, 0.2, 1e-4)
    assert np.array_equal(with_term.view(np.uint32), skipped.view(np.uint32))


def test_lambda_w_never_changes_dense_training_bytes(tmp_path):
    """Dense layers skip the lambda_w term; a 1:1 schedule applies it to the same all-ones masks.
    Both write the model.ckpt that lambda_w = 0 writes."""
    sched = make_schedule(10, 1e-4, 0.02)
    runs = {"dense-0": ((), 0.0), "dense-1e-4": ((), 1e-4), "all-ones-1e-4": ((NMPattern(1, 1),), 1e-4)}
    for name, (schedule, lam) in runs.items():
        model, _ = transfer_train(_model(4, (32, 32)), None, "gauss8", sched,
                                  TrainConfig(steps=30, batch_size=16, seed=4, lambda_w=lam, schedule=schedule))
        save_model(tmp_path / name, model, sched, seed=4)
    ckpts = {(tmp_path / name / CKPT_NAME).read_bytes() for name in runs}
    assert len(ckpts) == 1


# ---------------------------------------------------------------------------
# configs and schedules
# ---------------------------------------------------------------------------

def test_config_validation():
    TrainConfig(steps=10)
    with pytest.raises(ConfigError):
        TrainConfig(steps=-1)
    with pytest.raises(ConfigError):
        TrainConfig(steps=10, lr=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(steps=10, lr_schedule="exponential")
    with pytest.raises(ConfigError):
        TrainConfig(steps=10, lambda1=0.0, lambda2=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(steps=10, lambda1=1.5)
    for lambda_w in (-1e-4, math.nan, math.inf):
        with pytest.raises(ConfigError):
            TrainConfig(steps=10, lambda_w=lambda_w)
    with pytest.raises(ConfigError):
        TrainConfig(steps=10, switch_every=0)
    for field in ("steps", "batch_size", "seed", "teacher_bank", "switch_every"):
        with pytest.raises(ConfigError, match=f"{field} must be a .* integer, got True"):
            TrainConfig(**{"steps": 10, field: True})
    for seed in (-1, 1.5):  # numpy's SeedSequence would refuse them only at the first draw, untyped
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            TrainConfig(steps=10, seed=seed)
    with pytest.raises(ConfigError):
        TrainConfig(steps=10, schedule=("2:4",))
    # a replaced config is constructed, and so checked, again
    with pytest.raises(ConfigError, match="lr must be positive"):
        replace(TrainConfig(steps=10), lr=0.0)


def test_lr_schedule_shapes():
    c = TrainConfig(steps=100, lr=0.2, lr_schedule="cosine")
    assert c.lr_at(0) == 0.2
    assert c.lr_at(50) == pytest.approx(0.1)
    assert c.lr_at(99) < 0.01
    flat = TrainConfig(steps=100, lr=0.2, lr_schedule="constant")
    assert flat.lr_at(0) == flat.lr_at(99) == 0.2


def _projections(config):
    return {s for s in range(config.steps) if config.projects_at(s)}


def test_mask_schedule_fixed_and_progressive():
    fx = TrainConfig(steps=100, schedule=(NMPattern(2, 4),), freeze_masks=True)
    assert fx.pattern_at(0) == fx.pattern_at(99) == NMPattern(2, 4)
    assert _projections(fx) == {0}
    assert _projections(replace(fx, freeze_masks=False)) == set(range(100))

    pg = TrainConfig(steps=130, schedule=(NMPattern(3, 4), NMPattern(2, 4)), switch_every=50,
                     freeze_masks=True)
    assert pg.pattern_at(0) == NMPattern(3, 4)
    assert pg.pattern_at(49) == NMPattern(3, 4)
    assert pg.pattern_at(50) == pg.pattern_at(129) == NMPattern(2, 4)
    assert _projections(pg) == {0, 50}

    dense = TrainConfig(steps=10)
    assert dense.pattern_at(0) is None and _projections(dense) == set()


def test_mask_schedule_rejects_bad_partition():
    # every pattern needs at least one step; the last one runs to the end
    two = (NMPattern(3, 4), NMPattern(2, 4))
    TrainConfig(steps=6, schedule=two, switch_every=5)
    with pytest.raises(ConfigError):
        TrainConfig(steps=5, schedule=two, switch_every=5)
    with pytest.raises(ConfigError):
        TrainConfig(steps=0, schedule=two[:1])


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------

def test_prune_32_32_is_identity_mask():
    model = _model()
    prune_one_shot(model, NMPattern(32, 32))
    for layer in model.layers:
        if layer.pattern is not None:
            assert layer.mask.all()


def test_prune_2_4_skips_first_layer_halves_rest():
    model = _model(hidden=(32, 32))
    prune_one_shot(model, NMPattern(2, 4))
    assert model.layers[0].pattern is None
    assert model.layers[0].mask.all()
    for layer in model.layers[1:]:
        assert layer.pattern == NMPattern(2, 4)
        assert (layer.mask == 1).sum() == layer.weight.data.size // 2


def test_prune_strict_errors_on_skip():
    with pytest.raises(PatternError):
        prune_one_shot(_model(), NMPattern(2, 4), strict=True)


def test_prune_errors_when_nothing_fits():
    model = NoisePredictor(
        layers=[type(_model().layers[0]).dense("fc1", 6, 2, stream(0, "init"))],
        temb_dim=4,
    )
    with pytest.raises(PatternError):
        prune_one_shot(model, NMPattern(2, 4))


def test_prune_transposable_masks_where_possible():
    model = _model(hidden=(32, 32))
    prune_one_shot(model, NMPattern(2, 4), transposable=True)
    # hidden-to-hidden layer is 32x32: both dims divisible, mask transposable
    assert is_transposable(model.layers[1].mask, NMPattern(2, 4))
    # final layer is 2x32: output dim not divisible, falls back to row projection
    assert model.layers[2].pattern == NMPattern(2, 4)
    assert satisfies(model.layers[2].mask, NMPattern(2, 4))


@settings(max_examples=100, deadline=None)
@given(
    hidden=st.lists(st.sampled_from([32, 64, 96, 128]), min_size=1, max_size=2),
    temb_dim=st.sampled_from([64, 30, 126]),  # fc1 is 66, 32 or 128 wide
    # 2:4, the compressed path's pattern, in about half the draws
    pattern=st.just(NMPattern(2, 4)) | st.sampled_from(DEFAULT_SWEEP_PATTERNS),
    transposable=st.booleans(),
    strict=st.booleans(),
    zero_frac=st.sampled_from([0.0, 0.3, 1.0]),
    ties=st.booleans(),
    seed=st.integers(0, 2 ** 16),
)
def test_prune_masks_keep_the_invariants_the_pattern_ops_trust(
    hidden, temb_dim, pattern, transposable, strict, zero_frac, ties, seed
):
    model = NoisePredictor.create(stream(seed, "init"), hidden=tuple(hidden), temb_dim=temb_dim)
    r = np.random.default_rng(seed)
    for layer in model.layers:
        w = r.standard_normal(layer.weight.shape)
        w[r.random(w.shape) < zero_frac] = 0.0
        layer.weight = Tensor(np.round(w) if ties else w)
    fits = [layer.in_features % pattern.m == 0 for layer in model.layers]
    if not any(fits) or (strict and not all(fits)):
        with pytest.raises(PatternError):
            prune_one_shot(model, pattern, transposable, strict)
        return
    prune_one_shot(model, pattern, transposable, strict)
    for layer, fit in zip(model.layers, fits):
        assert layer.pattern == (pattern if fit else None)
        assert satisfies(layer.mask, layer.pattern or NMPattern(1, 1))
        if transposable and layer.pattern == NMPattern(2, 4) and layer.out_features % 4 == 0:
            assert is_transposable(layer.mask, layer.pattern)
        if layer.pattern == NMPattern(2, 4):
            csr = compress_2_4(layer.effective_weight(), layer.mask).csr
            assert csr.nnz == layer.out_features * layer.in_features // 2
            assert np.array_equal(csr.toarray(), layer.effective_weight())


def test_prune_weights_untouched():
    model = _model()
    before = _checksum(model)
    prune_one_shot(model, NMPattern(2, 4))
    assert _checksum(model) == before


# ---------------------------------------------------------------------------
# dense training: no teacher, no schedule
# ---------------------------------------------------------------------------

def _train(model, sched, config):
    return transfer_train(model, None, "gauss8", sched, config)


def test_train_dense_zero_steps_noop():
    model = _model()
    before = _checksum(model)
    out, trace = _train(model, make_schedule(10, 1e-4, 0.02), TrainConfig(steps=0))
    assert trace == []
    assert _checksum(out) == before


def test_train_dense_improves_loss_over_seeds():
    sched = make_schedule(100, 1e-4, 0.02)
    deltas = []
    for seed in range(3):
        model = _model(seed)
        _, trace = _train(model, sched, TrainConfig(steps=2000, seed=seed))
        first = np.mean([r["loss_total"] for r in trace[:50]])
        last = np.mean([r["loss_total"] for r in trace[-50:]])
        deltas.append(last - first)
    assert np.mean(deltas) < 0
    assert all(r["active_pattern"] == "dense" and r["sparsity"] == 0.0 and r["loss_dense"] == 0.0
               for r in trace)


def test_train_dense_deterministic():
    sched = make_schedule(20, 1e-4, 0.02)

    def run():
        model = _model(3)
        out, trace = _train(model, sched, TrainConfig(steps=25, seed=3))
        return _checksum(out), trace

    (c1, t1), (c2, t2) = run(), run()
    assert c1 == c2
    assert t1 == t2


def test_train_dense_rejects_masked_model():
    model = _model()
    prune_one_shot(model, NMPattern(2, 4))
    with pytest.raises(ConfigError):
        _train(model, make_schedule(10, 1e-4, 0.02), TrainConfig(steps=1))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_train_dense_divergence_raises():
    model = _model()
    with pytest.raises(TrainingError):
        _train(model, make_schedule(10, 1e-4, 0.02),
               TrainConfig(steps=200, lr=2000.0, lr_schedule="constant"))


# ---------------------------------------------------------------------------
# transfer training
# ---------------------------------------------------------------------------

def test_transfer_distill_loss_zero_when_student_is_teacher():
    teacher = _model(5)
    student = teacher.copy()
    sched = make_schedule(10, 1e-4, 0.02)
    config = TrainConfig(steps=3, lambda1=1.0, lambda2=0.0, lambda_w=0.0, lr=1e-9, seed=5,
                         schedule=(NMPattern(32, 32),))
    _, trace = transfer_train(student, teacher, "gauss8", sched, config)
    assert trace[0]["loss_dense"] == 0.0


def test_transfer_needs_teacher_for_distillation():
    config = TrainConfig(steps=2, lambda1=0.5, lambda2=0.5, schedule=(NMPattern(2, 4),))
    with pytest.raises(ConfigError):
        transfer_train(_model(), None, "gauss8", make_schedule(10, 1e-4, 0.02), config)


def test_transfer_teacher_unchanged(monkeypatch):
    # 10 steps run in this process; 12 (FORK_MIN_STEPS or more) on two CPUs fork the distillation
    # worker, and the student then trains in shared copies of its arrays, which the worker reads
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    workers, real = [], trainer._forked
    monkeypatch.setattr(trainer, "_forked", lambda *args: workers.append(1) or real(*args))
    for steps, forked in ((10, 0), (12, 1)):
        teacher = _model(1)
        before = model_checksum(teacher)
        student = teacher.copy()
        prune_one_shot(student, NMPattern(2, 4))
        sched = make_schedule(10, 1e-4, 0.02)
        config = TrainConfig(steps=steps, lambda1=0.5, lambda2=0.5, seed=1, schedule=(NMPattern(2, 4),))
        transfer_train(student, teacher, "gauss8", sched, config)
        assert model_checksum(teacher) == before
        assert len(workers) == forked


def _arrays(model):
    return [a for layer in model.layers for a in (layer.weight.data, layer.bias.data, layer.mask)]


def test_training_writes_parameters_in_place():
    """Pruning and an in-process transfer run store into the arrays the layers already hold."""
    teacher = _model(6)
    student = teacher.copy()
    arrays = _arrays(student)
    prune_one_shot(student, NMPattern(2, 4))
    assert all(a is b for a, b in zip(_arrays(student), arrays, strict=True))
    before = model_checksum(student)
    config = TrainConfig(steps=4, lambda1=0.5, lambda2=0.5, seed=6, teacher_bank=64, schedule=(NMPattern(2, 4),))
    transfer_train(student, teacher, "gauss8", make_schedule(10, 1e-4, 0.02), config)
    assert all(a is b for a, b in zip(_arrays(student), arrays, strict=True))
    assert model_checksum(student) != before


def _sharing_teacher(student, share):
    if share == "model":
        return student
    return NoisePredictor([
        MaskedLinear(l.name, l.weight, l.bias, l.mask.copy(), l.pattern) if share == "tensors"
        else MaskedLinear(l.name, Tensor(l.weight.data.copy()), Tensor(l.bias.data.copy()), l.mask[:], l.pattern)
        for l in student.layers
    ])


@pytest.mark.parametrize("share", ["model", "tensors", "mask-view"])
def test_transfer_refuses_a_teacher_that_shares_memory_with_the_student(share, monkeypatch):
    # the student trains in place, so such a teacher would change under it; on two CPUs the forked
    # worker would also read the student's arrays while this process writes them
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    student = _model(7)
    prune_one_shot(student, NMPattern(2, 4))
    teacher = _sharing_teacher(student, share)
    before = model_checksum(student)
    config = TrainConfig(steps=12, lambda1=0.5, lambda2=0.5, seed=7, teacher_bank=64, schedule=(NMPattern(2, 4),))
    with pytest.raises(ConfigError, match="shares parameter memory with the student"):
        transfer_train(student, teacher, "gauss8", make_schedule(10, 1e-4, 0.02), config)
    assert model_checksum(student) == before


def test_transfer_masks_valid_after_run():
    teacher = _model(2)
    student = teacher.copy()
    prune_one_shot(student, NMPattern(2, 4))
    sched = make_schedule(10, 1e-4, 0.02)
    out, trace = transfer_train(student, teacher, "gauss8", sched,
                                TrainConfig(steps=15, lambda1=0.5, lambda2=0.5, seed=2,
                                            schedule=(NMPattern(2, 4),)))
    for layer in out.layers:
        if layer.pattern is not None:
            assert satisfies(layer.mask, NMPattern(2, 4))
    assert all(r["active_pattern"] == "2:4" and r["sparsity"] == 0.5 for r in trace)


def test_transfer_progressive_ends_with_tight_masks():
    teacher = _model(4)
    student = teacher.copy()
    sched = make_schedule(10, 1e-4, 0.02)
    config = TrainConfig(steps=20, lambda1=0.0, lambda2=1.0, seed=4,
                         schedule=(NMPattern(3, 4), NMPattern(2, 4)), switch_every=10)
    out, trace = transfer_train(student, teacher, "gauss8", sched, config)
    assert trace[0]["active_pattern"] == "3:4"
    assert trace[-1]["active_pattern"] == "2:4"
    for layer in out.layers:
        if layer.pattern is not None:
            assert satisfies(layer.mask, NMPattern(2, 4))


def test_transfer_rejects_mismatched_schedule_and_arch():
    teacher = _model(0)
    student = teacher.copy()
    sched = make_schedule(10, 1e-4, 0.02)
    two = (NMPattern(3, 4), NMPattern(2, 4))
    with pytest.raises(ConfigError):
        transfer_train(student, teacher, "gauss8", sched,
                       TrainConfig(steps=5, schedule=two, switch_every=5))
    other = _model(0, hidden=(64,))
    with pytest.raises(ArchitectureError):
        transfer_train(student, other, "gauss8", sched,
                       TrainConfig(steps=5, schedule=two[1:]))


def test_transfer_reduces_to_vanilla_ste_short():
    # lambda1=0 and one fixed pattern (lambda_w=0), or no pattern at all (dense
    # pretraining, where lambda_w meets all-ones masks): bit-for-bit the plain loop
    from sparsedm.diffusion import diffusion_loss, toy_batch

    sched = make_schedule(10, 1e-4, 0.02)
    teacher = _model(8)
    for pattern, lambda_w in ((NMPattern(2, 4), 0.0), (None, 1e-4)):
        config = TrainConfig(steps=12, lambda1=0.0, lambda2=1.0, lambda_w=lambda_w, seed=8,
                             lr=0.1, lr_schedule="cosine", schedule=(pattern,) if pattern else ())
        student = teacher.copy()
        if pattern:
            prune_one_shot(student, pattern)
        got, trace = transfer_train(student, teacher, "gauss8", sched, config)

        ref = teacher.copy()
        data_rng = stream(8, "data")
        noise_rng = stream(8, "noise")
        losses = []
        for step in range(12):
            for layer in ref.layers:
                if pattern and layer.in_features % pattern.m == 0:
                    layer.mask = project_mask(layer.weight, pattern)
            lr = config.lr_at(step)
            batch = toy_batch("gauss8", config.batch_size, data_rng)
            cache = []
            loss, pred, eps = diffusion_loss(ref, batch, sched, noise_rng, cache)
            losses.append(float(loss))
            grads = backward(cache, mse_grad(pred, eps, 1.0))
            for layer, (gw, gb) in zip(ref.layers, grads):
                # the gradient rounds to float32 before the update, as in training
                gw = gw.astype(np.float32).astype(np.float64)
                w64 = layer.weight.data.astype(np.float64)
                layer.weight = Tensor(w64 - lr * gw)
                layer.bias = Tensor(layer.bias.data.astype(np.float64)
                                    - lr * gb.astype(np.float32).astype(np.float64))
        assert _checksum(got) == _checksum(ref)
        assert [r["loss_total"] for r in trace] == losses


@settings(max_examples=25, deadline=None)
@example(depth=2, lam1=0.5, lam2=0.5, seed=0)
@given(st.integers(2, 3), st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.integers(0, 2 ** 31 - 1))
def test_two_branch_grads_sum_to_fd_of_weighted_loss(depth, lam1, lam2, seed):
    # a transfer step's two loss branches, each through backward, summed per layer by
    # ste_update; at lr 1 on an all-zero copy of the weights, the step it takes is
    # minus the summed float32 gradient
    assume(lam1 + lam2 > 0.0)
    r = np.random.default_rng(seed)
    n_steps, temb, batch = 7, 6, 5
    dims = [DATA_DIM + temb] + [8] * (depth - 1) + [DATA_DIM]
    layers = [MaskedLinear.dense(f"fc{i + 1}", dims[i], dims[i + 1], r) for i in range(depth)]
    for layer in layers:
        # a random 2:4 mask, unrelated to the weight magnitudes
        layer.mask = project_mask(Tensor(r.standard_normal(layer.weight.shape)), NMPattern(2, 4))
        layer.pattern = NMPattern(2, 4)
        layer.bias = Tensor(r.standard_normal(layer.out_features) * 0.1)
    model = NoisePredictor(layers=layers, temb_dim=temb)
    xs = [r.standard_normal((batch, DATA_DIM)).astype(np.float32) for _ in range(2)]
    ts = [r.integers(0, n_steps, size=batch) for _ in range(2)]
    targets = [r.standard_normal((batch, DATA_DIM)).astype(np.float32) for _ in range(2)]
    lams = (lam1, lam2)

    grads = []
    for x, t, target, lam in zip(xs, ts, targets, lams):
        cache = []
        out = model.forward(x, t, n_steps, cache)
        grads.append(backward(cache, mse_grad(out, target, lam)))
    step = model.copy()
    for layer in step.layers:
        layer.weight = Tensor(np.zeros(layer.weight.shape))
        layer.bias = Tensor(np.zeros(layer.bias.shape))
    for layer, *per_branch in zip(step.layers, *grads):
        ste_update(layer, per_branch, lr=1.0, lambda_w=0.0)

    # independent float64 loss of the effective weights, so pruned positions get the STE gradient
    h0s = [np.concatenate([x, time_embedding(t, n_steps, temb)], axis=1).astype(np.float64)
           for x, t in zip(xs, ts)]
    effs = [layer.effective_weight().astype(np.float64) for layer in layers]
    biases = [layer.bias.data.astype(np.float64) for layer in layers]

    def loss64(ws, bs):
        total = 0.0
        for h, target, lam in zip(h0s, targets, lams):
            for i in range(depth):
                h = h @ ws[i].T + bs[i]
                if i < depth - 1:
                    h = h / (1.0 + np.exp(-h))
            total += lam * float(np.mean((h - target.astype(np.float64)) ** 2))
        return total

    for i, layer in enumerate(step.layers):
        def f_w(v, i=i):
            return loss64(effs[:i] + [v] + effs[i + 1:], biases)

        def f_b(v, i=i):
            return loss64(effs, biases[:i] + [v] + biases[i + 1:])

        assert_close_rel(-layer.weight.data, fd_grad(f_w, effs[i]), rel=1e-3)
        assert_close_rel(-layer.bias.data, fd_grad(f_b, biases[i]), rel=1e-3)
