import hashlib
from dataclasses import replace

import numpy as np
import pytest

from sparsedm.diffusion import NoisePredictor, ToyDataset, make_schedule
from sparsedm.errors import ArchitectureError, ConfigError, PatternError, TrainingError
from sparsedm.rng import stream
from sparsedm.sparsity import NMPattern, SparseMask, is_transposable, project_mask
from sparsedm.tensor import Tensor
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

def test_ste_update_zero_grad_decay(rng):
    w0 = rng.standard_normal((4, 8)).astype(np.float32)
    mask = project_mask(Tensor(w0), NMPattern(2, 4))
    zero = Tensor(np.zeros_like(w0))
    lr, lam = 0.1, 0.05
    w = ste_update(Tensor(w0), zero, mask, lr, lam)
    kept = mask.bits == 1
    assert np.array_equal(w.data[kept], w0[kept])
    pruned = ~kept
    want = w0[pruned].astype(np.float64) * (1 - lr * lam)
    assert np.abs(w.data[pruned] - want).max() <= 1e-7


def test_ste_update_kept_positions_match_unregularized(rng):
    # lambda_w term is exactly zero where the mask keeps weights
    w0 = rng.standard_normal((4, 8)).astype(np.float32)
    g0 = rng.standard_normal((4, 8)).astype(np.float32)
    mask = project_mask(Tensor(w0), NMPattern(1, 4))
    with_reg = ste_update(Tensor(w0), Tensor(g0), mask, 0.07, 0.3)
    without = ste_update(Tensor(w0), Tensor(g0), mask, 0.07, 0.0)
    kept = mask.bits == 1
    assert np.array_equal(with_reg.data[kept], without.data[kept])
    assert not np.array_equal(with_reg.data[~kept], without.data[~kept])


def test_ste_update_single_row_hand_values():
    w = Tensor(np.array([[1.0, -2.0, 0.5, 4.0]], np.float32))
    g = Tensor(np.array([[0.1, 0.2, -0.3, 0.4]], np.float32))
    mask = SparseMask(np.array([[0, 1, 0, 1]], np.uint8))
    lr, lam = 0.01, 0.5
    got = ste_update(w, g, mask, lr, lam).data

    want = np.empty(4)
    for j, (wv, gv, mv) in enumerate(zip([1.0, -2.0, 0.5, 4.0], [0.1, 0.2, -0.3, 0.4], [0, 1, 0, 1])):
        want[j] = wv - lr * (gv + lam * (wv - wv * mv))
    assert np.abs(got[0] - want).max() <= 1e-7


def test_ste_update_matches_closed_form_random(rng):
    w0 = rng.standard_normal((8, 16)).astype(np.float32)
    g0 = rng.standard_normal((8, 16)).astype(np.float32)
    mask = project_mask(Tensor(w0), NMPattern(2, 4))
    lr, lam = 0.03, 0.02
    got = ste_update(Tensor(w0), Tensor(g0), mask, lr, lam).data
    w64 = w0.astype(np.float64)
    want = w64 - lr * (g0.astype(np.float64) + lam * (w64 - w64 * mask.bits))
    assert np.abs(got.astype(np.float64) - want).max() <= 1e-6


def test_ste_update_rejects_bad_args(rng):
    w = Tensor(rng.standard_normal((2, 4)).astype(np.float32))
    g = Tensor(np.zeros((2, 4), np.float32))
    mask = SparseMask.ones((2, 4))
    with pytest.raises(ConfigError):
        ste_update(w, g, mask, 0.1, -1.0)
    with pytest.raises(Exception):
        ste_update(w, Tensor(np.zeros((4, 2), np.float32)), mask, 0.1, 0.0)


# ---------------------------------------------------------------------------
# configs and schedules
# ---------------------------------------------------------------------------

def test_config_validation():
    TrainConfig(steps=10).validate()
    with pytest.raises(ConfigError):
        TrainConfig(steps=-1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(steps=10, lr=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(steps=10, lr_schedule="exponential").validate()
    with pytest.raises(ConfigError):
        TrainConfig(steps=10, lambda1=0.0, lambda2=0.0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(steps=10, lambda1=1.5).validate()
    with pytest.raises(ConfigError):
        TrainConfig(steps=10, switch_every=0).validate()
    with pytest.raises(ConfigError):
        TrainConfig(steps=10, schedule=("2:4",)).validate()


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
    TrainConfig(steps=6, schedule=two, switch_every=5).validate()
    with pytest.raises(ConfigError):
        TrainConfig(steps=5, schedule=two, switch_every=5).validate()
    with pytest.raises(ConfigError):
        TrainConfig(steps=0, schedule=two[:1]).validate()


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------

def test_prune_32_32_is_identity_mask():
    model = _model()
    prune_one_shot(model, NMPattern(32, 32))
    for layer in model.layers:
        if layer.pattern is not None:
            assert layer.mask.bits.all()


def test_prune_2_4_skips_first_layer_halves_rest():
    model = _model(hidden=(32, 32))
    prune_one_shot(model, NMPattern(2, 4))
    assert model.layers[0].pattern is None
    assert model.layers[0].mask.bits.all()
    for layer in model.layers[1:]:
        assert layer.pattern == NMPattern(2, 4)
        assert (layer.mask.bits == 1).sum() == layer.weight.size // 2


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
    assert model.layers[2].mask.satisfies(NMPattern(2, 4))


def test_prune_weights_untouched():
    model = _model()
    before = _checksum(model)
    prune_one_shot(model, NMPattern(2, 4))
    assert _checksum(model) == before


# ---------------------------------------------------------------------------
# dense training: no teacher, no schedule
# ---------------------------------------------------------------------------

def _train(model, sched, config):
    return transfer_train(model, None, ToyDataset("gauss8"), sched, config)


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
    _, trace = transfer_train(student, teacher, ToyDataset("gauss8"), sched, config)
    assert trace[0]["loss_dense"] == 0.0


def test_transfer_needs_teacher_for_distillation():
    config = TrainConfig(steps=2, lambda1=0.5, lambda2=0.5, schedule=(NMPattern(2, 4),))
    with pytest.raises(ConfigError):
        transfer_train(_model(), None, ToyDataset("gauss8"), make_schedule(10, 1e-4, 0.02), config)


def test_transfer_teacher_unchanged():
    teacher = _model(1)
    before = _checksum(teacher)
    student = teacher.copy()
    prune_one_shot(student, NMPattern(2, 4))
    sched = make_schedule(10, 1e-4, 0.02)
    config = TrainConfig(steps=10, lambda1=0.5, lambda2=0.5, seed=1, schedule=(NMPattern(2, 4),))
    transfer_train(student, teacher, ToyDataset("gauss8"), sched, config)
    assert _checksum(teacher) == before


def test_transfer_masks_valid_after_run():
    teacher = _model(2)
    student = teacher.copy()
    prune_one_shot(student, NMPattern(2, 4))
    sched = make_schedule(10, 1e-4, 0.02)
    out, trace = transfer_train(student, teacher, ToyDataset("gauss8"), sched,
                                TrainConfig(steps=15, lambda1=0.5, lambda2=0.5, seed=2,
                                            schedule=(NMPattern(2, 4),)))
    for layer in out.layers:
        if layer.pattern is not None:
            assert layer.mask.satisfies(NMPattern(2, 4))
    assert all(r["active_pattern"] == "2:4" and r["sparsity"] == 0.5 for r in trace)


def test_transfer_progressive_ends_with_tight_masks():
    teacher = _model(4)
    student = teacher.copy()
    sched = make_schedule(10, 1e-4, 0.02)
    config = TrainConfig(steps=20, lambda1=0.0, lambda2=1.0, seed=4,
                         schedule=(NMPattern(3, 4), NMPattern(2, 4)), switch_every=10)
    out, trace = transfer_train(student, teacher, ToyDataset("gauss8"), sched, config)
    assert trace[0]["active_pattern"] == "3:4"
    assert trace[-1]["active_pattern"] == "2:4"
    for layer in out.layers:
        if layer.pattern is not None:
            assert layer.mask.satisfies(NMPattern(2, 4))


def test_transfer_rejects_mismatched_schedule_and_arch():
    teacher = _model(0)
    student = teacher.copy()
    sched = make_schedule(10, 1e-4, 0.02)
    two = (NMPattern(3, 4), NMPattern(2, 4))
    with pytest.raises(ConfigError):
        transfer_train(student, teacher, ToyDataset("gauss8"), sched,
                       TrainConfig(steps=5, schedule=two, switch_every=5))
    other = _model(0, hidden=(64,))
    with pytest.raises(ArchitectureError):
        transfer_train(student, other, ToyDataset("gauss8"), sched,
                       TrainConfig(steps=5, schedule=two[1:]))


def test_transfer_reduces_to_vanilla_ste_short():
    # lambda1=0 and one fixed pattern (lambda_w=0), or no pattern at all (dense
    # pretraining, where lambda_w meets all-ones masks): bit-for-bit the plain loop
    from sparsedm.diffusion import diffusion_loss, toy_batch
    from sparsedm.tensor import Tape, backward

    sched = make_schedule(10, 1e-4, 0.02)
    teacher = _model(8)
    for pattern, lambda_w in ((NMPattern(2, 4), 0.0), (None, 1e-4)):
        config = TrainConfig(steps=12, lambda1=0.0, lambda2=1.0, lambda_w=lambda_w, seed=8,
                             lr=0.1, lr_schedule="cosine", schedule=(pattern,) if pattern else ())
        student = teacher.copy()
        if pattern:
            prune_one_shot(student, pattern)
        got, trace = transfer_train(student, teacher, ToyDataset("gauss8"), sched, config)

        ref = teacher.copy()
        data_rng = stream(8, "data")
        noise_rng = stream(8, "noise")
        losses = []
        for step in range(12):
            for layer in ref.layers:
                if pattern and layer.in_features % pattern.m == 0:
                    layer.mask = project_mask(layer.weight, pattern)
            lr = config.lr_at(step)
            batch = toy_batch(ToyDataset("gauss8"), config.batch_size, data_rng)
            tape = Tape()
            loss = diffusion_loss(tape, ref, batch, sched, noise_rng)
            losses.append(float(loss.data))
            grads = backward(tape, loss)
            for layer in ref.layers:
                gw = grads[f"{layer.name}.weight"].data.astype(np.float64)
                w64 = layer.weight.data.astype(np.float64)
                layer.weight = Tensor(w64 - lr * gw)
                layer.bias = Tensor(layer.bias.data.astype(np.float64)
                                    - lr * grads[f"{layer.name}.bias"].data.astype(np.float64))
        assert _checksum(got) == _checksum(ref)
        assert [r["loss_total"] for r in trace] == losses
