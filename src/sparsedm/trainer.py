"""One training loop for dense pretraining, STE sparse training and dense-to-sparse transfer.

``transfer_train`` minimizes ``lambda1 * mse(student, teacher)`` on noised
teacher samples plus ``lambda2 * mse(student, eps)`` on noised data, with the
regularized straight-through update

    W <- W - lr * (g(W*mask) + lambda_w * (W - W*mask))

so kept positions see the plain gradient while pruned positions decay toward
zero.  Dense pretraining is the case with no teacher term, an empty mask
schedule and all-ones masks, where the lambda_w term is exactly zero, so
``_apply_grads`` skips it for every layer with no pattern.

The mask schedule is ``TrainConfig.schedule``: pattern ``i`` is active from
step ``i * switch_every`` on, the last one to the end.  Masks re-project from
the current magnitudes every step, or with ``freeze_masks`` only at each
pattern's first step.

With both loss terms on, a run of at least ``FORK_MIN_STEPS`` steps on two
or more CPUs runs the distillation term in a forked worker that reads the
student's arrays, shared from the fork on and written in place by each step,
after a one-byte token (``_distill_steps``); the results are the same to the
byte.  The worker's exception reaches the caller as it would from this
process, a killed worker raises ``TrainingError``, and Ctrl-C kills it at once.
"""
from __future__ import annotations

import contextlib
import math
import mmap
import os
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .diffusion import DATA_DIM, NoisePredictor, NoiseSchedule, ddpm_sample, diffusion_loss, q_sample, toy_batch
from .diffusion import _forked, _one_blas_thread, fork_cpus
from .errors import ArchitectureError, ConfigError, PatternError, TrainingError
from .rng import stream
from .sparsity import MaskedLinear, NMPattern, is_transposable, make_transposable, project_mask
from .tensor import Tensor, backward, mse_grad, mse_loss

LR_SCHEDULES = ("constant", "cosine")


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    batch_size: int = 128
    lr: float = 0.2
    lr_schedule: str = "cosine"
    lambda_w: float = 1e-4
    lambda1: float = 0.0
    lambda2: float = 1.0
    seed: int = 0
    teacher_bank: int = 2048    # size of the generated teacher sample pool
    schedule: tuple[NMPattern, ...] = ()  # mask patterns, densest first; empty trains dense
    switch_every: int = 1000    # steps each pattern but the last is active
    freeze_masks: bool = False  # project masks only at each pattern's first step

    def __post_init__(self):
        if not isinstance(self.steps, int) or self.steps < 0:
            raise ConfigError(f"steps must be a non-negative integer, got {self.steps!r}")
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise ConfigError(f"batch_size must be a positive integer, got {self.batch_size!r}")
        if not (self.lr > 0.0) or not math.isfinite(self.lr):
            raise ConfigError(f"lr must be positive and finite, got {self.lr!r}")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ConfigError(f"lr_schedule must be one of {LR_SCHEDULES}, got {self.lr_schedule!r}")
        if not (self.lambda_w >= 0.0) or not math.isfinite(self.lambda_w):
            raise ConfigError(f"lambda_w must be >= 0 and finite, got {self.lambda_w!r}")
        for name, lam in (("lambda1", self.lambda1), ("lambda2", self.lambda2)):
            if not (0.0 <= lam <= 1.0):
                raise ConfigError(f"{name} must lie in [0, 1], got {lam!r}")
        if self.lambda1 + self.lambda2 <= 0.0:
            raise ConfigError("lambda1 + lambda2 must be positive, the loss would vanish")
        if not isinstance(self.teacher_bank, int) or self.teacher_bank < 1:
            raise ConfigError(f"teacher_bank must be a positive integer, got {self.teacher_bank!r}")
        if not isinstance(self.switch_every, int) or self.switch_every < 1:
            raise ConfigError(f"switch_every must be a positive integer, got {self.switch_every!r}")
        if not all(isinstance(p, NMPattern) for p in self.schedule):
            raise ConfigError(f"schedule must hold N:M patterns, got {self.schedule!r}")
        need = (len(self.schedule) - 1) * self.switch_every + 1
        if self.schedule and self.steps < need:
            raise ConfigError(
                f"a schedule of {len(self.schedule)} patterns switching every {self.switch_every} steps "
                f"needs at least {need} steps, got {self.steps}"
            )

    def lr_at(self, step: int) -> float:
        if self.lr_schedule == "constant":
            return self.lr
        return self.lr * 0.5 * (1.0 + math.cos(math.pi * step / max(1, self.steps)))

    def pattern_at(self, step: int) -> NMPattern | None:
        """The schedule's pattern active at ``step``; None for dense training."""
        if not self.schedule:
            return None
        return self.schedule[min(step // self.switch_every, len(self.schedule) - 1)]

    def projects_at(self, step: int) -> bool:
        """Whether masks re-project from the weights before ``step``."""
        if not self.schedule:
            return False
        stage, offset = divmod(step, self.switch_every)
        return not self.freeze_masks or (offset == 0 and stage < len(self.schedule))


# ---------------------------------------------------------------------------
# update rules
# ---------------------------------------------------------------------------

def ste_update(w: Tensor, grad: np.ndarray, mask: np.ndarray, lr: float, lambda_w: float) -> Tensor:
    """One regularized straight-through step; float64 math, float32 result.

    The lambda_w term is exactly zero at kept positions (W equals W*mask
    there), so only pruned entries feel the pull toward zero.  The float64
    steps of ``w - lr * (g + lambda_w * (w - w * mask))`` run in that order, in place on copies.
    """
    w64 = w.data.astype(np.float64)
    g64 = grad.astype(np.float64)
    if lambda_w:
        decay = np.multiply(w64, mask)
        np.subtract(w64, decay, out=decay)
        decay *= lambda_w
        g64 += decay
    g64 *= lr
    return Tensor(np.subtract(w64, g64, out=g64))


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------

def _transposes(layer: MaskedLinear, pattern: NMPattern | None) -> bool:
    """Whether a transposable mask fits a layer the pattern already fits: 2:4 with 4 | rows."""
    return pattern == NMPattern(2, 4) and layer.out_features % 4 == 0


def has_transposable_mask(layer: MaskedLinear) -> bool:
    """True when the layer's 2:4 mask also holds 2 of every 4 down each column."""
    return _transposes(layer, layer.pattern) and is_transposable(layer.mask, layer.pattern)


def prune_one_shot(
    model: NoisePredictor,
    pattern: NMPattern,
    transposable: bool = False,
    strict: bool = False,
) -> NoisePredictor:
    """Project masks from current magnitudes into each layer's mask array; weights stay untouched.

    Layers whose input width the group size does not divide keep their dense
    all-ones mask (the toy predictor's first layer is 66 wide, which no
    power-of-two group size divides).  ``strict`` turns that skip into an
    error; a pattern that fits no layer at all always errors.
    """
    fits = [layer for layer in model.layers if layer.in_features % pattern.m == 0]
    if not fits:
        shapes = ", ".join(f"{l.name}={l.in_features}" for l in model.layers)
        raise PatternError(f"group size {pattern.m} divides no layer input width ({shapes})")
    if strict and len(fits) != len(model.layers):
        bad = next(l for l in model.layers if l.in_features % pattern.m)
        raise PatternError(
            f"layer {bad.name} input width {bad.in_features} not divisible by {pattern.m}"
        )
    for layer in fits:
        if transposable and _transposes(layer, pattern):
            layer.mask[...] = make_transposable(layer.weight)
        else:
            layer.mask[...] = project_mask(layer.weight, pattern)
        layer.pattern = pattern
    return model


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _apply_grads(model: NoisePredictor, branch_grads: list[list], lr: float, lambda_w: float) -> None:
    """Sum each layer's float64 gradients over the loss branches, round the sums to float32, then step in place.

    A layer with no pattern skips the lambda_w term: under its all-ones mask the
    term is +0.0 for finite weights, and adding it changes no sum, which holds
    no -0.0 (``backward`` adds each gradient to 0.0).  A non-finite weight
    fails a loss or weight check before any checkpoint is written.
    """
    for layer, *per_branch in zip(model.layers, *branch_grads):
        gw = sum(gw for gw, _ in per_branch).astype(np.float32)
        gb = sum(gb for _, gb in per_branch).astype(np.float32)
        lam = 0.0 if layer.pattern is None else lambda_w
        layer.weight.data[...] = ste_update(layer.weight, gw, layer.mask, lr, lam).data
        layer.bias.data[...] = layer.bias.data - lr * gb.astype(np.float64)  # rounds to float32 as it is stored


def _distill_branch(student, teacher, bank, sched, config, rng, wait=lambda: None):
    """Yield each step's distillation loss (float32) and float64 ``(dW, db)`` per layer, in layer order.

    A step's draws, noising and teacher forward do not depend on the student,
    so they come first; ``wait()`` then returns once the student holds the
    step's weights and masks.
    """
    for _ in range(config.steps):
        idx = rng.integers(0, len(bank), size=config.batch_size)
        x0 = bank[idx].astype(np.float32, copy=False)
        td = rng.integers(0, sched.T, size=config.batch_size)
        eps_d = rng.standard_normal(x0.shape).astype(np.float32)
        x_td = q_sample(x0, td, eps_d, sched)
        # not inference_forward: with per-row t its folded fc1 can round an output differently, and
        # the targets would then change the training bytes
        target = teacher.forward(x_td, td, sched.T)
        wait()
        cache = []
        pred = student.forward(x_td, td, sched.T, cache)
        yield mse_loss(pred, target), backward(cache, mse_grad(pred, target, config.lambda1))


# Shorter runs keep the distillation branch in this process.  The fork costs
# 2-4 ms once (a 1-step run: 0.7 -> 4.2 ms at hidden 32 and batch 8, 5.1 ->
# 6.8 ms at hidden 128,128 and batch 128; median of 20, 2-core VM), and the
# worker saves about 0.27 ms per step at the small size and 1.3 ms at the
# large one.  The fork breaks even after 3 to 13 steps; toy runs (4 steps)
# stay in one process.
FORK_MIN_STEPS = 11


def _shared_zeros(shape, dtype) -> np.ndarray:
    """Zeros in an anonymous shared mapping: after a fork, what one process writes there the other reads."""
    return np.frombuffer(mmap.mmap(-1, int(np.prod(shape)) * np.dtype(dtype).itemsize), dtype).reshape(shape)


@contextlib.contextmanager
def _distill_steps(student, teacher, bank, sched, config, rng):
    """The distillation branch as ``begin()`` and ``end()``: call ``begin()`` once a step's masks are
    projected, and ``end()`` for the step's loss and per-layer gradients.

    With lambda2 > 0, ``FORK_MIN_STEPS`` steps or more and two ``fork_cpus()``, a forked child owns
    ``rng`` and runs ``_distill_branch`` while this process runs the noise branch.  The student's
    layers are first rebound to shared copies of their weights, biases and masks, which each step
    writes in place, so ``begin`` sends just one byte; the child answers with one once its loss and
    float64 gradients are in shared memory.  The child does the float operations of the in-process
    branch on bit-equal inputs, so no result changes.  Its exception is raised here, as the
    in-process branch's would be; a killed child raises ``TrainingError`` with its exit code.
    Leaving the block, normally or by an exception or Ctrl-C, kills the child without waiting for
    its step.
    """
    if not (config.lambda2 > 0.0 and config.steps >= FORK_MIN_STEPS and fork_cpus() >= 2):
        branch = _distill_branch(student, teacher, bank, sched, config, rng)
        yield SimpleNamespace(begin=lambda: None, end=branch.__next__)
        return
    for layer in student.layers:
        w, b, m = (_shared_zeros(a.shape, a.dtype) for a in (layer.weight.data, layer.bias.data, layer.mask))
        w[...], b[...], m[...] = layer.weight.data, layer.bias.data, layer.mask
        layer.weight, layer.bias, layer.mask = Tensor(w), Tensor(b), m
    shapes = [layer.weight.shape for layer in student.layers]
    grads = [(_shared_zeros(s, np.float64), _shared_zeros(s[:1], np.float64)) for s in shapes]
    loss = _shared_zeros((), np.float32)
    go_r, go_w = os.pipe()
    done_r, done_w = os.pipe()

    def serve():
        os.close(go_w)  # so that wait() sees EOF once the parent is gone, however it ends

        def wait():
            if os.read(go_r, 1) != b"s":
                raise EOFError("the training loop has ended")

        # done_w closes before an exception is written: one larger than the pipe buffer blocks until
        # the parent reads it, and the parent reads it only once done_w is closed
        with open(done_w, "wb", buffering=0) as done:
            for value, per_layer in _distill_branch(student, teacher, bank, sched, config, rng, wait):
                for (gw, gb), (out_w, out_b) in zip(per_layer, grads):
                    out_w[...] = gw
                    out_b[...] = gb
                loss[()] = value
                done.write(b"d")

    worker = _forked(serve, "the distillation worker")
    with worker as join, open(go_w, "wb", buffering=0) as go, open(done_r, "rb", buffering=0) as done:
        os.close(go_r)
        os.close(done_w)

        def begin():
            with contextlib.suppress(BrokenPipeError):  # a worker that has exited is found by end()
                go.write(b"s")

        def end():
            if done.read(1) != b"d":  # EOF: the worker has exited
                join()  # raises what the worker raised, or TrainingError with its exit code
                raise TrainingError("the distillation worker exited before its last step")
            return loss[()], grads

        yield SimpleNamespace(begin=begin, end=end)


def transfer_train(
    student: NoisePredictor,
    teacher: NoisePredictor | None,
    dataset: str,
    sched: NoiseSchedule,
    config: TrainConfig,
    *,
    bank: np.ndarray | None = None,
) -> tuple[NoisePredictor, list[dict]]:
    """Train ``student`` under ``config``: dense, plain STE, progressive or with distillation.

    Per step: re-project masks as the schedule says, then minimize ``lambda1 * mse(student, teacher)``
    on noised teacher samples plus ``lambda2 * mse(student, eps)`` on noised data, and apply the
    regularized straight-through update in place in the student's arrays.  The distillation worker
    first rebinds the student's layers to shared copies, so hold the model, not its arrays.  The teacher
    is only read, must share no memory with the student, and may be None when lambda1 = 0.  With
    lambda1 = 0, lambda_w = 0 and a single pattern this is exactly the vanilla STE baseline; with an
    empty schedule it is plain dense SGD, which needs all-ones masks.  A student carrying a
    transposable 2:4 mask re-projects its 2:4 masks transposably.

    ``bank`` is a teacher sample pool shared across runs, as a sweep shares
    one; without it, a pool of ``teacher_bank`` samples is drawn from the
    teacher first, on the same distill stream the batches then come from.
    """
    if bank is not None:
        if bank.ndim != 2 or bank.shape[1] != DATA_DIM or len(bank) == 0:
            raise ConfigError(f"teacher bank must be a non-empty (n, {DATA_DIM}) array, got shape {bank.shape}")
        if not np.isfinite(bank).all():
            raise ConfigError("teacher bank holds non-finite samples")
    if teacher is None:
        if config.lambda1 > 0.0:
            raise ConfigError(f"lambda1 = {config.lambda1} needs a teacher to distill from")
    elif len(teacher.layers) != len(student.layers) or any(
        a.weight.shape != b.weight.shape for a, b in zip(student.layers, teacher.layers)
    ):
        raise ArchitectureError("student and teacher architectures differ")
    elif any(np.may_share_memory(a, b) for t in teacher.layers for s in student.layers
             for a in (t.weight.data, t.bias.data, t.mask) for b in (s.weight.data, s.bias.data, s.mask)):
        raise ConfigError("the teacher shares parameter memory with the student, which trains in place")
    if not config.schedule:
        for layer in student.layers:
            if layer.mask.min() != 1:
                raise ConfigError(f"dense training expects all-ones masks, layer {layer.name} is masked")

    transposable = any(has_transposable_mask(layer) for layer in student.layers)
    data_rng = stream(config.seed, "data")
    noise_rng = stream(config.seed, "noise")
    use_distill = config.lambda1 > 0.0
    if use_distill:
        distill_rng = stream(config.seed, "distill")
        if bank is None:
            bank = ddpm_sample(teacher, config.teacher_bank, sched, distill_rng)

    trace: list[dict] = []
    distill = _distill_steps(student, teacher, bank, sched, config, distill_rng) if use_distill else None
    with _one_blas_thread(), distill or contextlib.nullcontext() as branch:
        for step in range(config.steps):
            pattern = config.pattern_at(step)
            if config.projects_at(step):
                prune_one_shot(student, pattern, transposable)
            lr = config.lr_at(step)
            batch = toy_batch(dataset, config.batch_size, data_rng)
            if branch is not None:
                branch.begin()

            value_dense = 0.0
            value_diff = 0.0
            terms = []  # (lambda, loss, per-layer grads) per loss term, distillation first
            if config.lambda2 > 0.0:
                cache = []
                l_diff, pred, eps = diffusion_loss(student, batch, sched, noise_rng, cache)
                value_diff = float(l_diff)
                terms.append((config.lambda2, l_diff, backward(cache, mse_grad(pred, eps, config.lambda2))))
            if branch is not None:
                l_dense, grads = branch.end()
                value_dense = float(l_dense)
                terms.insert(0, (config.lambda1, l_dense, grads))
            # float32 like the losses: each term scaled, then the terms added
            value_total = float(sum(loss * np.float32(lam) for lam, loss, _ in terms))
            if not math.isfinite(value_total):
                raise TrainingError(f"loss diverged at step {step}: {value_total}")
            _apply_grads(student, [per_layer for *_, per_layer in terms], lr, config.lambda_w)
            trace.append(
                {
                    "step": step,
                    "loss_total": value_total,
                    "loss_diff": value_diff,
                    "loss_dense": value_dense,
                    "active_pattern": "dense" if pattern is None else str(pattern),
                    "sparsity": 0.0 if pattern is None else pattern.sparsity,
                }
            )
    # a loss only sees the weights before the update, so the last one is checked here
    for layer in student.layers:
        if not (np.isfinite(layer.weight.data).all() and np.isfinite(layer.bias.data).all()):
            raise TrainingError(f"training diverged: layer {layer.name} holds NaN or inf after the last step")
    # finite weights can still be large enough that a forward overflows, and sampling would then diverge
    if config.steps and not np.isfinite(student.forward(batch, 0, sched.T)).all():
        raise TrainingError("training diverged: the trained model predicts NaN or inf at t = 0")
    return student, trace
