"""One training loop for dense pretraining, STE sparse training and dense-to-sparse transfer.

``transfer_train`` minimizes ``lambda1 * mse(student, teacher)`` on noised
teacher samples plus ``lambda2 * mse(student, eps)`` on noised data, with the
regularized straight-through update

    W <- W - lr * (g(W*mask) + lambda_w * (W - W*mask))

so kept positions see the plain gradient while pruned positions decay toward
zero.  Dense pretraining is the case with no teacher term, an empty mask
schedule and all-ones masks, where the lambda_w term is exactly zero.

The mask schedule is ``TrainConfig.schedule``: pattern ``i`` is active from
step ``i * switch_every`` on, the last one to the end.  Masks re-project from
the current magnitudes every step, or with ``freeze_masks`` only at each
pattern's first step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diffusion import NoisePredictor, NoiseSchedule, ToyDataset, ddpm_sample, diffusion_loss, q_sample, toy_batch
from .errors import ArchitectureError, ConfigError, DimensionError, PatternError, TrainingError
from .rng import stream
from .sparsity import NMPattern, SparseMask, make_transposable, project_mask
from .tensor import Tape, Tensor, add, backward, mse_loss, scale

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

    def validate(self) -> "TrainConfig":
        if not isinstance(self.steps, int) or self.steps < 0:
            raise ConfigError(f"steps must be a non-negative integer, got {self.steps!r}")
        if not isinstance(self.batch_size, int) or self.batch_size < 1:
            raise ConfigError(f"batch_size must be a positive integer, got {self.batch_size!r}")
        if not (self.lr > 0.0) or not math.isfinite(self.lr):
            raise ConfigError(f"lr must be positive and finite, got {self.lr!r}")
        if self.lr_schedule not in LR_SCHEDULES:
            raise ConfigError(f"lr_schedule must be one of {LR_SCHEDULES}, got {self.lr_schedule!r}")
        if self.lambda_w < 0.0:
            raise ConfigError(f"lambda_w must be >= 0, got {self.lambda_w!r}")
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
        return self

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

def ste_update(w: Tensor, grad: Tensor, mask: SparseMask, lr: float, lambda_w: float) -> Tensor:
    """One regularized straight-through step; float64 math, float32 result.

    The lambda_w term is exactly zero at kept positions (W equals W*mask
    there), so only pruned entries feel the pull toward zero.
    """
    if w.shape != grad.shape or w.shape != mask.shape:
        raise DimensionError(f"update shapes differ: w {w.shape}, grad {grad.shape}, mask {mask.shape}")
    if lambda_w < 0.0:
        raise ConfigError(f"lambda_w must be >= 0, got {lambda_w!r}")
    w64 = w.data.astype(np.float64)
    g64 = grad.data.astype(np.float64)
    if lambda_w:
        g64 = g64 + lambda_w * (w64 - w64 * mask.bits)
    return Tensor(w64 - lr * g64)


def _sgd_vector(v: Tensor, grad: Tensor, lr: float) -> Tensor:
    return Tensor(v.data.astype(np.float64) - lr * grad.data.astype(np.float64))


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------

def prune_one_shot(
    model: NoisePredictor,
    pattern: NMPattern,
    transposable: bool = False,
    strict: bool = False,
) -> NoisePredictor:
    """Project masks from current magnitudes; weights stay untouched.

    Layers whose input width the group size does not divide keep their dense
    all-ones mask (the toy predictor's first layer is 66 wide, which no
    power-of-two group size divides).  ``strict`` turns that skip into an
    error; a pattern that fits no layer at all always errors.
    """
    fits = [i for i, layer in enumerate(model.layers) if layer.in_features % pattern.m == 0]
    if not fits:
        shapes = ", ".join(f"{l.name}={l.in_features}" for l in model.layers)
        raise PatternError(f"group size {pattern.m} divides no layer input width ({shapes})")
    if strict and len(fits) != len(model.layers):
        bad = next(l for i, l in enumerate(model.layers) if i not in fits)
        raise PatternError(
            f"layer {bad.name} input width {bad.in_features} not divisible by {pattern.m}"
        )
    for i in fits:
        layer = model.layers[i]
        if transposable and (pattern.n, pattern.m) == (2, 4) and layer.out_features % pattern.m == 0:
            layer.mask = make_transposable(layer.weight, pattern)
        else:
            layer.mask = project_mask(layer.weight, pattern)
        layer.pattern = pattern
    return model


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _apply_grads(model: NoisePredictor, grads, lr: float, lambda_w: float) -> None:
    for layer in model.layers:
        gw = grads[f"{layer.name}.weight"]
        gb = grads[f"{layer.name}.bias"]
        layer.weight = ste_update(layer.weight, gw, layer.mask, lr, lambda_w)
        layer.bias = _sgd_vector(layer.bias, gb, lr)


def transfer_train(
    student: NoisePredictor,
    teacher: NoisePredictor | None,
    dataset: ToyDataset,
    sched: NoiseSchedule,
    config: TrainConfig,
) -> tuple[NoisePredictor, list[dict]]:
    """Train ``student`` under ``config``: dense, plain STE, progressive or with distillation.

    Per step: re-project masks as the schedule says, then minimize
    ``lambda1 * mse(student, teacher)`` on noised teacher samples plus
    ``lambda2 * mse(student, eps)`` on noised data, and apply the regularized
    straight-through update.  The teacher is only read, never updated, and
    may be None when lambda1 = 0.  With lambda1 = 0, lambda_w = 0 and a
    single pattern this is exactly the vanilla STE baseline; with an empty
    schedule it is plain dense SGD, which needs all-ones masks.
    """
    config.validate()
    if teacher is None:
        if config.lambda1 > 0.0:
            raise ConfigError(f"lambda1 = {config.lambda1} needs a teacher to distill from")
    elif len(teacher.layers) != len(student.layers) or any(
        a.weight.shape != b.weight.shape for a, b in zip(student.layers, teacher.layers)
    ):
        raise ArchitectureError("student and teacher architectures differ")
    if not config.schedule:
        for layer in student.layers:
            if layer.mask.bits.min() != 1:
                raise ConfigError(f"dense training expects all-ones masks, layer {layer.name} is masked")

    data_rng = stream(config.seed, "data")
    noise_rng = stream(config.seed, "noise")
    use_distill = config.lambda1 > 0.0
    if use_distill:
        distill_rng = stream(config.seed, "distill")
        bank = ddpm_sample(teacher, config.teacher_bank, sched, distill_rng).data

    trace: list[dict] = []
    for step in range(config.steps):
        pattern = config.pattern_at(step)
        if config.projects_at(step):
            prune_one_shot(student, pattern)
        lr = config.lr_at(step)
        batch = toy_batch(dataset, config.batch_size, data_rng)

        tape = Tape()
        value_dense = 0.0
        value_diff = 0.0
        terms = []
        if use_distill:
            idx = distill_rng.integers(0, len(bank), size=config.batch_size)
            x0 = Tensor(bank[idx])
            td = distill_rng.integers(0, sched.T, size=config.batch_size)
            eps_d = Tensor(distill_rng.standard_normal(x0.shape))
            x_td = q_sample(x0, td, eps_d, sched)
            target = teacher.forward(x_td, td, sched.T)
            pred = student.forward(x_td, td, sched.T, tape)
            l_dense = mse_loss(pred, target, tape)
            value_dense = float(l_dense.data)
            terms.append(scale(l_dense, config.lambda1, tape))
        if config.lambda2 > 0.0:
            l_diff = diffusion_loss(tape, student, batch, sched, noise_rng)
            value_diff = float(l_diff.data)
            terms.append(scale(l_diff, config.lambda2, tape))
        total = terms[0] if len(terms) == 1 else add(terms[0], terms[1], tape)
        value_total = float(total.data)
        if not math.isfinite(value_total):
            raise TrainingError(f"loss diverged at step {step}: {value_total}")
        grads = backward(tape, total)
        _apply_grads(student, grads, lr, config.lambda_w)
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
    return student, trace
