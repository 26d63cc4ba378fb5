"""MACs accounting, sample-quality metrics and ratio sweeps.

MACs are exact integer arithmetic: a masked layer costs ``dense * n / m``.
Sample quality uses the energy distance between point sets, computed from
exact pairwise sums, as a cheap stand-in for feature-space metrics.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .diffusion import NoisePredictor, NoiseSchedule, ddpm_sample, toy_batch
from .errors import ConfigError
from .rng import derive_seed, stream
from .sparsity import MaskedLinear, NMPattern
from .trainer import TrainConfig, transfer_train

# the ten keep ratios of the standard sweep, densest first
DEFAULT_SWEEP_PATTERNS = tuple(
    NMPattern(n, m)
    for n, m in [(32, 32), (31, 32), (15, 16), (7, 8), (3, 4), (2, 4), (1, 4), (1, 8), (1, 16), (1, 32)]
)

SWEEP_HEADER = "pattern,sparsity,macs_sparse,macs_dense,energy_distance"

# distances per block: 2 MiB of float64, the L2 of one core on the 2-core VM
# README's numbers come from (lscpu: "L2: 4 MiB (2 instances)"), so no block
# sets the process's peak.  Changing it reorders the float sum, and so moves
# energy_distance's last digits.
PAIRWISE_BLOCK = 1 << 18


@dataclass(frozen=True)
class MacsReport:
    dense_total: int
    sparse_total: int

    @property
    def reduction(self) -> float:
        return 1.0 - self.sparse_total / self.dense_total


def layer_macs(layer: MaskedLinear, batch: int = 1) -> tuple[int, int]:
    """(dense, effective) weight-multiply counts of one layer over a batch."""
    dense = batch * layer.out_features * layer.in_features
    if layer.pattern is None:
        return dense, dense
    return dense, batch * layer.out_features * (layer.in_features // layer.pattern.m) * layer.pattern.n


def macs_count(model: NoisePredictor, input_shape=(1,)) -> MacsReport:
    """Weight-multiply counts summed over layers; batch is the leading input dimension."""
    batch = int(input_shape[0])
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    counts = [layer_macs(layer, batch) for layer in model.layers]
    return MacsReport(dense_total=sum(d for d, _ in counts), sparse_total=sum(e for _, e in counts))


def _points(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or len(a) == 0:
        raise ValueError(f"energy distance needs a non-empty 2-d point set, got shape {a.shape}")
    return a


def _pair_distances(a: np.ndarray, b: np.ndarray, d: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """Euclidean distances equal to ``cdist``'s bit for bit, written into ``d``:
    the squared coordinate differences are added first to last, then
    square-rooted.  ``diff`` is a work buffer of the same (len(a), len(b)) shape.
    Computing them here keeps eval and sweep from importing a 36 MB distance
    module."""
    np.subtract.outer(a[:, 0], b[:, 0], out=d)
    np.square(d, out=d)
    for k in range(1, a.shape[1]):
        np.subtract.outer(a[:, k], b[:, k], out=diff)
        d += np.square(diff, out=diff)
    return np.sqrt(d, out=d)


def _mean_pairwise(a: np.ndarray, b: np.ndarray) -> float:
    total = 0.0
    chunk = max(1, PAIRWISE_BLOCK // len(b))
    # one pair of block buffers per call, so no block asks the allocator for fresh pages
    d, diff = np.empty((2, min(chunk, len(a)), len(b)))
    for s in range(0, len(a), chunk):
        block = a[s : s + chunk]
        total += _pair_distances(block, b, d[: len(block)], diff[: len(block)]).sum()
    return total / (len(a) * len(b))


def energy_distance(a, b, b_self: float | None = None) -> float:
    """``2 E|A-B| - E|A-A'| - E|B-B'|`` over exact pairwise Euclidean distances.

    ``b_self`` is E|B-B'| when the caller already has it, as a sweep does for
    the one reference set all its entries share.
    """
    pa, pb = _points(a), _points(b)
    if pa.shape[1] != pb.shape[1]:
        raise ValueError(f"point dimensions differ: {pa.shape[1]} vs {pb.shape[1]}")
    m_bb = _mean_pairwise(pb, pb) if b_self is None else b_self
    return 2.0 * _mean_pairwise(pa, pb) - _mean_pairwise(pa, pa) - m_bb


# ---------------------------------------------------------------------------
# ratio sweep
# ---------------------------------------------------------------------------

def _sweep_entry(pattern, teacher, dataset, sched, config, n_eval, ref, ref_self, bank):
    # key the derived seed on the pattern itself so reordering the request
    # list cannot change any row
    entry_seed = derive_seed(config.seed, pattern.n, pattern.m)
    student = teacher.copy()
    transfer_train(student, teacher, dataset, sched, replace(config, seed=entry_seed, schedule=(pattern,)), bank=bank)
    samples = ddpm_sample(student, n_eval, sched, stream(entry_seed, "sample"))
    report = macs_count(student, (1,))
    return {
        "pattern": str(pattern),
        "sparsity": pattern.sparsity,
        "macs_sparse": report.sparse_total,
        "macs_dense": report.dense_total,
        "energy_distance": energy_distance(samples, ref, ref_self),
    }


def sweep_ratios(
    teacher: NoisePredictor,
    patterns: list[NMPattern],
    dataset: str,
    sched: NoiseSchedule,
    config: TrainConfig,
    n_eval: int = 2000,
) -> list[dict]:
    """Prune + transfer-train one student per pattern; one row each.

    With ``lambda1 > 0`` every student distills from one teacher bank drawn
    from the sweep seed, so rows differ by their pattern and not by the bank
    draw.  Rows come back sorted by pattern sparsity, then group size m,
    which orders any set of distinct patterns.  Each entry derives its other
    seeds from its own pattern, so neither the request order nor the other
    patterns in the sweep change a row.
    """
    if not patterns:
        raise ConfigError("sweep needs at least one pattern")
    if len(set(patterns)) != len(patterns):
        twice = next(p for i, p in enumerate(patterns) if p in patterns[:i])
        raise ConfigError(f"sweep pattern {twice} is listed more than once")
    if n_eval < 2:
        raise ConfigError(f"n_eval must be >= 2, got {n_eval}")
    ref = _points(toy_batch(dataset, n_eval, stream(config.seed, "eval")))
    ref_self = _mean_pairwise(ref, ref)
    bank = None
    if config.lambda1 > 0.0:
        bank = ddpm_sample(teacher, config.teacher_bank, sched, stream(config.seed, "distill"))
    ordered = sorted(patterns, key=lambda p: (p.sparsity, p.m))
    return [_sweep_entry(p, teacher, dataset, sched, config, n_eval, ref, ref_self, bank) for p in ordered]


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def format_float(v: float) -> str:
    return f"{v:.10g}"


def write_sweep_csv(rows, path) -> None:
    lines = [SWEEP_HEADER]
    for r in rows:
        lines.append(
            f"{r['pattern']},{format_float(r['sparsity'])},{r['macs_sparse']},"
            f"{r['macs_dense']},{format_float(r['energy_distance'])}"
        )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
