"""MACs accounting, sample-quality metrics, ratio sweeps, and the spmm benchmark.

MACs are exact integer arithmetic: a masked layer costs ``dense * n / m``.
Sample quality uses the energy distance between point sets, computed from
exact pairwise sums, as a cheap stand-in for feature-space metrics.
"""
from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist

from .diffusion import NoisePredictor, NoiseSchedule, ToyDataset, ddpm_sample, toy_batch
from .errors import ConfigError, PatternError
from .rng import derive_seed, stream
from .sparsity import NMPattern, Tensor, apply_mask, compress_2_4, project_mask, spmm, spmm_macs
from .trainer import TrainConfig, transfer_train

THREADS_ENV = "SPARSEDM_THREADS"

# the ten keep ratios of the standard sweep, densest first
DEFAULT_SWEEP_PATTERNS = tuple(
    NMPattern(n, m)
    for n, m in [(32, 32), (31, 32), (15, 16), (7, 8), (3, 4), (2, 4), (1, 4), (1, 8), (1, 16), (1, 32)]
)

SWEEP_HEADER = "pattern,sparsity,macs_sparse,macs_dense,energy_distance"
BENCH_HEADER = "rows,cols,batch,reps,t_dense_ns,t_spmm_ns,macs_ratio,max_rel_err"


@dataclass(frozen=True)
class LayerMacs:
    name: str
    dense: int
    effective: int
    pattern: str | None


@dataclass(frozen=True)
class MacsReport:
    layers: tuple[LayerMacs, ...]
    dense_total: int
    sparse_total: int

    @property
    def reduction(self) -> float:
        return 1.0 - self.sparse_total / self.dense_total


def macs_count(model: NoisePredictor, input_shape=(1,)) -> MacsReport:
    """Weight-multiply counts per layer; batch is the leading input dimension."""
    batch = int(input_shape[0])
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    layers = []
    dense_total = 0
    sparse_total = 0
    for layer in model.layers:
        dense = batch * layer.out_features * layer.in_features
        if layer.pattern is None:
            eff = dense
            pat = None
        else:
            eff = batch * layer.out_features * (layer.in_features // layer.pattern.m) * layer.pattern.n
            pat = str(layer.pattern)
        layers.append(LayerMacs(layer.name, dense, eff, pat))
        dense_total += dense
        sparse_total += eff
    return MacsReport(layers=tuple(layers), dense_total=dense_total, sparse_total=sparse_total)


def _points(x) -> np.ndarray:
    a = x.data if isinstance(x, Tensor) else np.asarray(x)
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or len(a) == 0:
        raise ValueError(f"energy distance needs a non-empty 2-d point set, got shape {a.shape}")
    return a


def _mean_pairwise(a: np.ndarray, b: np.ndarray) -> float:
    # chunk the larger side so the distance matrix stays memory-bounded
    total = 0.0
    chunk = max(1, (1 << 22) // max(1, len(b)))
    for s in range(0, len(a), chunk):
        total += cdist(a[s : s + chunk], b).sum()
    return total / (len(a) * len(b))


def energy_distance(a, b) -> float:
    """``2 E|A-B| - E|A-A'| - E|B-B'|`` over exact pairwise Euclidean distances."""
    pa, pb = _points(a), _points(b)
    if pa.shape[1] != pb.shape[1]:
        raise ValueError(f"point dimensions differ: {pa.shape[1]} vs {pb.shape[1]}")
    return 2.0 * _mean_pairwise(pa, pb) - _mean_pairwise(pa, pa) - _mean_pairwise(pb, pb)


# ---------------------------------------------------------------------------
# ratio sweep
# ---------------------------------------------------------------------------

def _worker_count(n_entries: int) -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        limit = max(1, int(raw))
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be an integer, got {raw!r}") from None
    return min(limit, n_entries)

def _sweep_entry(pattern, teacher, dataset, sched, config, n_eval, ref):
    # key the derived seed on the pattern itself so reordering the request
    # list cannot change any row
    entry_seed = derive_seed(config.seed, pattern.n, pattern.m)
    student = teacher.copy()
    transfer_train(student, teacher, dataset, sched, replace(config, seed=entry_seed, schedule=(pattern,)))
    samples = ddpm_sample(student, n_eval, sched, stream(entry_seed, "sample"))
    report = macs_count(student, (1,))
    return {
        "pattern": str(pattern),
        "sparsity": pattern.sparsity,
        "macs_sparse": report.sparse_total,
        "macs_dense": report.dense_total,
        "energy_distance": energy_distance(samples, ref),
    }


def sweep_ratios(
    teacher: NoisePredictor,
    patterns,
    dataset: ToyDataset,
    sched: NoiseSchedule,
    config: TrainConfig,
    n_eval: int = 2000,
) -> list[dict]:
    """Prune + transfer-train one student per pattern; one fully isolated row each.

    Rows come back sorted by pattern sparsity.  Entries are independent
    (per-entry derived seeds), so the bounded worker pool never changes the
    numbers, only the wall time.
    """
    patterns = [p if isinstance(p, NMPattern) else NMPattern.parse(p) for p in patterns]
    if not patterns:
        raise ConfigError("sweep needs at least one pattern")
    config.validate()
    if n_eval < 2:
        raise ConfigError(f"n_eval must be >= 2, got {n_eval}")
    ref = toy_batch(dataset, n_eval, stream(config.seed, "eval")).data
    workers = _worker_count(len(patterns))
    args = [(p, teacher, dataset, sched, config, n_eval, ref) for p in patterns]
    if workers == 1:
        rows = [_sweep_entry(*a) for a in args]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(lambda a: _sweep_entry(*a), args))
    rows.sort(key=lambda r: r["sparsity"])
    return rows


# ---------------------------------------------------------------------------
# spmm benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchRecord:
    rows: int
    cols: int
    batch: int
    reps: int
    t_dense_ns: int
    t_spmm_ns: int
    macs_ratio: float
    max_rel_err: float


DEFAULT_BENCH_SIZES = ((64, 64, 8), (128, 128, 16), (256, 256, 16), (512, 512, 16))


def bench_spmm(sizes=DEFAULT_BENCH_SIZES, reps: int = 5, seed: int = 0) -> list[BenchRecord]:
    """Median wall-clock of dense vs compressed multiply on random 2:4 matrices.

    Timings are sanity numbers, not assertions; the exact claims are the MAC
    ratio (always one half) and the agreement between the two paths.
    """
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    sizes = list(sizes)
    if not sizes:
        raise ConfigError("bench needs at least one size")
    records = []
    for i, (rows, cols, batch) in enumerate(sizes):
        if rows < 1 or cols < 1 or batch < 1:
            raise ConfigError(f"bad bench size {(rows, cols, batch)}")
        if cols % 4:
            raise PatternError(f"bench cols {cols} not divisible by 4")
        rng = stream(seed, "bench", (i,))
        w = Tensor(rng.standard_normal((rows, cols)))
        mask = project_mask(w, NMPattern(2, 4))
        w_sparse = apply_mask(w, mask)
        comp = compress_2_4(w_sparse, mask)
        x = Tensor(rng.standard_normal((batch, cols)))
        w64 = w_sparse.data.astype(np.float64)

        def dense_run():
            return (x.data.astype(np.float64) @ w64.T).astype(np.float32)

        def spmm_run():
            return spmm(comp, x).data

        y_dense = dense_run()
        y_spmm = spmm_run()  # warm both paths before timing
        scale = float(np.abs(y_dense).max()) or 1.0
        max_rel = float(np.abs(y_spmm - y_dense).max() / scale)

        t_dense = []
        t_spmm = []
        for _ in range(reps):
            t0 = time.perf_counter_ns()
            dense_run()
            t_dense.append(time.perf_counter_ns() - t0)
            t0 = time.perf_counter_ns()
            spmm_run()
            t_spmm.append(time.perf_counter_ns() - t0)
        dense_macs = batch * rows * cols
        records.append(
            BenchRecord(
                rows=rows,
                cols=cols,
                batch=batch,
                reps=reps,
                t_dense_ns=int(np.median(t_dense)),
                t_spmm_ns=int(np.median(t_spmm)),
                macs_ratio=spmm_macs(comp, batch) / dense_macs,
                max_rel_err=max_rel,
            )
        )
    return records


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


def write_bench_csv(records, path) -> None:
    lines = [BENCH_HEADER]
    for r in records:
        lines.append(
            f"{r.rows},{r.cols},{r.batch},{r.reps},{r.t_dense_ns},{r.t_spmm_ns},"
            f"{format_float(r.macs_ratio)},{format_float(r.max_rel_err)}"
        )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


REPORT_SCHEMA = {
    "type": "object",
    "required": ["energy_distance", "macs_dense", "macs_sparse", "reduction", "n", "seed", "metric"],
    "properties": {
        "energy_distance": {"type": "number"},
        "macs_dense": {"type": "integer", "minimum": 0},
        "macs_sparse": {"type": "integer", "minimum": 0},
        "reduction": {"type": "number", "minimum": 0.0, "maximum": 1.0},
        "n": {"type": "integer", "minimum": 1},
        "seed": {"type": "integer"},
        "metric": {"type": "string"},
    },
    "additionalProperties": False,
}
