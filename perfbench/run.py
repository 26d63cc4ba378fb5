"""sparsedm benchmark: train, sample and sweep workloads driven through the real CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload train-2of4 --seed 1 --seconds 20 --trace 0

Every command runs in this process through ``sparsedm.cli.main(argv)``, so
the timings cover exactly what a user's command does, flag parsing and file
writing included.  A run sets up its fixtures from ``--seed``, repeats the
workload's command sequence (one *cycle*) for about ``--seconds`` seconds,
checks every output, scores what the run produced by energy distance, and
prints one JSON line last: ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones every workload reports
(``setup_s``, ``wall_s``, ``peak_rss_mb``, ``energy_distance``); with
``--trace 1`` untraced and traced cycles alternate and the metrics are per
layer (see ``tracer.py``).  The line before it, also written to
``.perfbench/``, holds the environment, the workload's own command timings,
artifact digests and exact counts.  The thread settings
(``OPENBLAS_NUM_THREADS``, ``SPARSEDM_THREADS``) are left as found and
recorded.  See README.md for every metric and why each workload exists.
"""
import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

PROCESS_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPS = 3          # set-up runs this many times; setup_s is the median
RUN_BUDGET_S = 150.0    # no new cycle starts once it would end past this
MIN_CYCLES = 2          # a median needs more than one sample; a traced run, an untraced cycle
SAMPLE_GAP = 1e-4       # dense vs compressed samples, per coordinate
LOSS_TAIL = 50          # train_loss_final averages this many final steps
SWEEP_PATTERNS = ("31:32", "2:4", "1:16")
# layers called often enough per cycle to report p50_ms and p90_ms
PERCENTILE_SPANS = (
    "tensor.silu", "tensor.backward", "tensor.linear_ste", "tensor.mse_loss", "sparsity.project_mask",
    "sparsity.spmm", "sparsity.masked_linear_forward", "diffusion.NoisePredictor.forward",
    "diffusion.diffusion_loss", "diffusion.q_sample", "diffusion.time_embedding", "diffusion.toy_batch",
    "diffusion.predictor_fwd", "diffusion.posterior_mean", "trainer.ste_update",
)
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SPARSEDM_THREADS")


@dataclass(frozen=True)
class Sizes:
    T: int
    dense_steps: int
    sparse_steps: int
    teacher_steps: int
    student_steps: int  # transfer steps of the sample-2of4 fixture
    student_bank: int
    sweep_steps: int
    n: int
    bank: int


FULL = Sizes(T=100, dense_steps=500, sparse_steps=500, teacher_steps=300, student_steps=100, student_bank=512,
             sweep_steps=60, n=2000, bank=2048)
# warm-up cycles in set-up, and the self-test, run at this size
TOY = Sizes(T=10, dense_steps=4, sparse_steps=4, teacher_steps=4, student_steps=2, student_bank=32,
            sweep_steps=2, n=64, bank=32)


class CommandFailed(Exception):
    pass


class Ops:
    """Counts operations (one CLI call or one output check) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def cli(self, *argv) -> float:
        """Run one command in-process; return its wall time in seconds."""
        from sparsedm.cli import main

        argv = [str(a) for a in argv]
        self.attempted += 1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
        except Exception:  # a traceback from the program is a failed call, not a benchmark crash
            code = traceback.format_exc()
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            self.errors.append(f"{' '.join(argv)} exited {code}")
            raise CommandFailed(self.errors[-1])
        return elapsed

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {name}")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_losses(path: Path) -> list[float]:
    return [json.loads(line)["loss_total"] for line in path.read_text().splitlines()]


def read_points(path: Path) -> list[tuple[float, float]]:
    rows = path.read_text().splitlines()[1:]
    return [tuple(float(v) for v in row.split(",")) for row in rows]


def all_finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


@dataclass
class Cycle:
    wall: float
    times: dict        # timing metric or command -> value in this cycle
    values: dict       # deterministic outputs (loss, energy distance)
    digests: dict      # artifact relative path -> sha256


# ---------------------------------------------------------------------------
# workloads: fixture(ops, dir, seed, rep, sizes) and cycle(ops, dir, fixtures, seed, sizes)
# ---------------------------------------------------------------------------

def train_dense(ops: Ops, out: Path, seed: int, steps: int, T: int) -> float:
    return ops.cli("train-dense", "--out", out, "--data", "gauss8", "--T", T, "--hidden", "128,128",
                   "--batch-size", 128, "--steps", steps, "--seed", seed)


def teacher_fixture(ops: Ops, d: Path, seed: int, rep: int, sz: Sizes, prune: bool) -> Path:
    """Train a teacher from a seed of its own, optionally make a 2:4 student of it, and evaluate at full size.

    The student is pruned and then transfer-trained briefly, as SparseDM
    deploys it: a one-shot pruned model's energy distance has a heavy tail
    over seeds (a few are twice the typical value), which a short transfer
    removes.

    The evaluation gives the fixture's energy distance, and it brings the
    process to its steady state before timing: the first large sampling
    call in a process runs up to 30% slower (the allocator has not yet grown
    its heap), which a toy-size warm-up does not cure.
    """
    fixture_seed = seed * SETUP_REPS + rep
    train_dense(ops, d / "teacher", fixture_seed, sz.teacher_steps, sz.T)
    ckpt = d / "teacher"
    if prune:
        ops.cli("prune", "--out", d / "pruned", "--ckpt", d / "teacher", "--pattern", "2:4", "--seed", fixture_seed)
        ckpt = d / "student"
        ops.cli("train-sparse", "--out", ckpt, "--student", d / "pruned", "--teacher", d / "teacher",
                "--lambda1", 0.5, "--lambda2", 0.5, "--teacher-bank", sz.student_bank, "--steps", sz.student_steps,
                "--seed", fixture_seed)
    # the fixture's own seed, so the fixtures' energy distances use independent
    # reference and sample draws and their mean averages the estimator's noise
    ops.cli("eval", "--out", d / "eval", "--ckpt", ckpt, "--data", "gauss8", "--n", sz.n, "--seed", fixture_seed)
    report = read_report(d / "eval")
    ops.check("fixture report.json finite", report_finite(report))
    return ckpt


def read_report(d: Path) -> dict:
    return json.loads((d / "report.json").read_text())


def report_finite(report: dict) -> bool:
    return all_finite(v for v in report.values() if not isinstance(v, str))


def train_cycle(ops: Ops, d: Path, fixtures: list, seed: int, sz: Sizes) -> Cycle:
    t = {"train-dense": train_dense(ops, d / "teacher", seed, sz.dense_steps, sz.T)}
    t["prune"] = ops.cli("prune", "--out", d / "pruned", "--ckpt", d / "teacher", "--pattern", "2:4",
                         "--seed", seed)
    t["train-sparse"] = ops.cli(
        "train-sparse", "--out", d / "student", "--student", d / "pruned", "--teacher", d / "teacher",
        "--lambda1", 0.5, "--lambda2", 0.5, "--teacher-bank", sz.bank, "--steps", sz.sparse_steps,
        "--seed", seed)
    dense_loss = read_losses(d / "teacher" / "trace.jsonl")
    sparse_loss = read_losses(d / "student" / "trace.jsonl")
    ops.check("train-dense trace.jsonl losses finite", len(dense_loss) == sz.dense_steps and all_finite(dense_loss))
    ops.check("train-sparse trace.jsonl losses finite", len(sparse_loss) == sz.sparse_steps and all_finite(sparse_loss))
    tail = sparse_loss[-LOSS_TAIL:]
    artifacts = ("teacher/model.ckpt", "teacher/trace.jsonl", "pruned/model.ckpt",
                 "student/model.ckpt", "student/trace.jsonl")
    return Cycle(
        wall=sum(t.values()),
        times={"train_dense_steps_per_s": sz.dense_steps / t["train-dense"],
               "train_sparse_steps_per_s": sz.sparse_steps / t["train-sparse"], **t},
        values={"train_loss_final": sum(tail) / len(tail)},
        digests={a: sha256(d / a) for a in artifacts},
    )


def train_quality(ops: Ops, d: Path, fixtures: list, seed: int, sz: Sizes) -> float:
    """Energy distance of the cycle's student: the mean of two evals outside the timed cycles.

    One eval's value varies by about 7% with its seed; two independent evals
    halve that variance.
    """
    energies = []
    for k in range(2):
        ops.cli("eval", "--out", d / "student-eval", "--ckpt", d / "student", "--data", "gauss8", "--n", sz.n,
                "--seed", seed * 2 + k)
        report = read_report(d / "student-eval")
        ops.check("student report.json finite", report_finite(report))
        energies.append(report["energy_distance"])
    return sum(energies) / len(energies)


def train_students(d: Path) -> list:
    from sparsedm.checkpoint import load_model
    from sparsedm.evalbench import macs_count

    report = macs_count(load_model(d / "student")[0], (1,))
    return [("train-sparse", report.sparse_total, report.dense_total)]


def sample_fixture(ops: Ops, d: Path, seed: int, rep: int, sz: Sizes) -> Path:
    return teacher_fixture(ops, d, seed, rep, sz, prune=True)


def sample_cycle(ops: Ops, d: Path, fixtures: list, seed: int, sz: Sizes) -> Cycle:
    student = fixtures[0]
    t = {"sample": ops.cli("sample", "--out", d / "dense", "--ckpt", student, "--n", sz.n, "--seed", seed),
         "sample-compressed": ops.cli("sample", "--out", d / "compressed", "--ckpt", student, "--n", sz.n,
                                      "--compressed", "--seed", seed),
         "eval": ops.cli("eval", "--out", d / "eval", "--ckpt", student, "--data", "gauss8", "--n", sz.n,
                         "--seed", seed)}
    dense = read_points(d / "dense" / "samples.csv")
    comp = read_points(d / "compressed" / "samples.csv")
    gap = max((abs(a - b) for p, q in zip(dense, comp) for a, b in zip(p, q)), default=math.inf)
    ops.check("compressed and dense samples.csv agree within 1e-4",
              len(dense) == len(comp) == sz.n and gap <= SAMPLE_GAP)
    report = read_report(d / "eval")
    ops.check("report.json finite", report_finite(report))
    artifacts = ("dense/samples.csv", "compressed/samples.csv", "eval/report.json")
    return Cycle(
        wall=sum(t.values()),
        times={"sample_dense_per_s": sz.n / t["sample"],
               "sample_compressed_per_s": sz.n / t["sample-compressed"],
               "eval_s": t["eval"], **t},
        values={"max_sample_gap": gap},
        digests={a: sha256(d / a) for a in artifacts},
    )


def sample_quality(ops: Ops, d: Path, fixtures: list, seed: int, sz: Sizes) -> float:
    """Mean energy distance over every fixture's set-up evaluation.

    One model's value varies by about 12% with its seed, so the mean over
    the fixtures is steadier than the cycle's own evaluation of the first.
    """
    reports = [read_report(f.parent / "eval") for f in fixtures]
    return sum(r["energy_distance"] for r in reports) / len(reports)


def sample_students(d: Path) -> list:
    report = read_report(d / "eval")
    return [("student-2:4", report["macs_sparse"], report["macs_dense"])]


def sweep_fixture(ops: Ops, d: Path, seed: int, rep: int, sz: Sizes) -> Path:
    return teacher_fixture(ops, d, seed, rep, sz, prune=False)


def sweep_cycle(ops: Ops, d: Path, fixtures: list, seed: int, sz: Sizes) -> Cycle:
    teacher = fixtures[0]
    wall = ops.cli("sweep", "--out", d / "sweep", "--ckpt", teacher, "--patterns", ",".join(SWEEP_PATTERNS),
                   "--steps", sz.sweep_steps, "--n-eval", sz.n, "--teacher-bank", sz.bank, "--seed", seed)
    rows = read_sweep(d)
    macs = [int(r["macs_sparse"]) for r in rows]
    energies = [float(r["energy_distance"]) for r in rows]
    ops.check("sweep.csv has the requested rows with strictly decreasing MACs",
              sorted(r["pattern"] for r in rows) == sorted(SWEEP_PATTERNS)
              and all(a > b for a, b in zip(macs, macs[1:])))
    ops.check("sweep.csv energy distances finite", all_finite(energies))
    return Cycle(
        wall=wall,
        times={"sweep_entries_per_min": 60.0 * len(rows) / wall, "sweep": wall},
        values={},
        digests={"sweep/sweep.csv": sha256(d / "sweep" / "sweep.csv")},
    )


def read_sweep(d: Path) -> list[dict]:
    lines = (d / "sweep" / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def sweep_quality(ops: Ops, d: Path, fixtures: list, seed: int, sz: Sizes) -> float:
    """Mean energy distance over the rows of the cycle's sweep.csv."""
    energies = [float(r["energy_distance"]) for r in read_sweep(d)]
    return sum(energies) / len(energies)


def sweep_students(d: Path) -> list:
    return [(f"sweep-{r['pattern']}", int(r["macs_sparse"]), int(r["macs_dense"])) for r in read_sweep(d)]


def no_fixture(ops: Ops, d: Path, seed: int, rep: int, sz: Sizes) -> None:
    return None


@dataclass(frozen=True)
class Workload:
    fixture: object     # (ops, dir, seed, rep, sizes) -> fixture checkpoint or None
    cycle: object       # (ops, dir, fixtures, seed, sizes) -> Cycle
    quality: object     # (ops, cycle dir, fixtures, seed, sizes) -> energy distance of the run's output
    students: object    # cycle dir -> [(label, macs_sparse, macs_dense)]


WORKLOADS = {
    "train-2of4": Workload(no_fixture, train_cycle, train_quality, train_students),
    "sample-2of4": Workload(sample_fixture, sample_cycle, sample_quality, sample_students),
    "sweep-mixed": Workload(sweep_fixture, sweep_cycle, sweep_quality, sweep_students),
}


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def blas_info() -> dict:
    import ctypes
    import glob

    import numpy

    info = dict(numpy.show_config(mode="dicts")["Build Dependencies"].get("blas", {}))
    info = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    libdir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                info["threads"] = fn()
                break
    return info


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(ROOT),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def percentile(sorted_vals: list, p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_vals[max(0, math.ceil(p / 100.0 * len(sorted_vals)) - 1)]


def layer_metrics(tracer, traced: list, untraced: list) -> tuple[dict, dict]:
    """Per-layer metrics per traced cycle, plus the detail behind them."""
    from tracer import CLI_COMMANDS, PREDICTOR_SPAN, SPANS

    spans = tracer.spans
    child = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats: dict = {}
    bank_ns = 0
    for i, (name, start, end, parent, _) in enumerate(spans):
        st = stats.setdefault(name, {"busy": 0, "self": 0, "durs": []})
        st["busy"] += end - start
        st["self"] += end - start - child[i]
        st["durs"].append(end - start)
        if name == "diffusion.ddpm_sample" and parent >= 0 and spans[parent][0] == "trainer.transfer_train":
            bank_ns += end - start
    k = len(traced)
    metrics: dict = {}
    tails: dict = {}
    names = [s[2] for s in SPANS] + [PREDICTOR_SPAN]
    for name in names:
        st = stats.get(name, {"busy": 0, "self": 0, "durs": []})
        durs = sorted(st["durs"])
        metrics[f"{name}.calls"] = (len(durs) / k, "count")
        metrics[f"{name}.busy_s"] = (st["busy"] / k / 1e9, "s")
        metrics[f"{name}.self_s"] = (st["self"] / k / 1e9, "s")
        # a percentile is reported only with at least ten samples beyond it, else 0
        for p in (50, 90) if name in PERCENTILE_SPANS else ():
            ok = len(durs) * (100 - p) / 100 >= 10
            metrics[f"{name}.p{p}_ms"] = (percentile(durs, p) / 1e6 if ok else 0.0, "ms")
        best = next((p for p in (99.9, 99, 90, 50) if len(durs) * (100 - p) / 100 >= 10), None)
        if best is not None:
            tails[name] = {"n": len(durs), "p50_ms": percentile(durs, 50) / 1e6,
                           f"p{best:g}_ms": percentile(durs, best) / 1e6}
    for cmd in CLI_COMMANDS:
        metrics[f"cli.{cmd}.self_s"] = (stats.get(f"cli.{cmd}", {"self": 0})["self"] / k / 1e9, "s")
    counts = tracer.counts
    refreshes = counts["mask_refreshes"]
    metrics["sparsity.project_mask.changed_frac"] = (counts["mask_changes"] / refreshes if refreshes else 0.0, "frac")
    metrics["sparsity.project_mask.groups"] = (counts["sparsity.project_mask.groups"] / k, "count")
    for key in ("macs", "dense_macs", "bytes"):
        metrics[f"sparsity.spmm.{key}"] = (counts[f"sparsity.spmm.{key}"] / k, "bytes" if key == "bytes" else "count")
    for key in ("checkpoint.save_model.bytes", "checkpoint.load_model.bytes"):
        metrics[key] = (counts[key] / k, "bytes")
    sweep_busy = stats.get("evalbench.sweep_ratios", {"busy": 0})["busy"]
    entry_busy = stats.get("evalbench.sweep_entry", {"busy": 0})["busy"]
    metrics["evalbench.sweep_ratios.parallel_eff"] = (entry_busy / sweep_busy if sweep_busy else 0.0, "frac")
    metrics["trainer.transfer_train.bank_s"] = (bank_ns / k / 1e9, "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(c.wall for c in traced) / statistics.median(c.wall for c in untraced) - 1.0, "frac")
    detail = {
        "traced_cycles": k,
        "spans": len(spans),
        "percentiles": tails,
        "spmm_by_shape": dict(tracer.spmm_shapes),
        "mask_refreshes": refreshes,
        "mask_changes": counts["mask_changes"],
        "sweep_threads": len({s[4] for s in spans if s[0] == "evalbench.sweep_entry"}),
        "missing_targets": tracer.missing,
    }
    return metrics, detail


def run(args) -> dict:
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    ops = Ops()
    try:
        return measure(args, WORKLOADS[args.workload], work, ops)
    except CommandFailed:
        return {"correct": False, "attempted": ops.attempted, "failed": ops.failed, "metrics": {},
                "detail": {"errors": ops.errors}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
                "import sparsedm.cli; print(time.perf_counter() - start)")


def fresh_import_s() -> float:
    """Time ``import sparsedm.cli`` in a fresh interpreter, as every CLI run pays it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True,
                          timeout=60, check=True)
    return float(proc.stdout.split()[-1])


def measure(args, wl: Workload, work: Path, ops: Ops) -> dict:
    sz = TOY if args.toy else FULL
    # set-up: the program's import in a fresh interpreter, then a fixture from
    # its own seed derived from the run's, then one toy-size cycle on it so
    # lazy set-up (BLAS threads, imports inside the program) finishes before
    # timing
    setup_times = []
    import_times = []
    fixtures = []
    for rep in range(SETUP_REPS):
        d = work / f"setup-{rep}"
        import_times.append(fresh_import_s())
        start = time.perf_counter()
        fixture = wl.fixture(ops, d, args.seed, rep, sz)
        wl.cycle(ops, d / "warmup", [fixture], args.seed, TOY)
        setup_times.append(import_times[-1] + time.perf_counter() - start)
        fixtures.append(fixture)
    setup_s = statistics.median(setup_times)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    cycles: list[Cycle] = []
    flags: list[bool] = []
    timed_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(cycles) % 2 == 1
        if traced:
            tracer.install()
        try:
            cyc = wl.cycle(ops, work / "cycle", fixtures, args.seed, sz)
        finally:
            if traced:
                tracer.uninstall()
        if cycles:
            ops.check("cycle artifacts byte-identical to the first cycle", cyc.digests == cycles[0].digests)
        cycles.append(cyc)
        flags.append(traced)
        # no cycle starts that would end past --seconds (or the run budget),
        # judged by the last cycle's time, once MIN_CYCLES have run
        now = time.perf_counter()
        if len(cycles) >= MIN_CYCLES and (now - timed_start + cyc.wall > args.seconds
                                          or now - PROCESS_START + cyc.wall > RUN_BUDGET_S):
            break
    timed_s = time.perf_counter() - timed_start

    first = cycles[0]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # untimed and untraced: the quality of what the run produced
    energy_distance = wl.quality(ops, work / "cycle", fixtures, args.seed, sz)
    ops.check("energy distance finite", all_finite([energy_distance]))
    students = wl.students(work / "cycle")
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "sizes": asdict(sz), "env": environment(),
        "import_s": import_times, "setup_reps_s": setup_times, "timed_s": timed_s,
        "cycles": len(cycles), "traced": flags, "cycle_wall_s": [c.wall for c in cycles],
        "per_cycle": {key: [c.times[key] for c in cycles] for key in first.times},
        # the workload's own timings (steps/s, samples/s, entries/min, command
        # seconds) as medians over untraced cycles; reported, not gated
        "timings": {key: statistics.median(c.times[key] for c, f in zip(cycles, flags) if not f)
                    for key in first.times},
        "values": first.values, "energy_distance": energy_distance, "digests": first.digests,
        "fixtures": [{"sha256": sha256(f / "model.ckpt"), **read_report(f.parent / "eval")} for f in fixtures if f],
        "students": [{"label": s[0], "macs_sparse": s[1], "macs_dense": s[2]} for s in students],
        "errors": ops.errors,
    }
    if tracer is None:
        metrics = {"setup_s": (setup_s, "s"),
                   "wall_s": (statistics.median(c.wall for c in cycles), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB"),
                   "energy_distance": (energy_distance, "ed")}
    else:
        traced = [c for c, f in zip(cycles, flags) if f]
        untraced = [c for c, f in zip(cycles, flags) if not f]
        metrics, detail["layers"] = layer_metrics(tracer, traced, untraced)
        metrics["evalbench.macs_count.sparse"] = (sum(s[1] for s in students), "count")
        metrics["evalbench.macs_count.dense"] = (sum(s[2] for s in students), "count")
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    return {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "detail": detail,
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true", help="tiny sizes, for the self-test only")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sparsedm" / "__init__.py").is_file():
        print(f"error: no sparsedm sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import sparsedm.cli

    if Path(sparsedm.cli.__file__).resolve().parent != (SRC / "sparsedm").resolve():
        print(f"error: imported sparsedm from {sparsedm.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result = run(args)
    detail = result.pop("detail")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**result, "detail": detail}, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
