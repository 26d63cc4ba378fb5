"""The driver scripts run end to end on a tiny budget, the byte-identity chain repeats itself, the
benchmark trajectory reads every committed file, the benchmark's tracer finds its hooks, a fresh CLI
process imports scipy only for compressed sampling, keeps its freed heap mapped, and its samples and
transfer training do not depend on how many CPUs it may use."""
import ctypes
import hashlib
import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from sparsedm import sparsity
from sparsedm.cli import main  # imports every module the tracer hooks

ROOT = Path(__file__).resolve().parents[1]


def _run_python(args, cwd):
    """Run a fresh interpreter with src/ importable; it must exit 0."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _run_script(name, args, cwd):
    _run_python([str(ROOT / "scripts" / name), *args], cwd)


def test_sweep_and_pipeline_scripts(tmp_path):
    _run_script("run_sweep.py", ["--out", str(tmp_path / "sweep"), "--dense-steps", "2", "--steps", "2",
                                 "--patterns", "2:4"], tmp_path)
    assert (tmp_path / "sweep" / "sweep.svg").read_text().startswith("<svg")
    _run_script("run_pipeline.py", ["--out", str(tmp_path / "pipe"), "--dense-steps", "2",
                                    "--transfer-steps", "2", "--n-eval", "16"], tmp_path)
    for name in ("dense", "sparse"):
        assert (tmp_path / "pipe" / f"eval-{name}" / "report.json").exists()


def test_chain_digests_cover_every_file_and_repeat(tmp_path):
    """The byte-identity chain lists each file it wrote once, sorted, a second run prints the same digests,
    and under the environment key tests/chain_digests.txt was recorded with, the first run prints that file."""
    first, second = (_run_python([str(ROOT / "scripts" / "chain_digests.py"), str(tmp_path / d)], tmp_path)
                     for d in ("a", "b"))
    assert first == second
    key, *lines = first.splitlines()
    paths = [line.split("  ", 1)[1] for line in lines]
    written = sorted(p.relative_to(tmp_path / "a").as_posix() for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert paths == written and len(paths) >= 42
    assert {"stdout/sweep.txt", "sample/samples.svg", "sample-compressed/samples.csv", "eval/report.json"} <= set(paths)
    recorded_key, *recorded = (ROOT / "tests" / "chain_digests.txt").read_text().splitlines()
    if key != recorded_key:
        pytest.skip(f"digests recorded under another environment key: {recorded_key!r}, here {key!r}")
    moved = sorted({line.split("  ", 1)[1] for line in set(lines) ^ set(recorded)})
    assert not moved, f"output bytes differ from tests/chain_digests.txt in {moved}"


def test_silu_bits_script_finds_no_mismatch(tmp_path):
    """Every 4099th float32 bit pattern, about a million, gives the same bytes from both SiLU forms."""
    out = _run_python([str(ROOT / "scripts" / "silu_bits.py"), "4099"], tmp_path).splitlines()
    assert out[0].startswith("# python ")
    assert out[1] == "1047809 float32 bit patterns (stride 4099): 0 mismatches"


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
_NUMBER, _COUNT = {"type": "number"}, {"type": "integer", "minimum": 0}
_QUARTILES = {"type": "array", "items": _NUMBER, "minItems": 3, "maxItems": 3}
_RUN = {
    "type": "object",
    "required": ["seed", "first", "result", "detail"],
    "properties": {
        "seed": {"type": "integer"},
        "first": {"enum": ["parent", "change"]},
        "result": {
            "type": "object",
            "required": ["correct", "attempted", "failed", "metrics"],
            "properties": {
                "correct": {"type": "boolean"},
                "attempted": _COUNT,
                "failed": _COUNT,
                "metrics": {
                    "type": "object",
                    "required": END_TO_END,
                    "additionalProperties": {"type": "object", "required": ["value", "unit"],
                                             "properties": {"value": _NUMBER, "unit": {"type": "string"}}},
                },
            },
        },
        "detail": {"type": "object"},
    },
}
# the one shape of BENCH_<n>.json from n = 21 on: per workload, a summary of every end-to-end metric
# over alternating parent/change pairs, and every run of both sides
BENCH_SCHEMA = {
    "type": "object",
    "required": ["about", "command", "machine", "workloads"],
    "properties": {
        "about": {"type": "string"},
        "command": {"type": "string"},
        "machine": {"type": "object"},
        "workloads": {
            "type": "object",
            "required": WORKLOADS,
            "additionalProperties": {
                "type": "object",
                "required": ["summary", "runs"],
                "additionalProperties": False,
                "properties": {
                    "summary": {
                        "type": "object",
                        "required": END_TO_END,
                        "additionalProperties": {
                            "type": "object",
                            "required": ["pairs", "parent_median", "change_median", "parent_quartiles",
                                         "change_quartiles", "parent_iqr", "change_lower_in", "equal_in"],
                            "additionalProperties": False,
                            "properties": {
                                "pairs": _COUNT, "parent_median": _NUMBER, "change_median": _NUMBER,
                                "parent_quartiles": _QUARTILES, "change_quartiles": _QUARTILES,
                                "parent_iqr": _NUMBER, "change_lower_in": _COUNT, "equal_in": _COUNT,
                            },
                        },
                    },
                    "runs": {
                        "type": "object",
                        "required": ["parent", "change"],
                        "additionalProperties": False,
                        "properties": {side: {"type": "array", "items": _RUN, "minItems": 5}
                                       for side in ("parent", "change")},
                    },
                },
            },
        },
    },
}


def test_bench_trajectory_reads_every_committed_file():
    """A row per committed BENCH_<n>.json, workload and end-to-end metric, in either summary shape;
    every file from n = 21 on has the one checked shape, and its medians are those of its runs."""
    number = {p: int(p.stem.removeprefix("BENCH_")) for p in ROOT.glob("BENCH_*.json")}
    files = sorted(number, key=number.get)
    out = _run_python([str(ROOT / "scripts" / "bench_trajectory.py")], ROOT).splitlines()
    assert out[0].split("\t") == ["file", "workload", "metric", "parent_median", "change_median"]
    rows = [line.split("\t") for line in out[1:]]
    assert len(rows) == len(files) * len(WORKLOADS) * len(END_TO_END) == len({tuple(r[:3]) for r in rows})
    assert {tuple(r[:3]) for r in rows} == {(p.name, w, m) for p in files for w in WORKLOADS for m in END_TO_END}
    assert all(float(r[3]) >= 0 and float(r[4]) >= 0 for r in rows)
    checked = [p for p in files if number[p] >= 21]
    assert checked
    for path in checked:
        bench = json.loads(path.read_text())
        jsonschema.validate(bench, BENCH_SCHEMA)
        for workload in bench["workloads"].values():
            runs = workload["runs"]
            assert len(runs["parent"]) == len(runs["change"])
            for metric, summary in workload["summary"].items():
                values = {side: [r["result"]["metrics"][metric]["value"] for r in runs[side]] for side in runs}
                assert summary["pairs"] == len(values["parent"])
                assert summary["parent_median"] == statistics.median(values["parent"])
                assert summary["change_median"] == statistics.median(values["change"])


def test_benchmark_tracer_finds_its_hooks(tmp_path):
    """A rename in src/ must not silently drop the benchmark's per-layer rows or its selftest's calls."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_mod)
    assert main(["train-dense", "--out", str(tmp_path / "d"), "--steps", "0", "--T", "4", "--hidden", "32"]) == 0
    assert main(["prune", "--out", str(tmp_path / "p"), "--ckpt", str(tmp_path / "d")]) == 0
    original = sparsity.project_mask
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        assert sparsity.project_mask is not original
        # these two hooks name functions an earlier training loop had
        assert set(tracer.missing) <= {"trainer.train_dense", "trainer._refresh_masks"}
        # the spmm counters read Compressed24.rows and .cols
        assert main(["sample", "--out", str(tmp_path / "s"), "--ckpt", str(tmp_path / "p"),
                     "--n", "4", "--compressed"]) == 0
        # the projection counter reads the weight's .data.size, so project_mask must get a Tensor
        assert main(["prune", "--out", str(tmp_path / "p2"), "--ckpt", str(tmp_path / "d")]) == 0
    finally:
        tracer.uninstall()
    assert sparsity.project_mask is original
    macs = tracer.counts["sparsity.spmm.macs"]
    assert macs > 0 and 2 * macs == tracer.counts["sparsity.spmm.dense_macs"]
    # fc2 (32 -> 2) is the one layer 2:4 fits: 2 rows of 32 inputs make 16 groups
    assert tracer.counts["sparsity.project_mask.groups"] == 16


# runs in a fresh interpreter, because this one already has scipy loaded
COLD_CLI = """
import sys
from sparsedm.cli import main

def run(*argv):
    assert main(list(argv)) == 0, argv

run("train-dense", "--out", "d", "--steps", "2", "--batch-size", "8", "--T", "4", "--hidden", "32")
run("prune", "--out", "p", "--ckpt", "d")
run("train-sparse", "--out", "s", "--student", "p", "--teacher", "d", "--steps", "2", "--batch-size", "8",
    "--teacher-bank", "16")
run("eval", "--out", "e", "--ckpt", "s", "--n", "16")
run("sweep", "--out", "w", "--ckpt", "d", "--patterns", "2:4,1:4", "--steps", "2", "--batch-size", "8",
    "--teacher-bank", "16", "--n-eval", "16")
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, f"training, eval or sweep loaded {loaded[:5]}"
run("sample", "--out", "c", "--ckpt", "s", "--n", "8", "--compressed")
assert "scipy.sparse" in sys.modules and "scipy.spatial" not in sys.modules
"""


def test_only_compressed_sampling_imports_scipy(tmp_path):
    """Training, eval and sweep start and finish without scipy; sample --compressed loads scipy.sparse alone."""
    _run_python(["-c", COLD_CLI], tmp_path)
    for out in ("c/samples.csv", "e/report.json", "w/sweep.csv"):
        assert (tmp_path / out).exists()


# prints the minor page faults of each of three identical sampling calls
REPEATED_SAMPLE = """
import resource
from sparsedm.cli import main

assert main(["train-dense", "--out", "d", "--steps", "0", "--T", "10"]) == 0
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(["sample", "--out", "s", "--ckpt", "d", "--n", "2000"]) == 0
    print("faults", resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="needs a libc with mallopt")
def test_cli_keeps_freed_heap_mapped(tmp_path):
    """A CLI process keeps the pages a sampling call frees, so the next identical call faults few in."""
    out = _run_python(["-c", REPEATED_SAMPLE], tmp_path)
    faults = [int(line.split()[1]) for line in out.splitlines() if line.startswith("faults ")]
    # the first call grows the heap; without fixed thresholds each later call takes about 20K faults
    assert len(faults) == 3 and max(faults[1:]) < 2000, faults


# pins this process to one CPU when asked, then samples 1024 rows
PINNED_SAMPLE = """
import os, sys
from sparsedm.cli import main

out, pin = sys.argv[1], sys.argv[2] == "pin"
if pin:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
assert len(os.sched_getaffinity(0)) == 1 or not pin
assert main(["sample", "--out", out, "--ckpt", "d", "--n", "1024"]) == 0
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_samples_do_not_depend_on_cpu_count(tmp_path):
    """One CPU samples in one chunk, several in several; samples.csv is the same file either way."""
    assert main(["train-dense", "--out", str(tmp_path / "d"), "--steps", "4", "--batch-size", "8",
                 "--T", "6", "--hidden", "32"]) == 0
    _run_python(["-c", PINNED_SAMPLE, "one", "pin"], tmp_path)
    _run_python(["-c", PINNED_SAMPLE, "all", "free"], tmp_path)
    one, every = (hashlib.sha256((tmp_path / d / "samples.csv").read_bytes()).hexdigest() for d in ("one", "all"))
    assert one == every


# pins this process to one CPU when asked, then transfer-trains long enough for two CPUs to start the
# worker; "crowd" pins it but reports two CPUs, so the worker and this process share one core
PINNED_TRAIN = """
import os, sys
from sparsedm.cli import main

out, mode = sys.argv[1], sys.argv[2]
if mode != "free":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
assert len(os.sched_getaffinity(0)) == 1 or mode == "free"
if mode == "crowd":
    os.sched_getaffinity = lambda pid: {0, 1}
assert main(["train-sparse", "--out", out, "--student", "p", "--teacher", "d", "--steps", "24",
             "--batch-size", "16", "--teacher-bank", "64"]) == 0
"""


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable CPUs")
def test_transfer_training_does_not_depend_on_cpu_count(tmp_path):
    """One CPU runs the distillation branch in-process, several in a forked worker; the files are the same."""
    assert main(["train-dense", "--out", str(tmp_path / "d"), "--steps", "4", "--batch-size", "8",
                 "--T", "6", "--hidden", "32"]) == 0
    assert main(["prune", "--out", str(tmp_path / "p"), "--ckpt", str(tmp_path / "d"), "--pattern", "2:4"]) == 0
    for mode in ("pin", "free", "crowd"):
        _run_python(["-c", PINNED_TRAIN, mode, mode], tmp_path)
    for name in ("model.ckpt", "trace.jsonl"):
        digests = {hashlib.sha256((tmp_path / d / name).read_bytes()).hexdigest() for d in ("pin", "free", "crowd")}
        assert len(digests) == 1, name
