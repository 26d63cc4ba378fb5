"""Fast self-test of the benchmark: every workload at toy size, traced and untraced.

Run from the repository root:

    python3 perfbench/selftest.py

It checks that each run's last stdout line is a valid result (JSON schema
below) naming exactly the metrics ``BENCHMARK.json`` declares for that mode,
with no end-to-end metric 0, that zero-call layers match the predictions in
README.md, that a traced run writes the same artifact bytes as an untraced
one, and that the benchmark refuses to run without the program's sources.
Exits 0 when all pass.
"""
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import jsonschema

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 180
SEED = 3

RESULT_SCHEMA = {
    "type": "object",
    "required": ["correct", "attempted", "failed", "metrics"],
    "additionalProperties": False,
    "properties": {
        "correct": {"type": "boolean"},
        "attempted": {"type": "integer", "minimum": 1},
        "failed": {"type": "integer", "minimum": 0},
        "metrics": {
            "type": "object",
            "minProperties": 1,
            "propertyNames": {"pattern": "^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$"},
            "additionalProperties": {
                "type": "object",
                "required": ["value", "unit"],
                "additionalProperties": False,
                "properties": {
                    "value": {"type": "number"},
                    "unit": {"type": "string", "pattern": "^[A-Za-z0-9_/%.-]{1,16}$"},
                },
            },
        },
    },
}

# layers predicted to do no work on a workload, and ones predicted to do some
ZERO_CALLS = {
    "train-2of4": ("sparsity.spmm", "sparsity.compress_2_4"),
    "sample-2of4": ("tensor.backward", "sparsity.project_mask"),
    "sweep-mixed": ("sparsity.spmm", "sparsity.compress_2_4"),
}
SOME_CALLS = {
    "train-2of4": ("tensor.backward", "sparsity.project_mask", "tensor.silu", "trainer.ste_update"),
    "sample-2of4": ("sparsity.spmm", "sparsity.compress_2_4", "tensor.silu", "diffusion.predictor_fwd"),
    "sweep-mixed": ("tensor.backward", "sparsity.project_mask", "evalbench.sweep_entry"),
}


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_run(workload: str, trace: int) -> dict:
    proc = bench(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    jsonschema.validate(result, RESULT_SCHEMA)
    assert result["correct"] and result["failed"] == 0, result
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if trace:
        assert set(got) == set(declared), sorted(set(got) ^ set(declared))
        for layer in ZERO_CALLS[workload]:
            assert got[f"{layer}.calls"]["value"] == 0, (workload, layer)
        for layer in SOME_CALLS[workload]:
            assert got[f"{layer}.calls"]["value"] > 0, (workload, layer)
    else:
        assert set(got) == set(declared), sorted(set(got) ^ set(declared))
        assert all(got[name]["value"] != 0 for name in got), got
    for name, metric in got.items():
        assert metric["unit"] == declared[name], (name, metric["unit"], declared[name])
    return json.loads(lines[-2])["detail"]


def check_refuses_without_sources() -> None:
    """With only BENCHMARK.json and the benchmark's own files, exit non-zero and print no result."""
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=ROOT / ".perfbench"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in SPEC["paths"]:
            shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "train-2of4", 0)
        assert proc.returncode != 0, proc.stdout
        assert '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(names) == set(ZERO_CALLS), names
    for workload in names:
        untraced = check_run(workload, 0)
        traced = check_run(workload, 1)
        assert traced["digests"] == untraced["digests"], f"{workload}: tracing changed output bytes"
        print(f"ok {workload}: result valid, zero-call layers as predicted, traced digests equal")
    check_refuses_without_sources()
    print("ok refuses to run without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
