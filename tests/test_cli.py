"""End-to-end CLI coverage: every subcommand, file outputs, exit codes."""
import json

import jsonschema
import numpy as np
import pytest

from sparsedm.checkpoint import CKPT_NAME, META_NAME, file_checksum, load_model, model_checksum
from sparsedm.cli import METRIC_NAME, main
from sparsedm.diffusion import NoisePredictor
from sparsedm.evalbench import BENCH_HEADER, REPORT_SCHEMA, SWEEP_HEADER
from sparsedm.rng import stream
from sparsedm.sparsity import NMPattern, is_transposable


def _read_csv_points(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y"
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """One small train-dense / prune / train-sparse pipeline shared by the module."""
    base = tmp_path_factory.mktemp("cli")
    dense = base / "dense"
    pruned = base / "pruned"
    sparse = base / "sparse"
    assert main([
        "train-dense", "--out", str(dense), "--data", "gauss8", "--steps", "60",
        "--batch-size", "32", "--T", "8", "--hidden", "64,32", "--seed", "1",
    ]) == 0
    teacher_sum = file_checksum(dense / CKPT_NAME)
    assert main([
        "prune", "--out", str(pruned), "--ckpt", str(dense), "--pattern", "2:4",
    ]) == 0
    assert main([
        "train-sparse", "--out", str(sparse), "--student", str(pruned),
        "--teacher", str(dense), "--steps", "24", "--batch-size", "32",
        "--teacher-bank", "64", "--seed", "1",
    ]) == 0
    return {"base": base, "dense": dense, "pruned": pruned, "sparse": sparse,
            "teacher_sum": teacher_sum}


def test_train_dense_outputs(runs):
    dense = runs["dense"]
    for name in ("config.json", CKPT_NAME, META_NAME, "trace.jsonl"):
        assert (dense / name).exists()
    cfg = json.loads((dense / "config.json").read_text())
    assert cfg["command"] == "train-dense"
    assert cfg["steps"] == 60 and cfg["seed"] == 1 and cfg["hidden"] == "64,32"
    records = [json.loads(line) for line in (dense / "trace.jsonl").read_text().splitlines()]
    assert len(records) == 60
    assert records[0]["step"] == 0 and records[-1]["step"] == 59
    meta = json.loads((dense / META_NAME).read_text())
    assert meta["label"] == "dense"
    assert meta["architecture"]["hidden"] == [64, 32]


def test_train_dense_zero_steps_keeps_init(tmp_path):
    out = tmp_path / "zero"
    assert main([
        "train-dense", "--out", str(out), "--steps", "0", "--T", "8",
        "--hidden", "32", "--seed", "5",
    ]) == 0
    loaded, _, _ = load_model(out)
    fresh = NoisePredictor.create(stream(5, "init"), hidden=(32,))
    assert model_checksum(loaded) == model_checksum(fresh)
    assert (out / "trace.jsonl").read_text() == ""


def test_prune_reports_layers(runs, tmp_path, capsys):
    out = tmp_path / "p"
    assert main(["prune", "--out", str(out), "--ckpt", str(runs["dense"]),
                 "--pattern", "2:4"]) == 0
    stdout = capsys.readouterr().out
    assert "fc1: dense (input width 66 not divisible by 4)" in stdout
    assert "fc2: pattern 2:4 sparsity 0.500" in stdout
    assert "fc3: pattern 2:4 sparsity 0.500" in stdout

    model, _, meta = load_model(out)
    assert meta["label"] == "pruned-2:4"
    assert model.layers[0].pattern is None
    for layer in model.layers[1:]:
        assert layer.pattern == NMPattern(2, 4)
        assert float((layer.mask.bits == 0).mean()) == 0.5


def test_prune_leaves_source_checkpoint_alone(runs):
    assert file_checksum(runs["dense"] / CKPT_NAME) == runs["teacher_sum"]


def test_prune_transposable_masks(runs, tmp_path):
    out = tmp_path / "t"
    assert main(["prune", "--out", str(out), "--ckpt", str(runs["dense"]),
                 "--pattern", "2:4", "--transposable"]) == 0
    model, _, _ = load_model(out)
    pat = NMPattern(2, 4)
    checked = 0
    for layer in model.layers:
        if layer.pattern is not None and layer.out_features % 4 == 0:
            assert is_transposable(layer.mask, pat)
            checked += 1
    assert checked >= 1


def test_train_sparse_trace_and_label(runs):
    sparse = runs["sparse"]
    records = [json.loads(line) for line in (sparse / "trace.jsonl").read_text().splitlines()]
    assert len(records) == 24
    for rec in records:
        assert "loss_diff" in rec and "loss_dense" in rec
        assert rec["active_pattern"] == "2:4"
    meta = json.loads((sparse / META_NAME).read_text())
    assert meta["label"] == "transfer"
    model, _, _ = load_model(sparse)
    for layer in model.layers:
        if layer.pattern is not None:
            assert layer.mask.satisfies(NMPattern(2, 4))


def test_train_sparse_ste_baseline_label(runs, tmp_path):
    out = tmp_path / "ste"
    assert main([
        "train-sparse", "--out", str(out), "--student", str(runs["pruned"]),
        "--teacher", str(runs["dense"]), "--steps", "3", "--batch-size", "16",
        "--lambda1", "0", "--lambda2", "1", "--teacher-bank", "16",
    ]) == 0
    assert json.loads((out / META_NAME).read_text())["label"] == "ste-baseline"


def test_train_sparse_progressive_switches(runs, tmp_path):
    out = tmp_path / "prog"
    assert main([
        "train-sparse", "--out", str(out), "--student", str(runs["pruned"]),
        "--teacher", str(runs["dense"]), "--steps", "6", "--batch-size", "16",
        "--teacher-bank", "16", "--progressive", "4:4,2:4", "--switch-every", "3",
    ]) == 0
    records = [json.loads(line) for line in (out / "trace.jsonl").read_text().splitlines()]
    assert [r["active_pattern"] for r in records] == ["4:4"] * 3 + ["2:4"] * 3
    model, _, _ = load_model(out)
    for layer in model.layers:
        if layer.pattern is not None:
            assert layer.mask.satisfies(NMPattern(2, 4))


def test_sample_csv_and_svg(runs, tmp_path):
    out = tmp_path / "s"
    assert main(["sample", "--out", str(out), "--ckpt", str(runs["sparse"]),
                 "--n", "50", "--seed", "2"]) == 0
    pts = _read_csv_points(out / "samples.csv")
    assert pts.shape == (50, 2)
    assert not (out / "samples.svg").exists()

    out2 = tmp_path / "s2"
    assert main(["sample", "--out", str(out2), "--ckpt", str(runs["sparse"]),
                 "--n", "10", "--seed", "2", "--svg"]) == 0
    svg = (out2 / "samples.svg").read_text()
    assert svg.startswith("<svg ") and svg.count("<circle") == 10


def test_sample_compressed_matches_masked(runs, tmp_path):
    plain = tmp_path / "plain"
    comp = tmp_path / "comp"
    for out, extra in ((plain, []), (comp, ["--compressed"])):
        assert main(["sample", "--out", str(out), "--ckpt", str(runs["sparse"]),
                     "--n", "64", "--seed", "3"] + extra) == 0
    a = _read_csv_points(plain / "samples.csv")
    b = _read_csv_points(comp / "samples.csv")
    assert np.abs(a - b).max() <= 1e-4


def test_sample_compressed_needs_24_checkpoint(runs, tmp_path):
    rc = main(["sample", "--out", str(tmp_path / "x"), "--ckpt", str(runs["dense"]),
               "--n", "4", "--compressed"])
    assert rc == 5


def test_eval_report_schema_and_dense_reduction(runs, tmp_path):
    out = tmp_path / "e"
    assert main(["eval", "--out", str(out), "--ckpt", str(runs["dense"]),
                 "--n", "64", "--seed", "0"]) == 0
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert set(report) == {"energy_distance", "macs_dense", "macs_sparse",
                           "reduction", "n", "seed", "metric"}
    assert report["metric"] == METRIC_NAME
    assert report["reduction"] == 0.0
    assert report["macs_sparse"] == report["macs_dense"]
    assert report["n"] == 64


def test_eval_pruned_reduction_positive(runs, tmp_path):
    out = tmp_path / "e2"
    assert main(["eval", "--out", str(out), "--ckpt", str(runs["pruned"]),
                 "--n", "64"]) == 0
    report = json.loads((out / "report.json").read_text())
    jsonschema.validate(report, REPORT_SCHEMA)
    assert 0.0 < report["reduction"] < 0.5
    assert report["macs_sparse"] < report["macs_dense"]


def test_sweep_csv(runs, tmp_path):
    out = tmp_path / "sw"
    assert main([
        "sweep", "--out", str(out), "--ckpt", str(runs["dense"]),
        "--patterns", "2:4,1:4", "--steps", "4", "--batch-size", "32",
        "--teacher-bank", "64", "--n-eval", "64",
    ]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("2:4,0.5,")
    assert lines[2].startswith("1:4,0.75,")


def test_bench_csv(tmp_path):
    out = tmp_path / "b"
    assert main(["bench", "--out", str(out), "--sizes", "32x32x4", "--reps", "1"]) == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == BENCH_HEADER
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[:4] == ["32", "32", "4", "1"]
    assert fields[6] == "0.5"


def test_rerun_is_byte_identical(runs, tmp_path):
    outputs = (CKPT_NAME, META_NAME, "trace.jsonl", "config.json")
    again = tmp_path / "again"
    assert main([
        "train-dense", "--out", str(again), "--data", "gauss8", "--steps", "60",
        "--batch-size", "32", "--T", "8", "--hidden", "64,32", "--seed", "1",
    ]) == 0
    dense = runs["dense"]
    for name in outputs:
        assert (again / name).read_bytes() == (dense / name).read_bytes()

    # the fixture's sparse run, then a progressive run with frozen masks, twice
    sparse_again = tmp_path / "sparse-again"
    assert main([
        "train-sparse", "--out", str(sparse_again), "--student", str(runs["pruned"]),
        "--teacher", str(dense), "--steps", "24", "--batch-size", "32",
        "--teacher-bank", "64", "--seed", "1",
    ]) == 0
    for name in outputs:
        assert (sparse_again / name).read_bytes() == (runs["sparse"] / name).read_bytes()
    p1, p2 = tmp_path / "p1", tmp_path / "p2"
    for out in (p1, p2):
        assert main([
            "train-sparse", "--out", str(out), "--student", str(runs["pruned"]),
            "--teacher", str(dense), "--steps", "20", "--batch-size", "16", "--teacher-bank", "32",
            "--progressive", "4:4,2:4", "--switch-every", "8", "--freeze-masks",
        ]) == 0
    for name in outputs:
        assert (p1 / name).read_bytes() == (p2 / name).read_bytes()

    e1, e2 = tmp_path / "e1", tmp_path / "e2"
    for out in (e1, e2):
        assert main(["eval", "--out", str(out), "--ckpt", str(dense), "--n", "32"]) == 0
    assert (e1 / "report.json").read_bytes() == (e2 / "report.json").read_bytes()


def test_config_file_layering(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"steps": 3, "lr": 0.1, "T": 8, "hidden": "32"}))
    out = tmp_path / "run"
    assert main(["train-dense", "--out", str(out), "--config", str(cfg),
                 "--steps", "5"]) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert echoed["steps"] == 5        # flag beats file
    assert echoed["lr"] == 0.1         # file beats default
    assert echoed["data"] == "gauss8"  # untouched default


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stepz": 3}))
    rc = main(["train-dense", "--out", str(tmp_path / "x"), "--config", str(cfg)])
    assert rc == 2


def test_unwritable_out_dir(tmp_path):
    blocker = tmp_path / "file.txt"
    blocker.write_text("")
    rc = main(["train-dense", "--out", str(blocker / "out"), "--steps", "0",
               "--T", "8", "--hidden", "32"])
    assert rc == 2


def test_architecture_mismatch_exit_code(runs, tmp_path):
    other = tmp_path / "other"
    assert main(["train-dense", "--out", str(other), "--steps", "0", "--T", "8",
                 "--hidden", "32"]) == 0
    rc = main([
        "train-sparse", "--out", str(tmp_path / "x"), "--student", str(runs["pruned"]),
        "--teacher", str(other), "--steps", "2", "--teacher-bank", "16",
    ])
    assert rc == 4


@pytest.mark.parametrize("pattern", ["5:4", "0:4", "abc", "1:4:2"])
def test_bad_pattern_exit_code(runs, tmp_path, pattern):
    rc = main(["prune", "--out", str(tmp_path / "x"), "--ckpt", str(runs["dense"]),
               "--pattern", pattern])
    assert rc == 3


def test_missing_checkpoint_exit_code(tmp_path):
    rc = main(["prune", "--out", str(tmp_path / "x"), "--ckpt", str(tmp_path / "none")])
    assert rc == 2


def test_dense_student_needs_pattern(runs, tmp_path):
    rc = main([
        "train-sparse", "--out", str(tmp_path / "x"), "--student", str(runs["dense"]),
        "--teacher", str(runs["dense"]), "--steps", "2", "--teacher-bank", "16",
    ])
    assert rc == 2


def test_train_sparse_pattern_fitting_no_layer_exits_3(runs, tmp_path, capsys):
    # group size 5 divides none of the input widths 66, 64 and 32
    capsys.readouterr()
    rc = main([
        "train-sparse", "--out", str(tmp_path / "x"), "--student", str(runs["pruned"]),
        "--teacher", str(runs["dense"]), "--steps", "2", "--teacher-bank", "16", "--pattern", "1:5",
    ])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "x" / CKPT_NAME).exists()


def test_sample_rejects_bad_count(runs, tmp_path):
    rc = main(["sample", "--out", str(tmp_path / "x"), "--ckpt", str(runs["dense"]),
               "--n", "0"])
    assert rc == 2


@pytest.mark.parametrize("cmd,values", [
    ("train-dense", {"lr": "0.1"}),
    ("train-dense", {"T": 2.5}),
    ("train-dense", {"steps": "3"}),
    ("train-dense", {"steps": True}),
    ("train-dense", {"data": "spiral"}),
    ("sample", {"n": "5"}),
    ("sample", {"svg": "no"}),
    ("prune", {"transposable": "false"}),
], ids=lambda v: json.dumps(v, separators=(",", ":")) if isinstance(v, dict) else v)
def test_mistyped_config_value_exits_2(runs, tmp_path, capsys, cmd, values):
    (key,) = values
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    argv = [cmd, "--out", str(tmp_path / "x"), "--config", str(cfg)]
    if cmd != "train-dense":
        argv += ["--ckpt", str(runs["dense"])]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert "Traceback" not in err
    assert not (tmp_path / "x" / "config.json").exists()


def test_config_int_accepted_for_float(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lr": 1, "steps": 2, "T": 8, "hidden": "32", "batch_size": 8}))
    out = tmp_path / "run"
    assert main(["train-dense", "--out", str(out), "--config", str(cfg)]) == 0
    assert json.loads((out / "config.json").read_text())["lr"] == 1


@pytest.mark.parametrize("keep", [0, 3, 9, 40, -200, -1])
def test_truncated_checkpoint_exits_2(runs, tmp_path, capsys, keep):
    bad = tmp_path / "bad"
    bad.mkdir()
    data = (runs["sparse"] / CKPT_NAME).read_bytes()
    (bad / CKPT_NAME).write_bytes(data[:keep] if keep else b"")
    (bad / META_NAME).write_bytes((runs["sparse"] / META_NAME).read_bytes())
    capsys.readouterr()
    assert main(["sample", "--out", str(tmp_path / "s"), "--ckpt", str(bad), "--n", "4"]) == 2
    assert "checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["trailing", "name", "sidecar", "list", "no-temb"])
def test_corrupt_checkpoint_exits_2(runs, tmp_path, capsys, damage):
    bad = tmp_path / "bad"
    bad.mkdir()
    ckpt = (runs["sparse"] / CKPT_NAME).read_bytes()
    meta = (runs["sparse"] / META_NAME).read_text()
    if damage == "trailing":
        ckpt += b"\0"
    elif damage == "name":
        ckpt = ckpt[:12] + b"\xff" + ckpt[13:]  # first byte of the first entry name
    elif damage == "sidecar":
        meta = meta[: len(meta) // 2]
    elif damage == "list":
        meta = "[]"
    else:
        doc = json.loads(meta)
        del doc["architecture"]["temb_dim"]
        meta = json.dumps(doc)
    (bad / CKPT_NAME).write_bytes(ckpt)
    (bad / META_NAME).write_text(meta)
    capsys.readouterr()
    assert main(["sample", "--out", str(tmp_path / "s"), "--ckpt", str(bad), "--n", "4"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
